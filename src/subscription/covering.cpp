#include "subscription/covering.h"

#include <algorithm>
#include <limits>

namespace ncps {

namespace {

bool is_string(const Value& v) { return v.type() == ValueType::String; }

/// Interval view of a numeric predicate: the set of attribute values it
/// accepts, as [lo, hi] with optional open ends. Complement-shaped
/// predicates (Ne, NotBetween) are handled separately.
struct Interval {
  double lo;
  double hi;
  bool lo_open;
  bool hi_open;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

bool numeric_interval(const Predicate& p, Interval& out) {
  if (!p.lo.is_numeric()) return false;
  switch (p.op) {
    case Operator::Eq:
      out = {p.lo.numeric(), p.lo.numeric(), false, false};
      return true;
    case Operator::Lt:
      out = {-kInf, p.lo.numeric(), true, true};
      return true;
    case Operator::Le:
      out = {-kInf, p.lo.numeric(), true, false};
      return true;
    case Operator::Gt:
      out = {p.lo.numeric(), kInf, true, true};
      return true;
    case Operator::Ge:
      out = {p.lo.numeric(), kInf, false, true};
      return true;
    case Operator::Between:
      if (!p.hi.is_numeric()) return false;
      out = {p.lo.numeric(), p.hi.numeric(), false, false};
      return true;
    default:
      return false;
  }
}

/// [a] ⊆ [b]?
bool interval_subset(const Interval& a, const Interval& b) {
  const bool lo_ok =
      a.lo > b.lo || (a.lo == b.lo && (b.lo_open ? a.lo_open : true));
  const bool hi_ok =
      a.hi < b.hi || (a.hi == b.hi && (b.hi_open ? a.hi_open : true));
  return lo_ok && hi_ok;
}

bool numeric_implies(const Predicate& a, const Predicate& b) {
  Interval ia{};
  if (!numeric_interval(a, ia)) {
    // a is Ne or NotBetween: its accepted set is unbounded on both sides, so
    // only equally-shaped exclusions can contain it.
    if (a.op == Operator::Ne && a.lo.is_numeric()) {
      if (b.op == Operator::Ne) return b.lo.is_numeric() && a.lo == b.lo;
      if (b.op == Operator::NotBetween) {
        // excluded [b.lo, b.hi] must be inside a's single excluded point.
        return b.lo.is_numeric() && b.hi.is_numeric() &&
               b.lo.numeric() == a.lo.numeric() &&
               b.hi.numeric() == a.lo.numeric();
      }
      return false;
    }
    if (a.op == Operator::NotBetween && a.lo.is_numeric() &&
        a.hi.is_numeric()) {
      if (b.op == Operator::Ne) {
        return b.lo.is_numeric() && b.lo.numeric() >= a.lo.numeric() &&
               b.lo.numeric() <= a.hi.numeric();
      }
      if (b.op == Operator::NotBetween) {
        return b.lo.is_numeric() && b.hi.is_numeric() &&
               b.lo.numeric() >= a.lo.numeric() &&
               b.hi.numeric() <= a.hi.numeric();
      }
      return false;
    }
    return false;
  }

  // a is an interval. Exclusion-shaped b: the interval must avoid the
  // excluded region entirely.
  if (b.op == Operator::Ne || b.op == Operator::NotBetween) {
    if (b.op == Operator::Ne && b.lo.is_numeric()) {
      const double v = b.lo.numeric();
      // v inside [ia]? then some accepted value equals v.
      const bool inside = (v > ia.lo || (v == ia.lo && !ia.lo_open)) &&
                          (v < ia.hi || (v == ia.hi && !ia.hi_open));
      return !inside;
    }
    if (b.op == Operator::NotBetween && b.lo.is_numeric() &&
        b.hi.is_numeric()) {
      // [ia] must be fully left or fully right of [b.lo, b.hi].
      const bool left = ia.hi < b.lo.numeric() ||
                        (ia.hi == b.lo.numeric() && ia.hi_open);
      const bool right = ia.lo > b.hi.numeric() ||
                         (ia.lo == b.hi.numeric() && ia.lo_open);
      return left || right;
    }
    return false;
  }

  Interval ib{};
  if (!numeric_interval(b, ib)) return false;
  return interval_subset(ia, ib);
}

bool contains_substring(const std::string& haystack,
                        const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

bool string_implies(const Predicate& a, const Predicate& b) {
  const std::string& sa = a.lo.as_string();
  switch (a.op) {
    case Operator::Prefix:
      switch (b.op) {
        case Operator::Prefix:
          return is_string(b.lo) && sa.starts_with(b.lo.as_string());
        case Operator::Contains:
          return is_string(b.lo) && contains_substring(sa, b.lo.as_string());
        case Operator::Ne:
          // s starts with sa; s == b.lo is possible only if b.lo does too.
          return !is_string(b.lo) || !b.lo.as_string().starts_with(sa);
        default:
          return false;
      }
    case Operator::Suffix:
      switch (b.op) {
        case Operator::Suffix:
          return is_string(b.lo) && sa.ends_with(b.lo.as_string());
        case Operator::Contains:
          return is_string(b.lo) && contains_substring(sa, b.lo.as_string());
        case Operator::Ne:
          return !is_string(b.lo) || !b.lo.as_string().ends_with(sa);
        default:
          return false;
      }
    case Operator::Contains:
      switch (b.op) {
        case Operator::Contains:
          return is_string(b.lo) && contains_substring(sa, b.lo.as_string());
        case Operator::Ne:
          return !is_string(b.lo) || !contains_substring(b.lo.as_string(), sa);
        default:
          return false;
      }
    default:
      return false;
  }
}

}  // namespace

bool predicate_implies(const Predicate& a, const Predicate& b) {
  if (a.attribute != b.attribute) return false;
  if (a == b) return true;

  // Presence/absence first: they are the only operators whose truth depends
  // on the attribute being absent.
  if (a.op == Operator::NotExists) return b.op == Operator::NotExists;
  if (b.op == Operator::NotExists) return false;
  // Every other operator matches only present attributes, so b == Exists is
  // implied by any of them.
  if (b.op == Operator::Exists) return true;
  if (a.op == Operator::Exists) return false;  // presence alone proves nothing

  // Point predicates: just evaluate b on the single accepted value.
  if (a.op == Operator::Eq) {
    return eval_operator(b.op, a.lo, b.lo, b.hi);
  }

  if (a.lo.is_numeric() || a.op == Operator::NotBetween) {
    return numeric_implies(a, b);
  }
  if (is_string(a.lo)) {
    return string_implies(a, b);
  }
  return false;
}

bool covers(const ast::Node& covering, const ast::Node& covered,
            PredicateTable& table, const DnfOptions& options) {
  Dnf cover_dnf;
  Dnf sub_dnf;
  ast::Expr cover_nnf;
  ast::Expr sub_nnf;
  try {
    cover_dnf = canonicalize(covering, table, cover_nnf, options);
    sub_dnf = canonicalize(covered, table, sub_nnf, options);
  } catch (const DnfExplosionError&) {
    return false;  // cannot prove within budget — conservative answer
  }

  // Disjunct c covers disjunct d when every literal of c is implied by some
  // literal of d (then sat(d) ⊆ sat(c)).
  const auto disjunct_covers = [&](const Disjunct& c, const Disjunct& d) {
    return std::all_of(c.begin(), c.end(), [&](PredicateId lc) {
      const Predicate& pc = table.get(lc);
      return std::any_of(d.begin(), d.end(), [&](PredicateId ld) {
        return predicate_implies(table.get(ld), pc);
      });
    });
  };

  return std::all_of(
      sub_dnf.disjuncts.begin(), sub_dnf.disjuncts.end(),
      [&](const Disjunct& d) {
        return std::any_of(cover_dnf.disjuncts.begin(),
                           cover_dnf.disjuncts.end(),
                           [&](const Disjunct& c) {
                             return disjunct_covers(c, d);
                           });
      });
}

}  // namespace ncps
