#include "index/attribute_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/contracts.h"

namespace ncps {

namespace {

/// Which structure a predicate belongs to.
enum class Slot { Eq, Range, Between, Prefix, Exists, Scan };

Slot classify(const Predicate& p) {
  switch (p.op) {
    case Operator::Eq:
      return Slot::Eq;
    case Operator::Lt:
    case Operator::Le:
    case Operator::Gt:
    case Operator::Ge:
      return p.lo.is_numeric() ? Slot::Range : Slot::Scan;
    case Operator::Between:
      return p.lo.is_numeric() && p.hi.is_numeric() ? Slot::Between
                                                    : Slot::Scan;
    case Operator::Prefix:
      return p.lo.type() == ValueType::String ? Slot::Prefix : Slot::Scan;
    case Operator::Exists:
      return Slot::Exists;
    default:
      return Slot::Scan;  // Ne, NotBetween, Suffix, Contains, negatives, ...
  }
}

/// The width class of [lo, hi]: the least power of two above the width, 0
/// for a point interval, inf when the width overflows (or is NaN) — that
/// class is stabbed from its first key.
double reach_of(double lo, double hi) {
  const double width = hi - lo;
  if (width == 0) return 0.0;
  if (!std::isfinite(width)) return std::numeric_limits<double>::infinity();
  int exponent = 0;
  std::frexp(width, &exponent);  // |width| < 2^exponent
  return std::ldexp(1.0, exponent);
}

/// Orders `between_` by reach, for std::lower_bound.
constexpr auto kByReach = [](const auto& cls, double reach) {
  return cls.reach < reach;
};

}  // namespace

AttributeIndex::RangeTree& AttributeIndex::range_tree(Operator op) {
  switch (op) {
    case Operator::Lt: return lt_;
    case Operator::Le: return le_;
    case Operator::Gt: return gt_;
    default:
      NCPS_DASSERT(op == Operator::Ge);
      return ge_;
  }
}

void AttributeIndex::add(PredicateId id, const Predicate& p) {
  switch (classify(p)) {
    case Slot::Eq:
      eq_.add(p.lo, id);
      ++indexed_count_;
      return;
    case Slot::Range:
      // A NaN bound has no place in the order: it would sit beside some
      // real bound and be emitted with it, though it fulfils nothing.
      NCPS_EXPECTS(!std::isnan(p.lo.numeric()));
      range_tree(p.op).try_emplace(RangeKey{p.lo.numeric(), id.value()}, id);
      ++indexed_count_;
      return;
    case Slot::Between: {
      NCPS_EXPECTS(!std::isnan(p.lo.numeric()) && !std::isnan(p.hi.numeric()));
      const double reach = reach_of(p.lo.numeric(), p.hi.numeric());
      auto cls =
          std::lower_bound(between_.begin(), between_.end(), reach, kByReach);
      if (cls == between_.end() || cls->reach != reach) {
        cls = between_.insert(cls, WidthClass{reach, {}});
      }
      cls->by_lo.try_emplace(p.lo.numeric()).first->insert(p.hi.numeric(), id);
      ++indexed_count_;
      return;
    }
    case Slot::Prefix:
      prefix_.add(p.lo, id);
      ++indexed_count_;
      return;
    case Slot::Exists:
      exists_.add(id.value());
      ++indexed_count_;
      return;
    case Slot::Scan:
      scan_.add(id.value());
      return;
  }
}

bool AttributeIndex::remove(PredicateId id, const Predicate& p) {
  switch (classify(p)) {
    case Slot::Eq:
      if (!eq_.remove(p.lo, id)) return false;
      --indexed_count_;
      return true;
    case Slot::Range:
      if (!range_tree(p.op).erase(RangeKey{p.lo.numeric(), id.value()})) {
        return false;
      }
      --indexed_count_;
      return true;
    case Slot::Between: {
      const double reach = reach_of(p.lo.numeric(), p.hi.numeric());
      const auto cls =
          std::lower_bound(between_.begin(), between_.end(), reach, kByReach);
      if (cls == between_.end() || cls->reach != reach) return false;
      IntervalRun* run = cls->by_lo.find(p.lo.numeric());
      if (run == nullptr || !run->erase(id)) return false;
      if (run->empty()) cls->by_lo.erase(p.lo.numeric());
      if (cls->by_lo.empty()) between_.erase(cls);
      --indexed_count_;
      return true;
    }
    case Slot::Prefix:
      if (!prefix_.remove(p.lo, id)) return false;
      --indexed_count_;
      return true;
    case Slot::Exists:
      if (!exists_.remove(id.value())) return false;
      --indexed_count_;
      return true;
    case Slot::Scan:
      return scan_.remove(id.value());
  }
  return false;
}

void AttributeIndex::stab(const Value& value, const PredicateTable& table,
                          std::vector<PredicateId>& out) const {
  // Point predicates.
  eq_.stab(value, out);

  // NaN is unordered: it satisfies no <, <=, >, >= or between.
  if (value.is_numeric() && !std::isnan(value.numeric())) {
    const double v = value.numeric();

    // Each operator's fulfilled entries are a prefix or a suffix of its
    // tree: copy them a leaf at a time. {v, 0} is the first key with bound
    // v, and everything after {v, max id} has a bound above v.
    const auto copy = [&out](std::span<const PredicateId> ids) {
      out.insert(out.end(), ids.begin(), ids.end());
    };
    const RangeKey first_at{v, 0};
    const RangeKey last_at{v, std::numeric_limits<std::uint32_t>::max()};
    gt_.for_each_span(gt_.begin(), gt_.lower_bound(first_at), copy);
    ge_.for_each_span(ge_.begin(), ge_.upper_bound(last_at), copy);
    lt_.for_each_span(lt_.upper_bound(last_at), lt_.end(), copy);
    le_.for_each_span(le_.lower_bound(first_at), le_.end(), copy);

    stab_intervals(v, out);
  }

  stab_prefixes(value, out);

  // Presence predicates match any value.
  exists_.append_to(out);

  stab_scan(value, table, out);
}

void AttributeIndex::stab_intervals(double v,
                                    std::vector<PredicateId>& out) const {
  // Within a class every width is below `reach`, so only lo in
  // [v - reach, v] can match. Each run is sorted by hi descending, so the
  // first hi < v ends it.
  std::uint64_t probes = 0;
  for (const WidthClass& cls : between_) {
    for (auto it = std::isinf(cls.reach) ? cls.by_lo.begin()
                                         : cls.by_lo.lower_bound(v - cls.reach);
         it != cls.by_lo.end() && it.key() <= v; ++it) {
      for (const IntervalEntry& entry : it.value().entries) {
        ++probes;
        if (entry.hi < v) break;
        out.push_back(PredicateId(entry.id));
      }
    }
  }
  if (probes != 0) {
    interval_probes_.value.fetch_add(probes, std::memory_order_relaxed);
  }
}

void AttributeIndex::stab_prefixes(const Value& value,
                                   std::vector<PredicateId>& out) const {
  if (value.type() != ValueType::String || prefix_.empty()) return;
  // Probe every prefix of the event value, including the empty prefix —
  // as string_views over the event's own buffer, so no allocation.
  const std::string_view sv(value.as_string());
  for (std::size_t len = 0; len <= sv.size(); ++len) {
    prefix_.stab(sv.substr(0, len), out);
  }
}

void AttributeIndex::stab_scan(const Value& value, const PredicateTable& table,
                               std::vector<PredicateId>& out) const {
  // Scan list: evaluate non-indexable predicates directly.
  scan_.for_each([&](std::uint32_t raw) {
    const PredicateId id(raw);
    const Predicate& p = table.get(id);
    if (eval_operator(p.op, value, p.lo, p.hi)) out.push_back(id);
  });
}

namespace {

/// Merge-walks the range-tree entries [first, last) against a block's
/// values sorted ascending: an entry's lanes are table[j], j the number of
/// values before its bound (v <= bound when kOrEqual, else v < bound).
/// Bounds ascend, so j only advances, and a run ends only where it does.
template <bool kOrEqual, typename Tree>
void merge_walk(const Tree& tree, typename Tree::iterator first,
                typename Tree::iterator last,
                std::span<const BlockScratch::Sorted> sorted,
                const std::vector<std::uint64_t>& table, LaneRuns& out) {
  std::size_t j = 0;
  const auto before = [&](double bound) {
    return kOrEqual ? sorted[j].value <= bound : sorted[j].value < bound;
  };
  tree.for_each_leaf(first, last, [&](auto keys, auto ids) {
    const std::size_t base = out.ids.size();
    out.ids.insert(out.ids.end(), ids.begin(), ids.end());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (j == sorted.size() || !before(keys[i].bound)) continue;
      out.close_at(base + i, table[j]);
      do {
        ++j;
      } while (j < sorted.size() && before(keys[i].bound));
    }
  });
  out.close(table[j]);
}

}  // namespace

void AttributeIndex::stab_block(std::span<const LaneValue> values,
                                const PredicateTable& table,
                                BlockScratch& scratch, LaneRuns& out) const {
  // Per event: the point, interval, prefix and scan structures.
  std::uint64_t present = 0;
  std::vector<BlockScratch::Sorted>& sorted = scratch.sorted;
  sorted.clear();
  for (const LaneValue& lane_value : values) {
    const Value& value = *lane_value.value;
    present |= lane_value.lane;
    eq_.stab(value, out.ids);
    if (value.is_numeric() && !std::isnan(value.numeric())) {
      sorted.push_back({value.numeric(), lane_value.lane});
      stab_intervals(value.numeric(), out.ids);
    }
    stab_prefixes(value, out.ids);
    stab_scan(value, table, out.ids);
    out.close(lane_value.lane);
  }
  exists_.append_to(out.ids);
  out.close(present);
  if (sorted.empty() || (lt_.empty() && le_.empty() && gt_.empty() &&
                         ge_.empty())) {
    return;
  }

  // Once per block: the values in order, and the lanes below and from
  // each position. A `>`/`>=` entry holds in the lanes from the first value
  // above its bound, a `<`/`<=` entry in the lanes below it, so each entry
  // gets one mask and each tree one walk over the bounds some value
  // fulfils.
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.value < b.value; });
  const std::size_t k = sorted.size();
  scratch.below.resize(k + 1);
  scratch.from.resize(k + 1);
  scratch.below[0] = 0;
  scratch.from[k] = 0;
  for (std::size_t j = 0; j < k; ++j) {
    scratch.below[j + 1] = scratch.below[j] | sorted[j].lane;
    scratch.from[k - 1 - j] = scratch.from[k - j] | sorted[k - 1 - j].lane;
  }
  constexpr std::uint32_t kMaxId = std::numeric_limits<std::uint32_t>::max();
  const double lo = sorted.front().value;
  const double hi = sorted.back().value;
  merge_walk<true>(gt_, gt_.begin(), gt_.lower_bound(RangeKey{hi, 0}),
                   sorted, scratch.from, out);
  merge_walk<false>(ge_, ge_.begin(), ge_.upper_bound(RangeKey{hi, kMaxId}),
                    sorted, scratch.from, out);
  merge_walk<false>(lt_, lt_.upper_bound(RangeKey{lo, kMaxId}), lt_.end(),
                    sorted, scratch.below, out);
  merge_walk<true>(le_, le_.lower_bound(RangeKey{lo, 0}), le_.end(), sorted,
                   scratch.below, out);
}

bool AttributeIndex::empty() const {
  return indexed_count_ == 0 && scan_.empty();
}

std::size_t AttributeIndex::memory_bytes() const {
  std::size_t bytes = eq_.memory_bytes() + prefix_.memory_bytes();
  for (const RangeTree* tree : {&lt_, &le_, &gt_, &ge_}) {
    bytes += tree->memory_bytes();
  }
  bytes += vector_bytes(between_);
  // Interval storage lives outside the B+ tree node footprint.
  for (const WidthClass& cls : between_) {
    bytes += cls.by_lo.memory_bytes();
    for (auto it = cls.by_lo.begin(); it != cls.by_lo.end(); ++it) {
      bytes += it.value().memory_bytes();
    }
  }
  bytes += exists_.memory_bytes();
  bytes += scan_.memory_bytes();
  return bytes;
}

void AttributeIndex::observe_postings(PostingList::Stats& stats) const {
  eq_.observe_postings(stats);
  prefix_.observe_postings(stats);
  if (!exists_.empty()) stats.observe(exists_);
  if (!scan_.empty()) stats.observe(scan_);
}

}  // namespace ncps
