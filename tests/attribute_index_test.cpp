#include "index/attribute_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/random.h"
#include "event/event.h"
#include "event/schema.h"
#include "index/predicate_index.h"
#include "test_util.h"

namespace ncps {
namespace {

// Fixture managing one attribute's index plus the predicate table the scan
// list resolves against.
class AttributeIndexTest : public ::testing::Test {
 protected:
  PredicateId add(Operator op, Value lo, Value hi = {}) {
    const Predicate p{attr_, op, std::move(lo), std::move(hi)};
    const auto r = table_.intern(p);
    // The index holds sets, not multisets: a structurally equal predicate
    // interns to its existing id and is already registered — don't re-add
    // (the engine adds only on the 0→1 use-count transition).
    if (r.newly_created) {
      index_.add(r.id, table_.get(r.id));
      all_.push_back(r.id);
    }
    return r.id;
  }

  std::vector<PredicateId> stab(const Value& v) {
    std::vector<PredicateId> out;
    index_.stab(v, table_, out);
    return testing::sorted(std::move(out));
  }

  /// Brute-force reference: evaluate every registered predicate directly.
  std::vector<PredicateId> reference(const Value& v) {
    std::vector<PredicateId> out;
    for (const PredicateId id : all_) {
      const Predicate& p = table_.get(id);
      if (eval_operator(p.op, v, p.lo, p.hi)) out.push_back(id);
    }
    return testing::sorted(std::move(out));
  }

  AttributeRegistry attrs_;
  AttributeId attr_ = attrs_.intern("x");
  PredicateTable table_;
  AttributeIndex index_;
  std::vector<PredicateId> all_;
};

TEST_F(AttributeIndexTest, EqualityStab) {
  const PredicateId p10 = add(Operator::Eq, Value(10));
  add(Operator::Eq, Value(20));
  EXPECT_EQ(stab(Value(10)), std::vector{p10});
  EXPECT_TRUE(stab(Value(15)).empty());
}

TEST_F(AttributeIndexTest, EqualityCrossNumericTypes) {
  const PredicateId p = add(Operator::Eq, Value(10));
  EXPECT_EQ(stab(Value(10.0)), std::vector{p});
}

TEST_F(AttributeIndexTest, UpperBoundStabs) {
  const PredicateId lt10 = add(Operator::Lt, Value(10));
  const PredicateId le10 = add(Operator::Le, Value(10));
  // v = 10: only a <= 10 matches.
  EXPECT_EQ(stab(Value(10)), std::vector{le10});
  // v = 9: both match.
  EXPECT_EQ(stab(Value(9)), testing::sorted(std::vector{lt10, le10}));
  // v = 11: neither.
  EXPECT_TRUE(stab(Value(11)).empty());
}

TEST_F(AttributeIndexTest, LowerBoundStabs) {
  const PredicateId gt10 = add(Operator::Gt, Value(10));
  const PredicateId ge10 = add(Operator::Ge, Value(10));
  EXPECT_EQ(stab(Value(10)), std::vector{ge10});
  EXPECT_EQ(stab(Value(11)), testing::sorted(std::vector{gt10, ge10}));
  EXPECT_TRUE(stab(Value(9)).empty());
}

TEST_F(AttributeIndexTest, BetweenStabs) {
  const PredicateId mid = add(Operator::Between, Value(10), Value(20));
  add(Operator::Between, Value(30), Value(40));
  EXPECT_EQ(stab(Value(15)), std::vector{mid});
  EXPECT_EQ(stab(Value(10)), std::vector{mid});
  EXPECT_EQ(stab(Value(20)), std::vector{mid});
  EXPECT_TRUE(stab(Value(25)).empty());
}

TEST_F(AttributeIndexTest, PrefixStabs) {
  const PredicateId ab = add(Operator::Prefix, Value("ab"));
  const PredicateId abc = add(Operator::Prefix, Value("abc"));
  const PredicateId empty = add(Operator::Prefix, Value(""));
  EXPECT_EQ(stab(Value("abcd")), testing::sorted(std::vector{ab, abc, empty}));
  EXPECT_EQ(stab(Value("abx")), testing::sorted(std::vector{ab, empty}));
  EXPECT_EQ(stab(Value("zz")), std::vector{empty});
}

TEST_F(AttributeIndexTest, ScanListOperators) {
  const PredicateId ne = add(Operator::Ne, Value(10));
  const PredicateId contains = add(Operator::Contains, Value("bc"));
  const PredicateId suffix = add(Operator::Suffix, Value("cd"));
  EXPECT_EQ(stab(Value(11)), std::vector{ne});
  EXPECT_EQ(stab(Value("abcd")),
            testing::sorted(std::vector{ne, contains, suffix}));
  EXPECT_EQ(stab(Value(10)), testing::sorted(std::vector<PredicateId>{}));
}

TEST_F(AttributeIndexTest, ExistsMatchesAnyValue) {
  const PredicateId ex = add(Operator::Exists, Value());
  EXPECT_EQ(stab(Value(0)), std::vector{ex});
  EXPECT_EQ(stab(Value("anything")), std::vector{ex});
}

TEST_F(AttributeIndexTest, RemoveFromEveryStructure) {
  const PredicateId eq = add(Operator::Eq, Value(1));
  const PredicateId lt = add(Operator::Lt, Value(10));
  const PredicateId gt = add(Operator::Gt, Value(-10));
  const PredicateId bt = add(Operator::Between, Value(0), Value(5));
  const PredicateId pf = add(Operator::Prefix, Value("a"));
  const PredicateId ne = add(Operator::Ne, Value(99));
  const PredicateId ex = add(Operator::Exists, Value());

  for (const PredicateId id : {eq, lt, gt, bt, pf, ne, ex}) {
    EXPECT_TRUE(index_.remove(id, table_.get(id)));
  }
  EXPECT_TRUE(index_.empty());
  EXPECT_TRUE(stab(Value(1)).empty());
  EXPECT_TRUE(stab(Value("abc")).empty());
  // Double remove reports failure.
  EXPECT_FALSE(index_.remove(eq, table_.get(eq)));
}

TEST_F(AttributeIndexTest, StringOperandOnOrderedOperatorGoesToScanList) {
  const PredicateId p = add(Operator::Lt, Value("m"));
  EXPECT_EQ(index_.scan_count(), 1u);
  EXPECT_EQ(stab(Value("a")), std::vector{p});
  EXPECT_TRUE(stab(Value("z")).empty());
}

// Every operator class: add → stab → remove to empty() → re-add after the
// interned predicate id was recycled. Run under ASan in CI, this doubles as
// a lifetime check for the dictionary/posting-list storage behind each slot.
TEST_F(AttributeIndexTest, AddRemoveReAddEveryOperatorClass) {
  struct Case {
    Operator op;
    Value lo;
    Value hi;
    Value match;  // a value the predicate accepts
  };
  const Case cases[] = {
      {Operator::Eq, Value(7), Value(), Value(7)},            // hash index
      {Operator::Lt, Value(10), Value(), Value(3)},           // upper strict
      {Operator::Le, Value(10), Value(), Value(10)},          // upper incl.
      {Operator::Gt, Value(10), Value(), Value(30)},          // lower strict
      {Operator::Ge, Value(10), Value(), Value(10)},          // lower incl.
      {Operator::Between, Value(5), Value(15), Value(9)},     // interval tree
      {Operator::Prefix, Value("ab"), Value(), Value("abc")}, // prefix index
      {Operator::Exists, Value(), Value(), Value(999)},       // presence list
      {Operator::Ne, Value(4), Value(), Value(5)},            // scan residue
      {Operator::Suffix, Value("cd"), Value(), Value("abcd")},
      {Operator::Contains, Value("bc"), Value(), Value("abcd")},
  };
  for (const Case& c : cases) {
    all_.clear();
    const PredicateId first = add(c.op, c.lo, c.hi);
    EXPECT_EQ(stab(c.match), std::vector{first}) << static_cast<int>(c.op);

    // Remove down to a completely empty index.
    EXPECT_TRUE(index_.remove(first, table_.get(first)));
    EXPECT_TRUE(index_.empty()) << static_cast<int>(c.op);
    EXPECT_TRUE(stab(c.match).empty()) << static_cast<int>(c.op);
    EXPECT_FALSE(index_.remove(first, table_.get(first)));  // double remove
    table_.release(first);
    all_.clear();

    // Re-add: the table recycles the freed id; the index must register the
    // recycled id cleanly in the same structure.
    const PredicateId again = add(c.op, c.lo, c.hi);
    EXPECT_EQ(again, first) << "id reuse expected";
    EXPECT_EQ(stab(c.match), std::vector{again}) << static_cast<int>(c.op);
    EXPECT_TRUE(index_.remove(again, table_.get(again)));
    table_.release(again);
    all_.clear();
    EXPECT_TRUE(index_.empty());
  }
}

// The seed's documented Between worst case: 10k nested intervals sharing one
// lo. A stab near the top of the nest used to examine all 10k entries; with
// hi-descending runs it examines matches+1.
TEST_F(AttributeIndexTest, NestedIntervalStabExaminesSubLinearEntries) {
  constexpr std::int64_t kIntervals = 10000;
  for (std::int64_t k = 1; k <= kIntervals; ++k) {
    add(Operator::Between, Value(0), Value(k));
  }
  index_.reset_interval_probe_count();
  const std::vector<PredicateId> got = stab(Value(kIntervals - 5));
  EXPECT_EQ(got.size(), 6u);  // hi in {9995..10000}
  EXPECT_EQ(got, reference(Value(kIntervals - 5)));
  // matches + the one terminating probe — sub-linear in the 10k lo-matches.
  EXPECT_LE(index_.interval_probe_count(), got.size() + 1);

  // A stab below every hi pays one probe per match, nothing more.
  index_.reset_interval_probe_count();
  EXPECT_EQ(stab(Value(1)).size(), static_cast<std::size_t>(kIntervals));
  EXPECT_LE(index_.interval_probe_count(),
            static_cast<std::uint64_t>(kIntervals) + 1);
}

// 1,000 evenly spaced intervals of one width share one width class. A stab
// visits only the runs whose lo lies within that class's reach of v: the
// matches plus at most as many near misses, never the whole prefix of
// intervals with lo <= v. One interval spanning the whole domain then lands
// in a class of its own, and the narrow class keeps its bound instead of
// falling back to a scan.
TEST_F(AttributeIndexTest, NarrowIntervalStabProbesNearMatches) {
  for (std::int64_t i = 0; i < 1000; ++i) {
    add(Operator::Between, Value(10 * i), Value(10 * i + 25));
  }
  const auto check = [&](std::uint64_t classes) {
    for (const double v : {-3.0, 0.0, 7.0, 123.5, 5000.0, 9995.0, 10020.0}) {
      index_.reset_interval_probe_count();
      const std::vector<PredicateId> got = stab(Value(v));
      EXPECT_EQ(got, reference(Value(v))) << "v=" << v;
      EXPECT_LE(index_.interval_probe_count(), 2 * got.size() + classes)
          << "v=" << v << " classes=" << classes;
    }
  };
  check(1);
  add(Operator::Between, Value(0), Value(10025));
  check(2);
}

// Widths that overflow to inf, infinite endpoints, point intervals (lo ==
// hi) and an inverted interval (lo > hi) all stab like the reference.
TEST_F(AttributeIndexTest, OverflowingAndPointIntervalsStab) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  add(Operator::Between, Value(-1.7e308), Value(1.7e308));  // width overflows
  add(Operator::Between, Value(-kMax), Value(0.0));
  add(Operator::Between, Value(0.0), Value(kMax));
  add(Operator::Between, Value(-kInf), Value(-1.0));
  add(Operator::Between, Value(1.0), Value(kInf));
  add(Operator::Between, Value(kInf), Value(kInf));
  add(Operator::Between, Value(5), Value(5));
  add(Operator::Between, Value(5.5), Value(5.5));
  add(Operator::Between, Value(0), Value(0));
  add(Operator::Between, Value(5.0), Value(5.25));
  add(Operator::Between, Value(10), Value(5));  // empty: never matches
  for (const double v : {-kInf, -kMax, -1e308, -1.0, 0.0, 4.999, 5.0, 5.1, 5.5,
                         7.0, 1e308, kMax, kInf}) {
    EXPECT_EQ(stab(Value(v)), reference(Value(v))) << "v=" << v;
  }
  // The overflowing one, [0, max], [1, inf], [5, 5] and [5, 5.25].
  EXPECT_EQ(stab(Value(5)).size(), 5u);
}

// NaN is unordered: reference() fulfils no <, <=, >, >= or between with it,
// and neither may the index's range and interval walks.
TEST_F(AttributeIndexTest, NanValueFulfilsNoOrderedPredicate) {
  add(Operator::Le, Value(5));
  add(Operator::Lt, Value(5));
  add(Operator::Ge, Value(5));
  add(Operator::Gt, Value(5));
  add(Operator::Between, Value(1), Value(10));
  const PredicateId ne = add(Operator::Ne, Value(5));
  const PredicateId ex = add(Operator::Exists, Value());
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(stab(nan), reference(nan));
  EXPECT_EQ(stab(nan), testing::sorted(std::vector{ne, ex}));
  // A NaN bound cannot be ordered among the others; adding one is refused.
  EXPECT_THROW(add(Operator::Gt, nan), ContractViolation);
}

TEST_F(AttributeIndexTest, RandomizedAgainstBruteForce) {
  Pcg32 rng(2024);
  // A mix of every operator class over a small domain.
  for (int i = 0; i < 400; ++i) {
    switch (rng.bounded(8)) {
      case 0: add(Operator::Eq, Value(rng.range(0, 30))); break;
      case 1: add(Operator::Ne, Value(rng.range(0, 30))); break;
      case 2: add(Operator::Lt, Value(rng.range(0, 30))); break;
      case 3: add(Operator::Le, Value(rng.range(0, 30))); break;
      case 4: add(Operator::Gt, Value(rng.range(0, 30))); break;
      case 5: add(Operator::Ge, Value(rng.range(0, 30))); break;
      case 6: {
        const std::int64_t a = rng.range(0, 30);
        const std::int64_t b = rng.range(0, 30);
        add(Operator::Between, Value(std::min(a, b)), Value(std::max(a, b)));
        break;
      }
      default: add(Operator::Eq, Value(static_cast<double>(rng.range(0, 30)) + 0.5)); break;
    }
  }
  for (std::int64_t v = -2; v <= 32; ++v) {
    EXPECT_EQ(stab(Value(v)), reference(Value(v))) << "v=" << v;
    EXPECT_EQ(stab(Value(static_cast<double>(v) + 0.5)),
              reference(Value(static_cast<double>(v) + 0.5)))
        << "v=" << v << ".5";
  }

  // Wide-domain intervals of mixed widths, so many width classes are live
  // at once: uniform endpoints (widths up to the whole domain) and narrow
  // widths scaled by a random power of two.
  constexpr std::int64_t kDomain = 1'000'000;
  std::vector<PredicateId> wide;
  for (int i = 0; i < 300; ++i) {
    double lo = 0;
    double hi = 0;
    if (rng.chance(0.5)) {
      const auto a = static_cast<double>(rng.range(-kDomain, kDomain));
      const auto b = static_cast<double>(rng.range(-kDomain, kDomain));
      lo = std::min(a, b);
      hi = std::max(a, b);
    } else {
      lo = static_cast<double>(rng.range(-kDomain, kDomain)) + 0.25;
      hi = lo + std::ldexp(rng.next_double(),
                           static_cast<int>(rng.bounded(20)));
    }
    const std::size_t before = all_.size();
    const PredicateId id = add(Operator::Between, Value(lo), Value(hi));
    if (all_.size() != before) wide.push_back(id);
  }
  const auto check_wide = [&](const char* stage) {
    Pcg32 probe(7);
    for (int i = 0; i < 200; ++i) {
      const Value v(static_cast<double>(probe.range(-kDomain, kDomain)) +
                    probe.next_double());
      EXPECT_EQ(stab(v), reference(v)) << stage << " v=" << v.numeric();
    }
    for (const PredicateId id : wide) {
      const Predicate& p = table_.get(id);
      for (const Value& v : {p.lo, p.hi}) {
        EXPECT_EQ(stab(v), reference(v)) << stage << " v=" << v.numeric();
      }
    }
  };
  check_wide("added");

  // Remove every interval narrower than 64, emptying the narrow classes,
  // then every other remaining one; then add them all back.
  std::vector<PredicateId> removed;
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const Predicate& p = table_.get(wide[i]);
    if (p.hi.numeric() - p.lo.numeric() < 64 || i % 2 == 0) {
      EXPECT_TRUE(index_.remove(wide[i], p));
      removed.push_back(wide[i]);
      all_.erase(std::find(all_.begin(), all_.end(), wide[i]));
    }
  }
  check_wide("removed");
  for (const PredicateId id : removed) {
    index_.add(id, table_.get(id));
    all_.push_back(id);
  }
  check_wide("re-added");

  // Ordered comparisons on a few shared bounds, strict and inclusive side by
  // side, infinite and extreme bounds and Int64 operands among them. Each
  // (operator, bound) pair carries several ids: one per attribute name, as
  // the index never looks at the attribute.
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::int64_t kIntMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<Value> bounds = {Value(-kInf),
                                     Value(-kMax),
                                     Value(-kIntMax),
                                     Value(std::int64_t{-7}),
                                     Value(0.0),
                                     Value(std::int64_t{3}),
                                     Value(3.5),
                                     Value(kIntMax),
                                     Value(kMax),
                                     Value(kInf)};
  static constexpr Operator kRangeOps[] = {Operator::Lt, Operator::Le,
                                           Operator::Gt, Operator::Ge};
  std::map<std::pair<Operator, double>, std::vector<PredicateId>> on_bound;
  for (int i = 0; i < 600; ++i) {
    const Predicate p{
        attrs_.intern("r" + std::to_string(rng.bounded(12))),
        kRangeOps[rng.bounded(4)],
        bounds[rng.bounded(static_cast<std::uint32_t>(bounds.size()))],
        {}};
    const auto r = table_.intern(p);
    if (!r.newly_created) continue;
    index_.add(r.id, table_.get(r.id));
    all_.push_back(r.id);
    on_bound[{p.op, p.lo.numeric()}].push_back(r.id);
  }
  const auto check_ranges = [&](const char* stage) {
    std::vector<Value> values = {Value(-0.0)};
    for (const Value& b : bounds) {
      values.push_back(b);
      values.emplace_back(std::nextafter(b.numeric(), -kInf));
      values.emplace_back(std::nextafter(b.numeric(), kInf));
    }
    for (const Value& v : values) {
      EXPECT_EQ(stab(v), reference(v)) << stage << " v=" << v.numeric();
    }
  };
  check_ranges("added");
  ASSERT_EQ(on_bound.size(), std::size(kRangeOps) * bounds.size());
  for (const auto& [key, ids] : on_bound) {
    ASSERT_GE(ids.size(), 2u);  // every pair is shared
    const PredicateId id = ids[ids.size() / 2];
    EXPECT_TRUE(index_.remove(id, table_.get(id)));
    all_.erase(std::find(all_.begin(), all_.end(), id));
  }
  check_ranges("removed one per bound");
}

TEST_F(AttributeIndexTest, RandomizedChurnAgainstBruteForce) {
  Pcg32 rng(555);
  std::vector<PredicateId> live;
  for (int round = 0; round < 600; ++round) {
    if (live.empty() || rng.chance(0.6)) {
      static constexpr Operator kOps[] = {Operator::Eq, Operator::Lt,
                                          Operator::Le, Operator::Gt,
                                          Operator::Ge, Operator::Ne};
      const Operator op = kOps[rng.bounded(6)];
      const Predicate p{attr_, op, Value(rng.range(0, 20)), {}};
      const auto r = table_.intern(p);
      if (!r.newly_created) {
        // Already live: the index holds it (set semantics) — undo the
        // extra table reference and treat the round as a no-op.
        table_.release(r.id);
      } else {
        index_.add(r.id, table_.get(r.id));
        live.push_back(r.id);
      }
    } else {
      const std::size_t i = rng.bounded(static_cast<std::uint32_t>(live.size()));
      const PredicateId id = live[i];
      EXPECT_TRUE(index_.remove(id, table_.get(id)));
      table_.release(id);
      live[i] = live.back();
      live.pop_back();
    }
    if (round % 50 == 0) {
      all_ = live;
      const std::int64_t v = rng.range(0, 20);
      EXPECT_EQ(stab(Value(v)), reference(Value(v))) << "round " << round;
    }
  }
}

// The block stab against the per-event stab: over blocks of 1, 2, 63 and
// 64 events (and 63 starting at lane 1), every predicate's lanes must be
// exactly the events whose per-event stab emits it, and each (predicate,
// event) pair must appear once, so the block path's fulfilled count is
// exact. The population mixes every operator class on a small domain
// (duplicate bounds, events equal to bounds and to each other), with ±inf
// bounds, NaN, ±inf and string values, missing attributes and NotExists.
TEST(BlockStabTest, EqualsPerEventStabWithLanesOred) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  AttributeRegistry attrs;
  const std::vector<AttributeId> numeric = {attrs.intern("a"),
                                            attrs.intern("b"),
                                            attrs.intern("c")};
  const AttributeId text = attrs.intern("s");
  const AttributeId never = attrs.intern("never");  // no event carries it
  const std::vector<std::string> words = {"", "a", "ab", "abc", "b", "ba"};

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Pcg32 rng(seed);
    const auto number = [&]() -> Value {
      switch (rng.bounded(8)) {
        case 0: return Value(static_cast<double>(rng.range(0, 12)) + 0.5);
        case 1: return Value(rng.chance(0.5) ? kInf : -kInf);
        default: return Value(rng.range(0, 12));
      }
    };
    PredicateTable table;
    PredicateIndex index;
    for (int i = 0; i < 400; ++i) {
      Predicate p;
      p.attribute = numeric[rng.bounded(3)];
      switch (rng.bounded(12)) {
        case 0: p.op = Operator::Eq; p.lo = number(); break;
        case 1: p.op = Operator::Ne; p.lo = number(); break;
        case 2: p.op = Operator::Lt; p.lo = number(); break;
        case 3: p.op = Operator::Le; p.lo = number(); break;
        case 4: p.op = Operator::Gt; p.lo = number(); break;
        case 5: p.op = Operator::Ge; p.lo = number(); break;
        case 6: {
          const auto a = rng.range(0, 12);
          const auto b = rng.range(0, 12);
          p.op = Operator::Between;
          p.lo = Value(std::min(a, b));
          p.hi = Value(std::max(a, b));
          break;
        }
        case 7: p.op = Operator::Exists; break;
        case 8:
          p.op = Operator::NotExists;
          if (rng.chance(0.3)) p.attribute = never;
          break;
        case 9:
          p.attribute = text;
          p.op = Operator::Prefix;
          p.lo = Value(words[rng.bounded(6)]);
          break;
        case 10:
          p.attribute = text;
          p.op = rng.chance(0.5) ? Operator::Suffix : Operator::Eq;
          p.lo = Value(words[rng.bounded(6)]);
          break;
        default:
          // An ordered comparison with a string operand: the scan list.
          p.attribute = rng.chance(0.5) ? text : p.attribute;
          p.op = Operator::Lt;
          p.lo = Value(words[rng.bounded(6)]);
          break;
      }
      const auto r = table.intern(p);
      if (r.newly_created) index.add(r.id, table.get(r.id));
    }

    std::vector<Event> events(64);
    for (Event& event : events) {
      for (const AttributeId a : numeric) {
        if (rng.chance(0.2)) continue;  // missing attribute
        switch (rng.bounded(10)) {
          case 0:
            event.set(a, Value(std::numeric_limits<double>::quiet_NaN()));
            break;
          case 1: event.set(a, Value(words[rng.bounded(6)])); break;
          default: event.set(a, number()); break;
        }
      }
      if (rng.chance(0.7)) event.set(text, Value(words[rng.bounded(6)]));
    }

    BlockScratch scratch;
    LaneRuns runs;
    const auto check = [&](std::size_t count, std::size_t first_lane) {
      const std::span<const Event> block(events.data(), count);
      std::map<PredicateId, std::uint64_t> expected;
      std::uint64_t expected_pairs = 0;
      for (std::size_t i = 0; i < count; ++i) {
        std::vector<PredicateId> ids;
        index.match(block[i], table, ids);
        expected_pairs += ids.size();
        for (const PredicateId id : ids) {
          expected[id] |= std::uint64_t{1} << (first_lane + i);
        }
      }
      runs.clear();
      index.stab_block(block, first_lane, table, scratch, runs);
      std::map<PredicateId, std::uint64_t> actual;
      std::uint64_t pairs = 0;
      std::uint32_t k = 0;
      for (const LaneRuns::Run& run : runs.runs) {
        EXPECT_NE(run.lanes, 0u);
        for (; k < run.end; ++k) {
          EXPECT_EQ(actual[runs.ids[k]] & run.lanes, 0u) << "lane twice";
          actual[runs.ids[k]] |= run.lanes;
          pairs += static_cast<unsigned>(std::popcount(run.lanes));
        }
      }
      EXPECT_EQ(k, runs.ids.size()) << "ids outside every run";
      EXPECT_EQ(actual, expected) << "seed " << seed << ", " << count
                                  << " events from lane " << first_lane;
      EXPECT_EQ(pairs, expected_pairs);
    };
    for (const std::size_t count : {1u, 2u, 63u, 64u}) check(count, 0);
    check(63, 1);
  }
}

}  // namespace
}  // namespace ncps
