// Free-list reuse stress: cycle add/remove through the PostingStore, the
// PredicateTable, and the engines until every free list has wrapped many
// times, asserting that nothing from an id's previous life survives reuse —
// no stale postings, no resurrected predicates, no unbounded growth of the
// dense id-indexed arrays. These are the invariants the concurrent control
// plane leans on: under churn, ids recycle constantly while matching keeps
// running.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/engine_factory.h"
#include "engine/posting_store.h"
#include "predicate/predicate_table.h"
#include "subscription/parser.h"
#include "test_util.h"

namespace ncps {
namespace {

std::vector<std::uint32_t> collect(const PostingStore& store,
                                   std::uint32_t list) {
  std::vector<std::uint32_t> out;
  store.for_each(list, [&](std::uint32_t item) { out.push_back(item); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PostingStoreReuseTest, ChunkFreeListWrapsWithoutGrowthOrResidue) {
  PostingStore store;
  store.ensure_lists(1);

  // The first fill+drain cycle establishes the peak footprint (chunk pool
  // plus the chunk free list's own storage)…
  constexpr std::uint32_t kItems = 20;  // spans 3 chunks + inline head
  for (std::uint32_t i = 0; i < kItems; ++i) store.add(0, i);
  for (std::uint32_t i = 0; i < kItems; ++i) {
    ASSERT_TRUE(store.remove(0, i));
  }
  const std::size_t peak_bytes = store.memory_bytes();

  // …then a hundred add/remove cycles must recycle chunks through the free
  // list without allocating beyond the peak or leaving items behind.
  Pcg32 rng(0xcafe, 3);
  for (int cycle = 1; cycle <= 100; ++cycle) {
    std::vector<std::uint32_t> expected;
    for (std::uint32_t i = 0; i < kItems; ++i) {
      const std::uint32_t item = 1000u * static_cast<std::uint32_t>(cycle) + i;
      store.add(0, item);
      expected.push_back(item);
    }
    EXPECT_EQ(collect(store, 0), expected);

    // Remove in a shuffled order so chunk-boundary cases (emptying the
    // newest chunk, swapping from inline head) all occur across cycles.
    std::shuffle(expected.begin(), expected.end(), rng);
    for (const std::uint32_t item : expected) {
      EXPECT_TRUE(store.remove(0, item));
    }
    EXPECT_EQ(store.size(0), 0u);
    EXPECT_TRUE(collect(store, 0).empty());
    EXPECT_FALSE(store.remove(0, expected.front()));
    EXPECT_LE(store.memory_bytes(), peak_bytes);
  }
}

TEST(PostingStoreReuseTest, InterleavedListsShareRecycledChunks) {
  PostingStore store;
  store.ensure_lists(3);
  // Fill list 0 past one chunk, drain it, then grow lists 1 and 2: the
  // recycled chunks must serve them without cross-list contamination.
  for (std::uint32_t i = 0; i < 12; ++i) store.add(0, i);
  for (std::uint32_t i = 0; i < 12; ++i) EXPECT_TRUE(store.remove(0, i));
  const std::size_t peak = store.memory_bytes();
  for (std::uint32_t i = 0; i < 9; ++i) store.add(1, 100 + i);
  for (std::uint32_t i = 0; i < 2; ++i) store.add(2, 200 + i);
  EXPECT_LE(store.memory_bytes(), peak);
  EXPECT_TRUE(collect(store, 0).empty());
  EXPECT_EQ(collect(store, 1).size(), 9u);
  EXPECT_EQ(collect(store, 2).size(), 2u);
  EXPECT_EQ(collect(store, 1).front(), 100u);
  EXPECT_EQ(collect(store, 2).front(), 200u);
}

TEST(PredicateTableReuseTest, IdReuseForgetsThePreviousPredicate) {
  AttributeRegistry attrs;
  PredicateTable table;
  const AttributeId x = attrs.intern("x");

  constexpr int kPerRound = 10;
  std::size_t bound_after_first_round = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<PredicateId> ids;
    for (int i = 0; i < kPerRound; ++i) {
      // Distinct operand each round: reused slots hold *different*
      // predicates than their previous occupants.
      const Predicate p{x, Operator::Gt,
                        Value(std::int64_t{round * kPerRound + i})};
      const auto [id, newly_created] = table.intern(p);
      ASSERT_TRUE(newly_created);
      ids.push_back(id);
    }
    EXPECT_EQ(table.size(), static_cast<std::size_t>(kPerRound));
    if (round == 0) {
      bound_after_first_round = table.id_bound();
    } else {
      // The free list must satisfy every later round: dense per-id arrays
      // in the engines stay bounded under churn.
      EXPECT_EQ(table.id_bound(), bound_after_first_round);
    }
    for (int i = 0; i < kPerRound; ++i) {
      // The previous round's predicates are gone: find() must miss, and
      // the slots must now resolve to this round's predicates.
      const Predicate old{x, Operator::Gt,
                          Value(std::int64_t{(round - 1) * kPerRound + i})};
      if (round > 0) EXPECT_FALSE(table.find(old).has_value());
      EXPECT_EQ(table.get(ids[i]).lo,
                Value(std::int64_t{round * kPerRound + i}));
    }
    for (const PredicateId id : ids) {
      EXPECT_TRUE(table.release(id));
      EXPECT_FALSE(table.is_live(id));
    }
    EXPECT_EQ(table.size(), 0u);
  }
}

TEST(PredicateTableReuseTest, SharedPredicateSurvivesPartialRelease) {
  AttributeRegistry attrs;
  PredicateTable table;
  const Predicate p{attrs.intern("x"), Operator::Eq, Value(std::int64_t{7})};
  const auto [id, first] = table.intern(p);
  ASSERT_TRUE(first);
  const auto [again, second] = table.intern(p);
  EXPECT_EQ(again, id);
  EXPECT_FALSE(second);
  EXPECT_EQ(table.ref_count(id), 2u);
  EXPECT_FALSE(table.release(id));  // one owner left
  EXPECT_TRUE(table.is_live(id));
  EXPECT_TRUE(table.release(id));
  EXPECT_FALSE(table.is_live(id));
}

class EngineReuseTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(EngineReuseTest, StalePostingsDoNotSurvivePredicateIdReuse) {
  AttributeRegistry attrs;
  PredicateTable table;
  const auto engine = make_engine(GetParam(), table);

  // Subscription A's predicate takes id 0, then A is removed and the id is
  // freed. Subscription B's (structurally different) predicate recycles the
  // id. An event satisfying only A's old predicate must not reach B through
  // a stale posting or index entry.
  SubscriptionId a;
  {
    const ast::Expr expr = parse_subscription("x > 10", attrs, table);
    a = engine->add(expr.root());
  }
  ASSERT_TRUE(engine->remove(a));
  ASSERT_EQ(table.size(), 0u);

  SubscriptionId b;
  {
    const ast::Expr expr = parse_subscription("y < 5", attrs, table);
    b = engine->add(expr.root());
  }
  ASSERT_EQ(table.id_bound(), 1u) << "B's predicate must recycle A's id";

  const Event dead_only = EventBuilder(attrs).set("x", 50).set("y", 50).build();
  EXPECT_TRUE(testing::match_event(*engine, dead_only).empty())
      << "event satisfying only the dead predicate matched";
  EXPECT_EQ(testing::match_event(
                *engine, EventBuilder(attrs).set("x", 50).set("y", 1).build()),
            std::vector<SubscriptionId>{b});
}

TEST_P(EngineReuseTest, AddRemoveCyclesKeepAllFreeListsBounded) {
  AttributeRegistry attrs;
  PredicateTable table;
  const auto engine = make_engine(GetParam(), table);

  constexpr int kSubs = 8;
  std::size_t table_bound = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<SubscriptionId> ids;
    for (int i = 0; i < kSubs; ++i) {
      const int v = round * kSubs + i;
      const std::string text = "a > " + std::to_string(v) + " or b == " +
                               std::to_string(v);
      const ast::Expr expr = parse_subscription(text, attrs, table);
      ids.push_back(engine->add(expr.root()));
    }
    EXPECT_EQ(engine->subscription_count(), static_cast<std::size_t>(kSubs));
    if (round == 0) {
      table_bound = table.id_bound();
    } else {
      EXPECT_EQ(table.id_bound(), table_bound)
          << "predicate ids not recycled on round " << round;
      // Engine-local subscription ids recycle too (LIFO), so the ids seen
      // in later rounds stay within the first round's range.
      for (const SubscriptionId id : ids) {
        EXPECT_LT(id.value(), static_cast<std::uint32_t>(2 * kSubs));
      }
    }
    // Events hit the fresh predicates; matching exercises the reused
    // association lists before the round unwinds.
    EXPECT_EQ(testing::match_event(
                  *engine,
                  EventBuilder(attrs).set("a", 1'000'000).set("b", -1).build())
                  .size(),
              static_cast<std::size_t>(kSubs));

    for (const SubscriptionId id : ids) EXPECT_TRUE(engine->remove(id));
    EXPECT_EQ(engine->subscription_count(), 0u);
    EXPECT_EQ(table.size(), 0u) << "leaked predicate refs on round " << round;
  }
  EXPECT_TRUE(testing::match_event(
                  *engine,
                  EventBuilder(attrs).set("a", 1'000'000).set("b", -1).build())
                  .empty());
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineReuseTest,
                         ::testing::ValuesIn(kAllEngineKinds),
                         [](const auto& param_info) {
                           std::string name(to_string(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ncps
