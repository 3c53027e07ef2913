// Counting-family specifics: transformation bookkeeping, the 255-predicate
// limit, and the structural differences the paper's §3.3 describes.
#include <gtest/gtest.h>

#include "engine/counting_engine.h"
#include "engine/counting_variant_engine.h"
#include "subscription/parser.h"
#include "test_util.h"
#include "workload/paper_workload.h"

namespace ncps {
namespace {

class CountingTest : public ::testing::Test {
 protected:
  ast::Expr parse(std::string_view text) {
    return parse_subscription(text, attrs_, table_);
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
};

TEST_F(CountingTest, ConjunctionRegistersOneTransformedSubscription) {
  CountingEngine engine(table_);
  const ast::Expr e = parse("a == 1 and b == 2 and c == 3");
  engine.add(e.root());
  EXPECT_EQ(engine.subscription_count(), 1u);
  EXPECT_EQ(engine.transformed_count(), 1u);
}

TEST_F(CountingTest, PaperShapeMultipliesRegistrations) {
  // |p| = 6 ⇒ 2^3 = 8 transformed subscriptions (Table 1's "8 to 32").
  CountingEngine engine(table_);
  const ast::Expr e = parse(
      "(a == 1 or a == 2) and (b == 1 or b == 2) and (c == 1 or c == 2)");
  engine.add(e.root());
  EXPECT_EQ(engine.subscription_count(), 1u);
  EXPECT_EQ(engine.transformed_count(), 8u);
}

TEST_F(CountingTest, FigureOneRegistersNine) {
  CountingEngine engine(table_);
  const ast::Expr e = parse(
      "(a > 10 or a <= 5 or b == 1) and (c <= 20 or c == 30 or d == 5)");
  engine.add(e.root());
  EXPECT_EQ(engine.transformed_count(), 9u);
}

TEST_F(CountingTest, RemoveReclaimsTransformedSlots) {
  CountingVariantEngine engine(table_);
  const ast::Expr e1 = parse("(a == 1 or a == 2) and (b == 1 or b == 2)");
  const SubscriptionId s1 = engine.add(e1.root());
  EXPECT_EQ(engine.transformed_count(), 4u);
  EXPECT_TRUE(engine.remove(s1));
  EXPECT_EQ(engine.transformed_count(), 0u);
  EXPECT_EQ(engine.subscription_count(), 0u);
  // Slots are recycled for the next registration.
  const ast::Expr e2 = parse("(c == 1 or c == 2) and (d == 1 or d == 2)");
  engine.add(e2.root());
  EXPECT_EQ(engine.transformed_count(), 4u);
}

TEST_F(CountingTest, TooWideConjunctionThrows) {
  // 300 conjuncts exceed the 1-byte required-count (paper assumes ≤ 256
  // predicates per subscription; our limit is 255).
  std::string text;
  for (int i = 0; i < 300; ++i) {
    if (i > 0) text += " and ";
    text += "p" + std::to_string(i) + " == 1";
  }
  CountingEngine engine(table_);
  const ast::Expr e = parse(text);
  EXPECT_THROW(engine.add(e.root()), SubscriptionTooLargeError);
  // A failed add must not leave partial state behind.
  EXPECT_EQ(engine.subscription_count(), 0u);
  EXPECT_EQ(engine.transformed_count(), 0u);
}

TEST_F(CountingTest, ExplosionBudgetIsConfigurable) {
  DnfOptions options;
  options.max_disjuncts = 8;
  CountingEngine engine(table_, options);
  const ast::Expr small = parse(
      "(a == 1 or a == 2) and (b == 1 or b == 2) and (c == 1 or c == 2)");
  engine.add(small.root());  // exactly 8: allowed
  const ast::Expr big = parse(
      "(a == 1 or a == 2) and (b == 1 or b == 2) and (c == 1 or c == 2) and "
      "(d == 1 or d == 2)");
  EXPECT_THROW(engine.add(big.root()), DnfExplosionError);
}

TEST_F(CountingTest, CountingStatsScanWholeTable) {
  // The original algorithm's comparisons equal the transformed count,
  // regardless of the event; the variant's equal the touched count.
  CountingEngine counting(table_);
  CountingVariantEngine variant(table_);
  std::vector<ast::Expr> exprs;
  for (int i = 0; i < 10; ++i) {
    exprs.push_back(parse("(x" + std::to_string(i) + " == 1 or x" +
                          std::to_string(i) + " == 2) and (y" +
                          std::to_string(i) + " == 1 or y" +
                          std::to_string(i) + " == 2)"));
    counting.add(exprs.back().root());
    variant.add(exprs.back().root());
  }
  ASSERT_EQ(counting.transformed_count(), 40u);

  // Fulfill exactly one predicate: x0 == 1.
  const auto pid = table_.find(
      Predicate{attrs_.find("x0"), Operator::Eq, Value(1), {}});
  ASSERT_TRUE(pid.has_value());
  MatchStats stats;
  (void)testing::match_predicates(counting, {*pid}, &stats);
  EXPECT_EQ(stats.counter_comparisons, 40u);  // full scan
  EXPECT_EQ(stats.hit_increments, 2u);  // x0==1 in 2 disjuncts

  (void)testing::match_predicates(variant, {*pid}, &stats);
  EXPECT_EQ(stats.counter_comparisons, 2u);  // candidates only
  EXPECT_EQ(stats.hit_increments, 2u);
}

TEST_F(CountingTest, HitVectorResetBetweenEvents) {
  // A fulfilled set must not leak hits into the next call: fulfilling half
  // of a conjunction twice in a row must not produce a match.
  CountingEngine engine(table_);
  const ast::Expr e = parse("a == 1 and b == 2");
  const SubscriptionId s = engine.add(e.root());
  const auto pid_a =
      table_.find(Predicate{attrs_.find("a"), Operator::Eq, Value(1), {}});
  ASSERT_TRUE(pid_a.has_value());

  EXPECT_TRUE(testing::match_predicates(engine, {*pid_a}).empty());
  EXPECT_TRUE(testing::match_predicates(engine, {*pid_a}).empty());
  const auto pid_b =
      table_.find(Predicate{attrs_.find("b"), Operator::Eq, Value(2), {}});
  ASSERT_TRUE(pid_b.has_value());
  EXPECT_EQ(testing::match_predicates(engine, {*pid_a, *pid_b}),
            std::vector{s});
}

TEST_F(CountingTest, NnfComplementsAreRegisteredWithIndex) {
  // `not a == 1` becomes the Ne-complement predicate; the engine's own
  // phase 1 must evaluate it (scan list) for the full pipeline to work.
  CountingEngine engine(table_);
  const ast::Expr e = parse("not a == 1 and b == 2");
  const SubscriptionId s = engine.add(e.root());
  EXPECT_EQ(testing::match_event(
                engine, EventBuilder(attrs_).set("a", 5).set("b", 2).build()),
            std::vector{s});
  EXPECT_TRUE(testing::match_event(
                  engine,
                  EventBuilder(attrs_).set("a", 1).set("b", 2).build())
                  .empty());
}

TEST_F(CountingTest, ComplementPredicatesFreedOnRemove) {
  CountingEngine engine(table_);
  const std::size_t before = table_.size();
  const ast::Expr e = parse("not c77 == 1");
  // Keep the original alive; the complement lives only in the engine.
  const SubscriptionId s = engine.add(e.root());
  EXPECT_EQ(table_.size(), before + 2);  // original + complement
  EXPECT_TRUE(engine.remove(s));
  EXPECT_EQ(table_.size(), before + 1);  // complement released
}

TEST_F(CountingTest, PaperModeWithoutUnsubSupport) {
  // The paper's measured configuration: no tid→predicate lists, remove()
  // unsupported, matching identical, memory strictly smaller.
  CountingEngine full(table_);
  CountingEngine paper_mode(table_, DnfOptions{},
                            /*support_unsubscription=*/false);
  const ast::Expr e = parse("(a == 1 or a == 2) and (b == 1 or b == 2)");
  const SubscriptionId sf = full.add(e.root());
  const SubscriptionId sp = paper_mode.add(e.root());
  ASSERT_EQ(sf, sp);

  const auto pid_a1 =
      table_.find(Predicate{attrs_.find("a"), Operator::Eq, Value(1), {}});
  const auto pid_b2 =
      table_.find(Predicate{attrs_.find("b"), Operator::Eq, Value(2), {}});
  ASSERT_TRUE(pid_a1 && pid_b2);
  const std::vector<PredicateId> fulfilled = {*pid_a1, *pid_b2};
  EXPECT_EQ(testing::match_predicates(full, fulfilled),
            testing::match_predicates(paper_mode, fulfilled));

  // Memory comparison while both engines still hold the subscription.
  std::size_t full_unsub = 0, paper_unsub = 0;
  const MemoryBreakdown mf = full.memory();
  const MemoryBreakdown mp = paper_mode.memory();
  for (const auto& [name, bytes] : mf.components()) {
    if (name.starts_with("unsub_support/")) full_unsub += bytes;
  }
  for (const auto& [name, bytes] : mp.components()) {
    if (name.starts_with("unsub_support/")) paper_unsub += bytes;
  }
  EXPECT_LT(paper_unsub, full_unsub);

  EXPECT_FALSE(paper_mode.remove(sp));  // unsupported by design
  EXPECT_TRUE(full.remove(sf));
}

TEST_F(CountingTest, PaperWorkloadTransformedCountsMatchFormula) {
  for (const std::size_t preds : {6u, 8u, 10u}) {
    PredicateTable table;
    AttributeRegistry attrs;
    PaperWorkloadConfig config;
    config.predicates_per_subscription = preds;
    config.seed = 99 + preds;
    PaperWorkload workload(config, attrs, table);
    CountingEngine engine(table);
    for (int i = 0; i < 20; ++i) {
      const ast::Expr e = workload.next_subscription();
      engine.add(e.root());
    }
    EXPECT_EQ(engine.transformed_count(), 20u * workload.expected_disjuncts())
        << preds << " predicates";
  }
}

}  // namespace
}  // namespace ncps
