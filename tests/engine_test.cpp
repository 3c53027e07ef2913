// Per-engine behavioural tests, parameterized over all three algorithms.
#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/engine_factory.h"
#include "subscription/parser.h"
#include "test_util.h"

namespace ncps {
namespace {

class EngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  EngineTest() : engine_(make_engine(GetParam(), table_)) {}

  SubscriptionId subscribe(std::string_view text) {
    const ast::Expr expr = parse_subscription(text, attrs_, table_);
    return engine_->add(expr.root());
  }

  std::vector<SubscriptionId> publish(const Event& e) {
    return testing::match_event(*engine_, e);
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
  std::unique_ptr<FilterEngine> engine_;
};

TEST_P(EngineTest, EmptyEngineMatchesNothing) {
  EXPECT_TRUE(publish(EventBuilder(attrs_).set("a", 1).build()).empty());
  EXPECT_EQ(engine_->subscription_count(), 0u);
}

TEST_P(EngineTest, SingleConjunction) {
  const SubscriptionId s = subscribe("price > 10 and volume >= 100");
  EXPECT_EQ(publish(EventBuilder(attrs_).set("price", 20).set("volume", 100)
                        .build()),
            std::vector{s});
  EXPECT_TRUE(publish(EventBuilder(attrs_).set("price", 20).set("volume", 50)
                          .build())
                  .empty());
  EXPECT_TRUE(publish(EventBuilder(attrs_).set("price", 5).set("volume", 500)
                          .build())
                  .empty());
}

TEST_P(EngineTest, DisjunctionMatchesEitherBranchOnce) {
  const SubscriptionId s = subscribe("a == 1 or b == 2");
  EXPECT_EQ(publish(EventBuilder(attrs_).set("a", 1).build()), std::vector{s});
  EXPECT_EQ(publish(EventBuilder(attrs_).set("b", 2).build()), std::vector{s});
  // Both branches true still reports the subscription exactly once.
  EXPECT_EQ(publish(EventBuilder(attrs_).set("a", 1).set("b", 2).build()),
            std::vector{s});
  EXPECT_TRUE(publish(EventBuilder(attrs_).set("a", 2).set("b", 1).build())
                  .empty());
}

TEST_P(EngineTest, PaperFigureOneSubscription) {
  const SubscriptionId s = subscribe(
      "(a > 10 or a <= 5 or b == 1) and (c <= 20 or c == 30 or d == 5)");
  // Left group via a>10, right group via c<=20.
  EXPECT_EQ(publish(EventBuilder(attrs_).set("a", 11).set("c", 20).build()),
            std::vector{s});
  // Left group via b==1, right group via d==5.
  EXPECT_EQ(publish(EventBuilder(attrs_)
                        .set("a", 7)
                        .set("b", 1)
                        .set("c", 25)
                        .set("d", 5)
                        .build()),
            std::vector{s});
  // Left group fails.
  EXPECT_TRUE(publish(EventBuilder(attrs_).set("a", 7).set("c", 20).build())
                  .empty());
}

TEST_P(EngineTest, NotThroughComplementOnTotalEvents) {
  const SubscriptionId s = subscribe("not (price > 100) and sym == \"A\"");
  EXPECT_EQ(publish(EventBuilder(attrs_).set("price", 50).set("sym", "A")
                        .build()),
            std::vector{s});
  EXPECT_TRUE(publish(EventBuilder(attrs_).set("price", 200).set("sym", "A")
                          .build())
                  .empty());
}

TEST_P(EngineTest, MultipleSubscribersDistinctMatches) {
  const SubscriptionId cheap = subscribe("price < 10");
  const SubscriptionId pricey = subscribe("price > 100");
  const SubscriptionId any = subscribe("price exists");
  EXPECT_EQ(publish(EventBuilder(attrs_).set("price", 5).build()),
            testing::sorted(std::vector{cheap, any}));
  EXPECT_EQ(publish(EventBuilder(attrs_).set("price", 500).build()),
            testing::sorted(std::vector{pricey, any}));
  EXPECT_EQ(publish(EventBuilder(attrs_).set("price", 50).build()),
            std::vector{any});
}

TEST_P(EngineTest, SharedPredicateAcrossSubscriptions) {
  const SubscriptionId s1 = subscribe("a == 1 and b == 2");
  const SubscriptionId s2 = subscribe("a == 1 or c == 3");
  EXPECT_EQ(publish(EventBuilder(attrs_).set("a", 1).set("b", 2).build()),
            testing::sorted(std::vector{s1, s2}));
  EXPECT_EQ(publish(EventBuilder(attrs_).set("a", 1).build()),
            std::vector{s2});
}

TEST_P(EngineTest, UnsubscribeStopsMatching) {
  const SubscriptionId s1 = subscribe("a == 1");
  const SubscriptionId s2 = subscribe("a == 1 and b == 2");
  EXPECT_TRUE(engine_->remove(s1));
  EXPECT_EQ(engine_->subscription_count(), 1u);
  EXPECT_EQ(publish(EventBuilder(attrs_).set("a", 1).set("b", 2).build()),
            std::vector{s2});
  // Double removal fails gracefully.
  EXPECT_FALSE(engine_->remove(s1));
  EXPECT_FALSE(engine_->remove(SubscriptionId(12345)));
  EXPECT_FALSE(engine_->remove(SubscriptionId::invalid()));
}

TEST_P(EngineTest, UnsubscribeReleasesPredicates) {
  const SubscriptionId s = subscribe("uniq1 == 1 and uniq2 == 2");
  const std::size_t live_before = table_.size();
  EXPECT_TRUE(engine_->remove(s));
  EXPECT_LT(table_.size(), live_before);
  EXPECT_EQ(table_.size(), 0u);
}

TEST_P(EngineTest, SubscriptionIdsAreRecycled) {
  const SubscriptionId a = subscribe("a == 1");
  engine_->remove(a);
  const SubscriptionId b = subscribe("b == 2");
  EXPECT_EQ(a, b);  // slot reuse keeps dense arrays tight
  EXPECT_EQ(publish(EventBuilder(attrs_).set("b", 2).build()), std::vector{b});
  EXPECT_TRUE(publish(EventBuilder(attrs_).set("a", 1).build()).empty());
}

TEST_P(EngineTest, ChurnHeavySubscribeUnsubscribe) {
  std::vector<SubscriptionId> live;
  for (int round = 0; round < 200; ++round) {
    if (live.size() < 20) {
      live.push_back(subscribe("x == " + std::to_string(round % 7) +
                               " or y == " + std::to_string(round % 5)));
    } else {
      engine_->remove(live.front());
      live.erase(live.begin());
    }
  }
  // All remaining subscriptions with x == round%7 style predicates still
  // match correctly.
  const Event e = EventBuilder(attrs_).set("x", 3).set("y", 99).build();
  const auto matches = publish(e);
  for (const SubscriptionId id : matches) {
    EXPECT_NE(std::find(live.begin(), live.end(), id), live.end());
  }
  EXPECT_EQ(engine_->subscription_count(), live.size());
}

TEST_P(EngineTest, Phase2EntryPointMatchesFulfilledSet) {
  // Register (p1 ∨ p2) ∧ (p3 ∨ p4) and drive phase 2 directly.
  const ast::Expr expr = parse_subscription(
      "(a == 1 or b == 2) and (c == 3 or d == 4)", attrs_, table_);
  std::vector<PredicateId> preds;
  ast::collect_predicates(expr.root(), preds);
  ASSERT_EQ(preds.size(), 4u);
  const SubscriptionId s = engine_->add(expr.root());

  EXPECT_EQ(testing::match_predicates(*engine_, {preds[0], preds[2]}),
            std::vector{s});
  EXPECT_EQ(testing::match_predicates(*engine_, {preds[1], preds[3]}),
            std::vector{s});
  EXPECT_TRUE(testing::match_predicates(*engine_, {preds[0], preds[1]})
                  .empty());
  EXPECT_TRUE(testing::match_predicates(*engine_, {preds[2]}).empty());
  EXPECT_TRUE(testing::match_predicates(*engine_, {}).empty());
}

TEST_P(EngineTest, UnknownPredicateIdsInFulfilledSetAreIgnored) {
  const SubscriptionId s = subscribe("a == 1");
  const std::vector<PredicateId> bogus = {PredicateId(4000000)};
  EXPECT_TRUE(testing::match_predicates(*engine_, bogus).empty());
  (void)s;
}

TEST_P(EngineTest, StatsReportWork) {
  subscribe("a == 1 and b == 2");
  subscribe("a == 1 or c == 3");
  const auto ctx = engine_->make_context();
  (void)testing::match_event(
      *engine_, EventBuilder(attrs_).set("a", 1).set("b", 2).build(), *ctx);
  const MatchStats& stats = ctx->stats;
  EXPECT_EQ(stats.matches, 2u);
  EXPECT_GT(stats.candidates, 0u);
}

TEST_P(EngineTest, MemoryBreakdownGrowsWithSubscriptions) {
  const std::size_t empty_bytes = engine_->memory().total();
  for (int i = 0; i < 100; ++i) {
    subscribe("m" + std::to_string(i) + " > " + std::to_string(i));
  }
  EXPECT_GT(engine_->memory().total(), empty_bytes);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineTest,
                         ::testing::ValuesIn(kAllEngineKinds),
                         [](const auto& param_info) {
                           std::string name(to_string(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Non-canonical-specific behaviour (forest-backed engine).
class NonCanonicalTest : public ::testing::Test {
 protected:
  SubscriptionId subscribe(std::string_view text) {
    const ast::Expr expr = parse_subscription(text, attrs_, table_);
    return engine_.add(expr.root());
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
  NonCanonicalEngine engine_{table_};
};

TEST_F(NonCanonicalTest, PureNegationMatchesViaAlwaysCandidates) {
  // `not a == 1` is satisfiable with zero fulfilled predicates; the
  // association table alone would never surface it.
  const SubscriptionId s = subscribe("not a == 1");
  EXPECT_EQ(testing::match_event(engine_,
                                 EventBuilder(attrs_).set("a", 2).build()),
            std::vector{s});
  EXPECT_EQ(testing::match_event(engine_,
                                 EventBuilder(attrs_).set("b", 7).build()),
            std::vector{s});
  EXPECT_TRUE(testing::match_event(engine_,
                                   EventBuilder(attrs_).set("a", 1).build())
                  .empty());
}

TEST_F(NonCanonicalTest, NotExistsSemantics) {
  const SubscriptionId s = subscribe("not price exists and sym == \"A\"");
  EXPECT_EQ(testing::match_event(engine_,
                                 EventBuilder(attrs_).set("sym", "A").build()),
            std::vector{s});
  EXPECT_TRUE(testing::match_event(engine_, EventBuilder(attrs_)
                                                .set("sym", "A")
                                                .set("price", 1)
                                                .build())
                  .empty());
}

TEST_F(NonCanonicalTest, AlwaysCandidateListShrinksOnRemove) {
  const SubscriptionId s = subscribe("not a == 1");
  EXPECT_TRUE(engine_.remove(s));
  EXPECT_TRUE(testing::match_event(engine_,
                                   EventBuilder(attrs_).set("a", 2).build())
                  .empty());
}

TEST_F(NonCanonicalTest, DuplicateSubscriptionsShareOneRoot) {
  const char* text = "(a == 1 or b == 2) and (c == 3 or d == 4)";
  const SubscriptionId s1 = subscribe(text);
  const std::size_t nodes_after_first = engine_.forest().live_nodes();
  const SubscriptionId s2 = subscribe(text);
  const SubscriptionId s3 = subscribe(text);
  // Structurally identical subscriptions add zero forest nodes.
  EXPECT_EQ(engine_.forest().live_nodes(), nodes_after_first);
  EXPECT_EQ(engine_.distinct_roots(), 1u);

  const Event hit = EventBuilder(attrs_).set("a", 1).set("c", 3).build();
  const auto ctx = engine_.make_context();
  EXPECT_EQ(testing::match_event(engine_, hit, *ctx),
            testing::sorted(std::vector{s1, s2, s3}));
  // The shared tree is evaluated once per event, not once per subscription.
  EXPECT_EQ(ctx->stats.node_evaluations, 3u);  // 2 ORs + 1 AND

  EXPECT_TRUE(engine_.remove(s2));
  EXPECT_EQ(testing::match_event(engine_, hit),
            testing::sorted(std::vector{s1, s3}));
  EXPECT_TRUE(engine_.remove(s1));
  EXPECT_TRUE(engine_.remove(s3));
  EXPECT_EQ(engine_.forest().live_nodes(), 0u);
  EXPECT_EQ(table_.size(), 0u);  // all predicate references released
}

TEST_F(NonCanonicalTest, SharedSubtreesAreStoredOnce) {
  subscribe("(a == 1 or b == 2) and c == 3");
  const std::size_t nodes_one = engine_.forest().live_nodes();  // 5
  subscribe("(a == 1 or b == 2) and d == 4");
  // The OR subtree and its two leaves are shared: only AND + new leaf added.
  EXPECT_EQ(engine_.forest().live_nodes(), nodes_one + 2);
  EXPECT_EQ(engine_.distinct_roots(), 2u);
}

TEST_F(NonCanonicalTest, CoveringSubsumptionAliasesEquivalentRoots) {
  const SubscriptionId s1 = subscribe("a == 1 and b == 2");
  const SubscriptionId s2 = subscribe("b == 2 and a == 1");  // commuted
  EXPECT_EQ(engine_.subsumption_hits(), 1u);
  EXPECT_EQ(engine_.distinct_roots(), 1u);  // proven equivalent: one root
  const Event hit = EventBuilder(attrs_).set("a", 1).set("b", 2).build();
  EXPECT_EQ(testing::match_event(engine_, hit),
            testing::sorted(std::vector{s1, s2}));
  EXPECT_TRUE(
      testing::match_event(engine_, EventBuilder(attrs_).set("a", 1).build())
          .empty());
  EXPECT_TRUE(engine_.remove(s1));
  EXPECT_EQ(testing::match_event(engine_, hit), std::vector{s2});
  EXPECT_TRUE(engine_.remove(s2));
  EXPECT_EQ(table_.size(), 0u);
}

TEST_F(NonCanonicalTest, SubsumptionNeverAliasesNonEquivalentRoots) {
  // Same predicate signature, different semantics: AND vs OR.
  const SubscriptionId s1 = subscribe("a == 1 and b == 2");
  const SubscriptionId s2 = subscribe("a == 1 or b == 2");
  EXPECT_EQ(engine_.subsumption_hits(), 0u);
  EXPECT_EQ(engine_.distinct_roots(), 2u);
  EXPECT_EQ(testing::match_event(engine_,
                                 EventBuilder(attrs_).set("a", 1).build()),
            std::vector{s2});
  EXPECT_EQ(testing::match_event(
                engine_, EventBuilder(attrs_).set("a", 1).set("b", 2).build()),
            testing::sorted(std::vector{s1, s2}));
}

TEST_F(NonCanonicalTest, FrontierEvaluationCountsStaySubLinear) {
  // 40 duplicates of one subscription: per-event phase-2 node evaluations
  // must track the distinct tree, not the subscription count.
  for (int i = 0; i < 40; ++i) {
    subscribe("(a == 1 or b == 2) and (c == 3 or d == 4)");
  }
  const Event e = EventBuilder(attrs_).set("a", 1).set("c", 3).build();
  const auto ctx = engine_.make_context();
  const auto matched = testing::match_event(engine_, e, *ctx);
  EXPECT_EQ(matched.size(), 40u);
  EXPECT_EQ(ctx->stats.node_evaluations, 3u);
  EXPECT_EQ(ctx->stats.matches, 40u);
}

TEST_F(NonCanonicalTest, NodeSlotsAreReclaimedPromptlyOnRemove) {
  // PR 10: remove() reclaims its quarantine batch immediately. Without an
  // epoch domain attached (the standalone/single-threaded configuration
  // here) the slots go straight back to the free list; with one, the same
  // call retires them for free-list insertion after the grace period —
  // either way the quarantine is empty when remove() returns, so it can no
  // longer grow unboundedly on unsubscribe-heavy streams.
  const SubscriptionId s = subscribe("q1 == 1 and q2 == 2");
  const std::size_t live_before = engine_.forest().live_nodes();
  EXPECT_TRUE(engine_.remove(s));
  EXPECT_EQ(engine_.forest().quarantined_nodes(), 0u);
  EXPECT_EQ(engine_.forest().live_nodes(), live_before - 3u);
  // The freed slots are reusable by the next add().
  subscribe("q3 == 3");
  EXPECT_EQ(engine_.forest().quarantined_nodes(), 0u);
}

TEST_F(NonCanonicalTest, OversizedExpressionsAreRejectedBeforeMutation) {
  std::vector<ast::NodePtr> kids;
  for (std::size_t i = 0; i < SharedForest::kMaxChildren + 1; ++i) {
    kids.push_back(ast::leaf(PredicateId(static_cast<std::uint32_t>(i))));
  }
  const ast::NodePtr wide = ast::make_or(std::move(kids));
  EXPECT_THROW(engine_.add(*wide), ForestLimitError);
  PredicateTable scratch;
  EXPECT_THROW(engine_.validate(*wide, scratch), ForestLimitError);
  EXPECT_EQ(engine_.forest().live_nodes(), 0u);
  EXPECT_EQ(engine_.subscription_count(), 0u);
}

// Encoded-tree-specific behaviour (the paper's §3.3 prototype, kept as the
// unshared baseline).
class NonCanonicalTreeTest : public ::testing::Test {
 protected:
  SubscriptionId subscribe(std::string_view text) {
    const ast::Expr expr = parse_subscription(text, attrs_, table_);
    return engine_.add(expr.root());
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
  NonCanonicalTreeEngine engine_{table_};
};

TEST_F(NonCanonicalTreeTest, SelectivityReorderingReducesTruthLookups) {
  // OR(rare, common): with the author's order the evaluator probes `rare`
  // first on every event; after statistics-driven reordering the common
  // branch comes first and usually short-circuits.
  engine_.enable_statistics(true);
  const SubscriptionId s = subscribe("rare == 1 or common == 1");
  const Event common_event =
      EventBuilder(attrs_).set("common", 1).set("rare", 0).build();
  const Event rare_event =
      EventBuilder(attrs_).set("common", 0).set("rare", 1).build();

  // Warm up the statistics: 'common' fulfils often, 'rare' almost never.
  const auto ctx = engine_.make_context();
  std::uint64_t lookups_before = 0;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(testing::match_event(engine_, common_event, *ctx),
              std::vector{s});
    lookups_before += ctx->stats.truth_lookups;
  }
  EXPECT_EQ(engine_.observed_events(), 50u);

  engine_.reorder_trees_by_selectivity();

  std::uint64_t lookups_after = 0;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(testing::match_event(engine_, common_event, *ctx),
              std::vector{s});
    lookups_after += ctx->stats.truth_lookups;
  }
  // Before: rare probed (miss) then common (hit) = 2 lookups per event.
  // After: common first = 1 lookup per event.
  EXPECT_LT(lookups_after, lookups_before);
  EXPECT_EQ(lookups_after, 50u);

  // Semantics unchanged for the rare branch.
  EXPECT_EQ(testing::match_event(engine_, rare_event), std::vector{s});
}

TEST_F(NonCanonicalTreeTest, SelectivityReorderingPreservesMatching) {
  engine_.enable_statistics(true);
  std::vector<SubscriptionId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(subscribe("(a == " + std::to_string(i % 4) +
                            " or b == " + std::to_string(i % 3) +
                            ") and (c == " + std::to_string(i % 5) +
                            " or d == " + std::to_string(i % 2) + ")"));
  }
  Pcg32 rng(31);
  std::vector<Event> events;
  std::vector<std::vector<SubscriptionId>> expected;
  for (int i = 0; i < 40; ++i) {
    events.push_back(EventBuilder(attrs_)
                         .set("a", rng.range(0, 4))
                         .set("b", rng.range(0, 3))
                         .set("c", rng.range(0, 5))
                         .set("d", rng.range(0, 2))
                         .build());
    expected.push_back(testing::match_event(engine_, events.back()));
  }
  engine_.reorder_trees_by_selectivity();
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(testing::match_event(engine_, events[i]), expected[i])
        << "event " << i;
  }
}

// ---- Normalisation ladder & partial sharing ----------------------------

class NonCanonicalOptionsTest : public ::testing::Test {
 protected:
  NonCanonicalEngine& build(const NonCanonicalEngineOptions& options) {
    engine_ = std::make_unique<NonCanonicalEngine>(table_, options);
    return *engine_;
  }

  SubscriptionId subscribe(std::string_view text) {
    const ast::Expr expr = parse_subscription(text, attrs_, table_);
    return engine_->add(expr.root());
  }

  ast::Expr parse(std::string_view text) {
    return parse_subscription(text, attrs_, table_);
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
  std::unique_ptr<NonCanonicalEngine> engine_;
};

TEST_F(NonCanonicalOptionsTest, SortedChildrenSharesCommutedRootsByIdentity) {
  NonCanonicalEngineOptions options;
  options.normalisation = Normalisation::SortedChildren;
  build(options);
  const SubscriptionId s1 = subscribe("a == 1 and b == 2");
  const SubscriptionId s2 = subscribe("b == 2 and a == 1");  // commuted
  // Identity-level sharing: no covering probe was needed.
  EXPECT_EQ(engine_->distinct_roots(), 1u);
  EXPECT_EQ(engine_->subsumption_hits(), 0u);
  const Event hit = EventBuilder(attrs_).set("a", 1).set("b", 2).build();
  EXPECT_EQ(testing::match_event(*engine_, hit),
            testing::sorted(std::vector{s1, s2}));
  EXPECT_TRUE(
      testing::match_event(*engine_, EventBuilder(attrs_).set("a", 1).build())
          .empty());
  // Each subscription still reports its own written form. (Scoped: the
  // parsed references must not outlive the drain checks below.)
  {
    const ast::Expr w1 = parse("a == 1 and b == 2");
    const ast::Expr w2 = parse("b == 2 and a == 1");
    EXPECT_TRUE(ast::equal(w1.root(), *engine_->subscription_ast(s1)));
    EXPECT_TRUE(ast::equal(w2.root(), *engine_->subscription_ast(s2)));
  }
  EXPECT_TRUE(engine_->remove(s1));
  EXPECT_EQ(testing::match_event(*engine_, hit), std::vector{s2});
  EXPECT_TRUE(engine_->remove(s2));
  EXPECT_EQ(engine_->forest().live_nodes(), 0u);
  EXPECT_EQ(table_.size(), 0u);
}

TEST_F(NonCanonicalOptionsTest, CommutedRootsAliasAtBothNormalisationLevels) {
  // Satellite regression: a root that becomes equivalent only after
  // sorted-child normalisation must land on one result root at *both*
  // levels — via identity under SortedChildren, via the mutual-covering
  // probe under None.
  for (const Normalisation level :
       {Normalisation::None, Normalisation::SortedChildren}) {
    SCOPED_TRACE(std::string(to_string(level)));
    AttributeRegistry attrs;
    PredicateTable table;
    NonCanonicalEngineOptions options;
    options.normalisation = level;
    NonCanonicalEngine engine(table, options);
    const SubscriptionId s1 = engine.add(
        parse_subscription("(a == 1 or b == 2) and c == 3", attrs, table)
            .root());
    const SubscriptionId s2 = engine.add(
        parse_subscription("c == 3 and (b == 2 or a == 1)", attrs, table)
            .root());
    EXPECT_EQ(engine.distinct_roots(), 1u);
    EXPECT_EQ(engine.subsumption_hits(),
              level == Normalisation::None ? 1u : 0u);
    const Event hit = EventBuilder(attrs).set("b", 2).set("c", 3).build();
    EXPECT_EQ(testing::match_event(engine, hit),
              testing::sorted(std::vector{s1, s2}));
    EXPECT_TRUE(engine.remove(s1));
    EXPECT_TRUE(engine.remove(s2));
    EXPECT_EQ(table.size(), 0u);
  }
}

TEST_F(NonCanonicalOptionsTest, SortedAliasingSurvivesDnfBudgetOverflow) {
  // The asymmetric-DNF-budget edge (PR 2): a pair whose equivalence proof
  // blows the covering budget. Under None the probe conservatively keeps
  // two roots; under SortedChildren identity needs no DNF at all, so the
  // commuted pair still shares one root. Both stay observationally correct.
  std::string wide = "a >= 0";
  std::string wide_commuted = "a >= 0";
  for (int i = 0; i < 12; ++i) {
    const std::string g = "g" + std::to_string(i);
    wide += " and (" + g + " == 1 or " + g + " == 2)";
    wide_commuted += " and (" + g + " == 2 or " + g + " == 1)";
  }
  for (const Normalisation level :
       {Normalisation::None, Normalisation::SortedChildren}) {
    SCOPED_TRACE(std::string(to_string(level)));
    AttributeRegistry attrs;
    PredicateTable table;
    NonCanonicalEngineOptions options;
    options.normalisation = level;
    options.subsumption_budget.max_disjuncts = 16;  // forces the overflow
    NonCanonicalEngine engine(table, options);
    const SubscriptionId s1 =
        engine.add(parse_subscription(wide, attrs, table).root());
    const SubscriptionId s2 =
        engine.add(parse_subscription(wide_commuted, attrs, table).root());
    EXPECT_EQ(engine.distinct_roots(),
              level == Normalisation::SortedChildren ? 1u : 2u);
    EventBuilder builder(attrs);
    builder.set("a", 5);
    for (int i = 0; i < 12; ++i) builder.set("g" + std::to_string(i), 1);
    EXPECT_EQ(testing::match_event(engine, builder.build()),
              testing::sorted(std::vector{s1, s2}));
    EXPECT_TRUE(engine.remove(s1));
    EXPECT_TRUE(engine.remove(s2));
    EXPECT_EQ(table.size(), 0u);
  }
}

TEST_F(NonCanonicalOptionsTest, PartialSharingGatesBorrowerOnDonorTruth) {
  build(NonCanonicalEngineOptions{});  // partial sharing is on by default
  const SubscriptionId donor = subscribe("a == 1 and b == 2");
  const SubscriptionId borrower = subscribe("a == 1 and b == 2 and c == 3");
  EXPECT_EQ(engine_->partial_shares(), 1u);

  const Event both = EventBuilder(attrs_).set("a", 1).set("b", 2).set("c", 3)
                         .build();
  EXPECT_EQ(testing::match_event(*engine_, both),
            testing::sorted(std::vector{donor, borrower}));
  const Event donor_only =
      EventBuilder(attrs_).set("a", 1).set("b", 2).build();
  EXPECT_EQ(testing::match_event(*engine_, donor_only), std::vector{donor});

  // c alone touches the borrower's root but the donor refutes the event:
  // the borrower is skipped before its own (deferred) evaluation — no
  // candidate scan, no node evaluation for it.
  const Event gated = EventBuilder(attrs_).set("c", 3).build();
  const auto ctx = engine_->make_context();
  EXPECT_TRUE(testing::match_event(*engine_, gated, *ctx).empty());
  EXPECT_GE(ctx->stats.covering_skips, 1u);
  EXPECT_EQ(ctx->stats.node_evaluations, 0u);
  EXPECT_EQ(ctx->stats.candidates, 0u);
}

TEST_F(NonCanonicalOptionsTest, BorrowerNeverOutlivesItsDonorNode) {
  build(NonCanonicalEngineOptions{});
  const SubscriptionId donor = subscribe("a == 1 and b == 2");
  const SubscriptionId borrower = subscribe("a == 1 and b == 2 and c == 3");
  EXPECT_EQ(engine_->partial_shares(), 1u);

  // Removing the donor's subscription must not free the donor's node: the
  // borrower holds a forest reference and keeps gating on its truth.
  EXPECT_TRUE(engine_->remove(donor));
  const std::size_t nodes_after = engine_->forest().live_nodes();
  EXPECT_GT(nodes_after, 0u);
  const Event both = EventBuilder(attrs_).set("a", 1).set("b", 2).set("c", 3)
                         .build();
  EXPECT_EQ(testing::match_event(*engine_, both), std::vector{borrower});
  const Event gated = EventBuilder(attrs_).set("c", 3).build();
  const auto ctx = engine_->make_context();
  EXPECT_TRUE(testing::match_event(*engine_, gated, *ctx).empty());
  EXPECT_GE(ctx->stats.covering_skips, 1u);

  // The borrower's removal releases the donated reference; everything
  // drains.
  EXPECT_TRUE(engine_->remove(borrower));
  EXPECT_EQ(engine_->partial_shares(), 0u);
  EXPECT_EQ(engine_->forest().live_nodes(), 0u);
  EXPECT_EQ(table_.size(), 0u);
}

TEST_F(NonCanonicalOptionsTest, NotBearingExpressionsNeverPartialShare) {
  // Regression (code review): canonicalisation rewrites `not x == 9` into
  // the interned complement `x != 9`, and the two disagree when x is
  // absent from the event — the complement predicate is false on absence,
  // the NOT is true. A propositional proof through that literal once
  // adopted the written-complement subscription as a donor and gated the
  // NOT-bearing borrower on it, dropping a real match. NOT-bearing
  // expressions must simply never participate in partial sharing.
  build(NonCanonicalEngineOptions{});
  NonCanonicalTreeEngine reference(table_);
  const char* kSubs[] = {
      "a == 1 and x != 9",                  // written complement (donor bait)
      "a == 1 and not x == 9 and y == 1",   // NOT form of the same literal
  };
  for (const char* text : kSubs) {
    const ast::Expr expr = parse_subscription(text, attrs_, table_);
    ASSERT_EQ(reference.add(expr.root()), engine_->add(expr.root()));
  }
  EXPECT_EQ(engine_->partial_shares(), 0u);
  // x absent: the written complement is false, the NOT is true — the
  // borrower-to-be must still match, exactly like the tree engine.
  const Event x_absent = EventBuilder(attrs_).set("a", 1).set("y", 1).build();
  EXPECT_EQ(testing::match_event(*engine_, x_absent),
            testing::match_event(reference, x_absent));
  EXPECT_EQ(testing::match_event(*engine_, x_absent).size(), 1u);
  const Event x_present =
      EventBuilder(attrs_).set("a", 1).set("y", 1).set("x", 9).build();
  EXPECT_EQ(testing::match_event(*engine_, x_present),
            testing::match_event(reference, x_present));
}

TEST_F(NonCanonicalOptionsTest, PartialSharingProbesSurviveBudgetOverflow) {
  // A candidate whose covering proof explodes the budget must simply not
  // donate — never throw, never alias unsoundly.
  NonCanonicalEngineOptions options;
  options.subsumption_budget.max_disjuncts = 4;
  build(options);
  std::string wide = "a >= 0";
  for (int i = 0; i < 8; ++i) {
    const std::string g = "g" + std::to_string(i);
    wide += " and (" + g + " == 1 or " + g + " == 2)";
  }
  const SubscriptionId d = subscribe(wide);
  const SubscriptionId b = subscribe(wide + " and z == 1");
  EXPECT_EQ(engine_->partial_shares(), 0u);  // proof overflowed: no donor
  EventBuilder builder(attrs_);
  builder.set("a", 1).set("z", 1);
  for (int i = 0; i < 8; ++i) builder.set("g" + std::to_string(i), 2);
  EXPECT_EQ(testing::match_event(*engine_, builder.build()),
            testing::sorted(std::vector{d, b}));
}

// ---- Per-event scratch reset regressions -------------------------------

TEST_F(NonCanonicalOptionsTest, TallTreeThenLeafOnlyEventResetsScratch) {
  // Satellite regression: an event flooding a tall frontier followed by an
  // event touching a single leaf must not replay stale rank buckets or
  // stale memoized truth. Diffed against the per-subscription tree engine.
  build(NonCanonicalEngineOptions{});
  NonCanonicalTreeEngine reference(table_);
  const char* kSubs[] = {
      "((a == 1 or b == 2) and (c == 3 or d == 4)) or "
      "((e == 5 or f == 6) and not (g == 7 and h == 8))",
      "(a == 1 and (b == 2 or (c == 3 and (d == 4 or e == 5))))",
      "h == 8",
      "a == 1 and b == 2",
  };
  for (const char* text : kSubs) {
    const ast::Expr expr = parse_subscription(text, attrs_, table_);
    ASSERT_EQ(reference.add(expr.root()), engine_->add(expr.root()));
  }
  const Event tall = EventBuilder(attrs_)
                         .set("a", 1).set("b", 2).set("c", 3).set("d", 4)
                         .set("e", 5).set("f", 6).set("g", 7).set("h", 8)
                         .build();
  const Event leaf_only = EventBuilder(attrs_).set("h", 8).build();
  const Event empty = EventBuilder(attrs_).set("zz", 0).build();
  for (const Event* event : {&tall, &leaf_only, &empty, &leaf_only, &tall}) {
    EXPECT_EQ(testing::match_event(*engine_, *event),
              testing::match_event(reference, *event));
  }
}

TEST_F(NonCanonicalOptionsTest, EpochWrapClearsStaleTruth) {
  // The epoch-stamped truth array wraps once per ~4G events; stale stamps
  // from before the wrap must not resurface as frontier membership.
  build(NonCanonicalEngineOptions{});
  NonCanonicalTreeEngine reference(table_);
  const char* kSubs[] = {
      "(a == 1 or b == 2) and c == 3",
      "not a == 1",
      "a == 1 and b == 2",
  };
  for (const char* text : kSubs) {
    const ast::Expr expr = parse_subscription(text, attrs_, table_);
    ASSERT_EQ(reference.add(expr.root()), engine_->add(expr.root()));
  }
  const Event rich =
      EventBuilder(attrs_).set("a", 1).set("b", 2).set("c", 3).build();
  const Event sparse = EventBuilder(attrs_).set("b", 2).build();
  const auto ctx = engine_->make_context();
  EXPECT_EQ(testing::match_event(*engine_, rich, *ctx),
            testing::match_event(reference, rich));
  engine_->force_scratch_epoch_wrap(*ctx);  // next match wraps the epoch
  EXPECT_EQ(testing::match_event(*engine_, sparse, *ctx),
            testing::match_event(reference, sparse));
  EXPECT_EQ(testing::match_event(*engine_, rich, *ctx),
            testing::match_event(reference, rich));
}

TEST_F(NonCanonicalTreeTest, TreeStorageCompaction) {
  std::vector<SubscriptionId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(subscribe("a == " + std::to_string(i) + " and b == 2"));
  }
  for (int i = 0; i < 50; i += 2) engine_.remove(ids[i]);
  EXPECT_GT(engine_.dead_tree_bytes(), 0u);
  engine_.compact_tree_storage();
  EXPECT_EQ(engine_.dead_tree_bytes(), 0u);
  // Matching still works on relocated trees.
  EXPECT_EQ(testing::match_event(engine_,
                                 EventBuilder(attrs_).set("a", 1).set("b", 2)
                                     .build()),
            std::vector{ids[1]});
}

}  // namespace
}  // namespace ncps
