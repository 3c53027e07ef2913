// Per-engine behavioural tests, parameterized over all three algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/engine_factory.h"
#include "storage/serializer.h"
#include "subscription/parser.h"
#include "subscription/printer.h"
#include "test_util.h"
#include "workload/random_workload.h"

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

TEST_F(NonCanonicalTest, CommutedRootsShareOneRootByIdentity) {
  const SubscriptionId s1 = subscribe("(a == 1 or b == 2) and c == 3");
  const std::size_t nodes_after_first = engine_.forest().live_nodes();
  const SubscriptionId s2 = subscribe("c == 3 and (b == 2 or a == 1)");
  EXPECT_EQ(engine_.distinct_roots(), 1u);
  EXPECT_EQ(engine_.forest().live_nodes(), nodes_after_first);
  const Event hit = EventBuilder(attrs_).set("b", 2).set("c", 3).build();
  EXPECT_EQ(testing::match_event(engine_, hit),
            testing::sorted(std::vector{s1, s2}));
  EXPECT_TRUE(
      testing::match_event(engine_, EventBuilder(attrs_).set("a", 1).build())
          .empty());
  EXPECT_TRUE(engine_.remove(s1));
  EXPECT_EQ(testing::match_event(engine_, hit), std::vector{s2});
  EXPECT_TRUE(engine_.remove(s2));
  EXPECT_EQ(engine_.forest().live_nodes(), 0u);
  EXPECT_EQ(table_.size(), 0u);
}

TEST_F(NonCanonicalTest, CommutedRootsShareEvenPastTheDnfBudget) {
  // A pair whose DNF has 2^21 disjuncts — past the covering proofs'
  // default budget of 2^20. Identity needs no DNF, so the commuted pair
  // still shares one root.
  std::string wide = "a >= 0";
  std::string wide_commuted = "a >= 0";
  for (int i = 0; i < 21; ++i) {
    const std::string g = "g" + std::to_string(i);
    wide += " and (" + g + " == 1 or " + g + " == 2)";
    wide_commuted = "(" + g + " == 2 or " + g + " == 1) and " + wide_commuted;
  }
  const SubscriptionId s1 = subscribe(wide);
  const SubscriptionId s2 = subscribe(wide_commuted);
  EXPECT_EQ(engine_.distinct_roots(), 1u);
  EventBuilder builder(attrs_);
  builder.set("a", 5);
  for (int i = 0; i < 21; ++i) builder.set("g" + std::to_string(i), 1);
  EXPECT_EQ(testing::match_event(engine_, builder.build()),
            testing::sorted(std::vector{s1, s2}));
  EXPECT_TRUE(engine_.remove(s1));
  EXPECT_TRUE(engine_.remove(s2));
  EXPECT_EQ(table_.size(), 0u);
}

TEST_F(NonCanonicalTest, EquivalentButNotCommutedRootsStayApart) {
  // Regression: `not (a == 1)` canonicalises to the complement predicate
  // `a != 1`, so a DNF covering proof once judged these two subscriptions
  // equivalent and shared one result root. They differ when `a` is absent:
  // the complement is false there, the NOT is true. On {b=5} only the
  // second matches, exactly as in the per-subscription tree engine.
  NonCanonicalTreeEngine reference(table_);
  const char* kSubs[] = {
      "a != 1 and not (a == 1)",
      "not (a == 1) or a != 1",
  };
  for (const char* text : kSubs) {
    const ast::Expr expr = parse_subscription(text, attrs_, table_);
    ASSERT_EQ(reference.add(expr.root()), engine_.add(expr.root()));
  }
  EXPECT_EQ(engine_.distinct_roots(), 2u);
  const Event b_only = EventBuilder(attrs_).set("b", 5).build();
  EXPECT_EQ(testing::match_event(engine_, b_only),
            testing::match_event(reference, b_only));
  EXPECT_EQ(testing::match_event(engine_, b_only),
            std::vector{SubscriptionId(1)});
  for (const int a : {1, 2}) {
    const Event event = EventBuilder(attrs_).set("a", a).build();
    EXPECT_EQ(testing::match_event(engine_, event),
              testing::match_event(reference, event))
        << "a = " << a;
  }
}

TEST_F(NonCanonicalTest, DistinctSemanticsNeverShareARoot) {
  // Same predicates, different connective: AND vs OR.
  const SubscriptionId s1 = subscribe("a == 1 and b == 2");
  const SubscriptionId s2 = subscribe("a == 1 or b == 2");
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

TEST_F(NonCanonicalTest, ChainLengthCountsCandidatesThroughRemovalAndReload) {
  // One root carrying a chain of five subscriptions (the newest heads the
  // chain), plus a second root so distinct_roots() counts more than one.
  const char* text = "a == 1 and b == 2";
  std::vector<SubscriptionId> chain;
  for (int i = 0; i < 5; ++i) chain.push_back(subscribe(text));
  const SubscriptionId other = subscribe("c == 3");
  const Event refuted = EventBuilder(attrs_).set("a", 1).build();
  const Event hit = EventBuilder(attrs_).set("a", 1).set("b", 2).build();

  // A refuted root adds exactly its chain length to candidates; a true one
  // adds it to candidates and matches alike.
  const auto expect_chain = [&](const FilterEngine& engine,
                                const std::vector<SubscriptionId>& live) {
    const auto ctx = engine.make_context();
    EXPECT_TRUE(testing::match_event(engine, refuted, *ctx).empty());
    EXPECT_EQ(ctx->stats.candidates, live.size());
    EXPECT_EQ(ctx->stats.matches, 0u);
    EXPECT_EQ(testing::match_event(engine, hit, *ctx), testing::sorted(live));
    EXPECT_EQ(ctx->stats.candidates, live.size());
    EXPECT_EQ(ctx->stats.matches, live.size());
  };
  std::vector<SubscriptionId> live = chain;
  expect_chain(engine_, live);
  EXPECT_EQ(engine_.distinct_roots(), 2u);
  // Head (newest), middle, then tail (oldest).
  for (const std::size_t victim : {std::size_t{4}, std::size_t{2},
                                   std::size_t{0}}) {
    SCOPED_TRACE("removed chain[" + std::to_string(victim) + "]");
    ASSERT_TRUE(engine_.remove(chain[victim]));
    live.erase(std::find(live.begin(), live.end(), chain[victim]));
    expect_chain(engine_, live);
    EXPECT_EQ(engine_.distinct_roots(), 2u);
  }

  // A snapshot round trip derives the head table and chain lengths again
  // through attach(), and re-saves to the same bytes.
  engine_.prepare_snapshot();
  storage::Writer saved;
  engine_.save_state(saved);
  std::vector<AttributeId> attr_remap;
  for (std::uint32_t a = 0; a < attrs_.size(); ++a) {
    attr_remap.push_back(AttributeId(a));
  }
  PredicateTable restored_table;
  NonCanonicalEngine restored(restored_table);
  storage::Reader reader(saved.bytes());
  restored.load_state(reader, attr_remap, nullptr);
  expect_chain(restored, live);
  EXPECT_EQ(restored.distinct_roots(), 2u);
  EXPECT_EQ(testing::match_event(restored,
                                 EventBuilder(attrs_).set("c", 3).build()),
            std::vector{other});
  restored.prepare_snapshot();
  storage::Writer resaved;
  restored.save_state(resaved);
  EXPECT_EQ(resaved.bytes(), saved.bytes());

  // Emptying the chain retires the root.
  for (const SubscriptionId id : live) ASSERT_TRUE(restored.remove(id));
  EXPECT_EQ(restored.distinct_roots(), 1u);
  const auto ctx = restored.make_context();
  EXPECT_TRUE(testing::match_event(restored, hit, *ctx).empty());
  EXPECT_EQ(ctx->stats.candidates, 0u);
}

TEST_F(NonCanonicalTest, NodeSlotsAreReclaimedPromptlyOnRemove) {
  // remove() frees the released node slots before it returns, so unsubscribe-
  // heavy streams cannot park them, and the next add() reuses them.
  const SubscriptionId s = subscribe("q1 == 1 and q2 == 2");
  const std::size_t live_before = engine_.forest().live_nodes();
  const std::size_t bound_before = engine_.forest().node_bound();
  EXPECT_TRUE(engine_.remove(s));
  EXPECT_EQ(engine_.forest().live_nodes(), live_before - 3u);
  subscribe("q3 == 3");
  EXPECT_EQ(engine_.forest().node_bound(), bound_before);
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

// ---- Flip-driven phase 2 ------------------------------------------------
// A node is evaluated only when a child flips away from its static truth;
// AND/OR nodes with no statically-true child are decided from the count of
// flipped child edges, everything else (NOT-bearing structure) by a scan.

class FlipSemanticsTest : public NonCanonicalTest {
 protected:
  /// Registers every text, then checks each event against the oracle.
  void expect_oracle(const std::vector<std::string>& texts,
                     const std::vector<Event>& events) {
    std::vector<ast::Expr> exprs;
    std::vector<std::pair<SubscriptionId, const ast::Node*>> subs;
    for (const std::string& text : texts) {
      exprs.push_back(parse_subscription(text, attrs_, table_));
    }
    for (const ast::Expr& expr : exprs) {
      subs.emplace_back(engine_.add(expr.root()), &expr.root());
    }
    const auto ctx = engine_.make_context();
    for (const Event& event : events) {
      EXPECT_EQ(testing::match_event(engine_, event, *ctx),
                testing::oracle_match(subs, table_, event))
          << event.to_display_string(attrs_);
    }
  }

  /// Every assignment of a, b, c to {match, mismatch, absent}.
  std::vector<Event> abc_assignments() { return assignments({"a", "b", "c"}); }

  /// Every assignment of `names` (the i-th matching at value i + 1) to
  /// {match, mismatch, absent}.
  std::vector<Event> assignments(const std::vector<std::string>& names) {
    int codes = 1;
    for (std::size_t i = 0; i < names.size(); ++i) codes *= 3;
    std::vector<Event> events;
    for (int code = 0; code < codes; ++code) {
      EventBuilder builder(attrs_);
      builder.set("zz", 0);  // never empty, even with every name absent
      int rest = code;
      for (std::size_t i = 0; i < names.size(); ++i) {
        const int value = static_cast<int>(i) + 1;
        if (rest % 3 == 0) builder.set(names[i], value);
        if (rest % 3 == 1) builder.set(names[i], value + 10);
        rest /= 3;
      }
      events.push_back(builder.build());
    }
    return events;
  }
};

TEST_F(FlipSemanticsTest, RepeatedChildCountsEveryEdge) {
  // Interning keeps both occurrences: the AND has two edges to one child,
  // so one flip counts twice and decides it true.
  expect_oracle({"a == 1 and a == 1",
                 "(a == 1 or b == 2) and (a == 1 or b == 2)"},
                abc_assignments());
  const SharedForest& forest = engine_.forest();
  for (SharedForest::NodeId n = 0; n < forest.node_bound(); ++n) {
    if (forest.is_live(n) && forest.kind(n) == ast::NodeKind::And) {
      EXPECT_EQ(forest.child_count(n), 2u);
      EXPECT_EQ(forest.children(n)[0], forest.children(n)[1]);
    }
  }
}

TEST_F(FlipSemanticsTest, MixedStaticTruthMatchesOracle) {
  expect_oracle({"not a == 1 and b == 2",
                 "not a == 1 or b == 2",
                 "not (a == 1 and b == 2)",
                 "(not a == 1 and b == 2) or c == 3",
                 "((not b == 2 and c == 3) or a == 1) and not c == 3",
                 "a == 1 and b == 2 and c == 3"},
                abc_assignments());
}

TEST_F(FlipSemanticsTest, CascadeAndBucketInterplayMatchesOracle) {
  // Count-decided nodes settle the moment their flip count decides them;
  // NOT-bearing nodes wait for their rank bucket. Mix the two both ways,
  // repeat children and give one subtree several parents, then check the
  // match sets and the exact work counts (the values of the rank-ordered
  // evaluator this rule replaced, which evaluated every touched node once).
  const std::vector<std::string> texts = {
      // decided above NOT-bearing
      "(not a == 1 or b == 2) and (c == 3 or d == 4)",
      "((not a == 1 and b == 2) or c == 3) and d == 4",
      // NOT-bearing above decided
      "not ((a == 1 and b == 2) or c == 3)",
      "not (a == 1 or b == 2) or (c == 3 and d == 4)",
      // repeated children, decided and NOT-bearing
      "(a == 1 or b == 2) and (a == 1 or b == 2)",
      "(c == 3 and d == 4) or (c == 3 and d == 4)",
      "not a == 1 and not a == 1",
      // one subtree, several parents
      "(a == 1 and b == 2) or c == 3",
      "(a == 1 and b == 2) and d == 4",
      "not (a == 1 and b == 2) and c == 3",
      "((a == 1 and b == 2) or c == 3) and not d == 4"};
  std::vector<ast::Expr> exprs;
  std::vector<std::pair<SubscriptionId, const ast::Node*>> subs;
  for (const std::string& text : texts) {
    exprs.push_back(parse_subscription(text, attrs_, table_));
  }
  for (const ast::Expr& expr : exprs) {
    subs.emplace_back(engine_.add(expr.root()), &expr.root());
  }
  const auto ctx = engine_.make_context();
  MatchStats total;
  for (const Event& event : assignments({"a", "b", "c", "d"})) {
    EXPECT_EQ(testing::match_event(engine_, event, *ctx),
              testing::oracle_match(subs, table_, event))
        << event.to_display_string(attrs_);
    total.node_evaluations += ctx->stats.node_evaluations;
    total.truth_lookups += ctx->stats.truth_lookups;
    total.candidates += ctx->stats.candidates;
    total.matches += ctx->stats.matches;
  }
  EXPECT_EQ(total.node_evaluations, 858u);
  EXPECT_EQ(total.truth_lookups, 475u);
  EXPECT_EQ(total.candidates, 575u);
  EXPECT_EQ(total.matches, 327u);

  // The forest really holds both stackings and a repeated child.
  const SharedForest& forest = engine_.forest();
  bool decided_over_scanned = false;
  bool scanned_over_decided = false;
  bool repeated = false;
  for (SharedForest::NodeId n = 0; n < forest.node_bound(); ++n) {
    if (!forest.is_live(n) || forest.kind(n) == ast::NodeKind::Leaf) continue;
    const std::span<const SharedForest::NodeId> kids = forest.children(n);
    for (const SharedForest::NodeId kid : kids) {
      if (forest.kind(kid) == ast::NodeKind::Leaf) continue;
      if (forest.decided_by_flips(n) && !forest.decided_by_flips(kid)) {
        decided_over_scanned = true;
      }
      if (!forest.decided_by_flips(n) && forest.decided_by_flips(kid)) {
        scanned_over_decided = true;
      }
    }
    if (kids.size() == 2 && kids[0] == kids[1]) repeated = true;
  }
  EXPECT_TRUE(decided_over_scanned);
  EXPECT_TRUE(scanned_over_decided);
  EXPECT_TRUE(repeated);
}

TEST_F(FlipSemanticsTest, RefutedInnerAndStopsTheClimb) {
  // Only `a` is fulfilled: the inner AND sees one of two children flip,
  // stays false (its static truth), and nothing above it is touched.
  const SubscriptionId s =
      subscribe("((a == 1 and b == 2) or c == 3) and d == 4");
  const auto ctx = engine_.make_context();
  EXPECT_TRUE(testing::match_event(
                  engine_, EventBuilder(attrs_).set("a", 1).build(), *ctx)
                  .empty());
  EXPECT_EQ(ctx->stats.node_evaluations, 1u);
  EXPECT_EQ(ctx->stats.candidates, 0u);
  EXPECT_EQ(ctx->stats.truth_lookups, 0u);  // NOT-free: counts decide
  EXPECT_EQ(testing::match_event(
                engine_,
                EventBuilder(attrs_).set("a", 1).set("b", 2).set("d", 4)
                    .build(),
                *ctx),
            std::vector{s});
  EXPECT_EQ(ctx->stats.node_evaluations, 3u);
  EXPECT_EQ(ctx->stats.candidates, 1u);
}

TEST_F(FlipSemanticsTest, OneLeafPastTheFirstSummaryWord) {
  // More than 4096 nodes, so the leaf bitmap needs a second summary word;
  // one fulfilled predicate at each end of the id range, on one context
  // (a stale bit from the previous event would resurface as a match).
  std::vector<SubscriptionId> pairs;
  for (int i = 0; i < 1500; ++i) {
    pairs.push_back(subscribe("k == " + std::to_string(i) + " and m == " +
                              std::to_string(i)));
  }
  const SubscriptionId last = subscribe("z == 1");
  // `z == 1` is the newest node: a leaf past the first 4096 ids.
  const SharedForest::NodeId z_leaf =
      static_cast<SharedForest::NodeId>(engine_.forest().node_bound() - 1);
  ASSERT_GE(z_leaf, 4096u);
  ASSERT_EQ(engine_.forest().kind(z_leaf), ast::NodeKind::Leaf);
  const auto ctx = engine_.make_context();
  const Event high = EventBuilder(attrs_).set("z", 1).build();
  const Event low = EventBuilder(attrs_).set("k", 0).set("m", 0).build();
  const Event none = EventBuilder(attrs_).set("k", 1499).build();
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(testing::match_event(engine_, high, *ctx), std::vector{last});
    EXPECT_EQ(ctx->stats.fulfilled_predicates, 1u);
    EXPECT_EQ(testing::match_event(engine_, low, *ctx),
              std::vector{pairs.front()});
    EXPECT_TRUE(testing::match_event(engine_, none, *ctx).empty());
  }
}

TEST_F(FlipSemanticsTest, NotBearingSnapshotRoundTripKeepsMatchesAndStats) {
  RandomWorkloadConfig config;
  config.not_probability = 0.4;
  config.seed = 0xf11b;
  // Generated into a table of its own and re-parsed as text, so that at
  // snapshot time the engine's leaves own every live predicate.
  PredicateTable workload_table;
  RandomWorkload workload(config, attrs_, workload_table);
  std::vector<SubscriptionId> ids;
  for (int i = 0; i < 300; ++i) {
    const ast::Expr expr = workload.next_subscription();
    ids.push_back(subscribe(
        print_expression(expr.root(), workload_table, attrs_)));
  }
  for (std::size_t i = 0; i < ids.size(); i += 5) engine_.remove(ids[i]);

  engine_.prepare_snapshot();
  storage::Writer saved;
  engine_.save_state(saved);
  std::vector<AttributeId> attr_remap;
  for (std::uint32_t a = 0; a < attrs_.size(); ++a) {
    attr_remap.push_back(AttributeId(a));
  }
  PredicateTable restored_table;
  NonCanonicalEngine restored(restored_table);
  storage::Reader reader(saved.bytes());
  restored.load_state(reader, attr_remap, nullptr);

  // The derived per-node flag comes back exactly as intern() set it.
  const SharedForest& forest = engine_.forest();
  ASSERT_EQ(restored.forest().node_bound(), forest.node_bound());
  std::size_t scanned = 0;
  for (SharedForest::NodeId n = 0; n < forest.node_bound(); ++n) {
    if (!forest.is_live(n)) continue;
    EXPECT_EQ(restored.forest().decided_by_flips(n),
              forest.decided_by_flips(n));
    const ast::NodeKind kind = forest.kind(n);
    if ((kind == ast::NodeKind::And || kind == ast::NodeKind::Or) &&
        !forest.decided_by_flips(n)) {
      ++scanned;
    }
  }
  EXPECT_GT(scanned, 0u);  // the population really has NOT-bearing nodes

  const auto work = [](const MatchStats& s) {
    return std::vector<std::uint64_t>{
        s.events,           s.fulfilled_predicates, s.candidates,
        s.node_evaluations, s.truth_lookups,        s.matches};
  };
  const auto original_ctx = engine_.make_context();
  const auto restored_ctx = restored.make_context();
  std::uint64_t lookups = 0;
  for (int i = 0; i < 200; ++i) {
    const Event event = workload.next_event();
    EXPECT_EQ(testing::match_event(restored, event, *restored_ctx),
              testing::match_event(engine_, event, *original_ctx))
        << "event " << i;
    EXPECT_EQ(work(restored_ctx->stats), work(original_ctx->stats))
        << "event " << i;
    lookups += original_ctx->stats.truth_lookups;
  }
  EXPECT_GT(lookups, 0u);

  restored.prepare_snapshot();
  storage::Writer resaved;
  restored.save_state(resaved);
  EXPECT_EQ(resaved.bytes(), saved.bytes());
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

TEST_F(NonCanonicalTest, RemovingABaseFreesItsNodes) {
  // A refinement shares its base's leaves but holds nothing of the base's
  // own AND: once the base's last subscription leaves, the forest is
  // exactly what the refinement alone would build.
  const SubscriptionId base = subscribe("a == 1 and b == 2");
  const SubscriptionId refined = subscribe("a == 1 and b == 2 and c == 3");
  EXPECT_TRUE(engine_.remove(base));

  AttributeRegistry fresh_attrs;
  PredicateTable fresh_table;
  NonCanonicalEngine fresh(fresh_table);
  const ast::Expr expr = parse_subscription("a == 1 and b == 2 and c == 3",
                                            fresh_attrs, fresh_table);
  fresh.add(expr.root());
  EXPECT_EQ(engine_.forest().live_nodes(), fresh.forest().live_nodes());
  const Event all = EventBuilder(attrs_).set("a", 1).set("b", 2).set("c", 3)
                        .build();
  EXPECT_EQ(testing::match_event(engine_, all), std::vector{refined});
}

TEST_F(NonCanonicalTest, NotAndWrittenComplementStayDistinct) {
  // Canonicalisation rewrites `not x == 9` into the interned complement
  // `x != 9`, and the two disagree when x is absent from the event: the
  // complement predicate is false on absence, the NOT is true. Diffed
  // against the per-subscription tree engine.
  NonCanonicalTreeEngine reference(table_);
  const char* kSubs[] = {
      "a == 1 and x != 9",                  // written complement
      "a == 1 and not x == 9 and y == 1",   // NOT form of the same literal
  };
  for (const char* text : kSubs) {
    const ast::Expr expr = parse_subscription(text, attrs_, table_);
    ASSERT_EQ(reference.add(expr.root()), engine_.add(expr.root()));
  }
  // x absent: the written complement is false, the NOT is true.
  const Event x_absent = EventBuilder(attrs_).set("a", 1).set("y", 1).build();
  EXPECT_EQ(testing::match_event(engine_, x_absent),
            testing::match_event(reference, x_absent));
  EXPECT_EQ(testing::match_event(engine_, x_absent).size(), 1u);
  const Event x_present =
      EventBuilder(attrs_).set("a", 1).set("y", 1).set("x", 9).build();
  EXPECT_EQ(testing::match_event(engine_, x_present),
            testing::match_event(reference, x_present));
}

TEST_F(NonCanonicalTest, AddBuildsNoDnfPastTheBudget) {
  // Two wide ORs make a DNF of 1100 x 1000 disjuncts, past the default
  // budget of 2^20. add() interns the expression as written, so neither
  // subscription throws and both match.
  const auto wide_or = [](const std::string& attribute, int width) {
    std::string out = "(";
    for (int i = 0; i < width; ++i) {
      if (i > 0) out += " or ";
      out += attribute + " == " + std::to_string(i);
    }
    return out + ")";
  };
  const std::string wide = wide_or("x", 1100) + " and " + wide_or("y", 1000);
  const SubscriptionId d = subscribe(wide);
  const SubscriptionId b = subscribe(wide + " and z == 1");
  const Event event =
      EventBuilder(attrs_).set("x", 5).set("y", 7).set("z", 1).build();
  EXPECT_EQ(testing::match_event(engine_, event),
            testing::sorted(std::vector{d, b}));
}

// ---- Per-event scratch reset regressions -------------------------------

TEST_F(NonCanonicalTest, TallTreeThenLeafOnlyEventResetsScratch) {
  // Regression: an event flooding a tall frontier followed by an
  // event touching a single leaf must not replay stale rank buckets or
  // stale memoized truth. Diffed against the per-subscription tree engine.
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
    ASSERT_EQ(reference.add(expr.root()), engine_.add(expr.root()));
  }
  const Event tall = EventBuilder(attrs_)
                         .set("a", 1).set("b", 2).set("c", 3).set("d", 4)
                         .set("e", 5).set("f", 6).set("g", 7).set("h", 8)
                         .build();
  const Event leaf_only = EventBuilder(attrs_).set("h", 8).build();
  const Event empty = EventBuilder(attrs_).set("zz", 0).build();
  for (const Event* event : {&tall, &leaf_only, &empty, &leaf_only, &tall}) {
    EXPECT_EQ(testing::match_event(engine_, *event),
              testing::match_event(reference, *event));
  }
}

TEST_F(NonCanonicalTest, EpochWrapClearsStaleTruth) {
  // The epoch-stamped truth array wraps once per ~4G events; stale stamps
  // from before the wrap must not resurface as frontier membership.
  NonCanonicalTreeEngine reference(table_);
  const char* kSubs[] = {
      "(a == 1 or b == 2) and c == 3",
      "not a == 1",
      "a == 1 and b == 2",
  };
  for (const char* text : kSubs) {
    const ast::Expr expr = parse_subscription(text, attrs_, table_);
    ASSERT_EQ(reference.add(expr.root()), engine_.add(expr.root()));
  }
  const Event rich =
      EventBuilder(attrs_).set("a", 1).set("b", 2).set("c", 3).build();
  const Event sparse = EventBuilder(attrs_).set("b", 2).build();
  const auto ctx = engine_.make_context();
  EXPECT_EQ(testing::match_event(engine_, rich, *ctx),
            testing::match_event(reference, rich));
  engine_.force_scratch_epoch_wrap(*ctx);  // next match wraps the epoch
  EXPECT_EQ(testing::match_event(engine_, sparse, *ctx),
            testing::match_event(reference, sparse));
  EXPECT_EQ(testing::match_event(engine_, rich, *ctx),
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
