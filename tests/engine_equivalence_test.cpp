// Cross-engine equivalence: the paper's premise is that all three algorithms
// compute the same match sets — the non-canonical engine directly, the
// counting engines through DNF transformation. This suite drives thousands
// of random (subscription, event) pairs through every engine and a
// brute-force AST oracle, across several workload regimes.
//
// Events are total over the workload schema (attribute_presence = 1) in the
// regimes containing NOT: operator complementation preserves semantics
// exactly on total events (DESIGN.md §3, decision 3). The partial-event
// regime therefore runs NOT-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>

#include "common/random.h"
#include "engine/engine_factory.h"
#include "storage/serializer.h"
#include "subscription/parser.h"
#include "subscription/printer.h"
#include "test_util.h"
#include "workload/paper_workload.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

struct Regime {
  const char* name;
  RandomWorkloadConfig config;
  int subscriptions;
  int events;
};

class EquivalenceTest : public ::testing::TestWithParam<Regime> {};

TEST_P(EquivalenceTest, AllEnginesAgreeWithOracle) {
  const Regime& regime = GetParam();

  AttributeRegistry attrs;
  PredicateTable table;
  RandomWorkload workload(regime.config, attrs, table);

  NonCanonicalEngine non_canonical(table);
  NonCanonicalTreeEngine tree(table);
  CountingEngine counting(table);
  CountingVariantEngine variant(table);

  std::vector<ast::Expr> exprs;  // keeps ASTs alive for the oracle
  std::vector<std::pair<SubscriptionId, const ast::Node*>> oracle_subs;
  for (int i = 0; i < regime.subscriptions; ++i) {
    exprs.push_back(workload.next_subscription());
    const ast::Node& root = exprs.back().root();
    const SubscriptionId a = non_canonical.add(root);
    const SubscriptionId t = tree.add(root);
    const SubscriptionId b = counting.add(root);
    const SubscriptionId c = variant.add(root);
    // Identical registration order ⇒ identical ids across engines.
    ASSERT_EQ(a, t);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, c);
    oracle_subs.emplace_back(a, &root);
  }

  for (int i = 0; i < regime.events; ++i) {
    const Event event = workload.next_event();
    const auto expected = testing::oracle_match(oracle_subs, table, event);
    EXPECT_EQ(testing::match_event(non_canonical, event), expected)
        << "non-canonical (forest) diverged on event " << i << ": "
        << event.to_display_string(attrs);
    EXPECT_EQ(testing::match_event(tree, event), expected)
        << "non-canonical-tree diverged on event " << i << ": "
        << event.to_display_string(attrs);
    EXPECT_EQ(testing::match_event(counting, event), expected)
        << "counting diverged on event " << i << ": "
        << event.to_display_string(attrs);
    EXPECT_EQ(testing::match_event(variant, event), expected)
        << "counting-variant diverged on event " << i << ": "
        << event.to_display_string(attrs);
  }
}

RandomWorkloadConfig numeric_only() {
  RandomWorkloadConfig c;
  c.rich_operators = false;
  c.not_probability = 0.0;
  c.seed = 101;
  return c;
}

RandomWorkloadConfig with_not() {
  RandomWorkloadConfig c;
  c.rich_operators = false;
  c.not_probability = 0.35;
  c.attribute_presence = 1.0;  // total events: complement law applies
  c.seed = 202;
  return c;
}

RandomWorkloadConfig rich_total() {
  RandomWorkloadConfig c;
  c.rich_operators = true;
  c.not_probability = 0.25;
  c.attribute_presence = 1.0;
  c.seed = 303;
  return c;
}

RandomWorkloadConfig partial_events_not_free() {
  RandomWorkloadConfig c;
  c.rich_operators = true;
  c.not_probability = 0.0;
  c.attribute_presence = 0.6;
  c.seed = 404;
  return c;
}

RandomWorkloadConfig heavy_sharing() {
  RandomWorkloadConfig c;
  c.rich_operators = false;
  c.not_probability = 0.2;
  c.sharing_probability = 0.9;
  c.domain_size = 6;  // few predicates, heavily shared
  c.seed = 505;
  return c;
}

RandomWorkloadConfig deep_trees() {
  RandomWorkloadConfig c;
  c.rich_operators = false;
  c.not_probability = 0.3;
  c.max_depth = 6;
  c.max_children = 3;
  c.seed = 606;
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, EquivalenceTest,
    ::testing::Values(
        Regime{"numeric_only", numeric_only(), 150, 200},
        Regime{"with_not", with_not(), 120, 200},
        Regime{"rich_operators", rich_total(), 100, 150},
        Regime{"partial_events", partial_events_not_free(), 100, 150},
        Regime{"heavy_sharing", heavy_sharing(), 150, 200},
        Regime{"deep_trees", deep_trees(), 80, 150}),
    [](const auto& param_info) { return param_info.param.name; });

// Equivalence must survive churn: remove a random half of the subscriptions
// from every engine and re-check.
TEST(EquivalenceChurnTest, AgreesAfterUnsubscriptions) {
  AttributeRegistry attrs;
  PredicateTable table;
  RandomWorkloadConfig config;
  config.rich_operators = false;
  config.not_probability = 0.2;
  config.seed = 9090;
  RandomWorkload workload(config, attrs, table);

  NonCanonicalEngine non_canonical(table);
  NonCanonicalTreeEngine tree(table);
  CountingEngine counting(table);
  CountingVariantEngine variant(table);

  std::vector<ast::Expr> exprs;
  std::vector<std::pair<SubscriptionId, const ast::Node*>> live;
  for (int i = 0; i < 120; ++i) {
    exprs.push_back(workload.next_subscription());
    const SubscriptionId id = non_canonical.add(exprs.back().root());
    ASSERT_EQ(tree.add(exprs.back().root()), id);
    ASSERT_EQ(counting.add(exprs.back().root()), id);
    ASSERT_EQ(variant.add(exprs.back().root()), id);
    live.emplace_back(id, &exprs.back().root());
  }

  // Remove every other subscription.
  std::vector<std::pair<SubscriptionId, const ast::Node*>> kept;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(non_canonical.remove(live[i].first));
      ASSERT_TRUE(tree.remove(live[i].first));
      ASSERT_TRUE(counting.remove(live[i].first));
      ASSERT_TRUE(variant.remove(live[i].first));
    } else {
      kept.push_back(live[i]);
    }
  }

  for (int i = 0; i < 150; ++i) {
    const Event event = workload.next_event();
    const auto expected = testing::oracle_match(kept, table, event);
    EXPECT_EQ(testing::match_event(non_canonical, event), expected);
    EXPECT_EQ(testing::match_event(tree, event), expected);
    EXPECT_EQ(testing::match_event(counting, event), expected);
    EXPECT_EQ(testing::match_event(variant, event), expected);
  }
}

// Phase-2 equivalence on the paper's exact workload shape: identical
// fulfilled-predicate sets must produce identical match sets.
TEST(EquivalencePhase2Test, PaperWorkloadFulfilledSets) {
  AttributeRegistry attrs;
  PredicateTable table;
  PaperWorkloadConfig config;
  config.predicates_per_subscription = 6;
  config.attribute_count = 10;
  config.domain_size = 5000;  // small domain: fulfilled predicates hit often
  config.seed = 4242;
  PaperWorkload workload(config, attrs, table);

  NonCanonicalEngine non_canonical(table);
  NonCanonicalTreeEngine tree(table);
  CountingEngine counting(table);
  CountingVariantEngine variant(table);

  std::vector<ast::Expr> exprs;
  std::vector<std::pair<SubscriptionId, const ast::Node*>> oracle_subs;
  for (int i = 0; i < 400; ++i) {
    exprs.push_back(workload.next_subscription());
    const SubscriptionId id = non_canonical.add(exprs.back().root());
    ASSERT_EQ(tree.add(exprs.back().root()), id);
    ASSERT_EQ(counting.add(exprs.back().root()), id);
    ASSERT_EQ(variant.add(exprs.back().root()), id);
    oracle_subs.emplace_back(id, &exprs.back().root());
  }

  for (int round = 0; round < 30; ++round) {
    const std::vector<PredicateId> fulfilled = workload.sample_fulfilled(300);
    // Oracle on the truth assignment "pid ∈ fulfilled".
    std::vector<PredicateId> sorted_fulfilled = testing::sorted(fulfilled);
    std::vector<SubscriptionId> expected;
    for (const auto& [id, root] : oracle_subs) {
      const bool hit = ast::evaluate(*root, [&](PredicateId pid) {
        return std::binary_search(sorted_fulfilled.begin(),
                                  sorted_fulfilled.end(), pid);
      });
      if (hit) expected.push_back(id);
    }
    std::sort(expected.begin(), expected.end());

    EXPECT_EQ(testing::match_predicates(non_canonical, fulfilled), expected);
    EXPECT_EQ(testing::match_predicates(tree, fulfilled), expected);
    EXPECT_EQ(testing::match_predicates(counting, fulfilled), expected);
    EXPECT_EQ(testing::match_predicates(variant, fulfilled), expected);
  }
}

// ---- Block path --------------------------------------------------------
// The forest's match_range evaluates a dense slice once per block of up to
// 64 events (DESIGN.md §1c). Whichever path a slice takes, each event's
// match set must equal the per-event match_predicates set and the oracle.

/// Collects match_range output per event and checks that it arrives in
/// batch order.
class PerEventSink final : public MatchSink {
 public:
  explicit PerEventSink(std::size_t events) : sets_(events) {}

  void on_match(std::size_t event_index, const Event& /*event*/,
                SubscriptionId subscription) override {
    EXPECT_GE(event_index, last_) << "events out of batch order";
    last_ = event_index;
    sets_[event_index].push_back(subscription);
  }

  std::vector<SubscriptionId> take(std::size_t event_index) {
    return testing::sorted(std::move(sets_[event_index]));
  }

 private:
  std::vector<std::vector<SubscriptionId>> sets_;
  std::size_t last_ = 0;
};

class BlockPathTest : public ::testing::Test {
 protected:
  using Subs = std::vector<std::pair<SubscriptionId, const ast::Node*>>;

  SubscriptionId add(ast::Expr expr) {
    exprs_.push_back(std::move(expr));
    const SubscriptionId id = engine_.add(exprs_.back().root());
    subs_.emplace_back(id, &exprs_.back().root());
    return id;
  }
  SubscriptionId add(std::string_view text) {
    return add(parse_subscription(text, attrs_, table_));
  }
  void remove(SubscriptionId id) {
    ASSERT_TRUE(engine_.remove(id));
    std::erase_if(subs_, [&](const auto& sub) { return sub.first == id; });
  }

  /// Runs `events` through `engine` in `chunk`-event match_range slices on
  /// `ctx` and checks every event against match_predicates and the oracle
  /// over `subs`. Returns how many events took the block path.
  std::uint64_t check(const NonCanonicalEngine& engine, const Subs& subs,
                      const std::vector<Event>& events, std::size_t chunk,
                      MatchContext& ctx) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    PerEventSink sink(events.size());
    ctx.stats.reset();
    for (std::size_t first = 0; first < events.size(); first += chunk) {
      engine.match_range(events, first, std::min(events.size(), first + chunk),
                         sink, ctx);
    }
    std::uint64_t fulfilled_total = 0;
    std::uint64_t matches_total = 0;
    for (std::size_t e = 0; e < events.size(); ++e) {
      std::vector<PredicateId> fulfilled;
      engine.predicate_index().match(events[e], table_, fulfilled);
      fulfilled_total += fulfilled.size();
      const std::vector<SubscriptionId> expected =
          testing::oracle_match(subs, table_, events[e]);
      matches_total += expected.size();
      EXPECT_EQ(sink.take(e), expected) << "event " << e;
      EXPECT_EQ(testing::match_predicates(engine, fulfilled), expected)
          << "event " << e;
    }
    // Per-event totals stay exact on either path.
    EXPECT_EQ(ctx.stats.events, events.size());
    EXPECT_EQ(ctx.stats.fulfilled_predicates, fulfilled_total);
    EXPECT_EQ(ctx.stats.matches, matches_total);
    return ctx.stats.block_events;
  }

  /// Every chunk length the suite covers: single events, a short chunk,
  /// one full block, and two that cross the 64-event block boundary.
  /// Returns the block-path events per chunk length.
  std::vector<std::uint64_t> check_all_chunks(
      const std::vector<Event>& events) {
    std::vector<std::uint64_t> block;
    for (const std::size_t chunk : {1, 7, 64, 65, 130}) {
      block.push_back(check(engine_, subs_, events, chunk, *ctx_));
    }
    EXPECT_EQ(block.front(), 0u) << "single events take the flip path";
    return block;
  }

  std::vector<Event> random_events(RandomWorkload& workload, int count) {
    std::vector<Event> events;
    for (int i = 0; i < count; ++i) events.push_back(workload.next_event());
    return events;
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
  NonCanonicalEngine engine_{table_};
  // One context for the whole test, as a broker worker keeps its own.
  std::unique_ptr<MatchContext> ctx_ = engine_.make_context();
  std::deque<ast::Expr> exprs_;
  Subs subs_;
};

TEST_F(BlockPathTest, RandomForestsWithNotAndRichOperators) {
  RandomWorkloadConfig config = rich_total();
  config.not_probability = 0.35;
  RandomWorkload workload(config, attrs_, table_);
  for (int i = 0; i < 150; ++i) add(workload.next_subscription());
  const auto block = check_all_chunks(random_events(workload, 260));
  EXPECT_GT(block[2], 0u);  // dense: full blocks take the block path
}

TEST_F(BlockPathTest, DeepRandomForestsAndHeavySharing) {
  RandomWorkloadConfig deep = deep_trees();
  RandomWorkload workload(deep, attrs_, table_);
  for (int i = 0; i < 100; ++i) add(workload.next_subscription());
  RandomWorkloadConfig shared = heavy_sharing();
  RandomWorkload sharing(shared, attrs_, table_);
  for (int i = 0; i < 150; ++i) add(sharing.next_subscription());
  std::vector<Event> events = random_events(workload, 130);
  for (Event& e : random_events(sharing, 130)) events.push_back(std::move(e));
  const auto block = check_all_chunks(events);
  EXPECT_GT(block[4], 0u);
}

TEST_F(BlockPathTest, EachSideOfTheSelectionRuleRuns) {
  // Paper-shaped: every event fulfils a third of the leaves, so every
  // multi-event chunk is dense enough for the block path.
  PaperWorkloadConfig config;
  config.predicates_per_subscription = 6;
  config.attribute_count = 10;
  config.domain_size = 1000;
  config.seed = 77;
  PaperWorkload workload(config, attrs_, table_);
  for (int i = 0; i < 400; ++i) add(workload.next_subscription());
  std::vector<Event> events;
  for (int i = 0; i < 130; ++i) events.push_back(workload.next_event());
  const auto dense = check_all_chunks(events);
  for (std::size_t k = 1; k < dense.size(); ++k) EXPECT_GT(dense[k], 0u);

  // Equality pairs: an event fulfils two of 2,000 leaves, far too few to
  // pay for a sweep of the forest, even over a full block.
  for (int i = 0; i < 1000; ++i) {
    add("k == " + std::to_string(i) + " and m == " + std::to_string(i));
  }
  for (std::size_t e = 0; e < events.size(); ++e) {
    events[e] = EventBuilder(attrs_)
                    .set("k", static_cast<std::int64_t>(e * 7 % 1000))
                    .set("m", static_cast<std::int64_t>(e * 7 % 1000))
                    .build();
  }
  for (const std::uint64_t b : check_all_chunks(events)) EXPECT_EQ(b, 0u);
}

// The path is chosen before phase 1 runs, from the slice's first event
// stabbed alone. On the e2e workloads' shapes at the broker's 16-event
// chunks, `paper` (ANDs of ORs over `>`, `<=`, `==`; a third of the leaves
// fulfilled per event) must take the block path for every event, and
// `selective` (ANDs of two narrow `between` ranges; ~1.4% of the leaves)
// must stay per event: its margin under the rule is ~1.7× at 16 events and
// shrinks as chunks grow. check() holds fulfilled_predicates exact on both.
TEST_F(BlockPathTest, PaperShapedSlicesTakeTheBlockPath) {
  PaperWorkloadConfig config;
  config.predicates_per_subscription = 6;
  config.attribute_count = 50;
  config.domain_size = 1'000'000'000;
  config.seed = 5;
  PaperWorkload workload(config, attrs_, table_);
  for (int i = 0; i < 600; ++i) add(workload.next_subscription());
  std::vector<Event> events;
  for (int i = 0; i < 64; ++i) events.push_back(workload.next_event());
  EXPECT_EQ(check(engine_, subs_, events, 16, *ctx_), events.size());
}

TEST_F(BlockPathTest, SelectiveShapedSlicesStayPerEvent) {
  PaperWorkloadConfig config;
  config.attribute_count = 50;
  config.domain_size = 1'000'000'000;
  config.seed = 6;
  PredicateTable unused;
  PaperWorkload workload(config, attrs_, unused);
  Pcg32 rng(6);
  constexpr std::int64_t kWidth = 7'000'000;
  const auto range = [&](std::uint32_t attribute) {
    const std::int64_t lo = rng.range(0, config.domain_size - kWidth);
    return "attr" + std::to_string(attribute) + " between " +
           std::to_string(lo) + " and " + std::to_string(lo + kWidth - 1);
  };
  for (int i = 0; i < 5000; ++i) {
    const std::uint32_t a = rng.bounded(50);
    const std::uint32_t b = (a + 1 + rng.bounded(49)) % 50;
    add(range(a) + " and " + range(b));
  }
  std::vector<Event> events;
  for (int i = 0; i < 64; ++i) events.push_back(workload.next_event());
  EXPECT_EQ(check(engine_, subs_, events, 16, *ctx_), 0u);
}

TEST_F(BlockPathTest, SharedDuplicatedSingleAndStaticallyTrueRoots) {
  const std::vector<std::string> texts = {
      "a == 1",                                  // single-predicate root
      "a == 1",                                  // ... duplicated
      "not a == 1",                              // statically true root
      "not (a == 1 and b == 2)",                 // statically true, shared
      "(a == 1 and b == 2) or c == 3",           // shared subtree
      "(a == 1 and b == 2) and not d == 4",
      "(c == 3 or d == 4) and (c == 3 or d == 4)",  // repeated child
      "(c == 3 or d == 4) and (c == 3 or d == 4)",  // duplicated root
      "not (not a == 1 or not b == 2) or d == 4",
      "((a == 1 or b == 2) and c == 3) or not (d == 4 or a == 1)"};
  for (const std::string& text : texts) add(text);
  // Every assignment of a..d to {match, mismatch, absent}, twice over.
  std::vector<Event> events;
  for (int round = 0; round < 2; ++round) {
    for (int code = 0; code < 81; ++code) {
      EventBuilder builder(attrs_);
      builder.set("zz", 0);
      int rest = code;
      for (int i = 0; i < 4; ++i) {
        const std::string name(1, static_cast<char>('a' + i));
        if (rest % 3 == 0) builder.set(name, i + 1);
        if (rest % 3 == 1) builder.set(name, i + 11);
        rest /= 3;
      }
      events.push_back(builder.build());
    }
  }
  const auto block = check_all_chunks(events);
  EXPECT_EQ(block[2], events.size());
}

TEST_F(BlockPathTest, RemovalsThatReuseNodeSlots) {
  RandomWorkloadConfig config = with_not();
  RandomWorkload workload(config, attrs_, table_);
  std::vector<SubscriptionId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(add(workload.next_subscription()));
  const std::vector<Event> events = random_events(workload, 260);
  EXPECT_GT(check_all_chunks(events)[3], 0u);
  const std::size_t bound = engine_.forest().node_bound();
  for (std::size_t i = 0; i < ids.size(); i += 2) remove(ids[i]);
  // Fresh subscriptions land in the freed slots, on the same context: an
  // interior slot may now be a leaf, and parents may sit below their
  // children in id order, which rank order must not mind.
  for (int i = 0; i < 100; ++i) add(workload.next_subscription());
  EXPECT_LE(engine_.forest().node_bound(), bound + bound / 4);
  const SharedForest& forest = engine_.forest();
  bool parent_below_child = false;
  for (SharedForest::NodeId n = 0; n < forest.node_bound(); ++n) {
    if (!forest.is_live(n) || forest.kind(n) == ast::NodeKind::Leaf) continue;
    for (const SharedForest::NodeId kid : forest.children(n)) {
      parent_below_child = parent_below_child || kid > n;
    }
  }
  EXPECT_TRUE(parent_below_child);
  EXPECT_GT(check_all_chunks(events)[3], 0u);
}

TEST_F(BlockPathTest, RestoredForestTakesTheSameBlocks) {
  // load_state rebuilds the per-rank live counts the passes stop on.
  // Generated into a table of its own and re-parsed as text, so that at
  // snapshot time the engine's leaves own every live predicate.
  PredicateTable workload_table;
  RandomWorkload workload(with_not(), attrs_, workload_table);
  for (int i = 0; i < 200; ++i) {
    const ast::Expr expr = workload.next_subscription();
    add(print_expression(expr.root(), workload_table, attrs_));
  }
  const std::vector<Event> events = random_events(workload, 130);

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
  EXPECT_EQ(restored.forest().interior_ranks(),
            engine_.forest().interior_ranks());

  const auto restored_ctx = restored.make_context();
  for (const std::size_t chunk : {7, 64, 65}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    PerEventSink original_sink(events.size());
    PerEventSink restored_sink(events.size());
    ctx_->stats.reset();
    for (std::size_t first = 0; first < events.size(); first += chunk) {
      const std::size_t last = std::min(events.size(), first + chunk);
      engine_.match_range(events, first, last, original_sink, *ctx_);
      restored.match_range(events, first, last, restored_sink,
                           *restored_ctx);
    }
    for (std::size_t e = 0; e < events.size(); ++e) {
      EXPECT_EQ(restored_sink.take(e), original_sink.take(e)) << "event " << e;
    }
    EXPECT_GT(ctx_->stats.block_events, 0u);
    EXPECT_EQ(restored_ctx->stats.block_events, ctx_->stats.block_events);
    EXPECT_EQ(restored_ctx->stats.node_evaluations,
              ctx_->stats.node_evaluations);
    EXPECT_EQ(restored_ctx->stats.matches, ctx_->stats.matches);
    restored_ctx->stats.reset();
  }
}

TEST_F(BlockPathTest, DeepSubscriptionSendsChunksPerEvent) {
  PaperWorkloadConfig config;
  config.attribute_count = 10;
  config.domain_size = 1000;
  config.seed = 78;
  PaperWorkload workload(config, attrs_, table_);
  for (int i = 0; i < 200; ++i) add(workload.next_subscription());
  std::vector<Event> events;
  for (int i = 0; i < 130; ++i) events.push_back(workload.next_event());
  EXPECT_GT(check_all_chunks(events)[2], 0u);

  // One subscription of the deepest legal shape makes every block pay
  // 4,095 rank passes, so no chunk takes the block path.
  const ast::Expr leaf = parse_subscription("deep == 1", attrs_, table_);
  ast::NodePtr chain = ast::leaf(leaf.root().pred);
  for (std::size_t d = 0; d < SharedForest::kMaxDepth; ++d) {
    chain = ast::make_not(std::move(chain));
  }
  const SubscriptionId deep =
      add(ast::Expr(std::move(chain), table_, ast::Expr::AddRefs{}));
  EXPECT_EQ(engine_.forest().interior_ranks(), SharedForest::kMaxDepth);
  for (const std::uint64_t b : check_all_chunks(events)) EXPECT_EQ(b, 0u);

  remove(deep);
  EXPECT_GT(check_all_chunks(events)[2], 0u);
}

TEST_F(BlockPathTest, SinkExceptionLeavesTheContextClean) {
  // A sink that throws mid-block leaves lane masks and per-lane root
  // buckets behind; the next block on the same context must not see them.
  struct Thrown {};
  class ThrowingSink final : public MatchSink {
   public:
    void on_match(std::size_t, const Event&, SubscriptionId) override {
      if (++seen_ == 100) throw Thrown{};
    }

   private:
    int seen_ = 0;
  };
  PaperWorkloadConfig config;
  config.attribute_count = 10;
  config.domain_size = 1000;
  config.seed = 80;
  PaperWorkload workload(config, attrs_, table_);
  for (int i = 0; i < 300; ++i) add(workload.next_subscription());
  std::vector<Event> events;
  for (int i = 0; i < 130; ++i) events.push_back(workload.next_event());
  ThrowingSink thrower;
  EXPECT_THROW(engine_.match_range(events, 0, 64, thrower, *ctx_), Thrown);
  // The same 64-event slice takes the block path here, so the throw above
  // came mid-block.
  EXPECT_GT(check_all_chunks(events)[2], 0u);
}

TEST_F(BlockPathTest, OneContextAlternatesBetweenEngines) {
  // Two engines of different sizes and shapes share one context, chunk by
  // chunk: a lane mask one engine left behind must never leak into the
  // other's blocks (interior ids of one are leaf ids of the other).
  PaperWorkloadConfig config;
  config.attribute_count = 10;
  config.domain_size = 1000;
  config.seed = 79;
  PaperWorkload workload(config, attrs_, table_);
  for (int i = 0; i < 300; ++i) add(workload.next_subscription());

  NonCanonicalEngine pairs(table_);
  std::deque<ast::Expr> pair_exprs;
  Subs pair_subs;
  for (int i = 0; i < 40; ++i) {
    pair_exprs.push_back(parse_subscription(
        "attr0 > " + std::to_string(i * 20) + " and attr1 < " +
            std::to_string(1000 - i * 20),
        attrs_, table_));
    pair_subs.emplace_back(pairs.add(pair_exprs.back().root()),
                           &pair_exprs.back().root());
  }
  ASSERT_NE(pairs.forest().node_bound(), engine_.forest().node_bound());

  std::vector<Event> events;
  for (int i = 0; i < 130; ++i) events.push_back(workload.next_event());
  const auto ctx = engine_.make_context();
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t chunk : {7, 64, 65}) {
      EXPECT_GT(check(engine_, subs_, events, chunk, *ctx), 0u);
      EXPECT_GT(check(pairs, pair_subs, events, chunk, *ctx), 0u);
    }
  }
}

}  // namespace
}  // namespace ncps
