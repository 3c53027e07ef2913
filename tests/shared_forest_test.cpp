// SharedForest unit tests: hash-cons identity, refcount lifecycle, parent
// edges, static truth, slot reuse and compaction — the invariants the
// forest-backed NonCanonicalEngine builds on.
#include "subscription/shared_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "broker/sharded_broker.h"
#include "storage/serializer.h"
#include "subscription/parser.h"
#include "test_util.h"

namespace ncps {
namespace {

using NodeId = SharedForest::NodeId;

class SharedForestTest : public ::testing::Test {
 protected:
  SharedForestTest()
      : forest_([this](PredicateId p) { created_.push_back(p); },
                [this](PredicateId p) { released_.push_back(p); }) {}

  ast::Expr parse(std::string_view text) {
    return parse_subscription(text, attrs_, table_);
  }

  /// The first child of `parent` with kind `kind`; stored child order is
  /// canonical, not written, so tests look children up by shape.
  NodeId child_of_kind(NodeId parent, ast::NodeKind kind) const {
    for (const NodeId c : forest_.children(parent)) {
      if (forest_.kind(c) == kind) return c;
    }
    ADD_FAILURE() << "no child of the requested kind";
    return SharedForest::kNoNode;
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
  SharedForest forest_;
  std::vector<PredicateId> created_;
  std::vector<PredicateId> released_;
};

TEST_F(SharedForestTest, InternDedupesStructurallyIdenticalTrees) {
  const ast::Expr e = parse("(a == 1 or b == 2) and c == 3");
  const auto first = forest_.intern(e.root());
  EXPECT_TRUE(first.created);
  EXPECT_EQ(forest_.live_nodes(), 5u);  // 3 leaves + OR + AND
  EXPECT_EQ(created_.size(), 3u);       // one hook call per distinct leaf

  const auto second = forest_.intern(e.root());
  EXPECT_FALSE(second.created);
  EXPECT_EQ(second.id, first.id);
  EXPECT_EQ(forest_.live_nodes(), 5u);
  EXPECT_EQ(forest_.ref_count(first.id), 2u);
  EXPECT_EQ(created_.size(), 3u);  // no new leaves
}

TEST_F(SharedForestTest, InteriorSubtreesAreShared) {
  const ast::Expr e1 = parse("(a == 1 or b == 2) and c == 3");
  const ast::Expr e2 = parse("(a == 1 or b == 2) and d == 4");
  const NodeId r1 = forest_.intern(e1.root()).id;
  const NodeId r2 = forest_.intern(e2.root()).id;
  EXPECT_NE(r1, r2);
  // Second tree adds only its own AND and the new leaf.
  EXPECT_EQ(forest_.live_nodes(), 7u);

  // The shared OR node is a child of both roots and reports both parents.
  const NodeId shared_or = child_of_kind(r1, ast::NodeKind::Or);
  EXPECT_EQ(child_of_kind(r2, ast::NodeKind::Or), shared_or);
  std::vector<NodeId> parents;
  forest_.for_each_parent(shared_or, [&](NodeId p) { parents.push_back(p); });
  EXPECT_EQ(testing::sorted_values(parents),
            testing::sorted_values(std::vector<NodeId>{r1, r2}));
}

TEST_F(SharedForestTest, ReleaseCascadesAndFiresLeafHooks) {
  const ast::Expr e = parse("(a == 1 or b == 2) and c == 3");
  const NodeId root = forest_.intern(e.root()).id;
  forest_.release(root);
  EXPECT_EQ(forest_.live_nodes(), 0u);
  EXPECT_EQ(released_.size(), 3u);
  EXPECT_EQ(testing::sorted_values(created_),
            testing::sorted_values(released_));
}

TEST_F(SharedForestTest, SharedSubtreeSurvivesPartialRelease) {
  const ast::Expr e1 = parse("(a == 1 or b == 2) and c == 3");
  const ast::Expr e2 = parse("(a == 1 or b == 2) and d == 4");
  const NodeId r1 = forest_.intern(e1.root()).id;
  const NodeId r2 = forest_.intern(e2.root()).id;
  forest_.release(r1);
  // The OR and its leaves live on under r2; only r1's AND and c == 3 died.
  EXPECT_EQ(forest_.live_nodes(), 5u);
  EXPECT_EQ(released_.size(), 1u);
  const NodeId shared_or = child_of_kind(r2, ast::NodeKind::Or);
  std::vector<NodeId> parents;
  forest_.for_each_parent(shared_or, [&](NodeId p) { parents.push_back(p); });
  EXPECT_EQ(parents, std::vector<NodeId>{r2});
  forest_.release(r2);
  EXPECT_EQ(forest_.live_nodes(), 0u);
}

TEST_F(SharedForestTest, DuplicateChildEdgesCarryMultiplicity) {
  // AND(p, p): the leaf has the same parent twice.
  std::vector<ast::NodePtr> kids;
  kids.push_back(ast::leaf(PredicateId(3)));
  kids.push_back(ast::leaf(PredicateId(3)));
  const ast::NodePtr root = ast::make_and(std::move(kids));
  const NodeId r = forest_.intern(*root).id;
  const NodeId leaf = forest_.children(r).front();
  EXPECT_EQ(forest_.ref_count(leaf), 2u);
  std::size_t edges = 0;
  forest_.for_each_parent(leaf, [&](NodeId p) {
    EXPECT_EQ(p, r);
    ++edges;
  });
  EXPECT_EQ(edges, 2u);
  forest_.release(r);
  EXPECT_EQ(forest_.live_nodes(), 0u);
}

TEST_F(SharedForestTest, StaticTruthUnderAllFalseLeaves) {
  const ast::Expr plain = parse("a == 1 and b == 2");
  const ast::Expr negated = parse("not a == 1");
  const ast::Expr mixed = parse("not a == 1 or b == 2");
  EXPECT_FALSE(forest_.static_truth(forest_.intern(plain.root()).id));
  EXPECT_TRUE(forest_.static_truth(forest_.intern(negated.root()).id));
  EXPECT_TRUE(forest_.static_truth(forest_.intern(mixed.root()).id));
}

TEST_F(SharedForestTest, DecidedByFlipsMarksAndOrWithoutStaticTrueChild) {
  const ast::Expr conj = parse("a == 1 and b == 2");
  const ast::Expr disj = parse("a == 1 or b == 2");
  const ast::Expr negated = parse("not a == 1");
  const ast::Expr mixed_or = parse("not a == 1 or b == 2");
  const ast::Expr mixed_and = parse("not a == 1 and b == 2");
  const ast::Expr refuted_not = parse("(not (a == 1 or b == 2)) or c == 3");
  const NodeId c = forest_.intern(conj.root()).id;
  EXPECT_TRUE(forest_.decided_by_flips(c));
  EXPECT_TRUE(forest_.decided_by_flips(forest_.intern(disj.root()).id));
  EXPECT_FALSE(forest_.decided_by_flips(forest_.intern(negated.root()).id));
  EXPECT_FALSE(forest_.decided_by_flips(forest_.intern(mixed_or.root()).id));
  EXPECT_FALSE(forest_.decided_by_flips(forest_.intern(mixed_and.root()).id));
  // NOT of a flip-decided OR is statically true, so the outer OR scans.
  const NodeId outer = forest_.intern(refuted_not.root()).id;
  EXPECT_FALSE(forest_.decided_by_flips(outer));
  const NodeId inner_not = child_of_kind(outer, ast::NodeKind::Not);
  EXPECT_TRUE(forest_.decided_by_flips(forest_.children(inner_not).front()));
  // Leaves never carry the flag.
  EXPECT_FALSE(forest_.decided_by_flips(forest_.children(c).front()));
}

TEST_F(SharedForestTest, RankIsStrictlyAboveChildren) {
  const ast::Expr e = parse("((a == 1 or b == 2) and c == 3) or d == 4");
  const NodeId root = forest_.intern(e.root()).id;
  EXPECT_EQ(forest_.rank(root), 3u);
  for (const NodeId c : forest_.children(root)) {
    EXPECT_LT(forest_.rank(c), forest_.rank(root));
  }
}

TEST_F(SharedForestTest, ToAstRoundTrips) {
  // to_ast() returns the stored (canonical) spelling; interning it again
  // must land on the very same node.
  const ast::Expr e =
      parse("(a > 10 or a <= 5 or b == 1) and not (c <= 20 and d == 5)");
  const NodeId root = forest_.intern(e.root()).id;
  const ast::NodePtr back = forest_.to_ast(root);
  const auto again = forest_.intern(*back);
  EXPECT_FALSE(again.created);
  EXPECT_EQ(again.id, root);
  EXPECT_TRUE(ast::equal(*back, *forest_.to_ast(root)));
}

TEST_F(SharedForestTest, ReleasedSlotIsReusedByNextIntern) {
  const ast::Expr e1 = parse("a == 1 and b == 2");
  const NodeId r1 = forest_.intern(e1.root()).id;
  const std::size_t bound_before = forest_.node_bound();
  forest_.release(r1);

  // release() returns the three slots straight to the free list, so the
  // next intern recycles them instead of growing the arena.
  const ast::Expr e2 = parse("d == 4 and e == 5");
  const NodeId r2 = forest_.intern(e2.root()).id;
  EXPECT_LT(r2, bound_before);  // recycled slot
  EXPECT_EQ(forest_.node_bound(), bound_before);
  EXPECT_EQ(forest_.live_nodes(), 3u);
}

TEST_F(SharedForestTest, CompactionPreservesStructure) {
  std::vector<NodeId> roots;
  std::vector<ast::Expr> exprs;
  for (int i = 0; i < 40; ++i) {
    exprs.push_back(parse("(x == " + std::to_string(i % 7) +
                          " or y == " + std::to_string(i % 5) +
                          ") and z == " + std::to_string(i)));
    roots.push_back(forest_.intern(exprs.back().root()).id);
  }
  for (int i = 0; i < 40; i += 2) forest_.release(roots[i]);
  std::vector<ast::NodePtr> before;
  for (int i = 1; i < 40; i += 2) before.push_back(forest_.to_ast(roots[i]));
  forest_.compact_storage();
  for (int i = 1; i < 40; i += 2) {
    EXPECT_TRUE(ast::equal(*before[i / 2], *forest_.to_ast(roots[i])))
        << "root " << i;
  }
}

// ---- Node identity: canonical child order ----------------------------

// The forest's only identity: AND/OR children intern in canonical order,
// so every commuted spelling of a subtree is one node.
class SortedForestTest : public SharedForestTest {};

TEST_F(SortedForestTest, CommutedConjunctionsInternToOneNode) {
  const ast::Expr ab = parse("a == 1 and b == 2");
  const ast::Expr ba = parse("b == 2 and a == 1");
  const auto r1 = forest_.intern(ab.root());
  const auto r2 = forest_.intern(ba.root());
  EXPECT_TRUE(r1.created);
  EXPECT_FALSE(r2.created);  // commuted spelling: same canonical node
  EXPECT_EQ(r1.id, r2.id);
  EXPECT_EQ(forest_.live_nodes(), 3u);  // 2 leaves + 1 AND
  EXPECT_EQ(forest_.ref_count(r1.id), 2u);
}

TEST_F(SortedForestTest, NestedCommutedFormsCollapse) {
  // Commuting both the OR groups and the AND over them must still land on
  // one node — canonicalisation is bottom-up.
  const ast::Expr e1 = parse("(a == 1 or b == 2) and (c == 3 or d == 4)");
  const ast::Expr e2 = parse("(d == 4 or c == 3) and (b == 2 or a == 1)");
  const NodeId r1 = forest_.intern(e1.root()).id;
  const auto r2 = forest_.intern(e2.root());
  EXPECT_FALSE(r2.created);
  EXPECT_EQ(r1, r2.id);
  EXPECT_EQ(forest_.live_nodes(), 7u);  // 4 leaves + 2 ORs + 1 AND
}

TEST_F(SortedForestTest, DistinctStructuresStayDistinct) {
  // Sorting is not flattening or semantic rewriting: AND vs OR, and
  // different predicate multisets, keep distinct identity.
  const NodeId and_root =
      forest_.intern(parse("a == 1 and b == 2").root()).id;
  const NodeId or_root = forest_.intern(parse("a == 1 or b == 2").root()).id;
  EXPECT_NE(and_root, or_root);
  const auto duplicated =
      forest_.intern(parse("a == 1 and a == 1 and b == 2").root());
  EXPECT_TRUE(duplicated.created);
  EXPECT_NE(duplicated.id, and_root);
}

TEST_F(SortedForestTest, EveryChildOrderHitsOneNode) {
  // All 24 orders of a four-way AND over mixed subtrees (NOT included)
  // share one node, so the stored order cannot depend on the written one.
  std::vector<std::string> parts = {"a == 1", "(b == 2 or c == 3)",
                                    "not d == 4", "not (e == 5 and f == 6)"};
  std::sort(parts.begin(), parts.end());
  std::vector<ast::Expr> exprs;
  NodeId first = SharedForest::kNoNode;
  do {
    exprs.push_back(parse(parts[0] + " and " + parts[1] + " and " +
                          parts[2] + " and " + parts[3]));
    const NodeId root = forest_.intern(exprs.back().root()).id;
    if (first == SharedForest::kNoNode) first = root;
    EXPECT_EQ(root, first);
  } while (std::next_permutation(parts.begin(), parts.end()));
  EXPECT_EQ(exprs.size(), 24u);
  EXPECT_EQ(forest_.ref_count(first), 24u);
  // 6 leaves, the OR, two NOTs, the inner AND and the root.
  EXPECT_EQ(forest_.live_nodes(), 11u);
}

TEST_F(SortedForestTest, RepeatedChildrenKeepTheirMultiplicity) {
  // AND(p, p, q) in every order: one node, and p keeps both edges.
  std::vector<ast::NodePtr> kids;
  kids.push_back(ast::leaf(PredicateId(3)));
  kids.push_back(ast::leaf(PredicateId(5)));
  kids.push_back(ast::leaf(PredicateId(3)));
  const ast::NodePtr written = ast::make_and(std::move(kids));
  const NodeId root = forest_.intern(*written).id;
  ASSERT_EQ(forest_.child_count(root), 3u);
  EXPECT_EQ(forest_.ref_count(forest_.leaf_of(PredicateId(3))), 2u);
  std::vector<ast::NodePtr> respelled_kids;
  respelled_kids.push_back(ast::leaf(PredicateId(3)));
  respelled_kids.push_back(ast::leaf(PredicateId(3)));
  respelled_kids.push_back(ast::leaf(PredicateId(5)));
  const ast::NodePtr respelled = ast::make_and(std::move(respelled_kids));
  EXPECT_EQ(forest_.intern(*respelled).id, root);
  forest_.release(root);
  forest_.release(root);
  EXPECT_EQ(forest_.live_nodes(), 0u);
}

TEST_F(SortedForestTest, IdentityIsStableAcrossReleaseAndReintern) {
  // Node ids feed the canonical sort key only as a tie-breaker behind the
  // structural hash, so releasing and re-interning (with different slot
  // assignments) must converge: a commuted spelling of the re-interned
  // expression lands on the same node as the expression itself.
  const ast::Expr written =
      parse("(x == 9 or y == 8) and (a == 1 or b == 2) and c == 3");
  const ast::Expr commuted =
      parse("c == 3 and (b == 2 or a == 1) and (y == 8 or x == 9)");
  const NodeId first = forest_.intern(written.root()).id;
  forest_.release(first);
  // Interleave another expression so slot assignment shifts.
  const ast::Expr other = parse("z == 7 and w == 6");
  const NodeId keep = forest_.intern(other.root()).id;
  const NodeId second = forest_.intern(commuted.root()).id;
  EXPECT_EQ(forest_.intern(written.root()).id, second);
  forest_.release(keep);
  forest_.release(second);
  forest_.release(second);
  EXPECT_EQ(forest_.live_nodes(), 0u);
}

TEST_F(SortedForestTest, LoadRejectsChildrenOutOfCanonicalOrder) {
  // A snapshot is untrusted input. An AND stored in a non-canonical order
  // would be a second node for its commutation class, one that intern()
  // never finds, so load_state must refuse it.
  const ast::Expr e = parse("(a == 1 or b == 2) and c == 3 and d == 4");
  const NodeId root = forest_.intern(e.root()).id;
  forest_.compact_storage();
  // save_state()'s grammar, written by hand so the root's slice can be
  // stored reversed.
  const auto dump = [&](bool reverse_root) {
    storage::Writer w;
    w.varint(forest_.node_bound());
    w.varint(forest_.live_nodes());
    for (NodeId id = 0; id < forest_.node_bound(); ++id) {
      w.varint(id);
      w.varint(forest_.ref_count(id));
      w.u8(static_cast<std::uint8_t>(forest_.kind(id)));
      if (forest_.kind(id) == ast::NodeKind::Leaf) {
        w.varint(forest_.leaf_predicate(id).value());
        continue;
      }
      std::vector<NodeId> kids(forest_.children(id).begin(),
                               forest_.children(id).end());
      if (reverse_root && id == root) std::reverse(kids.begin(), kids.end());
      w.varint(kids.size());
      for (const NodeId k : kids) w.varint(k);
    }
    return w.bytes();
  };
  storage::Writer saved;
  forest_.save_state(saved);
  ASSERT_EQ(dump(false), saved.bytes());

  SharedForest canonical;
  storage::Reader good(saved.bytes());
  canonical.load_state(good, table_.id_bound());
  EXPECT_EQ(canonical.live_nodes(), forest_.live_nodes());

  const std::string reversed = dump(true);
  SharedForest tampered;
  storage::Reader bad(reversed);
  EXPECT_THROW(tampered.load_state(bad, table_.id_bound()), StorageError);
}

TEST_F(SharedForestTest, ValidateLimitsRejectsOversizedTrees) {
  std::vector<ast::NodePtr> kids;
  for (std::size_t i = 0; i < SharedForest::kMaxChildren + 1; ++i) {
    kids.push_back(ast::leaf(PredicateId(static_cast<std::uint32_t>(i))));
  }
  const ast::NodePtr wide = ast::make_or(std::move(kids));
  EXPECT_THROW(SharedForest::validate_limits(*wide), ForestLimitError);
  EXPECT_THROW(forest_.intern(*wide), ForestLimitError);
  EXPECT_EQ(forest_.live_nodes(), 0u);  // checked before any mutation

  ast::NodePtr deep = ast::leaf(PredicateId(0));
  for (std::size_t i = 0; i < SharedForest::kMaxDepth + 1; ++i) {
    deep = ast::make_not(std::move(deep));
  }
  EXPECT_THROW(SharedForest::validate_limits(*deep), ForestLimitError);
}

// ---- Node-slot reuse under concurrent matching --------------------------
//
// Unsubscribe + immediate re-subscribe of a structurally identical filter
// makes the engine free a root's slots and re-intern the same structure
// into them on the next add — the exact window where a recycled node slot
// could leak truth across the removal fence. A publisher hammers
// match_batch the whole time (run this under TSan: the CI concurrency job
// includes this binary); the assertions check that a fenced subscription
// id is never notified after its removal generation has applied.
TEST(NodeSlotReuseRace, UnsubResubIdenticalFilterDuringMatchBatch) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs,
                       ShardedBrokerConfig{.shard_count = 2,
                                           .engine = EngineKind::NonCanonical});

  // fenced_id is only trusted by the callback after `fenced` was released
  // by the control thread (store-release / load-acquire pairing).
  std::atomic<std::uint32_t> fenced_id{SubscriptionId::invalid().value()};
  std::atomic<bool> fenced{false};
  std::atomic<std::size_t> violations{0};
  std::atomic<std::size_t> delivered{0};
  const SubscriberId session =
      broker.register_subscriber([&](const Notification& n) {
        delivered.fetch_add(1, std::memory_order_relaxed);
        if (fenced.load(std::memory_order_acquire) &&
            n.subscription.value() ==
                fenced_id.load(std::memory_order_relaxed)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      });

  // A standing subscription keeps the forest non-trivial and guarantees
  // matching work is in flight during every fenced window.
  const SubscriptionId standing = broker.subscribe(session, "price exists");

  const Event event =
      EventBuilder(attrs).set("price", 42).set("qty", 7).build();
  std::vector<Event> batch(8, event);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pumped{0};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      broker.publish_batch(std::span<const Event>(batch.data(), batch.size()));
      pumped.fetch_add(1, std::memory_order_release);
    }
  });

  // The two spellings intern to one node, so the recycled slot is
  // re-interned with identical structure; it must stay fenced.
  const char* kTexts[] = {"price > 10 and qty > 0", "qty > 0 and price > 10"};
  for (int round = 0; round < 40; ++round) {
    const SubscriptionId id = broker.subscribe(session, kTexts[round % 2]);
    fenced_id.store(id.value(), std::memory_order_relaxed);
    ASSERT_TRUE(broker.unsubscribe(id));
    // quiesce() is the removal fence: once it returns, no notification may
    // carry the retired id until the broker legitimately reuses the value.
    broker.quiesce();
    fenced.store(true, std::memory_order_release);
    // Let the publisher push several whole batches through the fenced
    // window while the freed forest slots sit on the free list.
    const std::uint64_t mark = pumped.load(std::memory_order_acquire);
    while (pumped.load(std::memory_order_acquire) < mark + 4) {
      std::this_thread::yield();
    }
    // Close the window before re-subscribing: the broker may hand the
    // retired id value back out once its reuse conditions pass. The
    // control-thread store is ordered before the subscribe command, which
    // is ordered (queue + shard mutex) before any batch that can match the
    // replacement, so the callback can never see fenced == true together
    // with a replacement notification.
    fenced.store(false, std::memory_order_release);
    // Structurally identical re-subscribe: the engine reuses the slots
    // freed by the removal above while the publisher is mid-batch.
    const SubscriptionId replacement =
        broker.subscribe(session, kTexts[round % 2]);
    ASSERT_TRUE(broker.unsubscribe(replacement));
    broker.quiesce();
  }
  stop.store(true, std::memory_order_release);
  publisher.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(delivered.load(), 0u);
  ASSERT_TRUE(broker.unsubscribe(standing));
  EXPECT_EQ(broker.subscription_count(), 0u);
}

}  // namespace
}  // namespace ncps
