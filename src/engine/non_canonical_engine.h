// The non-canonical filtering engine (paper §3.2), forest-backed.
//
// Subscriptions stay exactly as written — no DNF is ever built — but unlike
// the paper's prototype (engine/non_canonical_tree_engine.h), which stores
// and evaluates one encoded byte tree per subscription, this engine interns
// every subscription into a shared-subexpression DAG
// (subscription/shared_forest.h):
//
//   - each subscription is one root reference into the forest; structurally
//     identical subscriptions (and identical subtrees of different
//     subscriptions) are stored once, refcounted. AND/OR children intern in
//     canonical order, so commuted spellings (`a AND b` vs `b AND a`) are
//     one node by identity, with no covering proof at add time (DESIGN.md
//     §1e). Equivalence beyond commutation is never shared: `not p` and
//     p's complement predicate differ when p's attribute is absent;
//   - phase 2 is flip-driven (DESIGN.md §1c): fulfilled leaves are walked
//     in ascending node id, and a node is touched only when one of its
//     children *flips* — takes a value other than its static (all-false)
//     truth. Each parent edge of a flipped node bumps the parent's flip
//     count. An AND/OR with no statically-true child is decided by that
//     count alone and settles the moment it decides (OR: first flip, AND:
//     all edges flipped), flipping its own parents in the same cascade;
//     only NOT-bearing nodes wait in rank buckets for a bottom-up pass
//     that scans their children. Every touched node is evaluated once. An
//     untouched node keeps its static truth, so the climb stops at the
//     first node whose value does not move. A subtree shared by 10k
//     subscriptions costs one evaluation per event instead of 10k;
//   - roots whose expression is satisfiable with zero fulfilled predicates
//     (static truth = true, e.g. `not a == 1`) live on an always-candidate
//     list and match whenever nothing touches (and refutes) them;
//   - a match_range slice dense enough that flipping its fulfilled leaves
//     would cost more than sweeping the forest takes the block path
//     instead (DESIGN.md §1c): each fulfilled leaf sets its event's bit in
//     a 64-bit lane mask, and every live interior node is evaluated once
//     per block of up to 64 events, rank by rank, with one AND, OR or NOT
//     word operation;
//   - identity is the only sharing rule: a refinement `base and c` shares
//     the base's children as nodes, but never borrows the base's truth.
//     Its AND is decided from its own flip count in O(1), so a covering
//     pre-filter would save nothing (DESIGN.md §1c).
//
// Unsubscription releases the root reference; the forest cascades refcount
// decrements and frees fully released node slots for the next add() to
// reuse (see shared_forest.h for why that, combined with the broker's
// shard write gate and global-id quarantine, means concurrent matching
// never observes a recycled node).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/epoch_set.h"
#include "engine/engine.h"
#include "subscription/shared_forest.h"

namespace ncps {

class NonCanonicalEngine final : public FilterEngine {
 public:
  explicit NonCanonicalEngine(PredicateTable& table);

  SubscriptionId add(const ast::Node& expression) override;
  bool remove(SubscriptionId id) override;
  void validate(const ast::Node& expression,
                PredicateTable& scratch) const override;
  [[nodiscard]] std::unique_ptr<MatchContext> make_context() const override;
  void match_predicates_impl(std::span<const PredicateId> fulfilled,
                             std::size_t event_index, const Event& event,
                             MatchSink& sink, MatchContext& ctx) const override;

  [[nodiscard]] std::size_t subscription_count() const override {
    return live_count_;
  }
  [[nodiscard]] MemoryBreakdown memory() const override;
  [[nodiscard]] std::string_view name() const override {
    return "non-canonical";
  }
  void compact_storage() override;

  /// Forest-structural snapshots: the predicate table, the hash-consed DAG
  /// and every subscription's root attachment round-trip byte-exactly, so
  /// recovery skips re-parsing and re-interning (storage/snapshot.h).
  [[nodiscard]] bool supports_state_snapshot() const override { return true; }
  void prepare_snapshot() override;
  void save_state(storage::Writer& w) const override;
  void load_state(storage::Reader& r, std::span<const AttributeId> attr_remap,
                  WorkStealingPool* pool) override;
  [[nodiscard]] bool owns_subscription(SubscriptionId id) const override {
    return id.valid() && id.value() < subs_.size() &&
           subs_[id.value()].live();
  }

  /// The underlying DAG, for inspection (tests, benches).
  [[nodiscard]] const SharedForest& forest() const { return forest_; }
  /// Distinct result roots currently attached to subscriptions (a scan of
  /// the chain-head table).
  [[nodiscard]] std::size_t distinct_roots() const;

  /// Test hook: jump `ctx`'s per-event scratch epoch to its maximum so the
  /// next match on it wraps the epoch counter (regression surface for
  /// stale-truth leaks across the wrap). `ctx` must come from make_context().
  static void force_scratch_epoch_wrap(MatchContext& ctx);

 private:
  using NodeId = SharedForest::NodeId;
  static constexpr std::uint32_t kNoSub = 0xffffffffu;

  /// Per-thread match scratch (epoch-cleared, allocation-free once warm).
  /// One per matching thread; the const match path touches nothing outside
  /// its context.
  struct ForestContext final : MatchContext {
    // Touched = a fulfilled leaf, or a node with a flipped child this event.
    EpochSet touched;                  // by node id
    // Truth of a touched leaf or NOT-bearing node (a count-decided node's
    // truth is read from `flips`); valid iff touched.
    std::vector<std::uint8_t> value;
    std::vector<std::uint16_t> flips;  // flipped child edges, iff touched
    std::vector<NodeId> frontier;      // touched result roots
    // Flipped nodes whose parent edges are still to count (explicit
    // stack: a flip cascades up through count-decided nodes at once).
    std::vector<NodeId> stack;
    // Fulfilled leaves as a two-level bitmap (one bit per node id, one
    // summary bit per non-zero word), walked in ascending id and left
    // clean for the next event.
    std::vector<std::uint64_t> leaf_bits;
    std::vector<std::uint64_t> leaf_words;
    // Topological order by counting sort: touched NOT-bearing nodes (NOTs,
    // and AND/ORs with a statically-true child) bucketed by rank (ranks
    // are tree heights — single digits on real workloads, so this beats
    // sorting (rank, node) keys per event).
    std::vector<std::vector<NodeId>> rank_buckets;
    std::uint32_t max_rank_touched = 0;
    // Block path: each node's truth in every event of the block, one bit
    // per event, by node id. Zeroed over [0, node_bound) at the start of
    // every block, so no value left by another engine or by a node slot's
    // earlier life is ever read.
    std::vector<std::uint64_t> lanes;
    // Per lane, the result roots true in that event, filled by one walk
    // over the roots after each block's passes (emptied just before).
    std::vector<std::vector<NodeId>> lane_roots;
  };

  struct SubRecord {
    NodeId root = SharedForest::kNoNode;  ///< kNoNode = free id
    std::uint32_t next = kNoSub;  ///< intrusive chain of same-root subs
    std::uint32_t prev = kNoSub;
    /// Subscriptions chained on `root`; maintained on the chain's head
    /// record only (stale elsewhere), so a refuted root adds its whole
    /// chain to MatchStats::candidates without walking it.
    std::uint32_t chain_length = 0;

    [[nodiscard]] bool live() const { return root != SharedForest::kNoNode; }
  };

  /// Events per block: one bit of a lane mask each.
  static constexpr std::size_t kLanes = 64;
  /// The block path's selection weight: flipping one fulfilled leaf on the
  /// per-event path costs about as much as one block pass sweeping this
  /// many node slots (DESIGN.md §1c gives the measurement).
  static constexpr std::size_t kSlotsPerFlip = 16;

  /// Phase 2 of a match_range slice: the block path when the slice is
  /// dense enough, else the per-event default.
  void match_slice(std::span<const Event> range, std::size_t first,
                   MatchSink& sink, MatchContext& ctx) const override;
  /// The block path over events [begin, end) of the slice (at most kLanes).
  void match_block(std::span<const Event> range, std::size_t first,
                   std::size_t begin, std::size_t end, MatchSink& sink,
                   ForestContext& ctx) const;

  SubscriptionId allocate_id();
  /// Chains `id` onto `root`, making `root` a result root if it was not.
  void attach(SubscriptionId id, NodeId root);
  void detach(SubscriptionId id);

  template <typename Emit>
  void match_impl(std::span<const PredicateId> fulfilled, ForestContext& ctx,
                  Emit&& emit) const;

  SharedForest forest_;

  std::vector<SubRecord> subs_;  // dense by subscription id
  std::vector<SubscriptionId> free_ids_;
  std::size_t live_count_ = 0;

  // Root attachment: the head of each result root's subscription chain,
  // dense by node id (kNoSub = not a result root; ids past the end are
  // fresh interior nodes), plus the always-candidate roots (static truth =
  // true).
  std::vector<std::uint32_t> chain_head_;
  std::vector<NodeId> always_roots_;
};

}  // namespace ncps
