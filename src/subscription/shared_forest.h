// Shared-subexpression forest: hash-consed subscription DAG storage.
//
// The paper keeps every subscription in its non-canonical form, which has a
// consequence §3 never exploits: structurally identical subtrees of
// *different* subscriptions survive verbatim instead of being smeared across
// DNF conjunctions. This module interns every AST subtree — leaves already
// dedupe through PredicateTable; identity is extended here to interior
// AND/OR/NOT nodes — into one refcounted DAG with stable NodeIds, so N
// subscriptions sharing a subtree store it once and (with memoized phase-2
// evaluation, see NonCanonicalEngine) evaluate it once per event.
//
// Node identity is *structural* up to commutation: AND/OR children intern
// in canonical order — structural hash, ties broken by node id — so
// AND(a, b) and AND(b, a) are one node. Two subtrees intern to the same
// NodeId iff they have the same kind, the same predicate (leaves) and the
// same canonically ordered child NodeId sequence (interior nodes). Boolean
// connectives over side-effect-free predicates commute, so this changes
// what is shared, never what matches (DESIGN.md §1e). There is no
// semantic rewriting: no flattening, no de-duplication of repeated
// children, AND and OR stay distinct kinds.
//
// Storage is arena-backed and index-based: a dense Meta array (16 bytes per
// node), one shared child-id arena, an intrusive hash table (bucket heads +
// per-node chain links), and parent back-edges (first parent inline in the
// Meta, the rare extra parents of multi-shared nodes in a side table). The
// parent edges are what lets a fulfilled predicate seed its DAG *ancestors*
// during matching rather than re-walking every subscription.
//
// Lifecycle: intern() returns a root holding one caller-owned reference;
// every interior node owns one reference per child occurrence. release()
// drops a reference and, at zero, unlinks the node, cascades to its
// children and returns the slot straight to the free list, so the next
// intern() may reuse it. That is safe because every mutation — release()
// and intern() alike — runs under the owner's exclusivity: in the broker,
// the shard's epoch write gate, which waits out every pinned matcher before
// the first change and admits new ones only after the last; standalone
// engines match and mutate strictly in turn. No match context keeps a
// NodeId across match calls. The broker-level quarantine of retired global
// ids (sharded_broker.h) fences match records that outlive the removal.
//
// Limits: child count <= 32767 per node, tree depth <= 4095 (both far above
// the paper's 256-predicate assumption); validate_limits() checks them
// without mutating anything, so brokers can pre-validate deferred commands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/contracts.h"
#include "common/ids.h"
#include "common/memory_tracker.h"
#include "subscription/ast.h"

namespace ncps {

namespace storage {
class Writer;
class Reader;
}  // namespace storage

/// Thrown when an expression exceeds the forest's encoding limits.
class ForestLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SharedForest {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kNoNode = 0xffffffffu;
  static constexpr std::size_t kMaxChildren = 32767;  // 15-bit child count
  static constexpr std::size_t kMaxDepth = 4095;      // 12-bit rank

  /// Leaf lifecycle hooks: the owning engine acquires/releases its
  /// predicate-table references (and phase-1 index registration) exactly
  /// when a leaf node is created/destroyed — one reference per *distinct*
  /// live predicate, however many subscriptions share it.
  using LeafHook = std::function<void(PredicateId)>;

  SharedForest() = default;
  SharedForest(LeafHook on_leaf_created, LeafHook on_leaf_released)
      : on_leaf_created_(std::move(on_leaf_created)),
        on_leaf_released_(std::move(on_leaf_released)) {}

  // NodeIds index dense side tables in the owning engine; the forest is
  // not copyable (hooks + identity).
  SharedForest(const SharedForest&) = delete;
  SharedForest& operator=(const SharedForest&) = delete;

  struct InternResult {
    NodeId id = kNoNode;
    bool created = false;  ///< false: structurally identical root existed
  };

  /// Intern `expression` bottom-up; returns the root with one caller-owned
  /// reference. Throws ForestLimitError on limit violations (checked before
  /// any mutation).
  InternResult intern(const ast::Node& expression);

  /// Drop one reference; at zero the node is unlinked, child references are
  /// released recursively, and the slot returns to the free list.
  void release(NodeId id);

  /// Throw exactly what intern() would throw for `expression`, touching
  /// nothing.
  static void validate_limits(const ast::Node& expression);

  // ---- node accessors (id must be live) ----

  [[nodiscard]] ast::NodeKind kind(NodeId id) const {
    return static_cast<ast::NodeKind>((metas_[id].packed >> 27) & 0x3u);
  }
  [[nodiscard]] PredicateId leaf_predicate(NodeId id) const {
    NCPS_DASSERT(kind(id) == ast::NodeKind::Leaf);
    return PredicateId(metas_[id].data);
  }
  [[nodiscard]] std::span<const NodeId> children(NodeId id) const {
    const Meta& m = metas_[id];
    return {child_arena_.data() + m.data, child_count(id)};
  }
  [[nodiscard]] std::size_t child_count(NodeId id) const {
    return metas_[id].packed & 0x7fffu;
  }
  /// The node's truth value when *no* predicate is fulfilled — the value of
  /// every node phase 2 never touches (none of its children flipped away
  /// from its own static truth, so neither did the node).
  [[nodiscard]] bool static_truth(NodeId id) const {
    return (metas_[id].packed >> 29) & 0x1u;
  }
  /// True for an AND/OR none of whose children is statically true. With
  /// every child false at rest, the node's truth follows from how many of
  /// its child edges flipped this event: an OR with any flipped child is
  /// true, an AND is true iff all of them flipped (NonCanonicalEngine's
  /// flip-driven phase 2). Derived, never stored in snapshots.
  [[nodiscard]] bool decided_by_flips(NodeId id) const {
    return (metas_[id].packed >> 31) != 0;
  }
  /// For a decided_by_flips node, the flip count at which it flips: 1 for
  /// an OR, child_count for an AND. 0 for every other node (a leaf, or a
  /// NOT-bearing node whose truth needs its children).
  [[nodiscard]] std::uint32_t flip_threshold(NodeId id) const {
    if (!decided_by_flips(id)) return 0;
    return kind(id) == ast::NodeKind::Or
               ? 1
               : static_cast<std::uint32_t>(child_count(id));
  }
  /// Height of the node (leaves are 0); children always have strictly
  /// smaller rank, so sorting a frontier by rank is a topological order.
  [[nodiscard]] std::uint32_t rank(NodeId id) const {
    return (metas_[id].packed >> 15) & 0xfffu;
  }
  [[nodiscard]] std::uint32_t ref_count(NodeId id) const {
    return metas_[id].refs;
  }
  [[nodiscard]] bool is_live(NodeId id) const {
    return id < metas_.size() && metas_[id].refs > 0;
  }

  /// The leaf node for a predicate, or kNoNode.
  [[nodiscard]] NodeId leaf_of(PredicateId pred) const {
    return pred.value() < leaf_by_pred_.size() ? leaf_by_pred_[pred.value()]
                                               : kNoNode;
  }

  /// Invoke fn(parent NodeId) for every parent edge (with multiplicity:
  /// a node appearing twice under one parent reports that parent twice).
  template <typename Fn>
  void for_each_parent(NodeId id, Fn&& fn) const {
    const Meta& m = metas_[id];
    if (m.parent0 == kNoNode) return;
    fn(m.parent0);
    if ((m.packed >> 30) & 0x1u) {  // has extra parents
      for (const NodeId p : extra_parents_.at(id)) fn(p);
    }
  }

  /// Rebuild the subtree as a raw AST (no predicate-table references), in
  /// stored (canonical) child order.
  [[nodiscard]] ast::NodePtr to_ast(NodeId id) const;

  // ---- sizing / lifecycle ----

  [[nodiscard]] std::size_t live_nodes() const { return live_count_; }
  /// One past the largest NodeId ever allocated — dense-array bound.
  [[nodiscard]] std::size_t node_bound() const { return metas_.size(); }
  /// How many ranks above 0 hold a live node: the passes
  /// for_each_interior_by_rank() makes over the node arena.
  [[nodiscard]] std::size_t interior_ranks() const { return interior_ranks_; }

  /// Invoke fn(id, kind, children) for every live interior node, rank by
  /// rank from 1 upwards (a topological order: every child is visited
  /// before its parents), ascending id within a rank. Each non-empty rank
  /// is one pass over the node arena, which stops at the rank's last live
  /// node.
  template <typename Fn>
  void for_each_interior_by_rank(Fn&& fn) const {
    for (std::uint32_t r = 1; r < rank_live_.size(); ++r) {
      std::uint32_t left = rank_live_[r];
      for (NodeId id = 0; left != 0; ++id) {
        // A dead slot's packed word is 0, so rank r >= 1 means live.
        const std::uint32_t packed = metas_[id].packed;
        if (((packed >> 15) & 0xfffu) != r) continue;
        NCPS_DASSERT(metas_[id].refs > 0);
        --left;
        fn(id, kind(id), children(id));
      }
    }
  }

  /// Rewrite the child arena without dead slices, resize the intern table
  /// to the live population and release vector growth slack. NodeIds are
  /// stable across compaction.
  void compact_storage();

  [[nodiscard]] MemoryBreakdown memory() const;

  /// Serialise every live node: (id, refcount, kind, predicate | stored
  /// children). Ranks, static truth, the decided_by_flips flag, parent
  /// edges, the intern table and the leaf index are all derivable and are
  /// NOT stored — load_state() recomputes them, so a corrupted snapshot
  /// cannot smuggle in an inconsistent derived structure. Free slots are
  /// not stored either: load_state() rebuilds the free list from the dead
  /// ids below node_bound().
  void save_state(storage::Writer& w) const;

  /// Rebuild from save_state() bytes into an empty forest. NodeIds survive
  /// verbatim (engine side tables are keyed by them). Leaf hooks are NOT
  /// fired — the loading engine reconstructs its own predicate ownership.
  /// `predicate_bound` bounds leaf predicate ids (the predicate table's
  /// id_bound()). Throws StorageError on any structural violation: dangling
  /// or dead child ids, cycles, depth/width over the forest limits,
  /// duplicate structure (a hash-consing violation), AND/OR children out of
  /// canonical order (which would split a commutation class that later
  /// intern() calls rely on), duplicate leaves for one predicate, or
  /// refcounts below the in-DAG parent edge count.
  void load_state(storage::Reader& r, std::size_t predicate_bound);

 private:
  // packed: child_count:15 | rank:12 | kind:2 | static_truth:1 | extra:1 |
  //         decided_by_flips:1 (AND/OR with no statically-true child)
  struct Meta {
    std::uint32_t data = 0;       // leaf: predicate id; interior: child offset
    std::uint32_t refs = 0;
    NodeId parent0 = kNoNode;
    std::uint32_t packed = 0;
  };
  static_assert(sizeof(Meta) == 16);

  static std::uint32_t pack(std::size_t child_count, std::uint32_t rank,
                            ast::NodeKind kind, bool static_truth,
                            bool decided_by_flips = false) {
    return static_cast<std::uint32_t>(child_count) |
           (rank << 15) | (static_cast<std::uint32_t>(kind) << 27) |
           (static_cast<std::uint32_t>(static_truth) << 29) |
           (static_cast<std::uint32_t>(decided_by_flips) << 31);
  }

  /// A child's canonical sort key: (structural hash, node id).
  using ChildKey = std::pair<std::uint64_t, NodeId>;

  /// Interns `node` and returns its key, so the parent sorts its children
  /// without rehashing them.
  ChildKey intern_node(const ast::Node& node);
  NodeId new_node();
  std::uint32_t alloc_children(std::size_t count);
  void free_children(std::uint32_t offset, std::size_t count);
  void count_rank(std::uint32_t rank);
  void uncount_rank(std::uint32_t rank);
  void add_parent(NodeId child, NodeId parent);
  void remove_parent(NodeId child, NodeId parent);

  [[nodiscard]] std::uint64_t leaf_hash(PredicateId pred) const;
  template <typename Ids>
  [[nodiscard]] static std::uint64_t interior_hash(ast::NodeKind kind,
                                                   const Ids& kids);
  [[nodiscard]] std::uint64_t node_hash(NodeId id) const;
  void bucket_insert(NodeId id, std::uint64_t hash);
  void bucket_remove(NodeId id, std::uint64_t hash);
  void rehash(std::size_t bucket_count);

  LeafHook on_leaf_created_;
  LeafHook on_leaf_released_;

  std::vector<Meta> metas_;             // node arena, dense by NodeId
  std::vector<NodeId> child_arena_;     // all child-id slices
  std::vector<std::vector<std::uint32_t>> child_free_;  // by slice size
  std::vector<NodeId> leaf_by_pred_;    // predicate id -> leaf node
  // Intern table: intrusive chains (buckets_ heads + next_ links per node).
  std::vector<NodeId> buckets_;         // power-of-two sized
  std::vector<NodeId> next_;            // parallel to metas_
  // Extra parents beyond the inline parent0 (multi-shared nodes only).
  std::unordered_map<NodeId, std::vector<NodeId>> extra_parents_;
  std::vector<NodeId> free_nodes_;      // reusable slots
  // Live nodes per rank, and how many ranks above 0 are non-empty.
  std::vector<std::uint32_t> rank_live_;
  std::size_t interior_ranks_ = 0;
  // intern() scratch: the child keys of every interior node on the current
  // recursion path, stacked, so interning allocates nothing once warm.
  std::vector<ChildKey> intern_stack_;
  std::size_t live_count_ = 0;
};

}  // namespace ncps
