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
// Node identity is *structural* and, by default, *order-preserving*:
// AND(a, b) and AND(b, a) are distinct nodes (the subscription is kept
// exactly as written; commutative normalisation is left to the engine's
// optional covering-based root subsumption). Two subtrees intern to the
// same NodeId iff they have the same kind, the same predicate (leaves) and
// the same child NodeId sequence (interior nodes).
//
// An opt-in normalisation ladder (Normalisation, fixed at construction)
// extends identity one rung: at SortedChildren, AND/OR children are
// interned under a canonical order (structural hash, ties broken by node
// id), so commuted forms — AND(a, b) vs AND(b, a) — collapse to one node.
// Because Boolean connectives over side-effect-free predicates are
// commutative, matching semantics are untouched; what *is* observable is
// the as-written shape (introspection, covering probes, re-export), so
// intern() can record a per-root *evaluation permutation* — for every
// AND/OR node in pre-order of the written expression, the mapping from
// written child position to stored (sorted) child index — and
// to_ast(id, permutation) reconstructs the expression exactly as written
// (DESIGN.md §1e).
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
// drops a reference and, at zero, unlinks the node and cascades to its
// children. Fully released node slots are *quarantined*, not reused
// immediately: a slot only returns to the free list via
// reclaim_quarantine() — the engines call it around add()/remove(), so
// within one control command a released NodeId is never re-interned as a
// different subtree. How the quarantine empties depends on
// set_reclaim_domain():
//   - with an epoch domain attached (every broker shard),
//     reclaim_quarantine() *retires* the batch to the domain, and
//     the slots reach the free list only once no reader pins an epoch from
//     before the release — the grace period. Slot reuse is thereby ordered
//     after every read-side section that could have held the node, by the
//     domain itself rather than by command ordering;
//   - without one (standalone engines), slots move to the free list
//     immediately — the legacy quarantine-until-next-add behaviour, correct
//     because matching and mutation are then strictly serialised.
// The broker-level quarantine of retired global ids (sharded_broker.h)
// additionally fences match records that outlive the removal.
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
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/contracts.h"
#include "common/ids.h"
#include "common/memory_tracker.h"
#include "subscription/ast.h"

namespace ncps {

class EpochDomain;

namespace storage {
class Writer;
class Reader;
}  // namespace storage

/// Thrown when an expression exceeds the forest's encoding limits.
class ForestLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// How aggressively the forest canonicalises structure before interning.
/// Fixed per forest at construction so node identity is uniform.
enum class Normalisation : std::uint8_t {
  /// Order-preserving identity: children intern exactly as written.
  None,
  /// AND/OR children intern under a canonical sort (structural hash, ties
  /// broken by node id): commuted conjunctions/disjunctions share one node.
  /// The written order survives in the per-root evaluation permutation
  /// intern() hands back.
  SortedChildren,
};

[[nodiscard]] constexpr std::string_view to_string(Normalisation n) {
  switch (n) {
    case Normalisation::None: return "none";
    case Normalisation::SortedChildren: return "sorted";
  }
  return "?";
}

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
  explicit SharedForest(Normalisation normalisation)
      : normalisation_(normalisation) {}
  SharedForest(LeafHook on_leaf_created, LeafHook on_leaf_released,
               Normalisation normalisation = Normalisation::None)
      : on_leaf_created_(std::move(on_leaf_created)),
        on_leaf_released_(std::move(on_leaf_released)),
        normalisation_(normalisation) {}

  [[nodiscard]] Normalisation normalisation() const { return normalisation_; }

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
  ///
  /// Under Normalisation::SortedChildren, a non-null `permutation` receives
  /// the root's evaluation permutation: for each AND/OR node in pre-order
  /// of the *written* expression, child_count entries mapping written child
  /// position -> stored (sorted) child index. to_ast(id, permutation)
  /// reconstructs the expression exactly as written. Under None nothing is
  /// recorded (stored order already is the written order).
  InternResult intern(const ast::Node& expression,
                      std::vector<std::uint32_t>* permutation = nullptr);

  void add_ref(NodeId id) {
    NCPS_DASSERT(id < metas_.size() && metas_[id].refs > 0);
    ++metas_[id].refs;
  }

  /// Drop one reference; at zero the node is unlinked, child references are
  /// released recursively, and the slot is quarantined for reuse after the
  /// next reclaim_quarantine().
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
  /// every subtree the matching frontier never reaches (it contains no
  /// fulfilled leaf, so all its leaves are false).
  [[nodiscard]] bool static_truth(NodeId id) const {
    return (metas_[id].packed >> 29) & 0x1u;
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
  /// True iff some interior node holds this node as a child — i.e. its
  /// memoized truth can be consumed by an upward evaluation.
  [[nodiscard]] bool has_parents(NodeId id) const {
    return metas_[id].parent0 != kNoNode;
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
  /// stored child order.
  [[nodiscard]] ast::NodePtr to_ast(NodeId id) const;

  /// Rebuild the subtree exactly as written, undoing SortedChildren
  /// interning through the evaluation permutation intern() recorded for
  /// this root. An empty permutation degrades to stored order (correct for
  /// Normalisation::None, where stored order *is* the written order).
  [[nodiscard]] ast::NodePtr to_ast(
      NodeId id, std::span<const std::uint32_t> permutation) const;

  // ---- sizing / lifecycle ----

  [[nodiscard]] std::size_t live_nodes() const { return live_count_; }
  /// One past the largest NodeId ever allocated — dense-array bound.
  [[nodiscard]] std::size_t node_bound() const { return metas_.size(); }
  [[nodiscard]] std::size_t quarantined_nodes() const {
    return quarantine_.size();
  }

  /// Route quarantined slots through `domain`: reclaim_quarantine() then
  /// retires them (free-list insertion deferred past every pinned reader)
  /// instead of freeing in place. nullptr restores the immediate mode.
  /// The owning engine wires this from on_epoch_domain_changed.
  void set_reclaim_domain(EpochDomain* domain) { reclaim_domain_ = domain; }

  /// Empty the quarantine. Without a reclaim domain, slots move to the free
  /// list now — call only from a context ordered after any matching that
  /// could still walk the released nodes (the engines call it around
  /// add()/remove() under the broker's write gate). With a domain, the
  /// batch is retired and the free-list insertion happens at the first
  /// reclaim pass whose grace period covers the release — safe to call
  /// whenever the caller holds the write side.
  void reclaim_quarantine();

  /// Rewrite the child arena without dead slices, resize the intern table
  /// to the live population and release vector growth slack. NodeIds are
  /// stable across compaction.
  void compact_storage();

  [[nodiscard]] MemoryBreakdown memory() const;

  /// Serialise every live node: (id, refcount, kind, predicate | stored
  /// children). Ranks, static truth, parent edges, the intern table and the
  /// leaf index are all derivable and are NOT stored — load_state()
  /// recomputes them, so a corrupted snapshot cannot smuggle in an
  /// inconsistent derived structure. Call compact_storage() first (the
  /// engines' prepare_snapshot() does) so the quarantine and free lists are
  /// empty and need no encoding.
  void save_state(storage::Writer& w) const;

  /// Rebuild from save_state() bytes into an empty forest. NodeIds survive
  /// verbatim (engine side tables are keyed by them). Leaf hooks are NOT
  /// fired — the loading engine reconstructs its own predicate ownership.
  /// `predicate_bound` bounds leaf predicate ids (the predicate table's
  /// id_bound()). Throws StorageError on any structural violation: dangling
  /// or dead child ids, cycles, depth/width over the forest limits,
  /// duplicate structure (a hash-consing violation), duplicate leaves for
  /// one predicate, or refcounts below the in-DAG parent edge count.
  void load_state(storage::Reader& r, std::size_t predicate_bound);

 private:
  // packed: child_count:15 | rank:12 | kind:2 | static_truth:1 | extra:1
  struct Meta {
    std::uint32_t data = 0;       // leaf: predicate id; interior: child offset
    std::uint32_t refs = 0;
    NodeId parent0 = kNoNode;
    std::uint32_t packed = 0;
  };
  static_assert(sizeof(Meta) == 16);

  static std::uint32_t pack(std::size_t child_count, std::uint32_t rank,
                            ast::NodeKind kind, bool static_truth) {
    return static_cast<std::uint32_t>(child_count) |
           (rank << 15) | (static_cast<std::uint32_t>(kind) << 27) |
           (static_cast<std::uint32_t>(static_truth) << 29);
  }

  NodeId intern_node(const ast::Node& node,
                     std::vector<std::uint32_t>* permutation);
  ast::NodePtr to_ast_permuted(NodeId id,
                               std::span<const std::uint32_t> permutation,
                               std::size_t& cursor) const;
  NodeId new_node();
  std::uint32_t alloc_children(std::size_t count);
  void free_children(std::uint32_t offset, std::size_t count);
  void add_parent(NodeId child, NodeId parent);
  void remove_parent(NodeId child, NodeId parent);

  /// Out-of-line so this header needs only a forward declaration of
  /// EpochDomain (the .cpp includes it).
  void retire_quarantine_batch(EpochDomain& domain, std::vector<NodeId> batch);

  [[nodiscard]] std::uint64_t leaf_hash(PredicateId pred) const;
  [[nodiscard]] std::uint64_t interior_hash(
      ast::NodeKind kind, std::span<const NodeId> kids) const;
  [[nodiscard]] std::uint64_t node_hash(NodeId id) const;
  void bucket_insert(NodeId id, std::uint64_t hash);
  void bucket_remove(NodeId id, std::uint64_t hash);
  void rehash(std::size_t bucket_count);

  LeafHook on_leaf_created_;
  LeafHook on_leaf_released_;
  Normalisation normalisation_ = Normalisation::None;

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
  std::vector<NodeId> quarantine_;      // released, not yet reusable
  /// Deferred-reclamation target for quarantined slots (see
  /// set_reclaim_domain); not owned. Null = immediate reclaim.
  EpochDomain* reclaim_domain_ = nullptr;
  std::size_t live_count_ = 0;
};

}  // namespace ncps
