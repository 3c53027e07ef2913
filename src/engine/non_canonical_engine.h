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
//     subscriptions) are stored once, refcounted;
//   - phase 2 is flip-driven (DESIGN.md §1c): fulfilled leaves are walked
//     in ascending node id, and a node is touched only when one of its
//     children *flips* — takes a value other than its static (all-false)
//     truth. Each parent edge of a flipped node bumps the parent's flip
//     count; touched nodes are evaluated exactly once each, in topological
//     (rank) order, memoized in an epoch-stamped array. An AND/OR with no
//     statically-true child is decided from its flip count alone (OR: any,
//     AND: all); only NOT-bearing nodes scan their children. An untouched
//     node keeps its static truth, so the climb stops at the first node
//     whose value does not move. A subtree shared by 10k subscriptions
//     costs one evaluation per event instead of 10k;
//   - roots whose expression is satisfiable with zero fulfilled predicates
//     (static truth = true, e.g. `not a == 1`) live on an always-candidate
//     list and match whenever nothing touches (and refutes) them;
//   - an opt-in normalisation ladder (Options::normalisation): at
//     SortedChildren the forest interns AND/OR children in canonical order,
//     so commuted forms (`a AND b` vs `b AND a`) hash-cons to one node by
//     identity; each subscription keeps a per-root evaluation permutation
//     so subscription_ast() reconstructs what the subscriber wrote;
//   - an optional root-subsumption fast path (covering.h): when a
//     structurally *new* root arrives, existing roots over the same
//     predicate set are probed for mutual covering — a proven-equivalent
//     pair (e.g. `a == 1 and b == 2` vs `b == 2 and a == 1`) shares one
//     result node outright, so the newcomer adds no forest state at all;
//   - covering-based *partial* sharing (Options::partial_sharing): a new
//     root propositionally covered by an existing root borrows that donor's
//     memoized truth as a pre-filter — donor false means the borrower
//     cannot match, so its candidate chain is never scanned, and a
//     borrower nothing else consumes skips its own evaluation too. The
//     borrower refcounts its donor, so a donor node outlives every
//     borrower (quarantine rules unchanged).
//
// Unsubscription releases the root reference; the forest cascades refcount
// decrements and quarantines fully released node slots until the next add()
// (see shared_forest.h for why that, combined with the broker's shard
// serialisation and generation-fence quarantine, means concurrent matching
// never observes a recycled node).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/epoch_set.h"
#include "engine/engine.h"
#include "subscription/dnf.h"
#include "subscription/shared_forest.h"

namespace ncps {

struct NonCanonicalEngineOptions {
  /// Forest normalisation level. SortedChildren interns AND/OR children in
  /// canonical order so commuted forms share one node; each subscription
  /// keeps a per-root evaluation permutation, so subscription_ast() still
  /// returns the expression exactly as written (DESIGN.md §1e).
  Normalisation normalisation = Normalisation::None;
  /// Probe structurally new roots against same-signature roots for
  /// *mutual* covering; equivalent pairs share one result node.
  bool root_subsumption = true;
  /// Bounds each covering probe's canonicalisation (overflow = "cannot
  /// prove", never unsound).
  DnfOptions subsumption_budget{};
  /// Equivalence probes per add (only on predicate-signature collisions).
  std::size_t max_subsumption_probes = 4;
  /// Covering-based *partial* sharing: a structurally new root that is
  /// propositionally covered by an existing root (the donor) gates its
  /// candidate emission on the donor's memoized truth — donor false means
  /// the borrower cannot match, so its candidate chain is never scanned
  /// and, when nothing else consumes the borrower's node, its evaluation
  /// is skipped outright. NOT-bearing expressions never participate
  /// (complement literals diverge from NOT on absent attributes;
  /// DESIGN.md §1f).
  bool partial_sharing = true;
  /// Donor candidates *examined* per add (skips included, so an add never
  /// walks an unbounded index list); only candidates that survive the
  /// cheap filters pay a covering proof.
  std::size_t max_partial_probes = 4;
};

class NonCanonicalEngine final : public FilterEngine {
 public:
  using Options = NonCanonicalEngineOptions;

  explicit NonCanonicalEngine(PredicateTable& table, Options options = {});

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
                  ThreadPool* pool) override;
  [[nodiscard]] bool owns_subscription(SubscriptionId id) const override {
    return id.valid() && id.value() < subs_.size() &&
           subs_[id.value()].live();
  }

  /// The underlying DAG, for inspection (tests, benches).
  [[nodiscard]] const SharedForest& forest() const { return forest_; }
  /// Distinct result roots currently attached to subscriptions (a scan of
  /// the chain-head table).
  [[nodiscard]] std::size_t distinct_roots() const;
  /// Subscriptions that aliased onto an equivalent (non-identical) root via
  /// the covering fast path.
  [[nodiscard]] std::uint64_t subsumption_hits() const {
    return subsumption_hits_;
  }
  /// Roots currently borrowing a donor's truth via partial sharing.
  [[nodiscard]] std::size_t partial_shares() const { return live_borrowers_; }
  /// The subscription's expression exactly as written (the per-root
  /// evaluation permutation undoes SortedChildren interning). Null for
  /// unknown/removed ids; subscriptions aliased onto an equivalent root by
  /// the subsumption fast path report that root's stored form instead.
  [[nodiscard]] ast::NodePtr subscription_ast(SubscriptionId id) const;

  /// Test hook: jump `ctx`'s per-event scratch epoch to its maximum so the
  /// next match on it wraps the epoch counter (regression surface for
  /// stale-truth leaks across the wrap). `ctx` must come from make_context().
  static void force_scratch_epoch_wrap(MatchContext& ctx);

 protected:
  /// Route the forest's quarantine through the broker's epoch domain: node
  /// slots retired by remove() re-enter the free list only after every
  /// reader pinned at retirement time has unpinned (shared_forest.h).
  void on_epoch_domain_changed(EpochDomain* domain) override {
    forest_.set_reclaim_domain(domain);
  }

 private:
  using NodeId = SharedForest::NodeId;
  static constexpr std::uint32_t kNoSub = 0xffffffffu;

  /// Per-thread match scratch (epoch-cleared / rank-bucketed,
  /// allocation-free once warm). One per matching thread; the const match
  /// path touches nothing outside its context.
  struct ForestContext final : MatchContext {
    // Touched = a fulfilled leaf, or a node with a flipped child this event.
    EpochSet touched;                  // by node id
    std::vector<std::uint8_t> value;   // node truth, valid iff touched
    std::vector<std::uint16_t> flips;  // flipped child edges, iff touched
    std::vector<NodeId> frontier;      // touched nodes, discovery order
    // Fulfilled leaves as a two-level bitmap (one bit per node id, one
    // summary bit per non-zero word), walked in ascending id and left
    // clean for the next event.
    std::vector<std::uint64_t> leaf_bits;
    std::vector<std::uint64_t> leaf_words;
    // Topological order by counting sort: touched interior nodes bucketed
    // by rank (ranks are tree heights — single digits on real workloads,
    // so this beats sorting (rank, node) keys per event).
    std::vector<std::vector<NodeId>> rank_buckets;
    std::uint32_t max_rank_touched = 0;
  };

  struct SubRecord {
    NodeId root = SharedForest::kNoNode;  ///< kNoNode = free id
    std::uint32_t next = kNoSub;  ///< intrusive chain of same-root subs
    std::uint32_t prev = kNoSub;
    /// Subscriptions chained on `root`; maintained on the chain's head
    /// record only (stale elsewhere), so a refuted root adds its whole
    /// chain to MatchStats::candidates without walking it.
    std::uint32_t chain_length = 0;
    /// Evaluation permutation mapping the written child order onto the
    /// root's stored (sorted) order; empty = identity (Normalisation::None,
    /// or a subsumption-aliased root whose written form is not this node).
    std::vector<std::uint32_t> perm;

    [[nodiscard]] bool live() const { return root != SharedForest::kNoNode; }
  };

  SubscriptionId allocate_id();
  /// Chains `id` onto `root`; true when `root` thereby becomes a result root.
  bool attach(SubscriptionId id, NodeId root, std::uint64_t signature);
  void detach(SubscriptionId id);
  [[nodiscard]] NodeId try_alias_equivalent(const ast::Node& expression,
                                            NodeId fresh_root,
                                            std::uint64_t signature);
  void try_adopt_donor(NodeId root, const ast::Node& expression);
  [[nodiscard]] bool root_contains_not(NodeId root) const;
  void collect_root_predicates(NodeId root,
                               std::vector<PredicateId>& out) const;
  [[nodiscard]] std::uint64_t expression_signature(
      const ast::Node& expression);
  [[nodiscard]] std::uint64_t root_signature(NodeId root);
  [[nodiscard]] bool permutation_valid(NodeId root,
                                       std::span<const std::uint32_t> perm,
                                       std::size_t& cursor) const;

  template <typename Emit>
  void match_impl(std::span<const PredicateId> fulfilled, ForestContext& ctx,
                  Emit&& emit) const;

  Options options_;
  SharedForest forest_;

  std::vector<SubRecord> subs_;  // dense by subscription id
  std::vector<SubscriptionId> free_ids_;
  std::size_t live_count_ = 0;

  // Root attachment: the head of each result root's subscription chain,
  // dense by node id (kNoSub = not a result root; ids past the end are
  // fresh interior nodes), plus the signature index driving the
  // subsumption fast path and the always-candidate roots (static truth =
  // true).
  std::vector<std::uint32_t> chain_head_;
  std::unordered_map<std::uint64_t, std::vector<NodeId>> roots_by_sig_;
  std::vector<NodeId> always_roots_;
  std::uint64_t subsumption_hits_ = 0;

  // Partial sharing: borrower root -> donor node (dense by node id,
  // kNoNode = not a borrower). A borrower holds one forest reference on its
  // donor, so the donor's node — and therefore its memoized truth — can
  // never die before the last borrower detaches. roots_by_pred_ is the
  // donor candidate index: predicate id -> result roots whose expression
  // uses it.
  std::vector<NodeId> donor_of_;
  std::unordered_map<std::uint32_t, std::vector<NodeId>> roots_by_pred_;
  std::size_t live_borrowers_ = 0;

  // Add-path scratch only — never touched by the (concurrent) match path.
  std::vector<PredicateId> pred_scratch_;
  std::vector<std::uint32_t> perm_scratch_;
};

}  // namespace ncps
