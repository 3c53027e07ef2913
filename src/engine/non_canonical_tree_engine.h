// The paper's non-canonical prototype (§3.2/§3.3): per-subscription encoded
// byte trees, kept verbatim as the unshared baseline of the forest-backed
// NonCanonicalEngine (engine/non_canonical_engine.h).
//
// Four data structures drive subscription matching:
//   1. the one-dimensional predicate indexes (phase 1, in FilterEngine),
//   2. the predicate-subscription association table: id(p) → {id(s)},
//   3. the subscription location table: id(s) → loc(s) — here an
//      (offset, length) pair into one contiguous byte buffer,
//   4. the encoded subscription trees themselves, in the paper's §3.3
//      fixed-width layout (tree-v1), the engine's one layout.
//
// Phase 2: mark fulfilled predicates in an epoch-stamped truth array, gather
// candidate subscriptions (any subscription containing a fulfilled
// predicate), evaluate each candidate's encoded Boolean tree with truth
// lookups, and report the ones evaluating to true. No DNF is ever built —
// the subscription is filtered exactly as the subscriber wrote it — but
// every candidate pays its whole tree: N subscribers with identical filters
// evaluate N identical trees per event. bench_sharing quantifies that
// against the shared-forest engine. Matching writes no engine state: the
// truth array and the seen-set live in the caller's MatchContext.
//
// One correctness addition beyond the paper: a subscription whose expression
// is satisfiable with *zero* fulfilled predicates (e.g. `not a == 1`, or the
// NotExists operator) can never become a candidate through the association
// table. Such subscriptions are kept on an always-candidate list and
// evaluated for every event. The paper's workloads (AND/OR only) never
// produce them, so the list is empty in every benchmark.
#pragma once

#include <cstddef>
#include <vector>

#include "common/epoch_set.h"
#include "engine/engine.h"
#include "engine/posting_store.h"
#include "subscription/encoded_tree.h"

namespace ncps {

class NonCanonicalTreeEngine final : public FilterEngine {
 public:
  explicit NonCanonicalTreeEngine(PredicateTable& table)
      : FilterEngine(table) {}

  SubscriptionId add(const ast::Node& expression) override;
  bool remove(SubscriptionId id) override;
  /// Throws exactly what add() would (EncodeError for trees beyond the
  /// paper's 255-child/65535-byte-subtree limits), registering nothing —
  /// the broker pre-validates deferred subscribe commands with this so a
  /// queued command cannot fail at application time.
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
    return "non-canonical-tree";
  }

  /// Bytes of encoded tree storage currently dead (left by removals).
  /// Exposed so tests can drive compaction policy decisions.
  [[nodiscard]] std::size_t dead_tree_bytes() const { return dead_bytes_; }

  /// Reclaim dead tree bytes by rewriting the buffer (invalidates nothing
  /// externally; location table is updated in place).
  void compact_tree_storage();

  void compact_storage() override;

  /// Chunked posting accounting for the predicate→subscription association
  /// table (BENCH_memory's phase-2 compression row).
  [[nodiscard]] PostingStore::Stats assoc_stats() const {
    return assoc_.stats();
  }

 private:
  /// Per-thread match scratch (epoch-cleared, allocation-free on the hot
  /// path).
  struct TreeContext final : MatchContext {
    EpochSet truth;      // fulfilled predicates
    EpochSet seen_subs;  // candidate de-duplication
  };

  /// The one phase-2 matching loop, emitting into the sink adapter.
  template <typename Emit>
  void match_impl(std::span<const PredicateId> fulfilled, TreeContext& ctx,
                  Emit&& emit) const;

  struct Location {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  struct SubRecord {
    std::vector<PredicateId> unique_predicates;
    bool live = false;
    bool always_candidate = false;
  };

  SubscriptionId allocate_id();

  std::vector<std::byte> tree_bytes_;   // all encoded subscription trees
  std::vector<Location> locations_;     // subscription location table
  std::vector<SubRecord> subs_;         // per-subscription bookkeeping
  std::vector<SubscriptionId> free_ids_;
  std::size_t live_count_ = 0;
  std::size_t dead_bytes_ = 0;

  // Association table: id(p) → {id(s)}, dense by predicate id, packed into
  // chunked posting lists (paper footnote 2: array-based association).
  PostingStore assoc_;
  std::vector<SubscriptionId> always_candidates_;

  std::vector<PredicateId> pred_scratch_;
};

}  // namespace ncps
