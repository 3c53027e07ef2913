// The paper's non-canonical prototype (§3.2/§3.3): per-subscription encoded
// byte trees, kept verbatim as the unshared baseline of the forest-backed
// NonCanonicalEngine (engine/non_canonical_engine.h).
//
// Four data structures drive subscription matching:
//   1. the one-dimensional predicate indexes (phase 1, in FilterEngine),
//   2. the predicate-subscription association table: id(p) → {id(s)},
//   3. the subscription location table: id(s) → loc(s) — here an
//      (offset, length) pair into one contiguous byte buffer,
//   4. the encoded subscription trees themselves (paper §3.3 byte layout).
//
// Phase 2: mark fulfilled predicates in an epoch-stamped truth array, gather
// candidate subscriptions (any subscription containing a fulfilled
// predicate), evaluate each candidate's encoded Boolean tree with truth
// lookups, and report the ones evaluating to true. No DNF is ever built —
// the subscription is filtered exactly as the subscriber wrote it — but
// every candidate pays its whole tree: N subscribers with identical filters
// evaluate N identical trees per event. bench_sharing quantifies that
// against the shared-forest engine.
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
#include "subscription/encoded_tree_v2.h"

namespace ncps {

/// Which byte layout the engine stores subscription trees in.
enum class TreeEncoding : std::uint8_t {
  kV1Paper,   ///< the paper's §3.3 fixed-width layout
  kV2Varint,  ///< the improved varint layout (paper §5 future work)
};

class NonCanonicalTreeEngine final : public FilterEngine {
 public:
  explicit NonCanonicalTreeEngine(PredicateTable& table,
                                  ReorderPolicy reorder = ReorderPolicy::kNone,
                                  TreeEncoding encoding = TreeEncoding::kV1Paper)
      : FilterEngine(table), reorder_(reorder), encoding_(encoding) {}

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

  /// Start/stop recording per-predicate fulfilment frequencies (off by
  /// default; a small per-event cost on the fulfilled set). Single-threaded
  /// bench facility: the frequency counters are engine state written on the
  /// match path, so statistics must stay off while matching concurrently.
  void enable_statistics(bool on) { stats_enabled_ = on; }

  /// Re-encode every live subscription tree ordered by observed predicate
  /// selectivity: AND children least-likely-true first (fail fast), OR
  /// children most-likely-true first (succeed fast). Matching results are
  /// unchanged; expected truth lookups per evaluation drop. This is the
  /// paper's §3.2 "reordering subscription trees" optimisation, driven by
  /// statistics gathered via enable_statistics().
  void reorder_trees_by_selectivity();

  /// Events observed since statistics were enabled.
  [[nodiscard]] std::uint64_t observed_events() const { return events_seen_; }

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

  ReorderPolicy reorder_;
  TreeEncoding encoding_;

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

  // Selectivity statistics (enable_statistics). Written on the (const)
  // match path when enabled, hence mutable — a documented single-threaded
  // bench facility, never on under concurrent matching.
  bool stats_enabled_ = false;
  mutable std::uint64_t events_seen_ = 0;
  mutable std::vector<std::uint32_t> fulfilled_count_;  // per predicate id

  std::vector<PredicateId> pred_scratch_;
};

}  // namespace ncps
