// The filtering engine interface shared by the paper's three algorithms.
//
// All engines implement the same two-phase pipeline (paper §3.2):
//   phase 1 (predicate matching): event → {id(p)} via the one-dimensional
//     PredicateIndex — identical machinery for every engine ("the first
//     phases use the same indexes in the same way in both approaches");
//   phase 2 (subscription matching): {id(p)} → {id(s)} — where the
//     algorithms differ and where the paper measures.
//
// match_range(events, first, last, sink, ctx) runs both phases over a slice
// of a batch: phase 1 once over the slice (index lookups and scratch buffers
// amortise across events), then phase 2 over the slice through the
// match_slice hook, streaming matches into a MatchSink in batch order. The
// hook's default runs phase 2 per event; the forest engine may instead
// evaluate its DAG once per block of up to 64 events (DESIGN.md §1c).
// match_predicates(fulfilled, ..., ctx) enters at phase 2 for one event
// with an externally supplied fulfilled-predicate set, which is how the
// figure benchmarks reproduce the paper's methodology (fulfilled counts of
// 5 000/10 000 are workload parameters there, not event outcomes). Both are
// const and take a caller-owned MatchContext; there is no other match entry
// point.
//
// Engines own their predicate references: add() takes one PredicateTable
// reference per unique predicate stored, remove() releases them, and index
// registration follows the 0→1/1→0 refcount transitions.
//
// Threading: mutation (add/remove/bulk load/snapshots) is single-threaded —
// the broker layer serialises it per shard. Matching is read-mostly: the
// match entry points touch no mutable engine state — every scratch array
// and every counter lives in the caller-supplied MatchContext — so any
// number of threads may match against one engine concurrently, provided
// mutation is excluded for the duration. The sharded broker enforces that
// exclusion with an epoch read-gate (common/epoch_domain.h): each match
// task runs inside an EngineView — an epoch-pinned read-side section — and
// an applier closes the gate (waiting out pinned readers) only for the
// actual mutation, so lock-free readers and mid-batch mutation interleave
// at chunk granularity.
// An engine's state therefore splits into two classes:
//   - reader-visible: everything the const match path traverses — the
//     phase-1 index, predicate table entries, the forest/tree/counting
//     structures, per-subscription records. Mutated, and freed, only inside
//     the shard's write gate: B+ tree nodes, spilled posting blocks and
//     forest node slots are deleted or reused in place, and dense vectors
//     regrow in place, because the gate has already waited out every
//     pinned reader and admits the next one only after the mutation.
//   - apply-side: bookkeeping only mutators touch (use counts, free lists,
//     bulk-load queues). Guarded by the broker's per-shard mutex alone;
//     readers never look at it.
// The rule has a second half: no MatchContext keeps a pointer or node id
// into engine structures across match_range calls. Every id a context
// holds (forest frontier, rank buckets, leaf bitmap, lane masks, hit and
// truth arrays, the phase-1 fulfilled set) is written and consumed within
// one event or one call, and epoch-stamped or re-zeroed scratch trusts no
// value from before, so a slot the gate let a writer free or reuse is
// never read through a stale context.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/epoch_domain.h"
#include "common/ids.h"
#include "common/memory_tracker.h"
#include "event/event.h"
#include "index/predicate_index.h"
#include "predicate/predicate_table.h"
#include "subscription/ast.h"

namespace ncps {

namespace storage {
class Writer;
class Reader;
}  // namespace storage

/// Phase-2 work counters, accumulated in MatchContext::stats by every match
/// call on that context.
struct MatchStats {
  std::uint64_t events = 0;               ///< phase-2 invocations folded in
  std::uint64_t fulfilled_predicates = 0; ///< phase-1 candidates handed to phase 2
  std::uint64_t candidates = 0;           ///< candidate subscriptions considered
  std::uint64_t tree_evaluations = 0;     ///< Boolean trees evaluated (non-canonical)
  std::uint64_t node_evaluations = 0;     ///< DAG nodes evaluated (shared forest)
  std::uint64_t truth_lookups = 0;        ///< per-leaf truth probes during tree evaluation
  std::uint64_t hit_increments = 0;       ///< counter bumps (counting family)
  std::uint64_t counter_comparisons = 0;  ///< hits-vs-required comparisons
  std::uint64_t matches = 0;              ///< subscriptions reported
  /// Events whose phase 2 ran through the forest's block path; the forest
  /// counts node_evaluations and candidates once per block there, not
  /// once per event (DESIGN.md §1c).
  std::uint64_t block_events = 0;
  /// Wall time in match_range, split at the phase boundary (three clock
  /// reads per call, none per event; match_predicates adds nothing).
  std::uint64_t phase1_ns = 0;
  std::uint64_t phase2_ns = 0;

  void reset() { *this = MatchStats{}; }
};

/// Receives subscription matches as they are found, so results stream out of
/// the engine instead of accumulating in one vector. Events arrive in batch
/// order; matches within one event arrive in unspecified order, each once.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void on_match(std::size_t event_index, const Event& event,
                        SubscriptionId subscription) = 0;
};

/// Collects matched subscription ids into a vector, for callers that want
/// the match set rather than a stream (tests, benches, overlay routing).
class VectorSink final : public MatchSink {
 public:
  explicit VectorSink(std::vector<SubscriptionId>& out) : out_(&out) {}

  void on_match(std::size_t /*event_index*/, const Event& /*event*/,
                SubscriptionId subscription) override {
    out_->push_back(subscription);
  }

 private:
  std::vector<SubscriptionId>* out_;
};

/// Caller-owned match state: MatchStats plus every scratch structure one
/// matching thread needs. Engines subclass it (make_context()) with their
/// phase-2 scratch arrays — memoized truth, hit vectors, frontier buffers —
/// which is what makes the match path safe to run from several threads at
/// once: all mutation lands in the context, all engine state is read-only.
/// One context serves one thread at a time; a caller reuses its context
/// across calls so the scratch allocations amortise.
///
/// stats accumulates across calls (the broker folds a worker's context into
/// per-shard totals after each task); callers wanting per-call numbers
/// reset it before the call.
class MatchContext {
 public:
  virtual ~MatchContext() = default;

  MatchStats stats;
  /// Phase-1 batch scratch for match_range: all events' fulfilled sets
  /// concatenated + slice bounds.
  std::vector<PredicateId> fulfilled;
  std::vector<std::uint32_t> offsets;
};

class FilterEngine {
 public:
  explicit FilterEngine(PredicateTable& table) : table_(&table) {}
  virtual ~FilterEngine() = default;

  FilterEngine(const FilterEngine&) = delete;
  FilterEngine& operator=(const FilterEngine&) = delete;

  /// Register a subscription; the engine copies what it needs from the
  /// expression (the caller keeps ownership of `expression`).
  virtual SubscriptionId add(const ast::Node& expression) = 0;

  /// Throw exactly what add() would throw for `expression`, registering
  /// nothing. `scratch` is a caller-owned table holding the expression's
  /// predicates (complements intern into it during canonicalisation). The
  /// base engine accepts everything; engines that canonicalise on add
  /// override. Touches no mutable engine state, so the broker may call it
  /// while the engine is concurrently matching — it pre-validates control
  /// commands that will be applied asynchronously, where a throw would
  /// otherwise surface on the data plane.
  virtual void validate(const ast::Node& expression,
                        PredicateTable& scratch) const {
    (void)expression;
    (void)scratch;
  }

  /// Unregister. Returns false if the id is unknown or already removed.
  virtual bool remove(SubscriptionId id) = 0;

  /// Build a match context sized for this engine (scratch grows lazily as
  /// the context is used). Contexts from engines of the same kind are
  /// interchangeable; the broker builds one per worker and reuses it across
  /// shards and batches.
  [[nodiscard]] virtual std::unique_ptr<MatchContext> make_context() const {
    return std::make_unique<MatchContext>();
  }

  /// Phase 2, concurrent-safe: report subscriptions
  /// satisfied when exactly the given predicates are fulfilled, emitting
  /// each match (once, in unspecified order) to `sink` with the event
  /// context. Const — every write lands in `ctx`, so any number of threads
  /// may call this on one engine as long as each brings its own context
  /// and no thread concurrently mutates the engine (the broker's
  /// epoch-pinned EngineView enforces exactly that). ctx.stats
  /// accumulates; the caller resets or folds it on its own schedule.
  void match_predicates(std::span<const PredicateId> fulfilled,
                        std::size_t event_index, const Event& event,
                        MatchSink& sink, MatchContext& ctx) const {
    ctx.stats.events += 1;
    ctx.stats.fulfilled_predicates += fulfilled.size();
    match_predicates_impl(fulfilled, event_index, event, sink, ctx);
  }

  /// Full pipeline over events[first, last), concurrent-safe: phase 1 once
  /// over the sub-range through this engine's index, then phase 2 over the
  /// sub-range (match_slice) streamed into `sink` in batch order with
  /// *batch-global* event indexes. This is the unit of work a (shard ×
  /// event-chunk) match task executes.
  void match_range(std::span<const Event> events, std::size_t first,
                   std::size_t last, MatchSink& sink, MatchContext& ctx) const;

  /// Enter bulk-load mode: until finish_bulk_load(), predicates newly
  /// acquired by add() are NOT registered with the phase-1 index one by one;
  /// they are queued and handed to PredicateIndex::bulk_load in one batch.
  /// Matching between begin and finish sees none of the pending predicates,
  /// so callers must not publish through this engine mid-bulk (the broker
  /// holds the shard lock across the whole window).
  void begin_bulk_load() {
    NCPS_EXPECTS(!bulk_loading_);
    bulk_loading_ = true;
  }

  /// Leave bulk-load mode, building the phase-1 index for every predicate
  /// still in use (pool may be null for a sequential build). After this the
  /// engine matches exactly as if every add() had run outside bulk mode.
  void finish_bulk_load(WorkStealingPool* pool);

  [[nodiscard]] virtual std::size_t subscription_count() const = 0;
  [[nodiscard]] virtual MemoryBreakdown memory() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Release allocator growth slack so memory() reflects the steady-state
  /// footprint (what a long-running broker converges to, and what the
  /// memory benchmarks measure). Matching behaviour is unchanged.
  virtual void compact_storage() { use_count_.shrink_to_fit(); }

  [[nodiscard]] PredicateTable& predicate_table() { return *table_; }
  [[nodiscard]] const PredicateIndex& predicate_index() const { return index_; }

  // ---- state snapshots (broker persistence, storage/snapshot.h) ----

  /// True if the engine can dump and restore its entire state (predicate
  /// table + internal structures) byte-exactly. Engines without it are
  /// snapshotted generically: the broker stores subscription texts and
  /// re-adds them through the bulk path on recovery.
  [[nodiscard]] virtual bool supports_state_snapshot() const { return false; }

  /// Fold transient slack (free-list fragmentation, dead arena slices) into a
  /// canonical shape before save_state() so derived structure needs no
  /// encoding. Must be called under the same exclusivity add() requires.
  virtual void prepare_snapshot() {}

  /// Dump the engine's predicate table and full phase-2 state. Only
  /// engines with supports_state_snapshot() implement these; the defaults
  /// are unreachable.
  virtual void save_state(storage::Writer& w) const {
    (void)w;
    NCPS_ASSERT(false && "engine does not support state snapshots");
  }

  /// Rebuild from save_state() bytes into a freshly constructed engine
  /// (same options, empty predicate table). Attribute ids are remapped
  /// through `attr_remap`; `pool` (nullable) parallelises the phase-1 index
  /// build. Throws StorageError on structural violations.
  virtual void load_state(storage::Reader& r,
                          std::span<const AttributeId> attr_remap,
                          WorkStealingPool* pool) {
    (void)r;
    (void)attr_remap;
    (void)pool;
    NCPS_ASSERT(false && "engine does not support state snapshots");
  }

  /// True if `id` is a live subscription in this engine. Used by snapshot
  /// recovery to validate an untrusted local-id map before it is trusted to
  /// index broker-side tables. Engines without state snapshots never face
  /// untrusted ids, so the default is false.
  [[nodiscard]] virtual bool owns_subscription(SubscriptionId id) const {
    (void)id;
    return false;
  }

 protected:
  /// Phase-2 body — what engines actually implement. Const: all scratch and
  /// all counters live in `ctx` (engines downcast to the type their
  /// make_context() built); implementations add to ctx.stats and must NOT
  /// reset it. Any engine state touched here must be read-only or the
  /// concurrent-reader contract of the public const overload breaks.
  virtual void match_predicates_impl(std::span<const PredicateId> fulfilled,
                                     std::size_t event_index,
                                     const Event& event, MatchSink& sink,
                                     MatchContext& ctx) const = 0;

  /// Phase 2 of match_range over its whole slice: `range` holds the
  /// slice's events, `first` the batch index of range[0], and
  /// ctx.fulfilled / ctx.offsets their phase-1 sets. Matches must reach
  /// `sink` in batch order. The default calls match_predicates per event;
  /// an override keeps the same const, context-only contract.
  virtual void match_slice(std::span<const Event> range, std::size_t first,
                           MatchSink& sink, MatchContext& ctx) const;

  /// Take an engine-owned reference to a live predicate; the first
  /// engine-local use registers it with the phase-1 index. Index membership
  /// is driven by the engine's own use count, NOT the table's global
  /// refcount: other owners (parsed expressions, other engines sharing the
  /// table) may acquire and release the same predicate on their own
  /// schedule without corrupting this engine's index.
  void acquire_predicate(PredicateId id) {
    table_->add_ref(id);
    if (id.value() >= use_count_.size()) use_count_.resize(id.value() + 1, 0);
    if (use_count_[id.value()]++ == 0) {
      if (bulk_loading_) {
        // Defer index registration to finish_bulk_load. The pending flag
        // dedupes 0→1→0→1 flutter within one bulk window.
        if (id.value() >= pending_index_add_.size()) {
          pending_index_add_.resize(id.value() + 1, 0);
        }
        if (!pending_index_add_[id.value()]) {
          pending_index_add_[id.value()] = 1;
          pending_ids_.push_back(id);
        }
      } else {
        index_.add(id, table_->get(id));
      }
    }
  }

  /// Release an engine-owned reference; the last engine-local use
  /// deregisters from the index (while the predicate is still resolvable).
  void release_predicate(PredicateId id) {
    NCPS_ASSERT(id.value() < use_count_.size() && use_count_[id.value()] > 0);
    if (--use_count_[id.value()] == 0) {
      // A predicate whose registration is still pending was never added to
      // the index; finish_bulk_load filters it out via the use count.
      if (!(bulk_loading_ && id.value() < pending_index_add_.size() &&
            pending_index_add_[id.value()])) {
        index_.remove(id, table_->get(id));
      }
    }
    table_->release(id);
  }

  [[nodiscard]] std::size_t use_count_bytes() const {
    return use_count_.capacity() * sizeof(std::uint32_t);
  }

  PredicateTable* table_;
  PredicateIndex index_;
  std::vector<std::uint32_t> use_count_;  // engine-local uses per predicate id

 private:
  // Bulk-load state: predicates whose first engine-local use happened while
  // bulk_loading_ (index registration deferred to finish_bulk_load).
  bool bulk_loading_ = false;
  std::vector<PredicateId> pending_ids_;
  std::vector<std::uint8_t> pending_index_add_;  // dense by predicate id
};

/// An epoch-pinned read-side view of one engine — the formal shape of a
/// match task. Construction pins a reader slot on the engine's domain
/// (blocking only while an applier is inside its write gate); destruction
/// unpins, exceptions included. While the view lives, every reader-visible
/// structure the const match path traverses is guaranteed stable: appliers
/// wait out the pin before mutating or freeing anything. Only the const,
/// context-taking match_range is exposed.
class EngineView {
 public:
  /// `slot` identifies the reader (one live view per slot at a time); the
  /// broker uses the worker id.
  EngineView(const FilterEngine& engine, EpochDomain& domain,
             std::size_t slot)
      : engine_(&engine), domain_(&domain), slot_(slot) {
    domain_->reader_enter(slot_);
  }
  ~EngineView() { domain_->reader_exit(slot_); }
  EngineView(const EngineView&) = delete;
  EngineView& operator=(const EngineView&) = delete;

  void match_range(std::span<const Event> events, std::size_t first,
                   std::size_t last, MatchSink& sink,
                   MatchContext& ctx) const {
    engine_->match_range(events, first, last, sink, ctx);
  }

 private:
  const FilterEngine* engine_;
  EpochDomain* domain_;
  std::size_t slot_;
};

}  // namespace ncps
