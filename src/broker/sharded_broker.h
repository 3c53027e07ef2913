// Multi-core broker: N independent engine shards behind one session surface.
//
// Each shard owns a full matching stack — its own PredicateTable, its own
// FilterEngine (any of the paper's three algorithms) and therefore its own
// phase-1 index — preserving the engine invariant of exclusive table
// ownership. Subscriptions are placed on exactly one shard by the
// ShardRouter; published events visit every shard, so each shard performs
// phase 1 + phase 2 over ~1/N of the subscription population.
//
// The data plane is batch-oriented and scheduled at sub-shard granularity:
// publish_batch() splits the batch into (shard × event-chunk) match tasks on
// a work-stealing pool (common/work_stealing_pool.h). Tasks are dealt
// shard-major — a worker's initial slice covers consecutive chunks of the
// same shard, so its engine's structures stay hot — and an idle worker
// steals the oldest chunk of the most loaded deque, which is what keeps a
// skew-loaded shard from becoming the batch's critical path (one task per
// shard, the previous design, made it exactly that). Matching inside a
// shard is read-mostly concurrent: any number of workers may match one
// engine at once because every write lands in a per-worker MatchContext
// (engine/engine.h). Match tasks take no lock at all — each runs as an
// epoch-pinned EngineView read-side section on the shard's EpochDomain
// (common/epoch_domain.h), and control-plane mutation closes that domain's
// write gate (waiting out the pinned chunks, never a whole batch) for
// exactly the duration of the mutation. The shard mutex survives only to
// serialise *mutators* against each other — drains and checkpoint — never
// to admit readers. Each task streams matches into its own (shard, chunk)
// buffer via the engines' MatchSink interface, and the buffers are merged
// deterministically (per event, ascending global subscription id —
// byte-identical regardless of shard count, chunking or steal
// interleaving) by parallel per-event-range merge tasks on the same pool.
// In the default inline delivery mode callbacks run on the publishing
// thread, never concurrently; with DeliveryOptions::mode == Async the
// merged matches are deposited into per-subscriber bounded outboxes and
// callbacks run on the delivery executor's threads
// (delivery/delivery_plane.h), so a slow consumer blocks neither matching
// nor other subscribers. In both modes callbacks must not publish back into
// the broker.
//
// The control plane (register/subscribe/unsubscribe) may be called from any
// number of threads concurrently with publishing. Every control operation
// takes one path: it is validated on the calling thread (so it can no
// longer fail once issued), journalled when storage is on, and pushed as a
// command onto the owning shard's lock-free MPSC queue. Commands are
// applied only by draining that queue, in push order:
//
//   - if no other mutator holds the shard's mutex, the caller drains the
//     shard itself, its own command last: it enters the shard's epoch write
//     gate, waits out the chunks currently pinned (bounded by the chunk
//     cap, NOT by the batch), and mutates. Single-threaded callers observe
//     the exact seed-broker semantics: a subscription is matchable the
//     instant subscribe() returns;
//   - if another mutator holds the mutex, the command is left to whichever
//     mutator next drains the shard — the dedicated apply thread (woken by
//     the caller), the publishing thread at the start of the next batch, or
//     quiesce(). The publisher never takes the control-plane lock.
//
// Commands therefore apply *concurrently with matching*: a long batch no
// longer gates the control plane (the old design parked commands until the
// batch's fan-out finished — see git history for matching_active_). Batch
// determinism is unaffected where it is promised: the merged notification
// order for a fixed engine state is byte-identical regardless of shard
// count, chunking or stealing, and without concurrent control threads the
// publish lock means every command still lands between batches. With
// concurrent churn, *which* chunk boundary a command lands on is timing-
// dependent — exactly as which *batch* boundary it landed on was before —
// and the post-quiesce state is identical either way (churn_fuzz proves
// both).
//
// Commands carry a broker-wide issue generation; each shard's
// GenerationFence records how far it has applied. That gives unsubscribe an
// epoch-style guarantee without stalling in-flight batches: once every
// shard's applied generation passes the unsubscribe's issue point (observe
// via wait_applied(), or force it with quiesce()), no further notification
// for that subscription will be delivered. quiesce() additionally waits for
// the in-flight batch's deliveries, so it is the full barrier.
//
// Subscription text is parsed in two stages mirroring the parser's own
// phases: the calling thread runs parse_raw (so ParseError is synchronous
// and nothing is registered on failure), and the thread applying the command
// interns the raw tree into the shard's table (predicates live, and are
// refcounted, exactly where the subscription's engine lives). Every
// subscribe is additionally pre-validated on the calling thread (for the
// counting engines, pre-canonicalised), so DNF-explosion errors are also
// synchronous and an issued command can no longer fail.
//
// Every broker's publishing thread matches. With a pool it is the pool's
// last worker, taking a slice of the match and merge tasks beside the
// spawned threads. shard_count=1 with one worker is the seed broker: no
// threads are spawned, and the publishing thread runs the batch's match
// tasks itself, as worker 0, through the same epoch-pinned path — Broker
// (broker.h) is a thin specialisation of this class.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "broker/shard_router.h"
#include "common/epoch_domain.h"
#include "common/generation_fence.h"
#include "common/ids.h"
#include "common/mpsc_queue.h"
#include "common/snapshot_ptr.h"
#include "common/work_stealing_pool.h"
#include "engine/engine.h"
#include "delivery/delivery_plane.h"
#include "engine/engine_factory.h"
#include "event/event.h"
#include "event/schema.h"
#include "obs/broker_metrics.h"
#include "storage/journal.h"
#include "storage/snapshot.h"
#include "subscription/parser.h"

namespace ncps {

namespace storage {
class Writer;
class Reader;
}  // namespace storage

struct ShardedBrokerConfig {
  /// Independent engine shards. 1 reproduces the seed single-engine broker.
  std::size_t shard_count = 1;
  EngineKind engine = EngineKind::NonCanonical;
  /// Threads the broker spawns to match published batches. The publishing
  /// thread matches beside them, so a pool broker runs worker_threads + 1
  /// matchers. 0 picks min(shard_count, hardware_concurrency) - 1: a count
  /// derived from the hardware spawns one fewer thread than the cores it
  /// means to fill, because the calling thread is one of the workers. A
  /// pool is made when the resolved count exceeds 1 *or* shard_count
  /// exceeds 1; a single-shard broker whose count resolves to 0 or 1 is
  /// the seed broker, which spawns nothing (its publishing thread runs
  /// every match task alone). More workers than shards is meaningful:
  /// workers share one shard's engine as concurrent readers, each with its
  /// own match context.
  std::size_t worker_threads = 0;
  /// Subscription placement (broker/shard_router.h). kSubscriberAffine
  /// colocates a subscriber's portfolio on one shard — deliberate skew,
  /// which the work-stealing scheduler is built to absorb.
  ShardPlacement placement = ShardPlacement::kSpread;
  /// Delivery plane configuration. The default (DeliveryMode::Inline) runs
  /// callbacks on the publishing thread — the seed semantics; Async routes
  /// them through per-subscriber outboxes and the delivery executor
  /// (delivery/delivery_plane.h).
  DeliveryOptions delivery{};
  /// Crash-recoverable subscription store (storage/snapshot.h). When
  /// enabled the broker journals every control operation before applying
  /// it, checkpoint() writes per-shard snapshots, and construction recovers
  /// the full subscription state from the storage directory. Default off:
  /// byte-for-byte the in-memory-only behaviour.
  storage::StorageOptions storage{};
  /// Telemetry gate. When false no metric cells are allocated and every
  /// instrumentation site reduces to one null check. metrics() still works,
  /// reporting only values sampled from existing structures (per-shard
  /// match stats, gauges).
  bool metrics = true;
};

class ShardedBroker {
 public:
  using NotifyFn = std::function<void(const Notification&)>;

  ShardedBroker(AttributeRegistry& attrs, ShardedBrokerConfig config);
  explicit ShardedBroker(AttributeRegistry& attrs)
      : ShardedBroker(attrs, ShardedBrokerConfig{}) {}
  virtual ~ShardedBroker();

  // Engines hold references into shard-owned tables, so a broker pins its
  // address: neither copyable nor movable. Use create() for a movable handle.
  ShardedBroker(const ShardedBroker&) = delete;
  ShardedBroker& operator=(const ShardedBroker&) = delete;
  ShardedBroker(ShardedBroker&&) = delete;
  ShardedBroker& operator=(ShardedBroker&&) = delete;

  [[nodiscard]] static std::unique_ptr<ShardedBroker> create(
      AttributeRegistry& attrs, ShardedBrokerConfig config = {});

  /// Open a subscriber session. Thread-safe. In async delivery mode the
  /// subscriber's outbox uses the configured default backpressure policy.
  SubscriberId register_subscriber(NotifyFn callback);

  /// Open a subscriber session with an explicit backpressure policy for its
  /// outbox. Only meaningful in async delivery mode (the policy is ignored
  /// under inline delivery). Thread-safe.
  SubscriberId register_subscriber(NotifyFn callback,
                                   BackpressurePolicy policy);

  /// Close a session, dropping all its subscriptions. Thread-safe; an
  /// in-flight batch may still invoke the callback (quiesce() to fence). In
  /// async mode the subscriber's queued-but-undelivered notifications are
  /// discarded.
  void unregister_subscriber(SubscriberId subscriber);

  /// Register a subscription for a subscriber; the router places it on one
  /// shard. Throws ParseError on malformed text (and, for counting engines,
  /// DnfExplosionError/SubscriptionTooLargeError) with no state change.
  /// Thread-safe; the subscription is matched by every batch that starts
  /// after this returns.
  SubscriptionId subscribe(SubscriberId subscriber, std::string_view text);

  /// Register many subscriptions for one subscriber in a single control
  /// operation. Semantics match subscribe() called once per element (same
  /// shard placement, same error behaviour — all texts are parsed and
  /// validated before any state changes, so a throw registers nothing), but
  /// each shard builds its phase-1 index in bulk: predicate registration is
  /// deferred across the shard's whole batch and handed to
  /// PredicateIndex::bulk_load, partitioned by attribute and (for large
  /// batches) built on a temporary thread pool. Each shard receives one
  /// BulkSubscribe command instead of N Subscribe commands. Thread-safe.
  /// Returns the new ids in input order.
  std::vector<SubscriptionId> subscribe_bulk(
      SubscriberId subscriber, std::span<const std::string> texts);

  /// Remove one subscription. Returns false if unknown or already removed.
  /// Thread-safe. On return the removal is issued: batches starting after
  /// every shard passes control_generation() (see wait_applied/quiesce)
  /// deliver no further notifications for it; when no other mutator holds
  /// the shard (always, for a sequential caller) the removal has already
  /// been applied when this returns.
  bool unsubscribe(SubscriptionId subscription);

  /// Match an event against every shard and notify all matching
  /// subscribers. Inline mode: callbacks run before this returns, and the
  /// return value is notifications delivered. Async mode: notifications are
  /// accepted into per-subscriber outboxes (applying backpressure policies)
  /// and delivered by the executor; the return value is notifications
  /// accepted.
  std::size_t publish(const Event& event);

  /// Batched publish: one parallel fan-out across shards for the whole
  /// batch. Notifications are ordered per event in batch order, within an
  /// event in ascending subscription-id order (deterministic regardless of
  /// shard count or thread scheduling); in async mode that order is the
  /// per-subscriber FIFO order of the outboxes. Returns notifications
  /// delivered (inline) or accepted (async). Thread-safe (concurrent
  /// publishers are serialised internally; control operations are not
  /// blocked).
  std::size_t publish_batch(std::span<const Event> events);

  /// Async mode: block until every notification accepted by publishes that
  /// returned before this call has been delivered or dropped. Inline mode:
  /// no-op. Never call from a delivery callback.
  void flush();

  /// Per-subscriber delivery counters (async mode; nullopt for unknown
  /// subscribers or under inline delivery).
  [[nodiscard]] std::optional<DeliveryStats> delivery_stats(
      SubscriberId subscriber) const;

  [[nodiscard]] DeliveryMode delivery_mode() const {
    return delivery_ == nullptr ? DeliveryMode::Inline : DeliveryMode::Async;
  }

  /// Generation of the most recently issued control command. A command's
  /// effects are visible to every batch started after each shard's applied
  /// generation (shard_applied_generation) reaches the command's issue
  /// point; control_generation() right after a control call is a
  /// conservative fence for it.
  [[nodiscard]] std::uint64_t control_generation() const {
    return issue_generation_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t shard_applied_generation(
      std::size_t shard) const {
    NCPS_EXPECTS(shard < shards_.size());
    return shards_[shard]->fence.applied();
  }

  /// Block until every shard has applied all control commands issued at or
  /// before `generation`. Multi-shard (or multi-worker) brokers run a
  /// dedicated apply thread, so this is self-driving: queued commands apply
  /// concurrently with any in-flight batch and the wait is bounded by the
  /// grace period of the chunks in flight, not by batch size. Only on a
  /// seed broker (one shard, one worker, no threads) is it passive — some
  /// thread must drive batches (or quiesce) forward, as before.
  void wait_applied(std::uint64_t generation);

  /// Full control-plane barrier: waits for the in-flight batch (deliveries
  /// included), then applies every queued command on every shard; in async
  /// mode it additionally flushes the delivery plane. After quiesce()
  /// returns, subscriptions unsubscribed (and subscribers unregistered)
  /// before the call receive no further notifications — in either delivery
  /// mode.
  void quiesce();

  /// Subscriptions currently applied to the engines (excludes commands
  /// still queued behind an in-flight batch; exact after quiesce()).
  [[nodiscard]] std::size_t subscription_count() const;
  [[nodiscard]] std::size_t subscriber_count() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Direct engine access for tests/inspection; callers must ensure no
  /// batch or control command is concurrently touching the shard.
  [[nodiscard]] FilterEngine& shard_engine(std::size_t shard) {
    NCPS_EXPECTS(shard < shards_.size());
    return *shards_[shard]->engine;
  }
  /// Subscriptions currently placed on one shard (load-balance visibility).
  [[nodiscard]] std::size_t shard_subscription_count(std::size_t shard) const;
  [[nodiscard]] AttributeRegistry& attributes() { return *attrs_; }
  [[nodiscard]] MemoryBreakdown memory() const;

  /// Point-in-time telemetry snapshot: every registry cell (publish/latency
  /// counters and histograms, the control-apply-latency histogram, delivery
  /// and journal cells) plus sampled values — per-shard match stats and
  /// subscription counts, control-plane apply lag and queue depth, outbox
  /// gauges. Thread-safe and concurrent with publishing; it takes no shard
  /// mutex (every per-shard value is a relaxed atomic), so an inline
  /// delivery callback may call it.
  /// Render with to_prometheus() / to_json().
  [[nodiscard]] obs::MetricsSnapshot metrics() const;

  // ---- persistence (only when config.storage.enabled) ----

  [[nodiscard]] bool storage_enabled() const { return journal_ != nullptr; }

  /// Write a snapshot of the whole subscription state and truncate the
  /// journal. A full barrier, strictly stronger than quiesce(): it holds the
  /// publish lock (waiting out the in-flight batch and its deliveries),
  /// flushes async delivery, then freezes the *control plane* too
  /// (control_mutex_ + every shard mutex) before draining — quiesce() alone
  /// is NOT a snapshot fence, because control threads may re-queue commands
  /// on shards it has already drained. With every lock held the generation
  /// fences are asserted to have caught up with the issue generation; only
  /// then is the state serialised. Atomic on disk (temp + sync + rename);
  /// a crash anywhere leaves either the old snapshot with the full journal
  /// or the new snapshot (journal records it covers replay idempotently).
  void checkpoint();

  /// Re-attach a delivery callback to a subscriber recovered from storage
  /// (recovered sessions hold their subscriptions but deliver nothing until
  /// reattached). The registration itself is already durable, so nothing is
  /// journaled. Requires the subscriber to exist.
  void reattach_subscriber(SubscriberId subscriber, NotifyFn callback);

  /// Registered subscriber ids, ascending. Thread-safe.
  [[nodiscard]] std::vector<SubscriberId> subscriber_ids() const;
  /// Live subscription ids owned by `subscriber`, ascending (empty for
  /// unknown subscribers). Thread-safe.
  [[nodiscard]] std::vector<SubscriptionId> subscriptions_of(
      SubscriberId subscriber) const;
  /// The subscription's registered text. Tracked only when storage is
  /// enabled; nullopt otherwise or for dead ids. Thread-safe.
  [[nodiscard]] std::optional<std::string> subscription_text(
      SubscriptionId subscription) const;
  /// Journal sequence number of the last durable control operation.
  [[nodiscard]] std::uint64_t journal_sequence() const;

 private:
  struct ShardMatch {
    SubscriptionId subscription;  // global id
    SubscriberId owner;
  };

  /// One (shard × chunk) match task's output: its matches in event order,
  /// how many belong to each of the chunk's events, and the largest global
  /// id among them. The task writes the counts and the id once, when it
  /// ends (ChunkSink::finish).
  struct TaskMatches {
    std::vector<ShardMatch> matches;
    std::vector<std::uint32_t> event_counts;
    std::uint32_t max_id = 0;
  };

  /// One merge worker's ranking scratch, all-zero between events: `bits`
  /// holds one bit per global subscription id, `words` one bit per
  /// non-zero `bits` word (so touched words are found in ascending order
  /// without scanning the id range), `rank` each touched word's first rank
  /// within the event, `cursor` each shard's first match of the event.
  struct MergeScratch {
    std::vector<std::uint64_t> bits;
    std::vector<std::uint64_t> words;
    std::vector<std::uint32_t> rank;
    std::vector<std::size_t> cursor;
  };

  /// One subscription of a bulk registration bound for one shard. `raw`
  /// points into the owning command's `trees`.
  struct BulkSubscribeItem {
    SubscriptionId global;
    SubscriberId owner;
    const parser_detail::RawNode* raw;
  };

  /// A control-plane operation bound for one shard's engine.
  struct ShardCommand {
    enum class Kind : std::uint8_t { Subscribe, Unsubscribe, BulkSubscribe };
    Kind kind = Kind::Subscribe;
    SubscriptionId global;
    SubscriberId owner;                    // Subscribe
    parser_detail::RawNodePtr raw;         // Subscribe: pre-parsed tree
    std::vector<BulkSubscribeItem> bulk;   // BulkSubscribe
    /// BulkSubscribe: every tree of the subscribe_bulk call, shared by its
    /// per-shard commands, so they are freed together once the whole call
    /// is applied. Freeing one shard's trees before the next shard builds
    /// scatters that shard's index nodes into their holes: ~10% slower
    /// set-up on the e2e `selective` population.
    std::shared_ptr<const std::vector<parser_detail::RawNodePtr>> trees;
    std::uint64_t generation = 0;          // broker-wide issue generation
    /// obs::now_ticks() when the control call issued the op (0 when metrics
    /// are off): apply_command records issue → applied into the
    /// ncps_control_apply_latency histogram, i.e. how long the command sat
    /// behind other mutators and the data plane. Every control op is a
    /// command, so the histogram covers them all.
    std::uint64_t enqueue_tick = 0;
  };

  /// One engine shard: exclusive table + engine + its command queue.
  /// `mutex` serialises *mutators* — drains (the only place commands are
  /// applied) and snapshots hold it exclusive; memory accounting takes it
  /// shared. Match workers take no lock: they read the engine (and
  /// to_global/owner_of) inside an epoch-pinned EngineView on `epochs`, and
  /// every mutator additionally closes that domain's write gate (via
  /// ShardWriteGuard) around the actual mutation.
  struct Shard {
    PredicateTable table;
    std::unique_ptr<FilterEngine> engine;
    /// Engine-local id → broker-global id (dense by local id value).
    std::vector<SubscriptionId> to_global;
    /// Engine-local id → owning subscriber (dense by local id value), so
    /// delivery never reads control-plane maps.
    std::vector<SubscriberId> owner_of;
    /// Broker-global id value → engine-local id, for routing removals.
    std::unordered_map<std::uint32_t, SubscriptionId> local_of;
    MpscQueue<ShardCommand> commands;
    /// Commands pushed but not yet applied (telemetry only: MpscQueue has no
    /// size, and metrics() must not take the shard mutex to estimate one).
    std::atomic<std::uint64_t> queued_commands{0};
    /// Live subscriptions in `engine`, maintained by apply_subscribe /
    /// apply_unsubscribe (and snapshot recovery) so counts and metrics()
    /// never take the shard mutex.
    std::atomic<std::size_t> subscriptions{0};
    GenerationFence fence;
    std::shared_mutex mutex;
    /// Epoch read-gate over this shard's reader-visible state (engine
    /// structures, to_global/owner_of). One reader slot per worker (the
    /// seed broker's one is the publishing thread).
    std::unique_ptr<EpochDomain> epochs;
  };

  /// Where a live global subscription id points (control-plane only).
  struct Route {
    std::uint32_t shard = 0;
    SubscriberId owner;
    bool live = false;
  };

  /// A global id whose unsubscribe has been issued but whose reuse is not
  /// yet safe. Two conditions gate reclamation: the owning shard must have
  /// applied the removal (fence >= generation), and any batch whose
  /// *matching* preceded the application must have finished *delivering* —
  /// its buffered match records still carry the id, and reusing it mid
  /// delivery would misattribute a stale notification to the new
  /// subscription. Delivery completion is observed either directly (the
  /// publish mutex is momentarily free) or via the publish epoch ticking
  /// past `safe_epoch` (set to current+1 once the fence condition holds).
  /// In async delivery mode a third condition follows: outbox batches
  /// enqueued by those publishes also carry the id. They can only sit in
  /// the *owning subscriber's* outbox, so reuse further waits until that
  /// outbox's completed marker passes `safe_accepted` — a snapshot of its
  /// accepted marker taken when the first two conditions were observed
  /// (per-subscriber, because a global counter would be satisfied by other
  /// subscribers' later completions while the stale batch still waits).
  struct RetiredGlobal {
    SubscriptionId global;
    std::uint32_t shard;
    SubscriberId owner;
    std::uint64_t generation;
    std::uint64_t safe_epoch = 0;  // 0 = fence not yet observed applied
    std::uint64_t safe_accepted = kAcceptedUnset;
  };

  static constexpr std::uint64_t kAcceptedUnset = ~std::uint64_t{0};

  /// Bulk-subscribe commands at least this large build their phase-1 index
  /// on a temporary thread pool; smaller ones build sequentially (thread
  /// spin-up would cost more than it saves).
  static constexpr std::size_t kBulkBuildParallelThreshold = 512;

  class ChunkSink;
  /// Callbacks indexed by subscriber id (ids are dense); an empty function
  /// is an unregistered subscriber, or one recovered but not yet reattached.
  using CallbackMap = std::vector<NotifyFn>;

  /// Write-side section over one shard's reader-visible state. The caller
  /// already holds shard.mutex (exclusive against other mutators); enter()
  /// additionally closes the shard's epoch gate — blocking new match
  /// readers and waiting out pinned ones, a wait bounded by one in-flight
  /// chunk — so the mutation may free and reuse memory in place. Lazy: a
  /// drain that finds nothing queued never calls enter() and never pays a
  /// grace period. Destruction reopens the gate.
  class ShardWriteGuard {
   public:
    explicit ShardWriteGuard(Shard& shard) : shard_(&shard) {}
    ~ShardWriteGuard() {
      if (entered_) shard_->epochs->writer_exit();
    }
    ShardWriteGuard(const ShardWriteGuard&) = delete;
    ShardWriteGuard& operator=(const ShardWriteGuard&) = delete;

    /// Idempotent. Call immediately before the first actual mutation.
    void enter() {
      if (entered_) return;
      shard_->epochs->writer_enter();
      entered_ = true;
    }

   private:
    Shard* shard_;
    bool entered_ = false;
  };

  /// Per-shard match-work totals fed by the match tasks (relaxed
  /// fetch_adds, once per task — never per event); metrics() reports them
  /// as the ncps_match_* counters.
  struct AtomicMatchStats {
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> fulfilled_predicates{0};
    std::atomic<std::uint64_t> candidates{0};
    std::atomic<std::uint64_t> tree_evaluations{0};
    std::atomic<std::uint64_t> node_evaluations{0};
    std::atomic<std::uint64_t> truth_lookups{0};
    std::atomic<std::uint64_t> hit_increments{0};
    std::atomic<std::uint64_t> counter_comparisons{0};
    std::atomic<std::uint64_t> matches{0};
    std::atomic<std::uint64_t> phase1_ns{0};
    std::atomic<std::uint64_t> phase2_ns{0};

    void add(const MatchStats& s) {
      events.fetch_add(s.events, std::memory_order_relaxed);
      fulfilled_predicates.fetch_add(s.fulfilled_predicates,
                                     std::memory_order_relaxed);
      candidates.fetch_add(s.candidates, std::memory_order_relaxed);
      tree_evaluations.fetch_add(s.tree_evaluations,
                                 std::memory_order_relaxed);
      node_evaluations.fetch_add(s.node_evaluations,
                                 std::memory_order_relaxed);
      truth_lookups.fetch_add(s.truth_lookups, std::memory_order_relaxed);
      hit_increments.fetch_add(s.hit_increments, std::memory_order_relaxed);
      counter_comparisons.fetch_add(s.counter_comparisons,
                                    std::memory_order_relaxed);
      matches.fetch_add(s.matches, std::memory_order_relaxed);
      phase1_ns.fetch_add(s.phase1_ns, std::memory_order_relaxed);
      phase2_ns.fetch_add(s.phase2_ns, std::memory_order_relaxed);
    }

    [[nodiscard]] MatchStats load() const {
      MatchStats s;
      s.events = events.load(std::memory_order_relaxed);
      s.fulfilled_predicates =
          fulfilled_predicates.load(std::memory_order_relaxed);
      s.candidates = candidates.load(std::memory_order_relaxed);
      s.tree_evaluations = tree_evaluations.load(std::memory_order_relaxed);
      s.node_evaluations = node_evaluations.load(std::memory_order_relaxed);
      s.truth_lookups = truth_lookups.load(std::memory_order_relaxed);
      s.hit_increments = hit_increments.load(std::memory_order_relaxed);
      s.counter_comparisons =
          counter_comparisons.load(std::memory_order_relaxed);
      s.matches = matches.load(std::memory_order_relaxed);
      s.phase1_ns = phase1_ns.load(std::memory_order_relaxed);
      s.phase2_ns = phase2_ns.load(std::memory_order_relaxed);
      return s;
    }
  };

  SubscriptionId allocate_global_locked();
  /// The one path every control operation takes once validated (and
  /// journalled): stamp `command` with the next issue generation, push it
  /// onto `shard`'s queue, publish the generation, then drain the shard on
  /// the calling thread if no other mutator holds it, else wake the apply
  /// thread. Caller holds control_mutex_. Returns the generation.
  std::uint64_t issue_command_locked(Shard& shard, ShardCommand command);
  void issue_unsubscribe_locked(SubscriptionId global, const Route& route);
  // ---- persistence internals (broker_persistence.cpp) ----
  /// Recover snapshot + journal tail into a freshly constructed broker,
  /// then open the journal for appending. Constructor tail; no locks.
  void recover_from_storage();
  /// Stamp the next sequence number on `record`, frame it and commit it
  /// (one write + one sync). Caller holds control_mutex_; called BEFORE the
  /// operation is applied (write-ahead discipline).
  void journal_commit_locked(storage::JournalRecord record);
  void write_snapshot_payload(storage::Writer& w);
  void restore_snapshot_payload(storage::Reader& r);
  void replay_journal_record(const storage::JournalRecord& record);
  void record_text_locked(SubscriptionId global, std::string_view text);
  /// Apply every queued command on `shard` and advance its fence. Caller
  /// holds shard.mutex and supplies the write guard; the gate is entered
  /// lazily before the first command applies, so an empty drain is just a
  /// fence advance. Returns the number of commands applied.
  std::size_t drain_shard(Shard& shard, ShardWriteGuard& gate);
  /// Apply one command, advance the shard's fence to its generation and
  /// record its apply latency. Only drain_shard calls it.
  void apply_command(Shard& shard, ShardCommand&& command);
  SubscriptionId apply_subscribe(Shard& shard, SubscriptionId global,
                                 SubscriberId owner,
                                 const parser_detail::RawNode& raw);
  void apply_unsubscribe(Shard& shard, SubscriptionId global);
  SubscriberId register_subscriber_impl(NotifyFn callback,
                                        BackpressurePolicy policy);
  /// Phases A+B of the publish path: exclusive per-shard drains, then the
  /// (shard × chunk) match fan-out into match_buffers_ — on the
  /// work-stealing pool, the publishing thread among its workers, when one
  /// exists, otherwise inline on the publishing thread as worker 0 (the
  /// seed broker).
  void run_match_tasks(std::span<const Event> events);
  /// Phase C part 1: merge match_buffers_ into merged_ / event_offsets_ —
  /// per event, ascending global subscription id. Slice bounds come from
  /// the tasks' per-event counts; the per-event-range merge tasks run on
  /// the pool (an event is merged by exactly one task, into its slice of
  /// merged_).
  void merge_all(std::span<const Event> events);
  /// Events [first, last): gather each event's matches from the buffers of
  /// the chunks covering it and rank them into merged_'s slice by global id
  /// on the calling worker's bitmap — O(matches + touched words) per event.
  void merge_event_range(std::size_t first, std::size_t last,
                         MergeScratch& scratch);
  std::size_t merge_and_deliver(std::span<const Event> events,
                                const CallbackMap& callbacks,
                                std::uint64_t publish_tick);
  std::size_t merge_and_enqueue(std::span<const Event> events,
                                std::uint64_t publish_tick);

  AttributeRegistry* attrs_;
  ShardRouter router_;
  BackpressurePolicy delivery_default_policy_ = BackpressurePolicy::Block;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Match scheduler pool; null only for single-shard single-worker brokers
  /// (the seed broker, whose publishing thread runs the tasks). Otherwise
  /// the publishing thread is its last worker, thread_count() - 1.
  std::unique_ptr<WorkStealingPool> pool_;
  /// One reusable match context per worker (contexts of one engine kind are
  /// interchangeable across shards). Index = worker id; exactly one when
  /// there is no pool.
  std::vector<std::unique_ptr<MatchContext>> worker_contexts_;
  /// Per-shard concurrent match-work totals (see AtomicMatchStats).
  std::vector<std::unique_ptr<AtomicMatchStats>> shard_match_stats_;

  // ---- persistence state (null / empty unless storage enabled) ----
  storage::StorageOptions storage_;
  storage::Vfs* vfs_ = nullptr;
  std::unique_ptr<storage::CommandJournal> journal_;
  std::uint64_t journal_seq_ = 0;   // last sequence number stamped
  std::uint64_t snapshot_seq_ = 0;  // journal seq the snapshot covers
  /// Registered text per global id (snapshot source + generic-engine
  /// recovery); maintained under control_mutex_.
  std::vector<std::string> texts_;
  EngineKind engine_kind_;

  /// Serialises publish_batch (and quiesce) — data-plane only; control
  /// operations never take it.
  std::mutex publish_mutex_;

  /// Guards all control-plane bookkeeping below. Publishers never take it:
  /// delivery works off owner ids carried in the match records plus the
  /// copy-on-write callback snapshot.
  mutable std::mutex control_mutex_;
  std::unordered_map<SubscriberId, std::vector<SubscriptionId>>
      subscriptions_by_subscriber_;
  std::vector<Route> routes_;  // dense by global subscription id
  std::vector<SubscriptionId> free_globals_;
  std::vector<RetiredGlobal> retired_globals_;
  std::uint32_t next_subscriber_ = 0;
  std::uint64_t subscribe_sequence_ = 0;  // router key component

  /// Written under control_mutex_ *after* the command is enqueued, so a
  /// drain that snapshots it covers every command at or below the snapshot.
  std::atomic<std::uint64_t> issue_generation_{0};

  /// Completed publish batches (bumped after delivery, still under the
  /// publish mutex). Orders global-id reuse after stale-match delivery.
  std::atomic<std::uint64_t> publish_epoch_{0};

  /// Thread currently holding publish_mutex_, so control operations
  /// re-entered from a delivery callback (which runs on that thread) never
  /// try_lock a mutex their own thread holds — they see "batch in flight"
  /// directly.
  std::atomic<std::thread::id> publishing_thread_{};

  /// True when no batch is in flight — prior batches have delivered, and
  /// any later batch starts after the caller's control command. Safe from
  /// any thread, including delivery callbacks.
  [[nodiscard]] bool publish_idle_probe();

  /// Immutable snapshot of subscriber callbacks; swapped copy-on-write by
  /// the control plane, loaded once per batch by the publisher.
  SnapshotPtr<CallbackMap> callbacks_;

  // ---- apply thread (pool brokers only; see apply_loop in the .cpp) ----
  /// Drains every shard whenever a control command is queued, concurrently
  /// with match tasks: this is what decouples control-op apply latency from
  /// batch size. Joined first in the destructor; never started for seed
  /// brokers, whose control callers drain their own commands.
  std::thread apply_thread_;
  std::mutex apply_cv_mutex_;
  std::condition_variable apply_cv_;
  bool apply_stop_ = false;  // guarded by apply_cv_mutex_
  /// Level-triggered wake request, guarded by apply_cv_mutex_. Set by
  /// signal_apply(), cleared by the apply loop before each drain pass.
  /// Needed beyond apply_pending() because wait_applied() kicks the loop to
  /// advance *idle* shards' fences past a generation its caller drained on
  /// another shard — a state with nothing queued anywhere.
  bool apply_kick_ = false;
  void apply_loop();
  /// Request one apply-loop drain pass (no-op without an apply thread):
  /// after pushing a command, and from wait_applied() so passive fences
  /// catch up without a publish.
  void signal_apply();
  [[nodiscard]] bool apply_pending() const;

  // ---- per-batch data-plane state (touched only under publish_mutex_,
  //      plus by that batch's own match/merge tasks) ----
  /// Events per chunk and chunks per shard for the in-flight batch.
  std::size_t chunk_events_ = 0;
  std::size_t chunk_count_ = 0;
  /// One output per (shard × chunk) match task, indexed
  /// shard * chunk_count_ + chunk; capacity persists across batches.
  std::vector<TaskMatches> match_buffers_;
  /// Merged batch output: merged_[event_offsets_[e] .. event_offsets_[e+1])
  /// is event e's matches, ascending global subscription id.
  std::vector<ShardMatch> merged_;
  std::vector<std::size_t> event_offsets_;
  /// Merge ranking scratch, one per worker (index = worker id), sized by
  /// merge_all to the batch's largest matched global id.
  std::vector<MergeScratch> merge_scratch_;

  /// Telemetry plane. The registry owns every hot cell; cells_ bundles
  /// stable references for the instrumentation sites and doubles as the
  /// runtime gate (null when config.metrics is false — sites check the
  /// pointer, not a flag). Declared before delivery_ so the executor
  /// workers' cells outlive their last write.
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::BrokerMetrics> cells_;

  /// Async delivery plane; null under inline delivery. Declared last so its
  /// destruction (which joins the executor workers) precedes everything the
  /// in-flight callbacks could reference.
  std::unique_ptr<DeliveryPlane> delivery_;
};

}  // namespace ncps
