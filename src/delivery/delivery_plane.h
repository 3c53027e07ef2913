// The delivery plane: everything between "the broker merged this batch's
// matches" and "subscriber callbacks ran".
//
// Producer side (the broker's publishing thread, one at a time): a publish
// batch is submitted as begin_batch() / add_match()× / commit_batch(). The
// builder copies each matched event once into a block shared by every
// subscriber's OutboxBatch from that publish call, groups the matches per
// subscriber preserving the broker's deterministic merge order, and pushes
// one batch per subscriber into that subscriber's Outbox — applying the
// subscriber's backpressure policy if the outbox is full. commit_batch()
// returns the number of notifications accepted; from there the
// DeliveryExecutor owns them.
//
// Lifecycle side (the broker's control plane): add_subscriber installs an
// outbox into a copy-on-write snapshot map (the producer loads it per
// commit, mirroring the broker's callback snapshot), remove_subscriber
// closes the outbox — pending batches are discarded by a final scheduled
// drain, a Block-waiting producer is released, and nothing is delivered to
// the subscriber after the plane's next flush() returns.
//
// flush() is the delivery barrier: it waits until every notification
// accepted before the call has completed (delivered or dropped). The broker
// composes it with its GenerationFence/quiesce machinery so the PR-2
// unsubscribe guarantee — no notifications after the fence — holds in async
// mode too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/snapshot_ptr.h"
#include "delivery/delivery.h"
#include "delivery/delivery_executor.h"
#include "delivery/outbox.h"

namespace ncps {

class DeliveryPlane {
 public:
  using NotifyFn = Outbox::NotifyFn;

  /// `metrics` (nullable) is the broker's delivery cell bundle; it must
  /// outlive the plane. Null disables delivery telemetry at runtime.
  explicit DeliveryPlane(DeliveryOptions options,
                         obs::DeliveryMetrics* metrics = nullptr);

  /// Stops the executor. Batches still queued at destruction are abandoned
  /// (no callbacks fire during teardown); call flush() first for loss-free
  /// shutdown.
  ~DeliveryPlane() = default;

  DeliveryPlane(const DeliveryPlane&) = delete;
  DeliveryPlane& operator=(const DeliveryPlane&) = delete;

  // ------------------------------------------------------------- lifecycle
  // Callers serialise these (the broker's control mutex); the CoW snapshot
  // store is what makes them safe against the concurrent producer.

  void add_subscriber(SubscriberId subscriber, NotifyFn callback,
                      BackpressurePolicy policy);
  void remove_subscriber(SubscriberId subscriber);

  [[nodiscard]] std::optional<DeliveryStats> stats(
      SubscriberId subscriber) const;

  // -------------------------------------------------------- producer side
  // One publishing thread at a time.

  /// Start building the submission for one publish batch over `events`
  /// (borrowed only until commit_batch(); matched events are copied).
  /// `publish_tick` (obs::now_ticks() at publish entry, 0 when telemetry is
  /// off) rides along on every OutboxBatch so drain can record
  /// publish→notify latency.
  void begin_batch(std::span<const Event> events,
                   std::uint64_t publish_tick = 0);

  /// Record one merged match. Must be called in delivery order (event index
  /// ascending; the per-subscriber FIFO order is exactly the call order).
  void add_match(std::uint32_t event_index, SubscriberId owner,
                 SubscriptionId subscription);

  /// Push the built per-subscriber batches into their outboxes (applying
  /// backpressure policies) and schedule delivery. Returns notifications
  /// accepted.
  std::size_t commit_batch();

  // ------------------------------------------------------------- barriers

  /// Block until every notification accepted before this call has been
  /// delivered or dropped: per-outbox, each live outbox must complete what
  /// it had accepted at the moment flush() sampled it — correct even while
  /// other publishers keep accepting concurrently. Requires the executor to
  /// be live (never call from a delivery callback).
  void flush();

  /// True when nothing accepted is still pending. With no concurrent
  /// publisher this is exact.
  [[nodiscard]] bool idle() const {
    return progress_.completed.load(std::memory_order_acquire) >=
           progress_.accepted.load(std::memory_order_acquire);
  }

  /// Per-subscriber progress markers for external gating (the broker's
  /// retired-id quarantine): stale notifications for a subscription can
  /// only sit in its *owner's* outbox, so
  /// `subscriber_completed_marker(owner) >= an earlier
  /// subscriber_accepted_marker(owner)` proves they have left the plane.
  /// Absent outboxes report accepted 0 / completed max: a closed outbox
  /// discards instead of delivering, so it is as good as drained.
  [[nodiscard]] std::uint64_t subscriber_accepted_marker(
      SubscriberId subscriber) const;
  [[nodiscard]] std::uint64_t subscriber_completed_marker(
      SubscriberId subscriber) const;

  [[nodiscard]] std::size_t thread_count() const {
    return executor_.thread_count();
  }

  /// Sample plane-wide gauges (pending notifications, outbox count, peak
  /// queue depth) into a snapshot. Values are instantaneous reads of relaxed
  /// counters — coherent enough for monitoring, not a barrier.
  void sample_metrics(obs::MetricsSnapshot& out) const;

 private:
  using OutboxMap =
      std::unordered_map<SubscriberId, std::shared_ptr<Outbox>>;

  static constexpr std::uint32_t kNoCopy = 0xffffffffu;

  DeliveryOptions options_;
  obs::DeliveryMetrics* metrics_;
  DeliveryProgress progress_;
  SnapshotPtr<OutboxMap> outboxes_;
  // Declared after the state the workers touch, so destruction joins the
  // workers before any of it goes away.
  DeliveryExecutor executor_;

  // Submission builder state (producer-only, reused across batches).
  std::uint64_t batch_publish_tick_ = 0;
  std::span<const Event> batch_events_;
  std::vector<std::uint32_t> event_remap_;  // original index -> copied index
  std::vector<Event> copied_events_;
  std::vector<std::pair<SubscriberId, OutboxBatch>> groups_;
  std::unordered_map<SubscriberId, std::size_t> group_of_;
};

}  // namespace ncps
