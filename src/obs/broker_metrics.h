// Pre-registered cell bundles for the broker's hot paths.
//
// The MetricsRegistry hands out cells by (name, labels) under a mutex; doing
// that lookup per publish would dwarf the fetch_add it guards. These structs
// resolve every hot-path cell once, at broker construction, and the
// instrumentation sites hold plain references. Names here are the single
// source of truth for the exposition — the README metrics table mirrors
// them.
#pragma once

#include "delivery/delivery.h"
#include "obs/metrics.h"

namespace ncps::obs {

/// Cells written by the delivery plane (the only genuinely multi-writer
/// metric surface: publisher threads push, executor threads drain).
struct DeliveryMetrics {
  explicit DeliveryMetrics(MetricsRegistry& registry)
      : accepted(registry.counter("ncps_delivery_accepted_total")),
        delivered(
            registry.counter("ncps_notifications_total", {{"path", "async"}})),
        dropped_block(registry.counter("ncps_delivery_dropped_total",
                                       {{"policy", "block"}})),
        dropped_oldest(registry.counter("ncps_delivery_dropped_total",
                                        {{"policy", "drop_oldest"}})),
        dropped_newest(registry.counter("ncps_delivery_dropped_total",
                                        {{"policy", "drop_newest"}})),
        latency(registry.histogram("ncps_publish_notify_latency_seconds",
                                   {{"path", "async"}})) {}

  Counter& accepted;        ///< notifications committed into outboxes
  Counter& delivered;       ///< callbacks actually invoked by executors
  Counter& dropped_block;   ///< lost to close while a Block push waited
  Counter& dropped_oldest;  ///< evicted by DropOldest
  Counter& dropped_newest;  ///< discarded by DropNewest
  Histogram& latency;       ///< publish tick → outbox drain, per notification

  [[nodiscard]] Counter& dropped(BackpressurePolicy policy) {
    switch (policy) {
      case BackpressurePolicy::DropOldest: return dropped_oldest;
      case BackpressurePolicy::DropNewest: return dropped_newest;
      case BackpressurePolicy::Block: break;
    }
    return dropped_block;
  }
};

/// Every registry-backed cell the (sharded) broker writes. Constructed only
/// when the broker's runtime `metrics` flag is on; a null BrokerMetrics*
/// is the "runtime off" state that bench_obs uses to approximate the
/// NCPS_METRICS=OFF baseline in one binary.
struct BrokerMetrics {
  explicit BrokerMetrics(MetricsRegistry& registry)
      : publish_batches(registry.counter("ncps_publish_batches_total")),
        publish_events(registry.counter("ncps_publish_events_total")),
        inline_notifications(
            registry.counter("ncps_notifications_total", {{"path", "inline"}})),
        inline_latency(registry.histogram(
            "ncps_publish_notify_latency_seconds", {{"path", "inline"}})),
        match_tasks(registry.counter("ncps_match_tasks_total")),
        steals(registry.counter("ncps_steals_total")),
        subscribe_ops(
            registry.counter("ncps_control_ops_total", {{"op", "subscribe"}})),
        unsubscribe_ops(registry.counter("ncps_control_ops_total",
                                         {{"op", "unsubscribe"}})),
        register_ops(registry.counter("ncps_control_ops_total",
                                      {{"op", "register_subscriber"}})),
        unregister_ops(registry.counter("ncps_control_ops_total",
                                        {{"op", "unregister_subscriber"}})),
        control_apply_latency(
            registry.histogram("ncps_control_apply_latency_seconds")),
        journal_commits(registry.counter("ncps_journal_commits_total")),
        journal_bytes(registry.counter("ncps_journal_bytes_total")),
        journal_commit_latency(
            registry.histogram("ncps_journal_commit_seconds")),
        journal_fsync_latency(registry.histogram("ncps_journal_fsync_seconds")),
        checkpoints(registry.counter("ncps_checkpoints_total")),
        checkpoint_duration(registry.histogram("ncps_checkpoint_seconds")),
        delivery(registry) {}

  Counter& publish_batches;
  Counter& publish_events;
  Counter& inline_notifications;  ///< callbacks run on the publishing thread
  Histogram& inline_latency;      ///< publish tick → inline callback emit

  Counter& match_tasks;  ///< (shard × chunk) match tasks executed
  Counter& steals;       ///< match tasks taken from another worker's deque

  Counter& subscribe_ops;
  Counter& unsubscribe_ops;
  Counter& register_ops;
  Counter& unregister_ops;
  /// Control op issue tick → applied: queued ops at the fence advance past
  /// them (the window a caller blocked in wait_applied would sit), inline
  /// ops before the control call returns. Every op is recorded, so the
  /// percentiles do not jump between populations as contention varies.
  Histogram& control_apply_latency;

  Counter& journal_commits;
  Counter& journal_bytes;            ///< payload bytes appended
  Histogram& journal_commit_latency; ///< append + (optional) fsync
  Histogram& journal_fsync_latency;  ///< fsync portion alone
  Counter& checkpoints;
  Histogram& checkpoint_duration;

  DeliveryMetrics delivery;
};

}  // namespace ncps::obs
