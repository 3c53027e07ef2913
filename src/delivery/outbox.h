// Per-subscriber bounded outbox: the queue between the matching pipeline and
// one subscriber's callback.
//
// Exactly one producer (the publishing thread, serialised by the broker's
// publish mutex) pushes notification batches; exactly one consumer at a time
// (a DeliveryExecutor worker elected by the scheduled-flag handshake) drains
// them and runs the callback. The ring is bounded, so a slow consumer's
// backlog has a hard memory ceiling; what happens at the ceiling is the
// subscriber's BackpressurePolicy:
//
//   Block      — producer waits for a slot (lossless; throttles publishing),
//   DropOldest — producer evicts the oldest queued batch (freshness),
//   DropNewest — producer discards the incoming batch (backlog priority).
//
// Every accepted notification is eventually *completed* — delivered through
// the callback, evicted by DropOldest, or discarded because the outbox was
// closed — and completion is reported to the shared DeliveryProgress, which
// is what makes the plane's flush() barrier work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>

#include "common/contracts.h"
#include "common/spsc_ring.h"
#include "delivery/delivery.h"
#include "obs/broker_metrics.h"

namespace ncps {

/// Plane-wide wake-up shared by all outboxes: flush() sleeps on `cv` until
/// each outbox's completed marker reaches its target, and every completion
/// (delivered, or dropped after acceptance) bumps `completed` and wakes the
/// waiters.
struct DeliveryProgress {
  std::atomic<std::uint64_t> completed{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::atomic<std::uint32_t> waiters{0};

  /// Consumer/eviction side: `n` previously accepted notifications are done.
  void complete(std::uint64_t n) {
    if (n == 0) return;
    completed.fetch_add(n);  // seq_cst: ordered against the waiter counter
    if (waiters.load() > 0) {
      { const std::lock_guard<std::mutex> lock(mutex); }
      cv.notify_all();
    }
  }
};

class Outbox {
 public:
  using NotifyFn = std::function<void(const Notification&)>;

  /// `metrics` (nullable — null when telemetry is off at runtime) is the
  /// plane-wide cell bundle shared by every outbox; cells are relaxed
  /// atomics, so concurrent producers/consumers write them directly.
  Outbox(SubscriberId subscriber, NotifyFn callback, BackpressurePolicy policy,
         std::size_t capacity_batches, DeliveryProgress& progress,
         obs::DeliveryMetrics* metrics = nullptr)
      : subscriber_(subscriber),
        callback_(std::move(callback)),
        policy_(policy),
        progress_(&progress),
        metrics_(metrics),
        ring_(capacity_batches) {
    NCPS_EXPECTS(callback_ != nullptr);
  }

  [[nodiscard]] SubscriberId subscriber() const { return subscriber_; }
  [[nodiscard]] BackpressurePolicy policy() const { return policy_; }

  /// Producer side (one thread at a time). Applies the backpressure policy
  /// when the ring is full; returns the number of notifications accepted
  /// (0 when the batch was dropped whole, `batch.items.size()` otherwise).
  std::size_t push(OutboxBatch&& batch) {
    const std::size_t n = batch.items.size();
    if (n == 0) return 0;
    if (closed_.load(std::memory_order_acquire)) {
      count_dropped(n);
      return 0;
    }
    while (!ring_.try_push(std::move(batch))) {
      switch (policy_) {
        case BackpressurePolicy::Block: {
          if (!wait_for_space()) {  // false: closed while waiting
            count_dropped(n);
            return 0;
          }
          break;  // slot freed (or eviction raced us) — retry the push
        }
        case BackpressurePolicy::DropOldest: {
          if (auto victim = ring_.pop()) {
            const std::size_t evicted = victim->items.size();
            count_dropped(evicted);
            depth_.fetch_sub(evicted, std::memory_order_relaxed);
            complete(evicted);
          }
          // Either we evicted a slot or the consumer just drained one;
          // retry the push in both cases.
          break;
        }
        case BackpressurePolicy::DropNewest:
          count_dropped(n);
          return 0;
      }
    }
    if (metrics_ != nullptr) metrics_->accepted.add(n);
    accepted_total_.fetch_add(n);  // seq_cst: precedes the publish-epoch tick
    const std::size_t depth = depth_.fetch_add(n, std::memory_order_relaxed) + n;
    std::size_t peak = max_depth_.load(std::memory_order_relaxed);
    while (depth > peak && !max_depth_.compare_exchange_weak(
                               peak, depth, std::memory_order_relaxed)) {
    }
    return n;
  }

  /// Consumer side: deliver up to `max_batches` queued batches through the
  /// callback (discarding instead when closed). Returns true when more
  /// batches remain after the quota — the executor requeues the outbox at
  /// the back of its ready list, which is what keeps draining round-robin
  /// fair. At most one thread at a time (scheduled-flag handshake).
  bool drain(std::size_t max_batches) {
    for (std::size_t i = 0; i < max_batches; ++i) {
      std::optional<OutboxBatch> batch = ring_.pop();
      if (!batch.has_value()) return false;
      signal_space();
      const std::size_t n = batch->items.size();
      if (closed_.load(std::memory_order_acquire)) {
        count_dropped(n);
      } else {
        for (const OutboxBatch::Item& item : batch->items) {
          callback_(Notification{subscriber_, item.subscription,
                                 &(*batch->events)[item.event_index]});
        }
        delivered_.fetch_add(n, std::memory_order_relaxed);
        if (metrics_ != nullptr) {
          metrics_->delivered.add(n);
          // One clock read covers the whole batch: every item shares the
          // publish tick, and intra-batch callback skew is noise next to
          // queueing delay.
          if (batch->publish_tick != 0) {
            const std::uint64_t now = obs::now_ticks();
            metrics_->latency.record_n(
                now > batch->publish_tick ? now - batch->publish_tick : 0, n);
          }
        }
      }
      depth_.fetch_sub(n, std::memory_order_relaxed);
      complete(n);
    }
    return !ring_.empty();
  }

  /// Stop delivering: pending and future batches are discarded (counted as
  /// dropped, completed for flush purposes) and a Block-waiting producer is
  /// released. The caller must schedule one final drain so already queued
  /// batches are discarded promptly.
  void close() {
    closed_.store(true, std::memory_order_release);
    { const std::lock_guard<std::mutex> lock(wait_mutex_); }
    space_cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// Scheduled-flag handshake with the executor: true when the caller just
  /// claimed the (single) scheduling slot and must hand the outbox to the
  /// executor's ready list. seq_cst on both sides: the handshake is the
  /// Dekker-shaped "push then check flag" / "clear flag then check ring"
  /// pair, and one side must always observe the other (a lost wakeup here
  /// would strand queued batches — see the executor's worker loop).
  [[nodiscard]] bool try_schedule() { return !scheduled_.exchange(true); }
  void unschedule() { scheduled_.store(false); }

  [[nodiscard]] bool has_pending() const { return !ring_.empty(); }

  [[nodiscard]] DeliveryStats stats() const {
    DeliveryStats s;
    s.delivered = delivered_.load(std::memory_order_relaxed);
    s.dropped = dropped_.load(std::memory_order_relaxed);
    s.max_queue_depth = max_depth_.load(std::memory_order_relaxed);
    return s;
  }

  /// Per-outbox progress pair: notifications accepted into this outbox, and
  /// notifications that have left it (delivered, evicted, or discarded).
  /// `completed_marker() >= an earlier accepted_marker()` proves everything
  /// accepted by then has drained from THIS outbox — the per-subscriber form
  /// the flush barrier and the broker's retired-id quarantine need (a global
  /// counter pair cannot prove a specific subscriber's backlog drained:
  /// completions of later acceptances elsewhere would satisfy it).
  [[nodiscard]] std::uint64_t accepted_marker() const {
    return accepted_total_.load();
  }
  [[nodiscard]] std::uint64_t completed_marker() const {
    return completed_total_.load();
  }

 private:
  /// Every drop site (policy drops and close discards) funnels here; the
  /// registry cell is keyed by this outbox's policy, which is also what
  /// caused a close-discard backlog to exist.
  void count_dropped(std::size_t n) {
    dropped_.fetch_add(n, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->dropped(policy_).add(n);
  }

  /// An accepted batch of `n` notifications is done (delivered, evicted by
  /// DropOldest, or discarded after close). Per-outbox marker first, then
  /// the plane-wide progress (which wakes flush waiters): a woken waiter
  /// must already see the outbox marker advanced.
  void complete(std::size_t n) {
    completed_total_.fetch_add(n);
    progress_->complete(n);
  }

  /// Block-policy wait: sleep until a slot frees or the outbox closes.
  /// Returns false when closed. The seq_cst fences pair with signal_space()
  /// (store-buffer litmus: either the consumer sees producer_waiting_, or
  /// this thread's full() check sees the freed slot).
  bool wait_for_space() {
    std::unique_lock<std::mutex> lock(wait_mutex_);
    producer_waiting_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    space_cv_.wait(lock, [this] {
      return closed_.load(std::memory_order_acquire) || !ring_.full();
    });
    producer_waiting_.store(false, std::memory_order_relaxed);
    return !closed_.load(std::memory_order_acquire);
  }

  void signal_space() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (producer_waiting_.load(std::memory_order_relaxed)) {
      { const std::lock_guard<std::mutex> lock(wait_mutex_); }
      space_cv_.notify_one();
    }
  }

  const SubscriberId subscriber_;
  const NotifyFn callback_;
  const BackpressurePolicy policy_;
  DeliveryProgress* progress_;
  obs::DeliveryMetrics* metrics_;
  SpscRing<OutboxBatch> ring_;

  std::atomic<bool> closed_{false};
  std::atomic<bool> scheduled_{false};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> accepted_total_{0};
  std::atomic<std::uint64_t> completed_total_{0};
  std::atomic<std::size_t> depth_{0};      // pending notifications
  std::atomic<std::size_t> max_depth_{0};  // producer-observed high water

  // Block-policy producer parking spot; consumer notifies after each pop.
  std::mutex wait_mutex_;
  std::condition_variable space_cv_;
  std::atomic<bool> producer_waiting_{false};
};

}  // namespace ncps
