#include "delivery/delivery_plane.h"

#include <algorithm>
#include <thread>

#include "common/contracts.h"

namespace ncps {

namespace {

std::size_t default_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(2, hw == 0 ? 1 : hw);
}

}  // namespace

DeliveryPlane::DeliveryPlane(DeliveryOptions options,
                             obs::DeliveryMetrics* metrics)
    : options_(options),
      metrics_(metrics),
      executor_(default_threads(options.threads)) {
  NCPS_EXPECTS(options.outbox_capacity >= 1);
}

void DeliveryPlane::add_subscriber(SubscriberId subscriber, NotifyFn callback,
                                   BackpressurePolicy policy) {
  auto updated = std::make_shared<OutboxMap>(*outboxes_.load());
  updated->insert_or_assign(
      subscriber,
      std::make_shared<Outbox>(subscriber, std::move(callback), policy,
                               options_.outbox_capacity, progress_, metrics_));
  outboxes_.store(std::shared_ptr<const OutboxMap>(std::move(updated)));
}

void DeliveryPlane::remove_subscriber(SubscriberId subscriber) {
  const std::shared_ptr<const OutboxMap> current = outboxes_.load();
  const auto it = current->find(subscriber);
  if (it == current->end()) return;
  const std::shared_ptr<Outbox> outbox = it->second;
  auto updated = std::make_shared<OutboxMap>(*current);
  updated->erase(subscriber);
  outboxes_.store(std::shared_ptr<const OutboxMap>(std::move(updated)));
  // Close after unpublishing: later commits can't find the outbox, and the
  // scheduled drain discards what is already queued (completing it, so
  // flush() doesn't wait on a dead subscriber).
  outbox->close();
  if (outbox->try_schedule()) executor_.schedule(outbox);
}

std::optional<DeliveryStats> DeliveryPlane::stats(
    SubscriberId subscriber) const {
  const std::shared_ptr<const OutboxMap> current = outboxes_.load();
  const auto it = current->find(subscriber);
  if (it == current->end()) return std::nullopt;
  return it->second->stats();
}

void DeliveryPlane::begin_batch(std::span<const Event> events,
                                std::uint64_t publish_tick) {
  batch_publish_tick_ = publish_tick;
  batch_events_ = events;
  event_remap_.assign(events.size(), kNoCopy);
  copied_events_.clear();
  groups_.clear();
  group_of_.clear();
}

void DeliveryPlane::add_match(std::uint32_t event_index, SubscriberId owner,
                              SubscriptionId subscription) {
  NCPS_EXPECTS(event_index < batch_events_.size());
  std::uint32_t& copied = event_remap_[event_index];
  if (copied == kNoCopy) {
    copied = static_cast<std::uint32_t>(copied_events_.size());
    copied_events_.push_back(batch_events_[event_index]);
  }
  const auto [it, inserted] = group_of_.try_emplace(owner, groups_.size());
  if (inserted) groups_.emplace_back(owner, OutboxBatch{});
  groups_[it->second].second.items.push_back(
      OutboxBatch::Item{copied, subscription});
}

std::size_t DeliveryPlane::commit_batch() {
  if (groups_.empty()) {
    batch_events_ = {};
    return 0;
  }
  const std::shared_ptr<const OutboxMap> outboxes = outboxes_.load();
  const auto events_block = std::make_shared<const std::vector<Event>>(
      std::move(copied_events_));
  copied_events_ = {};

  std::size_t accepted_total = 0;
  for (auto& [subscriber, batch] : groups_) {
    const auto it = outboxes->find(subscriber);
    if (it == outboxes->end()) continue;  // unregistered since matching
    batch.events = events_block;
    batch.publish_tick = batch_publish_tick_;
    const std::size_t accepted = it->second->push(std::move(batch));
    if (accepted > 0) {
      accepted_total += accepted;
      if (it->second->try_schedule()) executor_.schedule(it->second);
    }
  }
  groups_.clear();
  group_of_.clear();
  batch_events_ = {};
  return accepted_total;
}

void DeliveryPlane::flush() {
  // Per-outbox targets, snapshotted up front: a global accepted/completed
  // comparison would be satisfied by completions of notifications accepted
  // *after* the snapshot (on other subscribers), returning while a slow
  // subscriber still holds pre-flush notifications. Outboxes removed from
  // the map (unregistered subscribers) are closed and can only discard, so
  // they need no wait. The snapshot holds the shared_ptrs, so a concurrent
  // removal cannot free an outbox under us.
  const std::shared_ptr<const OutboxMap> outboxes = outboxes_.load();
  std::vector<std::pair<Outbox*, std::uint64_t>> targets;
  targets.reserve(outboxes->size());
  for (const auto& [subscriber, outbox] : *outboxes) {
    targets.emplace_back(outbox.get(), outbox->accepted_marker());
  }
  for (const auto& [outbox, target] : targets) {
    if (outbox->completed_marker() >= target) continue;
    std::unique_lock<std::mutex> lock(progress_.mutex);
    progress_.waiters.fetch_add(1);
    progress_.cv.wait(
        lock, [&] { return outbox->completed_marker() >= target; });
    progress_.waiters.fetch_sub(1);
  }
}

void DeliveryPlane::sample_metrics(obs::MetricsSnapshot& out) const {
  const std::shared_ptr<const OutboxMap> outboxes = outboxes_.load();
  std::uint64_t pending = 0;
  std::uint64_t peak = 0;
  for (const auto& [subscriber, outbox] : *outboxes) {
    const std::uint64_t accepted = outbox->accepted_marker();
    const std::uint64_t completed = outbox->completed_marker();
    if (accepted > completed) pending += accepted - completed;
    peak = std::max<std::uint64_t>(peak, outbox->stats().max_queue_depth);
  }
  out.add_gauge("ncps_outboxes", {}, static_cast<double>(outboxes->size()));
  out.add_gauge("ncps_outbox_pending_notifications", {},
                static_cast<double>(pending));
  out.add_gauge("ncps_outbox_max_depth", {}, static_cast<double>(peak));
}

std::uint64_t DeliveryPlane::subscriber_accepted_marker(
    SubscriberId subscriber) const {
  const std::shared_ptr<const OutboxMap> outboxes = outboxes_.load();
  const auto it = outboxes->find(subscriber);
  return it == outboxes->end() ? 0 : it->second->accepted_marker();
}

std::uint64_t DeliveryPlane::subscriber_completed_marker(
    SubscriberId subscriber) const {
  const std::shared_ptr<const OutboxMap> outboxes = outboxes_.load();
  const auto it = outboxes->find(subscriber);
  // A missing outbox is closed: whatever it still holds can only be
  // discarded, never delivered, so callers gating on "can a stale
  // notification still reach the callback?" may treat it as fully drained.
  return it == outboxes->end() ? ~std::uint64_t{0}
                               : it->second->completed_marker();
}

}  // namespace ncps
