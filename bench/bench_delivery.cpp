// Publish throughput and delivery latency with slow consumers: what the
// asynchronous delivery plane buys.
//
// A population of subscribers receives a published event stream; a fraction
// of them are artificially slow (a fixed per-notification stall, the
// "laggy analytics consumer"). Inline delivery runs every callback on the
// publishing thread, so the slow minority taxes every published event;
// async delivery absorbs them into their outboxes and the publisher moves
// on — until an outbox fills, which is where the backpressure policy
// matters (Block throttles, the drop policies shed).
//
// Sweep: slow fraction {0, 1%, 10%} × shards {1, 4} × delivery
// {inline, async×{block, drop_oldest, drop_newest}}. One JSON row per cell
// with sustained publish events/sec, end-to-end drain seconds, delivered /
// dropped counts and delivery latency: mean + max measured by the bench's
// own callbacks (publish timestamp of the event's batch to callback
// entry), and p50/p99/p999 from the broker's telemetry histogram
// (ncps_publish_notify_latency_seconds — publish_batch entry to
// notification emit, both delivery paths merged).
//
// The async outbox capacity is deliberately smaller than the batch count so
// the drop policies actually shed load and Block actually throttles; the
// acceptance check is the relative publish throughput, async vs inline, at
// the same slow fraction.
//
// Scale via REPRO_SCALE (quick | big | paper).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "broker/sharded_broker.h"
#include "common/random.h"

namespace {

using namespace ncps;
using namespace ncps::bench;
using Clock = std::chrono::steady_clock;

struct DeliveryScale {
  std::size_t subscribers;
  std::size_t events;
  std::size_t batch_size;
};

DeliveryScale delivery_scale(Scale scale) {
  switch (scale) {
    case Scale::kQuick: return {48, 2'048, 64};
    case Scale::kBig: return {128, 8'192, 128};
    case Scale::kPaper: return {256, 32'768, 256};
  }
  return {48, 2'048, 64};
}

constexpr auto kSlowStall = std::chrono::microseconds(100);
constexpr std::size_t kOutboxCapacity = 16;  // batches; < batch count

/// Batch size of the current run: the callbacks map an event's seq ordinal
/// back to its batch's publish timestamp through it.
std::size_t g_batch_size = 0;

struct Mode {
  const char* name;
  DeliveryMode mode;
  BackpressurePolicy policy;  // meaningful in async only
};

struct CellResult {
  double publish_seconds = 0;
  double drain_seconds = 0;  // publish + flush
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  double mean_latency_us = 0;
  double max_latency_us = 0;
  // From the broker's publish→notify histogram.
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  double p999_latency_us = 0;
};

CellResult run_cell(AttributeRegistry& attrs, const DeliveryScale& scale,
                    std::size_t shards, const Mode& mode, double slow_fraction,
                    const std::vector<Event>& events,
                    std::vector<Clock::time_point>& batch_publish_time,
                    AttributeId seq_attr) {
  ShardedBrokerConfig config;
  config.shard_count = shards;
  config.delivery.mode = mode.mode;
  config.delivery.default_policy = mode.policy;
  config.delivery.outbox_capacity = kOutboxCapacity;
  config.delivery.threads = 2;
  ShardedBroker broker(attrs, config);

  const std::size_t slow_count =
      slow_fraction == 0.0
          ? 0
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       static_cast<double>(scale.subscribers) * slow_fraction));

  std::atomic<std::uint64_t> latency_sum_us{0};
  std::atomic<std::uint64_t> latency_max_us{0};
  std::atomic<std::size_t> inline_delivered{0};

  std::vector<SubscriberId> sessions;
  for (std::size_t i = 0; i < scale.subscribers; ++i) {
    const bool slow = i < slow_count;
    auto callback = [&, slow](const Notification& n) {
      // seq is the event ordinal; its batch carries the publish stamp.
      const std::size_t batch =
          static_cast<std::size_t>(n.event->find(seq_attr)->as_int()) /
          g_batch_size;
      const auto now = Clock::now();
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          now - batch_publish_time[batch])
                          .count();
      latency_sum_us.fetch_add(static_cast<std::uint64_t>(us),
                               std::memory_order_relaxed);
      std::uint64_t seen = latency_max_us.load(std::memory_order_relaxed);
      while (static_cast<std::uint64_t>(us) > seen &&
             !latency_max_us.compare_exchange_weak(
                 seen, static_cast<std::uint64_t>(us),
                 std::memory_order_relaxed)) {
      }
      inline_delivered.fetch_add(1, std::memory_order_relaxed);
      if (slow) {
        const auto until = Clock::now() + kSlowStall;
        while (Clock::now() < until) {  // busy stall: a CPU-bound consumer
        }
      }
    };
    sessions.push_back(broker.register_subscriber(std::move(callback)));
    // Slow consumers watch everything (the worst case for inline delivery);
    // the fast majority is selective.
    if (slow) {
      broker.subscribe(sessions.back(), "seq >= 0");
    } else {
      const long lo = static_cast<long>((i * 37) % 900);
      broker.subscribe(sessions.back(),
                       "price between " + std::to_string(lo) + " and " +
                           std::to_string(lo + 120));
    }
  }

  const auto publish_start = Clock::now();
  std::size_t batch_index = 0;
  for (std::size_t off = 0; off + scale.batch_size <= events.size();
       off += scale.batch_size, ++batch_index) {
    batch_publish_time[batch_index] = Clock::now();
    broker.publish_batch(
        std::span<const Event>(events.data() + off, scale.batch_size));
  }
  const auto publish_stop = Clock::now();
  broker.flush();
  const auto drain_stop = Clock::now();

  CellResult result;
  result.publish_seconds =
      std::chrono::duration<double>(publish_stop - publish_start).count();
  result.drain_seconds =
      std::chrono::duration<double>(drain_stop - publish_start).count();
  if (mode.mode == DeliveryMode::Async) {
    for (const SubscriberId id : sessions) {
      const auto stats = broker.delivery_stats(id);
      result.delivered += stats->delivered;
      result.dropped += stats->dropped;
    }
  } else {
    result.delivered = inline_delivered.load();
  }
  const std::size_t measured = inline_delivered.load();
  if (measured > 0) {
    result.mean_latency_us =
        static_cast<double>(latency_sum_us.load()) /
        static_cast<double>(measured);
    result.max_latency_us = static_cast<double>(latency_max_us.load());
  }
  const obs::HistogramData latency_hist =
      broker.metrics().histogram_merged("ncps_publish_notify_latency_seconds");
  if (!latency_hist.empty()) {
    result.p50_latency_us = latency_hist.quantile_seconds(0.50) * 1e6;
    result.p99_latency_us = latency_hist.quantile_seconds(0.99) * 1e6;
    result.p999_latency_us = latency_hist.quantile_seconds(0.999) * 1e6;
  }
  return result;
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  const DeliveryScale sizes = delivery_scale(scale);
  g_batch_size = sizes.batch_size;

  std::printf(
      "# Delivery plane: publish throughput & latency vs slow consumers "
      "(scale=%s, %zu subscribers, %zu events, batch=%zu, outbox=%zu, "
      "stall=%lldus, hw threads=%u)\n",
      to_string(scale), sizes.subscribers, sizes.events, sizes.batch_size,
      kOutboxCapacity, static_cast<long long>(kSlowStall.count()),
      std::thread::hardware_concurrency());

  AttributeRegistry attrs;
  const AttributeId seq_attr = attrs.intern("seq");

  // One deterministic event stream for every cell.
  std::vector<Event> events;
  {
    Pcg32 rng(0xde11e3);
    events.reserve(sizes.events);
    for (std::size_t i = 0; i < sizes.events; ++i) {
      events.push_back(EventBuilder(attrs)
                           .set("seq", static_cast<long>(i))
                           .set("price", rng.range(0, 1000))
                           .build());
    }
  }
  std::vector<Clock::time_point> batch_publish_time(
      sizes.events / sizes.batch_size);

  const Mode modes[] = {
      {"inline", DeliveryMode::Inline, BackpressurePolicy::Block},
      {"async_block", DeliveryMode::Async, BackpressurePolicy::Block},
      {"async_drop_oldest", DeliveryMode::Async,
       BackpressurePolicy::DropOldest},
      {"async_drop_newest", DeliveryMode::Async,
       BackpressurePolicy::DropNewest},
  };

  for (const std::size_t shards : {1u, 4u}) {
    for (const double slow_fraction : {0.0, 0.01, 0.10}) {
      double inline_events_per_sec = 0;
      for (const Mode& mode : modes) {
        const CellResult result =
            run_cell(attrs, sizes, shards, mode, slow_fraction, events,
                     batch_publish_time, seq_attr);
        const double events_per_sec =
            static_cast<double>(sizes.events) / result.publish_seconds;
        if (mode.mode == DeliveryMode::Inline) {
          inline_events_per_sec = events_per_sec;
        }
        JsonRow("delivery")
            .field("mode", mode.name)
            .field("shards", shards)
            .field("slow_fraction", slow_fraction)
            .field("subscribers", sizes.subscribers)
            .field("events", sizes.events)
            .field("batch_size", sizes.batch_size)
            .field("outbox_capacity", kOutboxCapacity)
            .field("publish_seconds", result.publish_seconds)
            .field("publish_events_per_sec", events_per_sec)
            .field("drain_seconds", result.drain_seconds)
            .field("delivered", result.delivered)
            .field("dropped", result.dropped)
            .field("mean_latency_us", result.mean_latency_us)
            .field("max_latency_us", result.max_latency_us)
            .field("p50_latency_us", result.p50_latency_us)
            .field("p99_latency_us", result.p99_latency_us)
            .field("p999_latency_us", result.p999_latency_us)
            .field("speedup_vs_inline",
                   inline_events_per_sec > 0
                       ? events_per_sec / inline_events_per_sec
                       : 1.0)
            .emit();
      }
    }
  }
  return 0;
}
