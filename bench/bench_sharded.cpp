// Publish throughput of the sharded broker: shard count × load shape.
//
// The paper workload (AND of binary ORs over unique predicates, §4) is
// registered once as subscription text, then replayed into brokers across a
// two-axis sweep:
//
//   shards     1, 2, 4, 8 engine shards;
//   scenario   "uniform" spreads subscriptions evenly (kSpread placement,
//              balanced subscriber population) while "skewed" gives one
//              heavy subscriber most of the population under
//              kSubscriberAffine placement, concentrating its whole
//              portfolio on one hot shard. Idle workers steal that shard's
//              (shard × chunk) match tasks, so it does not become the
//              batch's critical path.
//
// Honest about hardware: every row records hw_threads (via JsonRow run
// metadata) and events_per_sec_per_hw_thread, so a single-core container
// run — where the sweep degenerates to measuring scheduling overhead — is
// distinguishable from the multi-core regime the speedup claims live in.
// Scheduler-telemetry columns (match_tasks, steals) come from the broker's
// own metrics snapshot, proving stealing actually happened on skew.
//
// Output: one JSON row per (scenario, engine, shards) via
// bench_util.h's JsonRow, plus per-scenario human-readable summaries.
//
// Scale via REPRO_SCALE (quick | big | paper); engines via
// NCPS_SHARDED_ENGINES=all (default: non-canonical only).
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "broker/sharded_broker.h"
#include "subscription/printer.h"

namespace {

using namespace ncps;
using namespace ncps::bench;

struct SweepConfig {
  std::size_t subscriptions;
  std::size_t batch_size;
  std::size_t batches;
  /// Shard counts swept. The quick scale keeps only the endpoints — the
  /// scenario axis already doubles the cell count, and quick's job is
  /// schema + smoke, not the scaling curve.
  std::vector<std::size_t> shard_counts;
};

SweepConfig sweep_config(Scale scale) {
  switch (scale) {
    case Scale::kQuick: return {10'000, 64, 3, {1, 4}};
    case Scale::kBig: return {100'000, 128, 8, {1, 2, 4, 8}};
    case Scale::kPaper: return {500'000, 256, 8, {1, 2, 4, 8}};
  }
  return {10'000, 64, 3, {1, 4}};
}

/// One load shape: how subscriptions map to subscribers, and how the router
/// places those subscribers on shards.
struct Scenario {
  const char* name;
  ShardPlacement placement;
  /// Fraction of the population owned by subscriber 0; the rest is dealt
  /// round-robin to the others.
  double heavy_fraction;
  std::size_t subscriber_count;
};

constexpr Scenario kScenarios[] = {
    {"uniform", ShardPlacement::kSpread, 0.0, 8},
    {"skewed", ShardPlacement::kSubscriberAffine, 0.75, 8},
};

/// Discards notifications; delivery cost stays in the measurement, callback
/// work stays out of it.
std::size_t g_notifications = 0;

struct RunResult {
  double seconds = 0;
  std::size_t notifications = 0;
  std::uint64_t match_tasks = 0;
  std::uint64_t steals = 0;
};

RunResult run_once(AttributeRegistry& attrs, EngineKind kind,
                   const Scenario& scenario, std::size_t shards,
                   const std::vector<std::string>& texts,
                   const std::vector<Event>& events, std::size_t batch_size) {
  ShardedBroker broker(attrs, ShardedBrokerConfig{.shard_count = shards,
                                                  .engine = kind,
                                                  .placement =
                                                      scenario.placement});
  std::vector<SubscriberId> consumers;
  for (std::size_t i = 0; i < scenario.subscriber_count; ++i) {
    consumers.push_back(broker.register_subscriber(
        [](const Notification&) { ++g_notifications; }));
  }
  const auto heavy =
      static_cast<std::size_t>(scenario.heavy_fraction *
                               static_cast<double>(texts.size()));
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const SubscriberId owner =
        i < heavy ? consumers[0]
                  : consumers[i % scenario.subscriber_count];
    broker.subscribe(owner, texts[i]);
  }

  // Warm-up batch: fault in scratch buffers and per-shard caches.
  broker.publish_batch(std::span<const Event>(events.data(), batch_size));
  const obs::MetricsSnapshot before = broker.metrics();

  RunResult result;
  result.seconds = time_seconds(
      [&] {
        g_notifications = 0;  // keep the count per-pass, not per-repetition
        for (std::size_t off = 0; off + batch_size <= events.size();
             off += batch_size) {
          broker.publish_batch(
              std::span<const Event>(events.data() + off, batch_size));
        }
      },
      /*repetitions=*/3);
  result.notifications = g_notifications;
  const obs::MetricsSnapshot after = broker.metrics();
  result.match_tasks = after.counter_total("ncps_match_tasks_total") -
                       before.counter_total("ncps_match_tasks_total");
  result.steals = after.counter_total("ncps_steals_total") -
                  before.counter_total("ncps_steals_total");
  return result;
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  const SweepConfig config = sweep_config(scale);
  const char* engines_env = std::getenv("NCPS_SHARDED_ENGINES");
  const bool all_engines =
      engines_env != nullptr && std::string_view(engines_env) == "all";
  const unsigned hw_threads = std::thread::hardware_concurrency();

  std::printf(
      "# Sharded publish throughput (scale=%s, %zu subscriptions, "
      "%zu x %zu events, hw threads=%u)\n",
      to_string(scale), config.subscriptions, config.batches,
      config.batch_size, hw_threads);

  AttributeRegistry attrs;

  // One workload instance: identical subscription texts and events for every
  // cell of the sweep.
  std::vector<std::string> texts;
  std::vector<Event> events;
  {
    PredicateTable scratch;
    PaperWorkloadConfig workload_config;
    workload_config.predicates_per_subscription = 6;
    workload_config.seed = 0x54a12ded;
    PaperWorkload workload(workload_config, attrs, scratch);
    texts.reserve(config.subscriptions);
    std::vector<ast::Expr> exprs;
    exprs.reserve(config.subscriptions);
    for (std::size_t i = 0; i < config.subscriptions; ++i) {
      exprs.push_back(workload.next_subscription());
      texts.push_back(print_expression(exprs.back().root(), scratch, attrs));
    }
    const std::size_t total_events = config.batches * config.batch_size;
    events.reserve(total_events);
    for (std::size_t i = 0; i < total_events; ++i) {
      events.push_back(workload.next_event());
    }
  }

  const EngineKind kinds_all[] = {EngineKind::NonCanonical,
                                  EngineKind::Counting,
                                  EngineKind::CountingVariant};
  const std::span<const EngineKind> kinds(kinds_all, all_engines ? 3 : 1);
  const double total_events =
      static_cast<double>(config.batches * config.batch_size);

  for (const Scenario& scenario : kScenarios) {
    for (const EngineKind kind : kinds) {
      double baseline = 0;  // 1-shard seconds
      double best_speedup = 0;
      std::size_t best_shards = 1;
      for (const std::size_t shards : config.shard_counts) {
        const RunResult r = run_once(attrs, kind, scenario, shards, texts,
                                     events, config.batch_size);
        const double events_per_sec = total_events / r.seconds;
        if (shards == 1) baseline = r.seconds;
        const double speedup = baseline / r.seconds;
        if (speedup > best_speedup) {
          best_speedup = speedup;
          best_shards = shards;
        }

        JsonRow("sharded_publish")
            .field("scenario", scenario.name)
            .field("engine", ncps::to_string(kind))
            .field("shards", shards)
            .field("subscriptions", config.subscriptions)
            .field("batch_size", config.batch_size)
            .field("events", config.batches * config.batch_size)
            .field("seconds", r.seconds)
            .field("events_per_sec", events_per_sec)
            .field("events_per_sec_per_hw_thread",
                   events_per_sec /
                       static_cast<double>(hw_threads == 0 ? 1 : hw_threads))
            .field("notifications", r.notifications)
            .field("match_tasks", r.match_tasks)
            .field("steals", r.steals)
            .field("speedup_vs_1_shard", speedup)
            .emit();
      }
      std::printf("# %s/%s: best %.2fx vs 1 shard at %zu shards\n",
                  scenario.name, std::string(ncps::to_string(kind)).c_str(),
                  best_speedup, best_shards);
    }
  }
  return 0;
}
