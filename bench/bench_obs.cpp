// Telemetry overhead: what the metric cells cost the publish path, and what
// a scrape costs the scraper.
//
// Two brokers with identical subscription populations differ only in the
// runtime telemetry gate (ShardedBrokerConfig::metrics) — the off side
// allocates no cells, so every instrumentation site reduces to one null
// check. The same event stream is published through both in interleaved
// repetitions (on/off/on/off..., so thermal drift and frequency scaling hit
// both sides alike) and each side keeps its best run, the least-noise
// estimator the other benches use.
//
// One JSON row per shard count with both throughputs, the relative
// `overhead_pct`, and `snapshot_us` — the mean cost of one full
// metrics() + to_prometheus() scrape against the populated broker.
//
// This bench is also the enforcement point for the telemetry plane's
// overhead budget: any cell with overhead_pct above the budget (2%, plus a
// noise allowance at quick scale) makes the process exit non-zero, which
// fails the bench CI job. Scale via REPRO_SCALE (quick | big | paper).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "broker/sharded_broker.h"
#include "common/random.h"

namespace {

using namespace ncps;
using namespace ncps::bench;

struct ObsScale {
  std::size_t subscribers;
  std::size_t events;
  std::size_t batch_size;
  int repetitions;
};

ObsScale obs_scale(Scale scale) {
  switch (scale) {
    case Scale::kQuick: return {64, 8'192, 128, 5};
    case Scale::kBig: return {128, 32'768, 256, 7};
    case Scale::kPaper: return {256, 131'072, 256, 9};
  }
  return {64, 8'192, 128, 5};
}

constexpr double kOverheadBudgetPct = 2.0;

std::unique_ptr<ShardedBroker> make_broker(AttributeRegistry& attrs,
                                           std::size_t shards, bool metrics,
                                           std::size_t subscribers) {
  ShardedBrokerConfig config;
  config.shard_count = shards;
  config.metrics = metrics;
  auto broker = ShardedBroker::create(attrs, config);
  for (std::size_t i = 0; i < subscribers; ++i) {
    const SubscriberId id =
        broker->register_subscriber([](const Notification&) {});
    const long lo = static_cast<long>((i * 37) % 900);
    broker->subscribe(id, "price between " + std::to_string(lo) + " and " +
                              std::to_string(lo + 120));
  }
  return broker;
}

double publish_all(ShardedBroker& broker, const std::vector<Event>& events,
                   std::size_t batch_size) {
  return time_seconds(
      [&] {
        for (std::size_t off = 0; off + batch_size <= events.size();
             off += batch_size) {
          (void)broker.publish_batch(
              std::span<const Event>(events.data() + off, batch_size));
        }
      },
      1);
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  const ObsScale sizes = obs_scale(scale);

  std::printf(
      "# Telemetry overhead: metrics on vs off, snapshot cost "
      "(scale=%s, %zu subscribers, %zu events, batch=%zu, reps=%d, "
      "hw threads=%u)\n",
      to_string(scale), sizes.subscribers, sizes.events, sizes.batch_size,
      sizes.repetitions, std::thread::hardware_concurrency());

  AttributeRegistry attrs;
  std::vector<Event> events;
  events.reserve(sizes.events);
  {
    Pcg32 rng(0xb5c0de);
    for (std::size_t i = 0; i < sizes.events; ++i) {
      events.push_back(
          EventBuilder(attrs).set("price", rng.range(0, 1000)).build());
    }
  }

  // Quick scale runs in tens of milliseconds per rep, where scheduler noise
  // alone exceeds the real budget; keep enforcement honest at the scales
  // the budget is measurable and give quick runs a noise allowance.
  const double enforce_pct =
      scale == Scale::kQuick ? kOverheadBudgetPct + 3.0 : kOverheadBudgetPct;
  bool within_budget = true;

  for (const std::size_t shards : {1u, 4u}) {
    const auto on = make_broker(attrs, shards, true, sizes.subscribers);
    const auto off = make_broker(attrs, shards, false, sizes.subscribers);

    double best_on = 1e300;
    double best_off = 1e300;
    // Warm both sides once (page-in, index build residue) before timing.
    (void)publish_all(*on, events, sizes.batch_size);
    (void)publish_all(*off, events, sizes.batch_size);
    for (int rep = 0; rep < sizes.repetitions; ++rep) {
      best_on = std::min(best_on, publish_all(*on, events, sizes.batch_size));
      best_off =
          std::min(best_off, publish_all(*off, events, sizes.batch_size));
    }
    const double overhead_pct = (best_on - best_off) / best_off * 100.0;

    // Scrape cost against the populated broker: full snapshot + rendering.
    constexpr int kScrapes = 100;
    const double snapshot_seconds = time_seconds(
        [&] {
          for (int i = 0; i < kScrapes; ++i) {
            const obs::MetricsSnapshot snap = on->metrics();
            if (snap.to_prometheus().empty()) std::abort();
          }
        },
        3);
    const double snapshot_us = snapshot_seconds / kScrapes * 1e6;

    JsonRow("obs")
        .field("shards", shards)
        .field("subscribers", sizes.subscribers)
        .field("events", sizes.events)
        .field("batch_size", sizes.batch_size)
        .field("on_events_per_sec",
               static_cast<double>(sizes.events) / best_on)
        .field("off_events_per_sec",
               static_cast<double>(sizes.events) / best_off)
        .field("overhead_pct", overhead_pct)
        .field("overhead_budget_pct", kOverheadBudgetPct)
        .field("snapshot_us", snapshot_us)
        .emit();

    if (overhead_pct > enforce_pct) {
      std::fprintf(stderr,
                   "FAIL: telemetry overhead %.2f%% at shards=%zu exceeds "
                   "the %.2f%% budget\n",
                   overhead_pct, shards, enforce_pct);
      within_budget = false;
    }
  }
  return within_budget ? 0 : 1;
}
