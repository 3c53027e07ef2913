// Stock alerting: a realistic single-broker deployment comparing all three
// engines on the same subscription set and tick stream — then a slow
// consumer demo on the asynchronous delivery plane.
//
// Part 1: traders register alert rules (arbitrary Boolean expressions over
// symbol, price, volume, change). A Zipf-hot tick stream is published; the
// example reports notification counts (identical across engines — the
// correctness premise), phase-2 work counters, and memory, making the
// paper's trade-off tangible on a small live workload.
//
// Part 2: the same tick stream hits an async-delivery broker where one
// subscriber lags badly (a stalling dashboard). Each backpressure policy is
// shown with its DeliveryStats: Block keeps the laggard lossless but
// throttles the feed; DropOldest/DropNewest keep the feed at full speed and
// shed the laggard's overflow, with opposite freshness trade-offs. The fast
// subscriber is unaffected in every async run.
//
//   $ ./examples/stock_alerts
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "common/random.h"
#include "workload/zipf.h"

namespace {

constexpr const char* kSymbols[] = {"ACME", "GLOBO", "INITECH", "HOOLI",
                                    "UMBRL", "STARK", "WAYNE", "WONKA"};
constexpr std::size_t kSymbolCount = sizeof(kSymbols) / sizeof(kSymbols[0]);

std::vector<std::string> make_rules(ncps::Pcg32& rng, std::size_t count) {
  std::vector<std::string> rules;
  rules.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string sym = kSymbols[rng.bounded(kSymbolCount)];
    const std::string sym2 = kSymbols[rng.bounded(kSymbolCount)];
    const long lo = rng.range(10, 150);
    switch (rng.bounded(4)) {
      case 0:  // breakout alert
        rules.push_back("symbol == \"" + sym + "\" and price > " +
                        std::to_string(lo + 30));
        break;
      case 1:  // band-with-volume alert, disjunctive
        rules.push_back("(symbol == \"" + sym + "\" or symbol == \"" + sym2 +
                        "\") and (price between " + std::to_string(lo) +
                        " and " + std::to_string(lo + 40) +
                        " or volume > 15000)");
        break;
      case 2:  // movement alert
        rules.push_back("change > 5 or change < -5");
        break;
      default:  // negative clause: anything but this symbol, big volume
        rules.push_back("not symbol == \"" + sym + "\" and volume > 18000");
        break;
    }
  }
  return rules;
}

std::vector<ncps::Event> make_ticks(ncps::AttributeRegistry& attrs,
                                    std::size_t count) {
  using namespace ncps;
  Pcg32 rng(99);
  ZipfSampler zipf(kSymbolCount, 1.2);
  std::vector<Event> ticks;
  ticks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ticks.push_back(
        EventBuilder(attrs)
            .set("symbol", kSymbols[zipf.sample(rng)])
            .set("price", rng.range(1, 200))
            .set("volume", rng.range(100, 20000))
            .set("change", static_cast<double>(rng.range(-100, 100)) / 10.0)
            .build());
  }
  return ticks;
}

/// One async broker run: a fast subscriber and a laggy one (fixed stall per
/// notification), both watching every tick, under the given policy.
void run_slow_consumer_demo(ncps::BackpressurePolicy policy) {
  using namespace ncps;
  AttributeRegistry attrs;
  BrokerOptions options;
  options.delivery.mode = DeliveryMode::Async;
  options.delivery.outbox_capacity = 16;  // small, so the policy matters
  options.delivery.threads = 2;
  const auto broker = Broker::create(attrs, options);

  const SubscriberId fast =
      broker->register_subscriber([](const Notification&) {});
  const SubscriberId laggy = broker->register_subscriber(
      [](const Notification&) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      },
      policy);
  broker->subscribe(fast, "price > 0");
  broker->subscribe(laggy, "price > 0");

  const std::vector<Event> ticks = make_ticks(attrs, 2000);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t off = 0; off < ticks.size(); off += 50) {
    broker->publish_batch(std::span<const Event>(ticks.data() + off, 50));
  }
  const auto published = std::chrono::steady_clock::now();
  broker->flush();

  const double publish_ms =
      std::chrono::duration<double, std::milli>(published - start).count();
  const auto fast_stats = *broker->delivery_stats(fast);
  const auto laggy_stats = *broker->delivery_stats(laggy);
  std::printf("%-12s %12.1f %10zu/%zu %10zu/%zu %12zu\n",
              to_string(policy), publish_ms,
              static_cast<std::size_t>(laggy_stats.delivered),
              static_cast<std::size_t>(laggy_stats.dropped),
              static_cast<std::size_t>(fast_stats.delivered),
              static_cast<std::size_t>(fast_stats.dropped),
              laggy_stats.max_queue_depth);
}

}  // namespace

int main() {
  using namespace ncps;

  Pcg32 rule_rng(2005);
  const std::vector<std::string> rules = make_rules(rule_rng, 400);

  std::printf("%-18s %12s %12s %14s %14s\n", "engine", "notifications",
              "candidates", "phase2 work", "engine bytes");

  for (const EngineKind kind : kAllEngineKinds) {
    AttributeRegistry attrs;
    const auto broker = Broker::create(attrs, kind);
    std::size_t notifications = 0;
    const SubscriberId trader = broker->register_subscriber(
        [&](const Notification&) { ++notifications; });
    for (const std::string& rule : rules) {
      broker->subscribe(trader, rule);
    }

    // One shared deterministic tick stream.
    Pcg32 rng(99);
    ZipfSampler zipf(kSymbolCount, 1.2);
    const obs::MetricsSnapshot before = broker->metrics();
    for (int tick = 0; tick < 5000; ++tick) {
      const Event e =
          EventBuilder(attrs)
              .set("symbol", kSymbols[zipf.sample(rng)])
              .set("price", rng.range(1, 200))
              .set("volume", rng.range(100, 20000))
              .set("change",
                   static_cast<double>(rng.range(-100, 100)) / 10.0)
              .build();
      broker->publish(e);
    }
    // Phase-2 work over the tick stream, from the broker's match counters.
    const obs::MetricsSnapshot after = broker->metrics();
    const auto delta = [&](const char* counter) {
      return after.counter_total(counter) - before.counter_total(counter);
    };
    const std::uint64_t candidates = delta("ncps_match_candidates_total");
    const std::uint64_t work = delta("ncps_match_tree_evaluations_total") +
                               delta("ncps_match_node_evaluations_total") +
                               delta("ncps_match_hit_increments_total") +
                               delta("ncps_match_counter_comparisons_total");

    std::printf("%-18s %12zu %12llu %14llu %14zu\n",
                std::string(to_string(kind)).c_str(), notifications,
                static_cast<unsigned long long>(candidates),
                static_cast<unsigned long long>(work),
                broker->memory().total());
  }

  std::puts(
      "\nAll engines deliver identical notification counts; they differ in\n"
      "phase-2 work and memory — the trade-off the paper quantifies.");

  std::puts(
      "\n== Slow consumer under the async delivery plane ==\n"
      "One laggy dashboard (200us stall per alert) shares the feed with a\n"
      "fast subscriber; 2000 ticks, outbox capacity 16 batches.\n");
  std::printf("%-12s %12s %14s %14s %12s\n", "policy", "publish ms",
              "laggy del/drop", "fast del/drop", "laggy maxQ");
  for (const BackpressurePolicy policy :
       {BackpressurePolicy::Block, BackpressurePolicy::DropOldest,
        BackpressurePolicy::DropNewest}) {
    run_slow_consumer_demo(policy);
  }
  std::puts(
      "\nBlock never drops but throttles publishing to the laggard's pace;\n"
      "the drop policies keep the feed fast and shed the laggard's overflow\n"
      "(oldest-first for freshness, newest-first for backlog continuity).\n"
      "The fast subscriber is lossless in every mode.");
  return 0;
}
