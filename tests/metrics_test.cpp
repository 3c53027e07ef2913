// Telemetry-plane tests: bucket math and quantiles (pure functions, exact
// expectations), exposition formats, registry identity, broker-level
// accounting (notifications_total == callbacks observed, differentially
// across engines × shards × delivery modes), per-shard MatchStats
// accumulation, metrics() from inside a delivery callback, the runtime
// metrics=false gate, and a snapshot-while-publishing race the TSan CI job
// hammers.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/sharded_broker.h"

namespace ncps {
namespace {

using obs::HistogramData;
using obs::histogram_bucket;
using obs::histogram_bucket_hi;
using obs::histogram_bucket_lo;
using obs::kHistogramBuckets;
using obs::Labels;
using obs::MetricsSnapshot;

// ---------------------------------------------------------------- buckets --

TEST(HistogramBuckets, IdentityBelowFour) {
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(histogram_bucket(v), v);
    EXPECT_EQ(histogram_bucket_lo(static_cast<std::uint32_t>(v)), v);
  }
  EXPECT_EQ(histogram_bucket(4), 4u);
  EXPECT_EQ(histogram_bucket(7), 7u);
  EXPECT_EQ(histogram_bucket(8), 8u);
}

TEST(HistogramBuckets, BoundariesAreContiguousAndMonotone) {
  for (std::uint32_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_LT(histogram_bucket_lo(i), histogram_bucket_lo(i + 1)) << i;
    EXPECT_EQ(histogram_bucket_hi(i), histogram_bucket_lo(i + 1)) << i;
  }
  EXPECT_EQ(histogram_bucket_hi(kHistogramBuckets - 1), ~std::uint64_t{0});
}

TEST(HistogramBuckets, EveryValueLandsInsideItsBucket) {
  std::vector<std::uint64_t> samples = {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                        1000, 999'999, 1'000'000'000};
  for (int shift = 2; shift < 64; ++shift) {
    const std::uint64_t p = std::uint64_t{1} << shift;
    samples.push_back(p - 1);
    samples.push_back(p);
    samples.push_back(p + 1);
  }
  samples.push_back(~std::uint64_t{0});
  for (const std::uint64_t v : samples) {
    const std::uint32_t idx = histogram_bucket(v);
    ASSERT_LT(idx, kHistogramBuckets) << v;
    EXPECT_LE(histogram_bucket_lo(idx), v) << v;
    if (histogram_bucket_hi(idx) != ~std::uint64_t{0}) {
      EXPECT_LT(v, histogram_bucket_hi(idx)) << v;
    }
  }
  // The round-trip is exact: a bucket's lower bound maps to that bucket.
  for (std::uint32_t i = 0; i < kHistogramBuckets; ++i) {
    EXPECT_EQ(histogram_bucket(histogram_bucket_lo(i)), i);
  }
}

// ---------------------------------------------------- snapshot arithmetic --

// Values 1..3 land in identity buckets, so every interpolation below is
// exact arithmetic, not an approximation.
HistogramData one_two_three() {
  HistogramData d;
  d.count = 3;
  d.sum_ns = 6;
  d.buckets = {{1, 1}, {2, 1}, {3, 1}};
  return d;
}

TEST(HistogramDataTest, MeanAndQuantilesAreExactInIdentityBuckets) {
  const HistogramData d = one_two_three();
  EXPECT_DOUBLE_EQ(d.mean_ns(), 2.0);
  // q=0.5 targets rank 1.5: half-way through the [2,3) bucket.
  EXPECT_DOUBLE_EQ(d.quantile_ns(0.5), 2.5);
  EXPECT_DOUBLE_EQ(d.quantile_ns(0.0), 1.0);
  // q=1 reaches the top of the [3,4) bucket.
  EXPECT_DOUBLE_EQ(d.quantile_ns(1.0), 4.0);
  EXPECT_DOUBLE_EQ(d.quantile_seconds(0.5), 2.5 / 1e9);

  const HistogramData empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.mean_ns(), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile_ns(0.99), 0.0);
}

TEST(HistogramDataTest, MergeFoldsSparseBuckets) {
  HistogramData a = one_two_three();
  HistogramData b;
  b.count = 2;
  b.sum_ns = 9;
  b.buckets = {{2, 1}, {8, 1}};  // 2ns and 8ns(ish)
  a.merge(b);
  EXPECT_EQ(a.count, 5u);
  EXPECT_EQ(a.sum_ns, 15u);
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> expected = {
      {1, 1}, {2, 2}, {3, 1}, {8, 1}};
  EXPECT_EQ(a.buckets, expected);
}

TEST(SnapshotTest, LookupsSumAndFilterByLabels) {
  MetricsSnapshot snap;
  snap.add_counter("ncps_x_total", {{"shard", "0"}}, 3);
  snap.add_counter("ncps_x_total", {{"shard", "1"}}, 4);
  snap.add_counter("ncps_y_total", {}, 100);
  snap.add_gauge("ncps_depth", {{"shard", "0"}}, 2.5);
  snap.add_histogram("ncps_lat_seconds", {{"path", "inline"}},
                     one_two_three());
  snap.add_histogram("ncps_lat_seconds", {{"path", "async"}},
                     one_two_three());

  EXPECT_EQ(snap.counter_total("ncps_x_total"), 7u);
  EXPECT_EQ(snap.counter_total("ncps_absent_total"), 0u);
  EXPECT_EQ(snap.counter_value("ncps_x_total", {{"shard", "1"}}),
            std::optional<std::uint64_t>(4));
  EXPECT_EQ(snap.counter_value("ncps_x_total", {{"shard", "9"}}),
            std::nullopt);
  EXPECT_EQ(snap.gauge_value("ncps_depth"), std::optional<double>(2.5));
  EXPECT_EQ(snap.gauge_value("ncps_missing"), std::nullopt);
  const HistogramData merged = snap.histogram_merged("ncps_lat_seconds");
  EXPECT_EQ(merged.count, 6u);
  EXPECT_EQ(merged.sum_ns, 12u);
}

TEST(SnapshotTest, PrometheusExposition) {
  MetricsSnapshot snap;
  snap.add_counter("ncps_x_total", {{"shard", "0"}}, 3);
  snap.add_counter("ncps_x_total", {{"shard", "1"}}, 4);
  snap.add_gauge("ncps_depth", {}, 2);
  snap.add_histogram("ncps_lat_seconds", {}, one_two_three());
  const std::string text = snap.to_prometheus();

  // One TYPE comment per family, rows keep label sets distinct.
  EXPECT_EQ(text.find("# TYPE ncps_x_total counter"),
            text.rfind("# TYPE ncps_x_total counter"));
  EXPECT_NE(text.find("ncps_x_total{shard=\"0\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("ncps_x_total{shard=\"1\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ncps_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ncps_lat_seconds histogram"),
            std::string::npos);
  // Buckets are cumulative; `le` is the bucket's exclusive hi in seconds.
  EXPECT_NE(text.find("ncps_lat_seconds_bucket{le=\"2e-09\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ncps_lat_seconds_bucket{le=\"3e-09\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ncps_lat_seconds_bucket{le=\"4e-09\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ncps_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("ncps_lat_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("ncps_lat_seconds_sum 6e-09\n"), std::string::npos);
}

TEST(SnapshotTest, SecondsCountersExposeNanosecondsAsSeconds) {
  MetricsSnapshot snap;
  snap.add_counter("ncps_busy_seconds_total", {{"stage", "match"}},
                   1'500'000'000);
  snap.add_counter("ncps_events_total", {}, 7);
  EXPECT_NE(snap.to_prometheus().find(
                "ncps_busy_seconds_total{stage=\"match\"} 1.5\n"),
            std::string::npos);
  EXPECT_NE(snap.to_json().find("\"value\":1.5}"), std::string::npos);
  EXPECT_NE(snap.to_prometheus().find("ncps_events_total 7\n"),
            std::string::npos);
  // Lookups stay in the recorded unit.
  EXPECT_EQ(snap.counter_total("ncps_busy_seconds_total"), 1'500'000'000u);
}

TEST(SnapshotTest, JsonExposition) {
  MetricsSnapshot snap;
  snap.add_counter("c", {{"k", "v\"q"}}, 1);
  snap.add_gauge("g", {}, 0.5);
  snap.add_histogram("h", {}, one_two_three());
  const std::string json = snap.to_json();

  EXPECT_NE(json.find("\"counters\":[{\"name\":\"c\",\"labels\":"
                      "{\"k\":\"v\\\"q\"},\"value\":1}]"),
            std::string::npos);
  EXPECT_NE(json.find("\"gauges\":[{\"name\":\"g\",\"labels\":{},"
                      "\"value\":0.5}]"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":2.5e-09"), std::string::npos);
  // Balanced braces/brackets — the cheap structural sanity check.
  long depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// --------------------------------------------------------------- hot cells --

TEST(RegistryTest, SameNameAndLabelsYieldsSameCell) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("ncps_a_total", {{"shard", "0"}});
  obs::Counter& b = registry.counter("ncps_a_total", {{"shard", "0"}});
  obs::Counter& c = registry.counter("ncps_a_total", {{"shard", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.add(2);
  c.add(5);
  EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
  EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
  registry.histogram("h").record_n(2, 3);

  MetricsSnapshot snap;
  registry.snapshot_into(snap);
  EXPECT_EQ(snap.counter_value("ncps_a_total", {{"shard", "0"}}),
            std::optional<std::uint64_t>(2));
  EXPECT_EQ(snap.counter_total("ncps_a_total"), 7u);
  const HistogramData h = snap.histogram_merged("h");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum_ns, 6u);
}

TEST(RegistryTest, HistogramCellMatchesBucketMath) {
  obs::Histogram cell;
  const std::vector<std::uint64_t> values = {0, 1, 5, 1000, 123'456'789};
  std::uint64_t sum = 0;
  for (const std::uint64_t v : values) {
    cell.record(v);
    sum += v;
  }
  const HistogramData data = cell.snapshot();
  EXPECT_EQ(data.count, values.size());
  EXPECT_EQ(data.sum_ns, sum);
  std::uint64_t bucketed = 0;
  for (const auto& [idx, count] : data.buckets) bucketed += count;
  EXPECT_EQ(bucketed, values.size());
  for (const std::uint64_t v : values) {
    const std::uint32_t idx = histogram_bucket(v);
    bool found = false;
    for (const auto& [i, count] : data.buckets) found |= (i == idx);
    EXPECT_TRUE(found) << v;
  }
}

// ------------------------------------------------------- broker accounting --

TEST(BrokerMetricsTest, CountersMatchObservedTraffic) {
  AttributeRegistry attrs;
  Broker broker(attrs);
  std::size_t callbacks = 0;
  const SubscriberId alice =
      broker.register_subscriber([&](const Notification&) { ++callbacks; });
  broker.subscribe(alice, "x > 10");
  broker.subscribe(alice, "x > 100");
  const SubscriptionId gone = broker.subscribe(alice, "y exists");
  broker.unsubscribe(gone);

  std::vector<Event> events;
  events.push_back(EventBuilder(attrs).set("x", 50).build());    // 1 match
  events.push_back(EventBuilder(attrs).set("x", 500).build());   // 2 matches
  events.push_back(EventBuilder(attrs).set("x", 1).build());     // 0 matches
  EXPECT_EQ(broker.publish_batch(events), 3u);
  EXPECT_EQ(broker.publish(events[0]), 1u);
  EXPECT_EQ(callbacks, 4u);

  const MetricsSnapshot snap = broker.metrics();
  EXPECT_EQ(snap.counter_total("ncps_publish_batches_total"), 2u);
  EXPECT_EQ(snap.counter_total("ncps_publish_events_total"), 4u);
  EXPECT_EQ(snap.counter_value("ncps_notifications_total",
                               {{"path", "inline"}}),
            std::optional<std::uint64_t>(4));
  EXPECT_EQ(snap.counter_value("ncps_control_ops_total",
                               {{"op", "register_subscriber"}}),
            std::optional<std::uint64_t>(1));
  EXPECT_EQ(snap.counter_value("ncps_control_ops_total",
                               {{"op", "subscribe"}}),
            std::optional<std::uint64_t>(3));
  EXPECT_EQ(snap.counter_value("ncps_control_ops_total",
                               {{"op", "unsubscribe"}}),
            std::optional<std::uint64_t>(1));
  // One latency sample per event that delivered at least one notification,
  // weighted by its notification count.
  const HistogramData latency =
      snap.histogram_merged("ncps_publish_notify_latency_seconds");
  EXPECT_EQ(latency.count, 4u);
  // Sampled (non-registry) rows ride along in the same snapshot.
  EXPECT_EQ(snap.counter_total("ncps_match_events_total"), 4u);
  EXPECT_EQ(snap.counter_total("ncps_match_matches_total"), 4u);
  EXPECT_EQ(snap.gauge_value("ncps_shards"), std::optional<double>(1));
  EXPECT_EQ(snap.gauge_value("ncps_subscriptions"), std::optional<double>(2));
  EXPECT_EQ(snap.gauge_value("ncps_subscribers"), std::optional<double>(1));
}

TEST(BrokerMetricsTest, PublishStageSecondsSplitTheBatchWallTime) {
  for (const std::size_t shard_count : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));
    AttributeRegistry attrs;
    const auto broker = ShardedBroker::create(
        attrs, ShardedBrokerConfig{.shard_count = shard_count});
    const SubscriberId alice =
        broker->register_subscriber([](const Notification&) {});
    for (int i = 0; i < 32; ++i) {
      broker->subscribe(alice, "x > " + std::to_string(i));
    }
    std::vector<Event> batch;
    for (int i = 0; i < 64; ++i) {
      batch.push_back(EventBuilder(attrs).set("x", i).build());
    }
    const auto start = std::chrono::steady_clock::now();
    EXPECT_GT(broker->publish_batch(batch), 0u);
    const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start);

    // Counters hold nanoseconds; the expositions render them as seconds.
    const MetricsSnapshot snap = broker->metrics();
    std::uint64_t staged = 0;
    for (const char* stage : {"match", "merge", "deliver"}) {
      const std::optional<std::uint64_t> ns = snap.counter_value(
          "ncps_publish_stage_seconds_total", {{"stage", stage}});
      ASSERT_TRUE(ns.has_value()) << stage;
      EXPECT_GT(*ns, 0u) << stage;
      staged += *ns;
    }
    EXPECT_LE(staged, static_cast<std::uint64_t>(wall.count()));
  }
}

TEST(BrokerMetricsTest, MatchPhaseSecondsAdvancePerShard) {
  // Sampled rows fed once per match task, so they advance in every build
  // mode. The population is paper-shaped (ANDs of two-way ORs, no NOT), so
  // phase 2 decides every node from flip counts and probes no child truth.
  for (const std::size_t shard_count : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));
    AttributeRegistry attrs;
    const auto broker = ShardedBroker::create(
        attrs, ShardedBrokerConfig{.shard_count = shard_count});
    const SubscriberId alice =
        broker->register_subscriber([](const Notification&) {});
    for (int i = 0; i < 256; ++i) {
      const std::string n = std::to_string(i);
      broker->subscribe(alice, "(a > " + n + " or b == " + n + ") and (c < " +
                                   n + " or d == " + n + ") and (e >= " + n +
                                   " or f == " + n + ")");
    }
    std::vector<Event> batch;
    for (int i = 0; i < 64; ++i) {
      batch.push_back(EventBuilder(attrs)
                          .set("a", i * 4).set("b", i).set("c", 255 - i * 4)
                          .set("d", i).set("e", i * 3).set("f", i)
                          .build());
    }
    EXPECT_GT(broker->publish_batch(batch), 0u);

    const MetricsSnapshot snap = broker->metrics();
    std::uint64_t phases = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      for (const char* phase : {"1", "2"}) {
        const std::optional<std::uint64_t> ns =
            snap.counter_value("ncps_match_phase_seconds_total",
                               {{"shard", std::to_string(s)},
                                {"phase", phase}});
        ASSERT_TRUE(ns.has_value()) << "shard " << s << " phase " << phase;
        EXPECT_GT(*ns, 0u) << "shard " << s << " phase " << phase;
        phases += *ns;
      }
    }
    EXPECT_EQ(snap.counter_total("ncps_match_truth_lookups_total"), 0u);
    EXPECT_GT(snap.counter_total("ncps_match_node_evaluations_total"), 0u);
    // The seed broker matches inline, so its phases fit in the match stage.
    if (shard_count == 1) {
      EXPECT_LE(phases, snap.counter_value("ncps_publish_stage_seconds_total",
                                           {{"stage", "match"}})
                            .value_or(0));
    }
  }
}

TEST(BrokerMetricsTest, RuntimeGateDropsHotCellsButKeepsSampledRows) {
  AttributeRegistry attrs;
  BrokerOptions options;
  options.metrics = false;
  Broker broker(attrs, options);
  const SubscriberId alice =
      broker.register_subscriber([](const Notification&) {});
  broker.subscribe(alice, "x > 10");
  EXPECT_EQ(broker.publish(EventBuilder(attrs).set("x", 50).build()), 1u);

  const MetricsSnapshot snap = broker.metrics();
  // No registry cells were allocated, so no hot-path rows exist...
  EXPECT_EQ(snap.counter_value("ncps_publish_events_total", {}),
            std::nullopt);
  EXPECT_TRUE(
      snap.histogram_merged("ncps_publish_notify_latency_seconds").empty());
  // ...but sampled rows (engine stats, gauges) are still reported.
  EXPECT_EQ(snap.counter_total("ncps_match_events_total"), 1u);
  EXPECT_EQ(snap.gauge_value("ncps_shards"), std::optional<double>(1));
}

TEST(BrokerMetricsTest, MatchStatsAccumulateAcrossPublishes) {
  // Per-shard match stats work in every build mode: they are relaxed
  // atomics the match tasks fold into, not registry cells. The seed broker
  // (one shard, no pool) runs the same match tasks as a sharded one. And
  // metrics() takes no shard mutex, so an inline callback — running inside
  // publish_batch — may scrape the broker that is delivering to it.
  for (const std::size_t shard_count : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));
    AttributeRegistry attrs;
    const auto broker = ShardedBroker::create(
        attrs, ShardedBrokerConfig{.shard_count = shard_count});
    std::vector<double> scraped_subscriptions;
    const SubscriberId alice =
        broker->register_subscriber([&](const Notification&) {
          scraped_subscriptions.push_back(
              broker->metrics().gauge_value("ncps_subscriptions").value_or(-1));
        });
    broker->subscribe(alice, "x > 10");
    const std::vector<Event> hits(3, EventBuilder(attrs).set("x", 50).build());
    EXPECT_EQ(broker->publish_batch(hits), 3u);
    EXPECT_EQ(scraped_subscriptions, (std::vector<double>{1, 1, 1}));

    const MetricsSnapshot snap = broker->metrics();
    // Every event visits every shard; the one match lives on one shard.
    EXPECT_EQ(snap.counter_total("ncps_match_events_total"), 3 * shard_count);
    EXPECT_EQ(snap.counter_total("ncps_match_matches_total"), 3u);
    EXPECT_GT(snap.counter_total("ncps_match_tasks_total"), 0u);
  }
}

// Differential check across engines × shard counts × delivery modes: the
// exposition's notifications_total must equal what subscriber callbacks
// actually observed.
TEST(BrokerMetricsTest, NotificationsTotalMatchesCallbacksEverywhere) {
  for (const EngineKind kind : kAllEngineKinds) {
    for (const std::size_t shard_count : {std::size_t{1}, std::size_t{4}}) {
      for (const bool async : {false, true}) {
        AttributeRegistry attrs;
        ShardedBrokerConfig config;
        config.shard_count = shard_count;
        config.engine = kind;
        if (async) config.delivery.mode = DeliveryMode::Async;
        const auto broker = ShardedBroker::create(attrs, config);

        std::atomic<std::size_t> callbacks{0};
        for (int s = 0; s < 3; ++s) {
          const SubscriberId sub = broker->register_subscriber(
              [&](const Notification&) {
                callbacks.fetch_add(1, std::memory_order_relaxed);
              });
          for (int k = 0; k < 8; ++k) {
            broker->subscribe(sub, "x > " + std::to_string(8 * s + k) +
                                       " and y == " + std::to_string(s));
          }
        }
        std::vector<Event> events;
        for (int x = 0; x < 30; ++x) {
          events.push_back(
              EventBuilder(attrs).set("x", x).set("y", x % 3).build());
        }
        const std::size_t accepted = broker->publish_batch(events);
        broker->quiesce();  // async: wait out the executor's deliveries

        const std::string context =
            std::string(to_string(kind)) + " shards=" +
            std::to_string(shard_count) + (async ? " async" : " inline");
        EXPECT_EQ(callbacks.load(), accepted) << context;
        const MetricsSnapshot snap = broker->metrics();
        const char* path = async ? "async" : "inline";
        EXPECT_EQ(snap.counter_value("ncps_notifications_total",
                                     {{"path", path}}),
                  std::optional<std::uint64_t>(accepted))
            << context;
        if (async) {
          EXPECT_EQ(snap.counter_total("ncps_delivery_accepted_total"),
                    accepted)
              << context;
          EXPECT_EQ(snap.counter_total("ncps_delivery_dropped_total"), 0u)
              << context;
        }
        // Matching visits every shard, so shard-summed events are
        // events × shards; matches sum to the accepted notifications.
        EXPECT_EQ(snap.counter_total("ncps_match_events_total"),
                  events.size() * shard_count)
            << context;
        EXPECT_EQ(snap.counter_total("ncps_match_matches_total"), accepted)
            << context;
      }
    }
  }
}

// ------------------------------------------------------------------- race --

// Snapshot-while-publishing: a publisher, a control-churn thread, and a
// scraper all hammer one 4-shard broker. Run under TSan in CI; the
// assertions here are liveness/consistency only (exposition never tears).
TEST(BrokerMetricsTest, SnapshotWhilePublishingIsRaceFree) {
  AttributeRegistry attrs;
  ShardedBrokerConfig config;
  config.shard_count = 4;
  config.delivery.mode = DeliveryMode::Async;
  const auto broker = ShardedBroker::create(attrs, config);

  std::atomic<std::size_t> callbacks{0};
  const SubscriberId keeper = broker->register_subscriber(
      [&](const Notification&) {
        callbacks.fetch_add(1, std::memory_order_relaxed);
      });
  broker->subscribe(keeper, "x >= 0");

  constexpr int kBatches = 60;
  std::thread publisher([&] {
    std::vector<Event> events;
    for (int i = 0; i < 8; ++i) {
      events.push_back(EventBuilder(attrs).set("x", i).build());
    }
    for (int b = 0; b < kBatches; ++b) (void)broker->publish_batch(events);
  });
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const SubscriberId s =
          broker->register_subscriber([](const Notification&) {});
      const SubscriptionId id = broker->subscribe(s, "x > 3 and x < 100");
      broker->unsubscribe(id);
      broker->unregister_subscriber(s);
    }
  });
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = broker->metrics();
      EXPECT_FALSE(snap.to_prometheus().empty());
      EXPECT_FALSE(snap.to_json().empty());
      EXPECT_EQ(snap.gauge_value("ncps_shards"), std::optional<double>(4));
    }
  });

  publisher.join();
  stop.store(true, std::memory_order_release);
  churner.join();
  scraper.join();
  broker->quiesce();

  // Post-quiesce the books balance: the keeper saw every event of every
  // batch, and (when cells are compiled in) the exposition covers at least
  // those deliveries. (Churn subscribers also receive notifications —
  // uncounted by `callbacks` — and unregistering one mid-flight discards
  // its queue as drops, so only a lower bound is deterministic here.)
  EXPECT_GE(callbacks.load(), std::size_t{kBatches} * 8);
  const MetricsSnapshot snap = broker->metrics();
  EXPECT_GE(snap.counter_total("ncps_notifications_total"),
            callbacks.load());
  EXPECT_EQ(snap.gauge_value("ncps_outbox_pending_notifications"),
            std::optional<double>(0));
}

}  // namespace
}  // namespace ncps
