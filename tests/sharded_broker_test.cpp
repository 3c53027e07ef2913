// Shard equivalence: a ShardedBroker with any shard count must be
// observationally identical to the seed single-engine Broker — same
// subscription ids handed out, same notification multiset for every
// published event, same delivery counts — across all three engine kinds.
//
// The driver feeds both brokers the same textual subscriptions (random
// Boolean expressions rendered through the printer) and the same events,
// interleaving subscribes, unsubscribes, session teardown and batch
// publishes. Notifications are compared as (subscriber, subscription,
// event ordinal) triples.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "broker/sharded_broker.h"
#include "common/random.h"
#include "subscription/printer.h"
#include "test_util.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

using Delivery = std::tuple<std::uint32_t, std::uint32_t, std::size_t>;

/// One broker under test plus its recorded notification stream.
struct Harness {
  explicit Harness(ShardedBroker& b) : broker(&b) {}

  SubscriberId session() {
    return broker->register_subscriber([this](const Notification& n) {
      // During a batch publish the notification's event pointer indexes the
      // caller's batch; otherwise the driver-maintained ordinal applies.
      const std::size_t ordinal =
          batch_base == nullptr
              ? event_ordinal
              : static_cast<std::size_t>(n.event - batch_base);
      log.emplace_back(n.subscriber.value(), n.subscription.value(), ordinal);
    });
  }

  ShardedBroker* broker;
  std::vector<Delivery> log;
  std::size_t event_ordinal = 0;
  const Event* batch_base = nullptr;
};

std::vector<Delivery> sorted(std::vector<Delivery> log) {
  std::sort(log.begin(), log.end());
  return log;
}

class ShardEquivalenceTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ShardEquivalenceTest, MatchesSeedBrokerAtEveryShardCount) {
  const EngineKind kind = GetParam();

  for (const std::size_t shard_count : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));

    AttributeRegistry attrs;
    // Scratch table for generating expressions; both brokers intern the
    // printed text into their own shard tables.
    PredicateTable scratch;
    RandomWorkloadConfig config;
    config.rich_operators = true;
    config.not_probability = 0.2;
    config.attribute_presence = 1.0;  // total events: DNF-exact regime
    config.seed = 0x54a6d + shard_count;
    RandomWorkload workload(config, attrs, scratch);

    Broker reference(attrs, kind);
    ShardedBroker sharded(
        attrs, ShardedBrokerConfig{.shard_count = shard_count, .engine = kind});
    ASSERT_EQ(sharded.shard_count(), shard_count);

    Harness ref(reference);
    Harness shd(sharded);

    constexpr std::size_t kSubscribers = 4;
    std::vector<SubscriberId> ref_sessions, shd_sessions;
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      ref_sessions.push_back(ref.session());
      shd_sessions.push_back(shd.session());
      ASSERT_EQ(ref_sessions.back(), shd_sessions.back());
    }

    // Same driver decisions for both brokers.
    Pcg32 driver(0xd51e6, 7);

    constexpr std::size_t kSubscriptions = 60;
    std::vector<SubscriptionId> live_subs;
    std::vector<ast::Expr> exprs;  // keep predicate refs alive in `scratch`
    for (std::size_t i = 0; i < kSubscriptions; ++i) {
      exprs.push_back(workload.next_subscription());
      const std::string text =
          print_expression(exprs.back().root(), scratch, attrs);
      const SubscriberId owner = ref_sessions[driver.bounded(kSubscribers)];
      const SubscriptionId a = reference.subscribe(owner, text);
      const SubscriptionId b = sharded.subscribe(owner, text);
      // Ids are allocated identically (LIFO reuse mirrors the engines').
      ASSERT_EQ(a, b) << "subscription id diverged at registration " << i;
      live_subs.push_back(a);
    }
    ASSERT_EQ(reference.subscription_count(), sharded.subscription_count());

    const auto publish_round = [&](std::size_t events) {
      for (std::size_t i = 0; i < events; ++i) {
        const Event event = workload.next_event();
        const std::size_t ref_count = reference.publish(event);
        const std::size_t shd_count = sharded.publish(event);
        EXPECT_EQ(ref_count, shd_count)
            << "delivery count diverged on event " << ref.event_ordinal;
        ++ref.event_ordinal;
        ++shd.event_ordinal;
      }
      EXPECT_EQ(sorted(ref.log), sorted(shd.log));
    };

    publish_round(30);

    // Unsubscribe a third of the population (same ids on both brokers).
    for (std::size_t i = 0; i < kSubscriptions / 3; ++i) {
      const std::size_t pick = driver.bounded(
          static_cast<std::uint32_t>(live_subs.size()));
      const SubscriptionId sub = live_subs[pick];
      live_subs[pick] = live_subs.back();
      live_subs.pop_back();
      EXPECT_TRUE(reference.unsubscribe(sub));
      EXPECT_TRUE(sharded.unsubscribe(sub));
    }
    publish_round(15);

    // Tear down one session entirely.
    reference.unregister_subscriber(ref_sessions[1]);
    sharded.unregister_subscriber(shd_sessions[1]);
    EXPECT_EQ(reference.subscription_count(), sharded.subscription_count());
    publish_round(15);

    // Subscribe again after churn: id reuse must stay in lockstep.
    for (std::size_t i = 0; i < 10; ++i) {
      exprs.push_back(workload.next_subscription());
      const std::string text =
          print_expression(exprs.back().root(), scratch, attrs);
      const SubscriberId owner = ref_sessions[driver.bounded(kSubscribers)];
      if (owner == ref_sessions[1]) continue;  // torn down above
      const SubscriptionId a = reference.subscribe(owner, text);
      const SubscriptionId b = sharded.subscribe(owner, text);
      ASSERT_EQ(a, b) << "id reuse diverged after churn";
    }
    publish_round(15);

    // Batched publish: both brokers share the deterministic merge, so the
    // notification *sequences* (not just multisets) must be identical, and
    // equal to what per-event publishing on the reference produced.
    std::vector<Event> batch;
    for (std::size_t i = 0; i < 20; ++i) batch.push_back(workload.next_event());
    ref.log.clear();
    shd.log.clear();
    ref.event_ordinal = shd.event_ordinal = 0;
    ref.batch_base = shd.batch_base = batch.data();
    const std::size_t ref_batch = reference.publish_batch(batch);
    const std::size_t shd_batch = sharded.publish_batch(batch);
    ref.batch_base = shd.batch_base = nullptr;
    EXPECT_EQ(ref_batch, shd_batch);
    EXPECT_EQ(ref.log, shd.log) << "batch delivery order diverged";

    // …and batch == event-at-a-time on the same broker.
    std::vector<Delivery> batch_log = ref.log;
    ref.log.clear();
    ref.event_ordinal = 0;
    std::size_t ref_single = 0;
    for (const Event& event : batch) {
      ref_single += reference.publish(event);
      ++ref.event_ordinal;
    }
    EXPECT_EQ(ref_single, ref_batch);
    EXPECT_EQ(sorted(ref.log), sorted(batch_log));

    if (shard_count > 1) {
      // The router must actually spread load: with 60+ subscriptions the
      // probability of everything landing on one shard is negligible.
      std::size_t populated = 0;
      for (std::size_t s = 0; s < shard_count; ++s) {
        if (sharded.shard_subscription_count(s) > 0) ++populated;
      }
      EXPECT_GE(populated, 2u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ShardEquivalenceTest,
                         ::testing::ValuesIn(kAllEngineKinds),
                         [](const auto& param_info) {
                           std::string name(to_string(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Merge order. Live global ids are made sparse and out of allocation order
// (every third one freed and handed back LIFO), and they span several
// 64-id bitmap words as well as the 4096-id boundary of the merge bitmap's
// summary level. Each batch must then give exactly the seed broker's
// notification sequence, and within each event the subscription ids must
// ascend. The batches mix zero-match and matching events; one has a single
// event, and one runs past the 512-event chunk cap, so the merge ranges
// straddle chunks.
TEST(MergeOrderTest, SparseStraddlingIdsGiveSeedSequences) {
  AttributeRegistry attrs;
  Broker reference(attrs);
  Harness ref(reference);
  struct Config {
    std::size_t shards;
    std::size_t workers;
  };
  const Config configs[] = {{1, 4}, {4, 4}, {8, 1}};
  std::vector<std::unique_ptr<ShardedBroker>> brokers;
  std::vector<std::unique_ptr<Harness>> harnesses;
  for (const Config& c : configs) {
    brokers.push_back(std::make_unique<ShardedBroker>(
        attrs, ShardedBrokerConfig{.shard_count = c.shards,
                                   .worker_threads = c.workers}));
    harnesses.push_back(std::make_unique<Harness>(*brokers.back()));
  }
  std::vector<SubscriberId> sessions;
  for (int i = 0; i < 3; ++i) {
    sessions.push_back(ref.session());
    for (auto& h : harnesses) ASSERT_EQ(h->session(), sessions.back());
  }
  const auto subscribe = [&](std::size_t i, const std::string& text) {
    const SubscriberId owner = sessions[i % sessions.size()];
    const SubscriptionId id = reference.subscribe(owner, text);
    for (auto& h : harnesses) EXPECT_EQ(h->broker->subscribe(owner, text), id);
    return id;
  };
  const auto unsubscribe = [&](SubscriptionId id) {
    ASSERT_TRUE(reference.unsubscribe(id));
    for (auto& h : harnesses) ASSERT_TRUE(h->broker->unsubscribe(id));
  };
  // Matching subscriptions: ids 0..299, then (past never-matching filler)
  // 4300..4399. Many share a text, so roots carry chains of several ids.
  std::vector<SubscriptionId> matching;
  for (std::size_t i = 0; i < 300; ++i) {
    matching.push_back(subscribe(i, "x >= " + std::to_string(i % 40)));
  }
  for (std::size_t i = 0; i < 4000; ++i) subscribe(i, "z == -1");
  for (std::size_t i = 0; i < 100; ++i) {
    matching.push_back(subscribe(i, "x < " + std::to_string(i % 30)));
  }
  ASSERT_EQ(matching.back(), SubscriptionId(4399));
  for (std::size_t i = 0; i < matching.size(); i += 3) unsubscribe(matching[i]);
  std::vector<SubscriptionId> reused;
  for (std::size_t i = 0; i < 67; i += 2) {
    reused.push_back(subscribe(i, "x > " + std::to_string(i % 45)));
  }
  // LIFO reuse hands the freed ids back in descending order.
  EXPECT_GT(reused.front(), reused.back());
  EXPECT_EQ(reused.front(), matching[matching.size() - 1]);

  Pcg32 rng(0x3e76e, 5);
  std::size_t notifications = 0;
  const auto publish = [&](std::size_t size) {
    std::vector<Event> batch;
    for (std::size_t i = 0; i < size; ++i) {
      // Every fourth event carries no `x`: nothing matches it.
      batch.push_back(rng.bounded(4) == 0
                          ? EventBuilder(attrs).set("y", 1).build()
                          : EventBuilder(attrs)
                                .set("x", static_cast<std::int64_t>(
                                              rng.bounded(50)))
                                .build());
    }
    ref.log.clear();
    ref.batch_base = batch.data();
    const std::size_t expected = reference.publish_batch(batch);
    ref.batch_base = nullptr;
    notifications += expected;
    for (std::size_t i = 1; i < ref.log.size(); ++i) {
      // (event ordinal, subscription id) ascends strictly.
      const auto key = [&](std::size_t n) {
        return std::pair(std::get<2>(ref.log[n]), std::get<1>(ref.log[n]));
      };
      ASSERT_LT(key(i - 1), key(i)) << "notification " << i;
    }
    for (std::size_t h = 0; h < harnesses.size(); ++h) {
      Harness& shd = *harnesses[h];
      shd.log.clear();
      shd.batch_base = batch.data();
      EXPECT_EQ(shd.broker->publish_batch(batch), expected);
      shd.batch_base = nullptr;
      EXPECT_EQ(shd.log, ref.log) << "shards=" << configs[h].shards
                                  << " workers=" << configs[h].workers
                                  << " batch=" << size;
    }
  };
  publish(37);
  publish(1);
  publish(700);
  EXPECT_GT(notifications, 0u);
}

TEST(ShardedBrokerTest, CreateReturnsWorkingHeapBroker) {
  AttributeRegistry attrs;
  const auto broker = ShardedBroker::create(
      attrs, ShardedBrokerConfig{.shard_count = 2});
  std::size_t hits = 0;
  const SubscriberId alice =
      broker->register_subscriber([&](const Notification&) { ++hits; });
  broker->subscribe(alice, "x > 1");
  broker->publish(EventBuilder(attrs).set("x", 5).build());
  EXPECT_EQ(hits, 1u);
}

// The default worker count spawns min(shards, hw) - 1 threads, and the
// publishing thread is the pool's last worker: a default four-shard broker
// matches on min(4, hw) threads, one of them the publisher.
TEST(ShardedBrokerTest, DefaultPoolCountsThePublishingThread) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs, ShardedBrokerConfig{.shard_count = 4});
  const std::size_t hw =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  const SubscriberId alice =
      broker.register_subscriber([](const Notification&) {});
  for (int i = 0; i < 16; ++i) {
    broker.subscribe(alice, "x > " + std::to_string(i));
  }
  std::vector<Event> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(EventBuilder(attrs).set("x", i).build());
  }
  EXPECT_GT(broker.publish_batch(batch), 0u);
  const obs::MetricsSnapshot snap = broker.metrics();
  EXPECT_EQ(snap.gauge_value("ncps_pool_workers"),
            std::optional<double>(static_cast<double>(std::min<std::size_t>(
                4, hw))));
  const std::optional<double> publisher_busy = snap.gauge_value(
      "ncps_worker_busy_fraction",
      {{"worker", std::to_string(std::min<std::size_t>(4, hw) - 1)}});
  ASSERT_TRUE(publisher_busy.has_value());
  EXPECT_GT(*publisher_busy, 0.0);
}

// Control operations re-entered from an inline delivery callback run on the
// publishing thread while its batch is still delivering. The unsubscribed
// id must stay quarantined until that batch is done (the batch's buffered
// matches still carry it), the new subscription must be matched from the
// next publish on, and the removed one never again.
TEST(ShardedBrokerTest, ControlOpsReenteredFromInlineCallback) {
  for (const std::size_t shard_count : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));
    AttributeRegistry attrs;
    ShardedBroker broker(attrs,
                         ShardedBrokerConfig{.shard_count = shard_count});
    std::vector<std::pair<SubscriptionId, int>> log;  // (subscription, batch)
    int batch = 0;
    SubscriptionId victim;
    std::optional<SubscriptionId> added;
    SubscriberId alice;
    alice = broker.register_subscriber([&](const Notification& n) {
      log.emplace_back(n.subscription, batch);
      if (n.subscription == victim && !added.has_value()) {
        EXPECT_TRUE(broker.unsubscribe(victim));
        added = broker.subscribe(alice, "x == 7");
      }
    });
    for (int i = 0; i < 8; ++i) {
      broker.subscribe(alice, "x > " + std::to_string(i));
    }
    victim = broker.subscribe(alice, "x >= 0");
    std::vector<Event> events;
    for (int x = 1; x <= 8; ++x) {
      events.push_back(EventBuilder(attrs).set("x", x).build());
    }

    batch = 1;
    EXPECT_GT(broker.publish_batch(events), 0u);
    ASSERT_TRUE(added.has_value());
    EXPECT_NE(*added, victim);

    batch = 2;
    broker.publish(EventBuilder(attrs).set("x", 7).build());
    batch = 3;
    broker.publish_batch(events);
    const auto count = [&](SubscriptionId id, int b) {
      return std::count(log.begin(), log.end(), std::pair(id, b));
    };
    EXPECT_EQ(count(*added, 2), 1);
    EXPECT_EQ(count(*added, 3), 1);
    EXPECT_EQ(count(victim, 2), 0);
    EXPECT_EQ(count(victim, 3), 0);

    // With no batch left to carry it, the id is handed out again (LIFO).
    EXPECT_EQ(broker.subscribe(alice, "x < 0"), victim);
  }
}

TEST(ShardedBrokerTest, BrokerCreateFactory) {
  AttributeRegistry attrs;
  const std::unique_ptr<Broker> broker = Broker::create(attrs);
  std::size_t hits = 0;
  const SubscriberId alice =
      broker->register_subscriber([&](const Notification&) { ++hits; });
  broker->subscribe(alice, "x > 1");
  EXPECT_EQ(broker->publish(EventBuilder(attrs).set("x", 5).build()), 1u);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(broker->engine().subscription_count(), 1u);
}

}  // namespace
}  // namespace ncps
