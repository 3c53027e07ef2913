// Bulk subscription loading: subscribe_bulk() must be observationally
// identical to a loop of subscribe() calls — same ids, same notification
// multiset — across engine kinds and shard counts, whether the build runs
// sequentially, on the temporary build pool (>= 512 items in one shard), or
// through a queued BulkSubscribe command racing a concurrent publish_batch.
//
// The race test is the TSan target for this feature: a publisher thread
// hammers publish_batch while the control thread issues bulk subscribes, so
// the queued-command path (shard busy -> one BulkSubscribe command) and the
// inline path both get exercised under the sanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "broker/broker.h"
#include "broker/sharded_broker.h"
#include "subscription/printer.h"
#include "test_util.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

using Delivery = std::tuple<std::uint32_t, std::uint32_t, std::size_t>;

struct Harness {
  explicit Harness(ShardedBroker& b) : broker(&b) {}

  SubscriberId session() {
    return broker->register_subscriber([this](const Notification& n) {
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

class BulkLoadTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(BulkLoadTest, BulkMatchesIndividualSubscribes) {
  const EngineKind kind = GetParam();

  for (const std::size_t shard_count : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));

    AttributeRegistry attrs;
    PredicateTable scratch;
    RandomWorkloadConfig config;
    config.rich_operators = true;
    config.attribute_presence = 1.0;
    config.seed = 0xb01d + shard_count;
    RandomWorkload workload(config, attrs, scratch);

    Broker reference(attrs, kind);
    ShardedBroker bulk(
        attrs, ShardedBrokerConfig{.shard_count = shard_count, .engine = kind});

    Harness ref(reference);
    Harness blk(bulk);
    const SubscriberId ref_owner = ref.session();
    const SubscriberId blk_owner = blk.session();
    ASSERT_EQ(ref_owner, blk_owner);

    std::vector<ast::Expr> exprs;
    std::vector<std::string> texts;
    for (std::size_t i = 0; i < 80; ++i) {
      exprs.push_back(workload.next_subscription());
      texts.push_back(print_expression(exprs.back().root(), scratch, attrs));
    }

    std::vector<SubscriptionId> ref_ids;
    for (const std::string& text : texts) {
      ref_ids.push_back(reference.subscribe(ref_owner, text));
    }
    const std::vector<SubscriptionId> blk_ids =
        bulk.subscribe_bulk(blk_owner, texts);
    ASSERT_EQ(blk_ids.size(), texts.size());
    EXPECT_EQ(ref_ids, blk_ids) << "bulk ids must match sequential allocation";
    bulk.quiesce();
    EXPECT_EQ(reference.subscription_count(), bulk.subscription_count());

    for (std::size_t i = 0; i < 120; ++i) {
      const Event event = workload.next_event();
      const std::size_t ref_count = reference.publish(event);
      const std::size_t blk_count = bulk.publish(event);
      EXPECT_EQ(ref_count, blk_count) << "event " << i;
      ++ref.event_ordinal;
      ++blk.event_ordinal;
    }
    EXPECT_EQ(sorted(ref.log), sorted(blk.log));

    // Bulk-registered subscriptions unsubscribe like sequential ones.
    EXPECT_TRUE(bulk.unsubscribe(blk_ids.front()));
    EXPECT_FALSE(bulk.unsubscribe(blk_ids.front()));
  }
}

TEST_P(BulkLoadTest, LargeBatchTakesParallelBuildPath) {
  // One shard, 600 subscriptions: everything lands in a single bucket above
  // kBulkBuildParallelThreshold, so the index build runs on the temporary
  // pool. Matching must be unaffected.
  const EngineKind kind = GetParam();
  AttributeRegistry attrs;
  ShardedBroker broker(
      attrs, ShardedBrokerConfig{.shard_count = 1, .engine = kind});
  Harness h(broker);
  const SubscriberId owner = h.session();

  std::vector<std::string> texts;
  for (int i = 0; i < 600; ++i) {
    texts.push_back("price >= " + std::to_string(i) + " and volume > " +
                    std::to_string(i % 37));
  }
  const std::vector<SubscriptionId> ids = broker.subscribe_bulk(owner, texts);
  ASSERT_EQ(ids.size(), texts.size());
  EXPECT_EQ(broker.subscription_count(), texts.size());

  const Event e =
      EventBuilder(attrs).set("price", 250).set("volume", 1000).build();
  // price >= i matches i in [0, 250]; volume > i%37 always holds.
  EXPECT_EQ(broker.publish(e), 251u);
}

TEST_P(BulkLoadTest, MalformedTextRegistersNothing) {
  const EngineKind kind = GetParam();
  AttributeRegistry attrs;
  ShardedBroker broker(
      attrs, ShardedBrokerConfig{.shard_count = 2, .engine = kind});
  Harness h(broker);
  const SubscriberId owner = h.session();

  const std::vector<std::string> texts = {"price > 1", "price >", "x == 2"};
  EXPECT_THROW(broker.subscribe_bulk(owner, texts), ParseError);
  EXPECT_EQ(broker.subscription_count(), 0u);

  const Event e = EventBuilder(attrs).set("price", 5).build();
  EXPECT_EQ(broker.publish(e), 0u);
}

TEST_P(BulkLoadTest, BulkSubscribeRacesPublishBatch) {
  // TSan target: a publisher thread drives publish_batch in a loop while the
  // control thread issues bulk subscribes. Each shard's share is one
  // BulkSubscribe command, drained by the control thread when the shard is
  // free and otherwise by the publisher or the apply thread. The last wave
  // gives every shard at least kBulkBuildParallelThreshold (512) texts, so
  // its shares build on a temporary pool while batches run.
  const EngineKind kind = GetParam();
  AttributeRegistry attrs;
  ShardedBroker broker(
      attrs, ShardedBrokerConfig{.shard_count = 4, .engine = kind});

  std::atomic<std::size_t> delivered{0};
  const SubscriberId owner =
      broker.register_subscriber([&](const Notification&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });

  std::vector<Event> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(
        EventBuilder(attrs).set("price", i * 10).set("volume", i).build());
  }

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      broker.publish_batch(batch);
    }
  });

  constexpr std::size_t kWaves = 8;
  constexpr std::size_t kPerWave = 40;
  std::size_t expected = 0;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::string> texts;
    for (std::size_t i = 0; i < kPerWave; ++i) {
      texts.push_back("price >= " + std::to_string(wave * kPerWave + i));
    }
    const auto ids = broker.subscribe_bulk(owner, texts);
    EXPECT_EQ(ids.size(), kPerWave);
    expected += kPerWave;
  }
  constexpr std::size_t kBigWave = 2560;
  {
    // Placement is a pure function of (subscriber, sequence): check that
    // the wave really gives every shard a parallel-build share.
    const ShardRouter router(4, ShardPlacement::kSpread);
    std::vector<std::size_t> share(4, 0);
    for (std::size_t i = 0; i < kBigWave; ++i) {
      ++share[router.route(owner, expected + i)];
    }
    for (const std::size_t n : share) ASSERT_GE(n, 512u);
  }
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < kBigWave; ++i) {
    texts.push_back("price >= " + std::to_string(expected + i));
  }
  EXPECT_EQ(broker.subscribe_bulk(owner, texts).size(), kBigWave);
  expected += kBigWave;
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  broker.quiesce();
  EXPECT_EQ(broker.subscription_count(), expected);

  // After the dust settles the bulk subscriptions all match: price >= n for
  // n in [0, 2880) against price == 150 -> 151 matches.
  delivered.store(0);
  const Event probe = EventBuilder(attrs).set("price", 150).build();
  EXPECT_EQ(broker.publish(probe), 151u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, BulkLoadTest,
                         ::testing::ValuesIn(kAllEngineKinds),
                         [](const auto& param_info) {
                           std::string name(to_string(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ncps
