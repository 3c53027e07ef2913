// Churn concurrent with matching under the epoch-based read side (PR 10).
//
// These tests exist primarily as a TSan/ASan surface: a publisher thread
// pumps batches through epoch-pinned match tasks while a control thread
// subscribes/unsubscribes against the same shards, so the apply path (shard
// mutex + write gate, freeing memory in place) races the lock-free readers
// in exactly the configuration the refactor introduces. The CI
// sanitizer job runs this binary under -fsanitize=thread (filter regex
// includes "epoch").
//
// Functionally they pin the two behavioural guarantees the epoch refactor
// must preserve or add:
//   - post-quiesce exactness: after quiesce(), publishing one match-all
//     event notifies exactly the surviving subscriptions, no ghost of any
//     removed one (node-slot reuse is grace-safe);
//   - control-plane liveness: wait_applied() returns without any further
//     publish driving the fences — the dedicated apply thread drains
//     queued commands on its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "broker/sharded_broker.h"

namespace ncps {
namespace {

TEST(EpochChurnTest, ChurnAppliesConcurrentlyWithMatching) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs, ShardedBrokerConfig{
                                  .shard_count = 4,
                                  .engine = EngineKind::NonCanonical});

  // Deliveries during the concurrent phase are timing-dependent — only
  // counted. Correctness is judged by the post-quiesce probe.
  std::atomic<bool> probing{false};
  std::atomic<std::size_t> concurrent_notifications{0};
  std::vector<std::uint32_t> probe_log;  // subscription ids
  const SubscriberId session =
      broker.register_subscriber([&](const Notification& n) {
        if (probing.load(std::memory_order_relaxed)) {
          probe_log.push_back(n.subscription.value());
        } else {
          concurrent_notifications.fetch_add(1, std::memory_order_relaxed);
        }
      });

  // Every subscription matches every event through its left disjunct; the
  // unique right disjunct forces distinct forest roots and predicate-table
  // entries, so unsubscribes continually free and reuse node slots while
  // match tasks traverse.
  const auto text = [](int k) {
    return "attr0 >= 0 or attr1 == " + std::to_string(k);
  };

  std::vector<SubscriptionId> live;
  for (int k = 0; k < 32; ++k) {
    live.push_back(broker.subscribe(session, text(k)));
  }

  const Event event = EventBuilder(attrs).set("attr0", 7).build();
  std::vector<Event> batch(64, event);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      broker.publish_batch(std::span<const Event>(batch.data(), batch.size()));
    }
  });

  // Churn: each round replaces the oldest subscription with a fresh text,
  // so the live set rotates through the forest's free list while the
  // publisher matches. Occasional metrics() calls race the sampling path
  // against everything else.
  int next_k = 32;
  for (int round = 0; round < 400; ++round) {
    const SubscriptionId victim = live.front();
    live.erase(live.begin());
    ASSERT_TRUE(broker.unsubscribe(victim));
    live.push_back(broker.subscribe(session, text(next_k++)));
    if (round % 25 == 0) {
      broker.wait_applied(broker.control_generation());
      (void)broker.metrics();
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
  broker.quiesce();

  ASSERT_EQ(broker.subscription_count(), live.size());

  // Exactly the survivors — a stale posting-list entry or a prematurely
  // recycled forest slot would notify a removed id here.
  probing.store(true, std::memory_order_release);
  ASSERT_EQ(broker.publish(event), live.size());
  std::vector<std::uint32_t> expected;
  for (const SubscriptionId id : live) expected.push_back(id.value());
  std::sort(expected.begin(), expected.end());
  std::sort(probe_log.begin(), probe_log.end());
  EXPECT_EQ(probe_log, expected);
}

TEST(EpochChurnTest, WaitAppliedIsSelfDrivingWithoutPublishes) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs, ShardedBrokerConfig{
                                  .shard_count = 2,
                                  .engine = EngineKind::NonCanonical});
  const SubscriberId session =
      broker.register_subscriber([](const Notification&) {});

  const Event event = EventBuilder(attrs).set("attr0", 1).build();
  std::vector<Event> batch(256, event);

  // Hammer control ops against a publisher so some commands take the
  // queued path (shard lock contended mid-batch)...
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      broker.publish_batch(std::span<const Event>(batch.data(), batch.size()));
    }
  });
  std::vector<SubscriptionId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(
        broker.subscribe(session, "attr0 == " + std::to_string(i)));
    if (ids.size() > 8) {
      ASSERT_TRUE(broker.unsubscribe(ids.front()));
      ids.erase(ids.begin());
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();

  // ...then, with the publisher gone, issue one more pair and wait. No
  // batch will ever advance the fences again: only the apply thread can.
  // A hang here (ctest timeout) means the apply path needs a publish to
  // make progress, which is the regression this test pins.
  const SubscriptionId last = broker.subscribe(session, "attr0 exists");
  ASSERT_TRUE(broker.unsubscribe(last));
  broker.wait_applied(broker.control_generation());
  broker.quiesce();
  EXPECT_EQ(broker.subscription_count(), ids.size());
}

// The frees the write gate has to cover beyond forest slots: spilled
// posting blocks (PostingList::collapse_excluding) and B+ tree leaves
// (split on insert, merged on erase), each freed in place while a 4-shard
// pool broker publishes events whose stabs walk exactly those structures.
//   - Spill and collapse: `attr2 != a` predicates share one per-attribute
//     scan list per shard. Pairs of subscriptions share a value, and a
//     window of 16 keeps ~8 values live, a few per shard, so each shard's
//     list keeps crossing PostingList::kInlineCapacity in both directions.
//     (An equality list holds one predicate id per value: subscriptions
//     sharing `attr == v` share its predicate, so only the scan list spills.)
//   - Split and merge: `attr3 > b` predicates, pairs sharing a bound, fill
//     one range tree per shard with several leaves of up to 32 entries.
//     Each round adds a bound above every live one and drops the lowest,
//     so the right edge splits and the left edge borrows and merges.
// The event carries attr2 and attr3, so every stab walks the scan list and
// every range leaf; the left disjunct makes every subscription match.
TEST(EpochChurnTest, ChurnFreesPostingBlocksAndRangeLeavesDuringMatching) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs, ShardedBrokerConfig{
                                  .shard_count = 4,
                                  .engine = EngineKind::NonCanonical});

  std::atomic<bool> probing{false};
  std::atomic<std::size_t> concurrent_notifications{0};
  std::vector<std::uint32_t> probe_log;
  const SubscriberId session =
      broker.register_subscriber([&](const Notification& n) {
        if (probing.load(std::memory_order_relaxed)) {
          probe_log.push_back(n.subscription.value());
        } else {
          concurrent_notifications.fetch_add(1, std::memory_order_relaxed);
        }
      });

  const auto scan_text = [](int k) {
    return "attr0 >= 0 or attr2 != " + std::to_string(k / 2);
  };
  const auto range_text = [](int k) {
    return "attr0 >= 0 or attr3 > " + std::to_string(k / 2);
  };
  constexpr int kScanWindow = 16;
  constexpr int kRangeWindow = 320;
  std::vector<SubscriptionId> scan_live;
  std::vector<SubscriptionId> range_live;
  int next_scan = 0;
  int next_range = 0;
  while (next_scan < kScanWindow) {
    scan_live.push_back(broker.subscribe(session, scan_text(next_scan++)));
  }
  while (next_range < kRangeWindow) {
    range_live.push_back(broker.subscribe(session, range_text(next_range++)));
  }

  const Event event = EventBuilder(attrs)
                          .set("attr0", 7)
                          .set("attr2", -1)
                          .set("attr3", 1000000)
                          .build();
  std::vector<Event> batch(64, event);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pumped{0};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      broker.publish_batch(std::span<const Event>(batch.data(), batch.size()));
      pumped.fetch_add(1, std::memory_order_release);
    }
  });

  // 600 rounds move the range window by 300 bounds, about twice its width,
  // so every leaf present at the start is merged away. Every 20 rounds the
  // churn waits for a whole batch, so matching and frees interleave however
  // fast either side runs.
  for (int round = 0; round < 600; ++round) {
    ASSERT_TRUE(broker.unsubscribe(scan_live.front()));
    scan_live.erase(scan_live.begin());
    scan_live.push_back(broker.subscribe(session, scan_text(next_scan++)));
    ASSERT_TRUE(broker.unsubscribe(range_live.front()));
    range_live.erase(range_live.begin());
    range_live.push_back(broker.subscribe(session, range_text(next_range++)));
    if (round % 20 == 0) {
      broker.wait_applied(broker.control_generation());
      const std::uint64_t mark = pumped.load(std::memory_order_acquire);
      while (pumped.load(std::memory_order_acquire) < mark + 2) {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
  broker.quiesce();

  std::vector<std::uint32_t> expected;
  for (const SubscriptionId id : scan_live) expected.push_back(id.value());
  for (const SubscriptionId id : range_live) expected.push_back(id.value());
  ASSERT_EQ(broker.subscription_count(), expected.size());

  // Exactly the survivors: a stale id in a collapsed posting list or a
  // merged-away leaf would notify a removed subscription here.
  probing.store(true, std::memory_order_release);
  ASSERT_EQ(broker.publish(event), expected.size());
  std::sort(expected.begin(), expected.end());
  std::sort(probe_log.begin(), probe_log.end());
  EXPECT_EQ(probe_log, expected);
}

// Churn while match tasks take the forest's block path (one evaluation of
// every live node per chunk, lane masks in the worker's context): paper-
// shaped subscriptions over unique predicates, and an event that fulfils
// every `>` leaf, a third of all leaves, so each chunk is dense. Every
// round frees one subscription's ten node slots and the next subscribe
// reuses them while other chunks sweep the forest.
TEST(EpochChurnTest, ChurnReusesNodeSlotsDuringBlockMatching) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs, ShardedBrokerConfig{
                                  .shard_count = 4,
                                  .engine = EngineKind::NonCanonical});

  std::atomic<bool> probing{false};
  std::atomic<std::size_t> concurrent_notifications{0};
  std::vector<std::uint32_t> probe_log;
  const SubscriberId session =
      broker.register_subscriber([&](const Notification& n) {
        if (probing.load(std::memory_order_relaxed)) {
          probe_log.push_back(n.subscription.value());
        } else {
          concurrent_notifications.fetch_add(1, std::memory_order_relaxed);
        }
      });

  const auto text = [](int k) {
    const std::string n = std::to_string(k);
    return "(attr0 > " + n + " or attr1 == " + n + ") and (attr2 > " + n +
           " or attr3 == " + n + ") and (attr4 > " + n + " or attr5 == " +
           n + ")";
  };
  constexpr int kWindow = 200;
  std::vector<SubscriptionId> live;
  int next_k = 0;
  while (next_k < kWindow) {
    live.push_back(broker.subscribe(session, text(next_k++)));
  }

  const Event event = EventBuilder(attrs)
                          .set("attr0", 1000000000)
                          .set("attr2", 1000000000)
                          .set("attr4", 1000000000)
                          .build();
  std::vector<Event> batch(64, event);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pumped{0};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      broker.publish_batch(std::span<const Event>(batch.data(), batch.size()));
      pumped.fetch_add(1, std::memory_order_release);
    }
  });

  for (int round = 0; round < 400; ++round) {
    ASSERT_TRUE(broker.unsubscribe(live.front()));
    live.erase(live.begin());
    live.push_back(broker.subscribe(session, text(next_k++)));
    if (round % 20 == 0) {
      broker.wait_applied(broker.control_generation());
      const std::uint64_t mark = pumped.load(std::memory_order_acquire);
      while (pumped.load(std::memory_order_acquire) < mark + 2) {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
  broker.quiesce();
  ASSERT_EQ(broker.subscription_count(), live.size());
  EXPECT_GT(broker.metrics().counter_total("ncps_match_block_events_total"),
            0u);

  // Exactly the survivors, once per event of a whole batch, so the probe
  // takes the block path too: a lane mask read through a recycled slot
  // would notify a removed subscription here, or miss a live one.
  probing.store(true, std::memory_order_release);
  ASSERT_EQ(broker.publish_batch(
                std::span<const Event>(batch.data(), batch.size())),
            batch.size() * live.size());
  std::vector<std::uint32_t> expected;
  for (const SubscriptionId id : live) {
    expected.insert(expected.end(), batch.size(), id.value());
  }
  std::sort(expected.begin(), expected.end());
  std::sort(probe_log.begin(), probe_log.end());
  EXPECT_EQ(probe_log, expected);
}

}  // namespace
}  // namespace ncps
