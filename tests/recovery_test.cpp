// Recovery differential tests: a broker recovered from snapshot + journal
// must be observationally identical to the broker that never stopped —
// subscription for subscription (ids, owners, texts) and notification for
// notification under the same published events.
//
// Covers every engine kind (forest-state snapshots for the non-canonical
// DAG engine, text-replay recovery for the rest) and shard counts 1 and 4;
// plus the torn-journal regressions (partial
// final record, crash during recovery, empty/missing journal) and a
// thread-sanitised checkpoint-under-load case.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "broker/sharded_broker.h"
#include "storage/fault_vfs.h"
#include "storage/journal.h"
#include "storage/serializer.h"
#include "storage/snapshot.h"
#include "workload/churn_workload.h"

namespace ncps {
namespace {

struct RecoveryConfig {
  EngineKind engine;
  std::size_t shards;

  [[nodiscard]] std::string label() const {
    std::string out;
    switch (engine) {
      case EngineKind::NonCanonical: out = "forest"; break;
      case EngineKind::NonCanonicalTree: out = "tree"; break;
      case EngineKind::Counting: out = "counting"; break;
      case EngineKind::CountingVariant: out = "counting-variant"; break;
    }
    out += "/shards=" + std::to_string(shards);
    return out;
  }
};

const RecoveryConfig kConfigs[] = {
    {EngineKind::NonCanonical, 1},
    {EngineKind::NonCanonical, 4},
    {EngineKind::NonCanonicalTree, 1},
    {EngineKind::NonCanonicalTree, 4},
    {EngineKind::Counting, 1},
    {EngineKind::Counting, 4},
    {EngineKind::CountingVariant, 4},
};

std::unique_ptr<ShardedBroker> make_broker(AttributeRegistry& attrs,
                                           const RecoveryConfig& config,
                                           storage::Vfs& vfs) {
  return ShardedBroker::create(
      attrs, ShardedBrokerConfig{
                 .shard_count = config.shards,
                 .engine = config.engine,
                 .storage = storage::StorageOptions{.enabled = true,
                                                    .directory = "store",
                                                    .sync_on_commit = true,
                                                    .vfs = &vfs}});
}

using Delivery = std::pair<std::uint32_t, std::uint32_t>;  // subscriber, sub

/// Everything the control plane knows about a broker, for state equality.
struct ControlImage {
  std::vector<std::uint32_t> subscribers;
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::string>> subs;
};

ControlImage control_image(ShardedBroker& broker) {
  ControlImage image;
  for (const SubscriberId subscriber : broker.subscriber_ids()) {
    image.subscribers.push_back(subscriber.value());
    for (const SubscriptionId sub : broker.subscriptions_of(subscriber)) {
      const auto text = broker.subscription_text(sub);
      image.subs.emplace_back(subscriber.value(), sub.value(),
                              text.value_or("<none>"));
    }
  }
  std::sort(image.subs.begin(), image.subs.end());
  return image;
}

void expect_same_state(ShardedBroker& live, ShardedBroker& recovered) {
  const ControlImage a = control_image(live);
  const ControlImage b = control_image(recovered);
  EXPECT_EQ(a.subscribers, b.subscribers);
  EXPECT_EQ(a.subs, b.subs);
  EXPECT_EQ(live.subscription_count(), recovered.subscription_count());
  EXPECT_EQ(live.journal_sequence(), recovered.journal_sequence());
}

TEST(RecoveryTest, ChurnedStateRoundTripsThroughSnapshotAndJournal) {
  for (const RecoveryConfig& config : kConfigs) {
    SCOPED_TRACE(config.label());
    AttributeRegistry attrs;
    storage::FaultInjectingVfs vfs;
    auto live = make_broker(attrs, config, vfs);

    ChurnWorkloadConfig churn;
    churn.target_population = 40;
    churn.churn_rate = 0.4;
    churn.subscriber_count = 3;
    churn.base_lifetime_events = 8;
    churn.lifetime_ranks = 16;
    churn.duplicate_probability = 0.3;
    churn.commute_probability = 0.5;
    churn.subscriptions.attribute_count = 10;
    churn.subscriptions.domain_size = 1000;
    churn.seed = 0x7711 + config.shards;
    ChurnWorkload workload(churn, attrs);

    std::vector<Delivery> live_log;
    std::vector<SubscriberId> sessions;
    for (std::size_t i = 0; i < churn.subscriber_count; ++i) {
      sessions.push_back(live->register_subscriber(
          [&live_log](const Notification& n) {
            live_log.emplace_back(n.subscriber.value(),
                                  n.subscription.value());
          }));
    }

    std::unordered_map<std::uint64_t, SubscriptionId> by_handle;
    std::size_t events = 0;
    while (events < 120) {
      ChurnWorkload::Op op = workload.next();
      switch (op.kind) {
        case ChurnWorkload::Op::Kind::Subscribe:
          by_handle.emplace(op.handle,
                            live->subscribe(sessions[op.subscriber], op.text));
          break;
        case ChurnWorkload::Op::Kind::Unsubscribe: {
          const auto it = by_handle.find(op.handle);
          ASSERT_NE(it, by_handle.end());
          ASSERT_TRUE(live->unsubscribe(it->second));
          by_handle.erase(it);
          break;
        }
        case ChurnWorkload::Op::Kind::Publish:
          ++events;
          live->publish(op.event);
          // Mid-stream checkpoint: recovery below exercises snapshot +
          // journal tail, not just one or the other.
          if (events == 60) live->checkpoint();
          break;
      }
    }

    auto recovered = make_broker(attrs, config, vfs);
    expect_same_state(*live, *recovered);

    // Reattach the recovered sessions and drive both brokers with the same
    // probe events: the notification streams must be identical.
    std::vector<Delivery> recovered_log;
    for (const SubscriberId subscriber : sessions) {
      recovered->reattach_subscriber(
          subscriber, [&recovered_log](const Notification& n) {
            recovered_log.emplace_back(n.subscriber.value(),
                                       n.subscription.value());
          });
    }
    std::size_t probes = 0;
    while (probes < 30) {
      ChurnWorkload::Op op = workload.next();
      if (op.kind != ChurnWorkload::Op::Kind::Publish) continue;  // frozen
      ++probes;
      live_log.clear();
      recovered_log.clear();
      const std::size_t live_n = live->publish(op.event);
      const std::size_t recovered_n = recovered->publish(op.event);
      EXPECT_EQ(live_n, recovered_n) << "probe " << probes;
      std::sort(live_log.begin(), live_log.end());
      std::sort(recovered_log.begin(), recovered_log.end());
      ASSERT_EQ(live_log, recovered_log) << "probe " << probes;
    }
  }
}

TEST(RecoveryTest, JournalOnlyRecoveryNeedsNoSnapshot) {
  AttributeRegistry attrs;
  storage::FaultInjectingVfs vfs;
  const RecoveryConfig config{EngineKind::NonCanonical, 2};
  auto live = make_broker(attrs, config, vfs);
  const SubscriberId alice = live->register_subscriber([](const auto&) {});
  const SubscriptionId keep = live->subscribe(alice, "x > 1 and y < 5");
  const SubscriptionId drop = live->subscribe(alice, "z == 3");
  ASSERT_TRUE(live->unsubscribe(drop));
  // No checkpoint: everything recovers from the journal alone.
  auto recovered = make_broker(attrs, config, vfs);
  expect_same_state(*live, *recovered);
  EXPECT_EQ(recovered->subscription_text(keep), "x > 1 and y < 5");
  EXPECT_EQ(recovered->subscription_text(drop), std::nullopt);
}

TEST(RecoveryTest, RecoveredFreeListReusesSmallestDeadIdsFirst) {
  AttributeRegistry attrs;
  storage::FaultInjectingVfs vfs;
  const RecoveryConfig config{EngineKind::NonCanonical, 1};
  {
    auto live = make_broker(attrs, config, vfs);
    const SubscriberId alice = live->register_subscriber([](const auto&) {});
    const SubscriptionId a = live->subscribe(alice, "a > 1");
    const SubscriptionId b = live->subscribe(alice, "b > 1");
    (void)live->subscribe(alice, "c > 1");
    ASSERT_TRUE(live->unsubscribe(a));
    ASSERT_TRUE(live->unsubscribe(b));
  }
  auto recovered = make_broker(attrs, config, vfs);
  const SubscriberId alice = recovered->subscriber_ids().at(0);
  // Dead slots 0 and 1 are reallocated before any fresh id, smallest first.
  EXPECT_EQ(recovered->subscribe(alice, "d > 1").value(), 0u);
  EXPECT_EQ(recovered->subscribe(alice, "e > 1").value(), 1u);
  EXPECT_EQ(recovered->subscribe(alice, "f > 1").value(), 3u);
}

TEST(RecoveryTest, TornFinalRecordDropsOnlyTheUncommittedOperation) {
  AttributeRegistry attrs;
  storage::FaultInjectingVfs vfs;
  const RecoveryConfig config{EngineKind::NonCanonical, 1};
  const std::string path = storage::journal_path("store");
  std::string prefix;  // durable journal up to and including "x > 1"
  {
    auto live = make_broker(attrs, config, vfs);
    const SubscriberId alice = live->register_subscriber([](const auto&) {});
    (void)live->subscribe(alice, "x > 1");
    prefix = vfs.durable_contents(path);
    (void)live->subscribe(alice, "y > 2");
  }
  const std::string full = vfs.durable_contents(path);
  ASSERT_GT(full.size(), prefix.size());

  // Cut at every byte inside the final record: recovery must land exactly
  // on the clean prefix — the uncommitted operation is dropped, the ones
  // before it survive untouched.
  for (std::size_t cut = prefix.size(); cut < full.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    vfs.set_durable_contents(path, full.substr(0, cut));
    auto recovered = make_broker(attrs, config, vfs);
    ASSERT_EQ(recovered->subscription_count(), 1u);
    const SubscriberId alice = recovered->subscriber_ids().at(0);
    const auto subs = recovered->subscriptions_of(alice);
    ASSERT_EQ(subs.size(), 1u);
    EXPECT_EQ(recovered->subscription_text(subs[0]), "x > 1");
    // The torn tail was truncated on open; appending must work again.
    (void)recovered->subscribe(alice, "repaired > 0");
    auto again = make_broker(attrs, config, vfs);
    expect_same_state(*recovered, *again);
    vfs.set_durable_contents(path, full);  // restore for the next cut
  }
}

TEST(RecoveryTest, CrashDuringRecoveryReplaysIdempotently) {
  AttributeRegistry attrs;
  storage::FaultInjectingVfs vfs;
  const RecoveryConfig config{EngineKind::NonCanonical, 2};
  {
    auto live = make_broker(attrs, config, vfs);
    const SubscriberId alice = live->register_subscriber([](const auto&) {});
    (void)live->subscribe(alice, "x > 1");
    live->checkpoint();
    (void)live->subscribe(alice, "y > 2");  // journal tail past the snapshot
  }
  // Leave a torn tail so recovery itself performs a write (the repair
  // truncation) — then crash exactly there and recover again: the second
  // recovery replays the same snapshot + records from scratch.
  const std::string path = storage::journal_path("store");
  vfs.set_durable_contents(path, vfs.durable_contents(path) + "\x40\x00");
  vfs.crash_at_boundary(vfs.boundary_count() + 1);
  EXPECT_THROW(make_broker(attrs, config, vfs), storage::SimulatedCrash);
  vfs.restart();
  auto recovered = make_broker(attrs, config, vfs);
  EXPECT_EQ(recovered->subscription_count(), 2u);
  const SubscriberId alice = recovered->subscriber_ids().at(0);
  const auto subs = recovered->subscriptions_of(alice);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(recovered->subscription_text(subs[0]), "x > 1");
  EXPECT_EQ(recovered->subscription_text(subs[1]), "y > 2");
}

TEST(RecoveryTest, FreshDirectoryStartsEmptyAndMagicOnlyJournalIsClean) {
  AttributeRegistry attrs;
  storage::FaultInjectingVfs vfs;
  const RecoveryConfig config{EngineKind::NonCanonical, 1};
  {
    auto broker = make_broker(attrs, config, vfs);
    EXPECT_EQ(broker->subscription_count(), 0u);
    EXPECT_EQ(broker->subscriber_count(), 0u);
    EXPECT_EQ(broker->journal_sequence(), 0u);
  }
  // The first broker wrote no durable journal bytes (the magic rides with
  // the first commit); reopening the directory is clean either way, and a
  // magic-only journal — left by a checkpoint — reopens clean too.
  {
    auto broker = make_broker(attrs, config, vfs);
    EXPECT_EQ(broker->subscription_count(), 0u);
    broker->checkpoint();  // journal reset leaves a durable magic-only file
  }
  EXPECT_FALSE(vfs.durable_contents(storage::journal_path("store")).empty());
  auto broker = make_broker(attrs, config, vfs);
  EXPECT_EQ(broker->subscription_count(), 0u);
}

TEST(RecoveryTest, MismatchedConfigurationIsRejected) {
  AttributeRegistry attrs;
  storage::FaultInjectingVfs vfs;
  {
    auto live = make_broker(attrs, {EngineKind::NonCanonical, 2}, vfs);
    const SubscriberId alice = live->register_subscriber([](const auto&) {});
    (void)live->subscribe(alice, "x > 1");
    live->checkpoint();
  }
  EXPECT_THROW(make_broker(attrs, {EngineKind::Counting, 2}, vfs),
               StorageError);
  EXPECT_THROW(make_broker(attrs, {EngineKind::NonCanonical, 4}, vfs),
               StorageError);
}

TEST(RecoveryTest, AttributeIdsRemapAcrossRegistries) {
  for (const EngineKind engine :
       {EngineKind::NonCanonical, EngineKind::Counting}) {
    SCOPED_TRACE(static_cast<int>(engine));
    storage::FaultInjectingVfs vfs;
    BrokerOptions options;
    options.engine = engine;
    options.storage = storage::StorageOptions{.enabled = true,
                                              .directory = "store",
                                              .sync_on_commit = true,
                                              .vfs = &vfs};
    AttributeRegistry attrs_a;
    {
      Broker live(attrs_a, options);
      const SubscriberId alice = live.register_subscriber([](const auto&) {});
      (void)live.subscribe(alice, "price > 10 and symbol == \"ACME\"");
      (void)live.subscribe(alice, "volume exists or price < 2");
      live.checkpoint();
    }
    // A registry with different numeric ids for the same names: recovery
    // must remap through the snapshot's attribute dictionary.
    AttributeRegistry attrs_b;
    for (const char* extra : {"zz0", "zz1", "zz2", "zz3", "zz4"}) {
      (void)attrs_b.intern(extra);
    }
    Broker recovered(attrs_b, options);
    ASSERT_EQ(recovered.subscription_count(), 2u);
    std::vector<Delivery> log;
    recovered.reattach_subscriber(recovered.subscriber_ids().at(0),
                                  [&log](const Notification& n) {
                                    log.emplace_back(n.subscriber.value(),
                                                     n.subscription.value());
                                  });
    const Event hit = EventBuilder(attrs_b)
                          .set("price", 20)
                          .set("symbol", "ACME")
                          .build();
    EXPECT_EQ(recovered.publish(hit), 1u);
    const Event hit2 = EventBuilder(attrs_b).set("volume", 1).build();
    EXPECT_EQ(recovered.publish(hit2), 1u);
    const Event miss = EventBuilder(attrs_b)
                           .set("price", 5)
                           .set("symbol", "OTHER")
                           .build();
    EXPECT_EQ(recovered.publish(miss), 0u);
    EXPECT_EQ(log.size(), 2u);
  }
}

TEST(RecoveryTest, UnregisterSubscriberRecoversAsOneOperation) {
  AttributeRegistry attrs;
  storage::FaultInjectingVfs vfs;
  const RecoveryConfig config{EngineKind::NonCanonical, 2};
  auto live = make_broker(attrs, config, vfs);
  const SubscriberId alice = live->register_subscriber([](const auto&) {});
  const SubscriberId bob = live->register_subscriber([](const auto&) {});
  (void)live->subscribe(alice, "a > 1");
  (void)live->subscribe(alice, "b > 1");
  (void)live->subscribe(bob, "c > 1");
  live->unregister_subscriber(alice);

  auto recovered = make_broker(attrs, config, vfs);
  expect_same_state(*live, *recovered);
  EXPECT_EQ(recovered->subscriber_ids(), std::vector<SubscriberId>{bob});
  EXPECT_EQ(recovered->subscription_count(), 1u);
}

// Thread-sanitised: checkpoints racing control operations and publishes.
// The checkpoint fence (publish + control + shard locks, fences asserted
// caught up) must neither deadlock nor snapshot a shard that still lags
// its command queue — and the final recovery must see a consistent state.
TEST(RecoveryTest, CheckpointUnderConcurrentLoadThenRecover) {
  AttributeRegistry attrs;
  storage::FaultInjectingVfs vfs;
  const RecoveryConfig config{EngineKind::NonCanonical, 4};
  auto live = make_broker(attrs, config, vfs);
  std::atomic<std::size_t> delivered{0};
  const SubscriberId alice = live->register_subscriber(
      [&delivered](const auto&) { delivered.fetch_add(1); });

  std::vector<Event> events;
  for (int i = 0; i < 8; ++i) {
    events.push_back(EventBuilder(attrs).set("x", i).set("y", i * 3).build());
  }

  std::thread publisher([&] {
    for (int i = 0; i < 60; ++i) (void)live->publish_batch(events);
  });
  std::thread control([&] {
    std::vector<SubscriptionId> mine;
    for (int i = 0; i < 120; ++i) {
      if (i % 3 != 2) {
        mine.push_back(
            live->subscribe(alice, "x > " + std::to_string(i % 7)));
      } else if (!mine.empty()) {
        ASSERT_TRUE(live->unsubscribe(mine.back()));
        mine.pop_back();
      }
    }
  });
  for (int i = 0; i < 10; ++i) live->checkpoint();
  publisher.join();
  control.join();
  live->checkpoint();

  auto recovered = make_broker(attrs, config, vfs);
  expect_same_state(*live, *recovered);
}

}  // namespace
}  // namespace ncps
