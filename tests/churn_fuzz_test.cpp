// Differential churn fuzzing: seeded random interleavings of subscribe /
// unsubscribe / publish, replayed in lockstep against every engine kind ×
// shard count configuration. All configurations must hand out identical
// subscription ids and produce the identical notification multiset for
// every published event; after unsubscribing everything, every shard's
// engine and predicate table must be empty (catching refcount leaks and
// free-list reuse bugs).
//
// A second suite exercises the concurrent control plane: control threads
// subscribe/unsubscribe while a publisher thread pushes batches, and the
// post-quiesce broker must be observationally identical to a sequentially
// built broker holding the same surviving subscriptions. A third checks
// the unsubscribe fence: after quiesce(), a removed subscription must
// never be notified again, no matter how hard the publisher pumps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "broker/sharded_broker.h"
#include "workload/churn_workload.h"

namespace ncps {
namespace {

using Delivery = std::tuple<std::uint32_t, std::uint32_t>;  // owner, sub id

/// One broker configuration under differential test.
struct Config {
  EngineKind engine;
  std::size_t shards;

  [[nodiscard]] std::string label() const {
    return std::string(to_string(engine)) + "/shards=" +
           std::to_string(shards);
  }
};

const Config kConfigs[] = {
    {EngineKind::NonCanonical, 1},     {EngineKind::NonCanonical, 4},
    {EngineKind::NonCanonicalTree, 1}, {EngineKind::NonCanonicalTree, 4},
    {EngineKind::Counting, 1},         {EngineKind::Counting, 4},
    {EngineKind::CountingVariant, 1},  {EngineKind::CountingVariant, 4},
};

struct Harness {
  explicit Harness(AttributeRegistry& attrs, const Config& config)
      : broker(std::make_unique<ShardedBroker>(
            attrs,
            ShardedBrokerConfig{.shard_count = config.shards,
                                .engine = config.engine})) {}

  SubscriberId session() {
    return broker->register_subscriber([this](const Notification& n) {
      log.emplace_back(n.subscriber.value(), n.subscription.value());
    });
  }

  std::unique_ptr<ShardedBroker> broker;
  std::vector<Delivery> log;
};

TEST(ChurnFuzzTest, DifferentialInterleavingsAcrossConfigurations) {
  for (const std::uint64_t seed : {0x101u, 0x202u, 0x303u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));

    AttributeRegistry attrs;
    ChurnWorkloadConfig config;
    config.target_population = 40;
    config.churn_rate = 0.35;
    config.subscriber_count = 3;
    config.base_lifetime_events = 8;
    config.lifetime_ranks = 16;
    config.subscriptions.attribute_count = 10;
    config.subscriptions.domain_size = 1000;  // high match probability
    config.seed = seed;
    ChurnWorkload workload(config, attrs);

    std::vector<std::unique_ptr<Harness>> harnesses;
    for (const Config& c : kConfigs) {
      harnesses.push_back(std::make_unique<Harness>(attrs, c));
    }
    std::vector<std::vector<SubscriberId>> sessions(harnesses.size());
    for (std::size_t h = 0; h < harnesses.size(); ++h) {
      for (std::size_t i = 0; i < config.subscriber_count; ++i) {
        sessions[h].push_back(harnesses[h]->session());
      }
    }

    // Handle → subscription id; identical across configurations by the id
    // lockstep assertion below, so one map serves all.
    std::unordered_map<std::uint64_t, SubscriptionId> by_handle;

    const auto apply_subscribe = [&](const ChurnWorkload::Op& op) {
      SubscriptionId expected = SubscriptionId::invalid();
      for (std::size_t h = 0; h < harnesses.size(); ++h) {
        const SubscriptionId id = harnesses[h]->broker->subscribe(
            sessions[h][op.subscriber], op.text);
        if (h == 0) {
          expected = id;
        } else {
          ASSERT_EQ(id, expected)
              << "id allocation diverged on " << kConfigs[h].label()
              << " at handle " << op.handle;
        }
      }
      by_handle.emplace(op.handle, expected);
    };

    const auto apply_unsubscribe = [&](std::uint64_t handle) {
      const SubscriptionId id = by_handle.at(handle);
      by_handle.erase(handle);
      for (std::size_t h = 0; h < harnesses.size(); ++h) {
        ASSERT_TRUE(harnesses[h]->broker->unsubscribe(id))
            << kConfigs[h].label() << " lost handle " << handle;
      }
    };

    std::size_t events = 0;
    while (events < 150) {
      ChurnWorkload::Op op = workload.next();
      switch (op.kind) {
        case ChurnWorkload::Op::Kind::Subscribe:
          apply_subscribe(op);
          break;
        case ChurnWorkload::Op::Kind::Unsubscribe:
          apply_unsubscribe(op.handle);
          break;
        case ChurnWorkload::Op::Kind::Publish: {
          ++events;
          std::vector<Delivery> expected;
          for (std::size_t h = 0; h < harnesses.size(); ++h) {
            harnesses[h]->log.clear();
            harnesses[h]->broker->publish(op.event);
            std::sort(harnesses[h]->log.begin(), harnesses[h]->log.end());
            if (h == 0) {
              expected = harnesses[h]->log;
            } else {
              ASSERT_EQ(harnesses[h]->log, expected)
                  << "notification multiset diverged on "
                  << kConfigs[h].label() << " at event " << events;
            }
          }
          break;
        }
      }
    }

    // Teardown: unsubscribe every survivor; all state must drain to empty.
    for (const std::uint64_t handle : workload.live_handles()) {
      apply_unsubscribe(handle);
    }
    for (std::size_t h = 0; h < harnesses.size(); ++h) {
      ShardedBroker& broker = *harnesses[h]->broker;
      EXPECT_EQ(broker.subscription_count(), 0u) << kConfigs[h].label();
      for (std::size_t s = 0; s < broker.shard_count(); ++s) {
        EXPECT_EQ(broker.shard_subscription_count(s), 0u)
            << kConfigs[h].label() << " shard " << s;
        EXPECT_EQ(broker.shard_engine(s).predicate_table().size(), 0u)
            << kConfigs[h].label() << " shard " << s
            << " leaked predicate references";
      }
      harnesses[h]->log.clear();
      // A drained broker must deliver nothing.
      EXPECT_EQ(broker.publish(EventBuilder(attrs).set("attr0", 1).build()),
                0u)
          << kConfigs[h].label();
    }
  }
}

// Zipf-skewed *duplicate* subscriptions: most subscribes reuse one of a few
// hot texts, so the forest-backed non-canonical engine runs with root
// refcounts in the hundreds while churn constantly attaches and detaches
// subscriptions from shared DAG nodes. Run in lockstep against the counting
// engine and the unshared tree engine: a refcount bug (premature node free,
// leaked root, stale chain link) surfaces as a notification-multiset
// divergence or a non-empty teardown.
void run_duplicate_lockstep(std::span<const Config> configs,
                            std::span<const std::uint64_t> seeds,
                            double commute_probability) {
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));

    AttributeRegistry attrs;
    ChurnWorkloadConfig config;
    config.target_population = 60;
    config.churn_rate = 0.5;  // heavy churn across the shared roots
    config.subscriber_count = 3;
    config.base_lifetime_events = 6;
    config.lifetime_ranks = 16;
    config.duplicate_probability = 0.8;  // structural overlap dominates
    config.duplicate_skew = 1.2;
    config.duplicate_pool_size = 12;
    config.commute_probability = commute_probability;
    config.subscriptions.attribute_count = 10;
    config.subscriptions.domain_size = 1000;
    config.seed = seed;
    ChurnWorkload workload(config, attrs);

    std::vector<std::unique_ptr<Harness>> harnesses;
    for (const Config& c : configs) {
      harnesses.push_back(std::make_unique<Harness>(attrs, c));
    }
    std::vector<std::vector<SubscriberId>> sessions(harnesses.size());
    for (std::size_t h = 0; h < harnesses.size(); ++h) {
      for (std::size_t i = 0; i < config.subscriber_count; ++i) {
        sessions[h].push_back(harnesses[h]->session());
      }
    }

    std::unordered_map<std::uint64_t, SubscriptionId> by_handle;
    std::size_t events = 0;
    while (events < 200) {
      ChurnWorkload::Op op = workload.next();
      switch (op.kind) {
        case ChurnWorkload::Op::Kind::Subscribe: {
          SubscriptionId expected = SubscriptionId::invalid();
          for (std::size_t h = 0; h < harnesses.size(); ++h) {
            const SubscriptionId id = harnesses[h]->broker->subscribe(
                sessions[h][op.subscriber], op.text);
            if (h == 0) {
              expected = id;
            } else {
              ASSERT_EQ(id, expected) << configs[h].label();
            }
          }
          by_handle.emplace(op.handle, expected);
          break;
        }
        case ChurnWorkload::Op::Kind::Unsubscribe: {
          const SubscriptionId id = by_handle.at(op.handle);
          by_handle.erase(op.handle);
          for (std::size_t h = 0; h < harnesses.size(); ++h) {
            ASSERT_TRUE(harnesses[h]->broker->unsubscribe(id))
                << configs[h].label();
          }
          break;
        }
        case ChurnWorkload::Op::Kind::Publish: {
          ++events;
          std::vector<Delivery> expected;
          for (std::size_t h = 0; h < harnesses.size(); ++h) {
            harnesses[h]->log.clear();
            harnesses[h]->broker->publish(op.event);
            std::sort(harnesses[h]->log.begin(), harnesses[h]->log.end());
            if (h == 0) {
              expected = harnesses[h]->log;
            } else {
              ASSERT_EQ(harnesses[h]->log, expected)
                  << "diverged on " << configs[h].label() << " at event "
                  << events;
            }
          }
          break;
        }
      }
    }

    // Teardown: every engine, table and forest must drain to empty.
    for (const std::uint64_t handle : workload.live_handles()) {
      const SubscriptionId id = by_handle.at(handle);
      by_handle.erase(handle);
      for (std::size_t h = 0; h < harnesses.size(); ++h) {
        ASSERT_TRUE(harnesses[h]->broker->unsubscribe(id));
      }
    }
    for (std::size_t h = 0; h < harnesses.size(); ++h) {
      ShardedBroker& broker = *harnesses[h]->broker;
      EXPECT_EQ(broker.subscription_count(), 0u) << configs[h].label();
      for (std::size_t s = 0; s < broker.shard_count(); ++s) {
        EXPECT_EQ(broker.shard_engine(s).predicate_table().size(), 0u)
            << configs[h].label() << " shard " << s
            << " leaked predicate references";
      }
    }
  }
}

TEST(ChurnFuzzTest, ZipfDuplicateSubscriptionsStayInLockstep) {
  const Config duplicate_configs[] = {
      {EngineKind::NonCanonical, 1},
      {EngineKind::NonCanonical, 4},
      {EngineKind::NonCanonicalTree, 1},
      {EngineKind::Counting, 1},
  };
  const std::uint64_t seeds[] = {0x811u, 0x922u};
  run_duplicate_lockstep(duplicate_configs, seeds,
                         /*commute_probability=*/0.0);
}

// The same heavy-duplication churn, but most duplicates arrive *commuted*
// (AND/OR children re-shuffled). The forest shares them by identity, the
// tree and counting engines not at all — any divergence in notification
// multisets or teardown emptiness pins a sharing bug (wrong canonical
// order, recycled slot) to the one configuration that disagrees.
TEST(ChurnFuzzTest, CommutedDuplicatesStayInLockstep) {
  const Config commuted_configs[] = {
      {EngineKind::NonCanonical, 1},
      {EngineKind::NonCanonical, 4},
      {EngineKind::NonCanonicalTree, 1},
      {EngineKind::NonCanonicalTree, 4},
      {EngineKind::Counting, 1},
      {EngineKind::Counting, 4},
  };
  const std::uint64_t seeds[] = {0xa31u, 0xb42u};
  run_duplicate_lockstep(commuted_configs, seeds,
                         /*commute_probability=*/0.75);
}

// ---- Concurrent churn --------------------------------------------------

/// The full pre-generated stream (events + control ops paced against the
/// publisher's progress), plus enough bookkeeping to rebuild the surviving
/// subscription set sequentially.
struct Script {
  struct Sub {
    std::uint64_t handle;
    std::size_t subscriber;
    std::string text;
  };
  std::vector<Sub> warmup;
  std::vector<Event> events;
  struct PacedOp {
    std::uint64_t after_event;
    bool subscribe;
    Sub sub;             // subscribe
    std::uint64_t victim = 0;  // unsubscribe
  };
  std::vector<PacedOp> control;
};

Script generate_script(AttributeRegistry& attrs, std::uint64_t seed) {
  ChurnWorkloadConfig config;
  config.target_population = 50;
  config.churn_rate = 0.3;
  config.subscriber_count = 3;
  config.base_lifetime_events = 16;
  config.subscriptions.attribute_count = 10;
  config.subscriptions.domain_size = 1000;
  config.seed = seed;
  ChurnWorkload workload(config, attrs);

  Script script;
  while (script.events.size() < 600) {
    ChurnWorkload::Op op = workload.next();
    switch (op.kind) {
      case ChurnWorkload::Op::Kind::Publish:
        script.events.push_back(std::move(op.event));
        break;
      case ChurnWorkload::Op::Kind::Subscribe: {
        Script::Sub sub{op.handle, op.subscriber, std::move(op.text)};
        if (workload.event_clock() == 0) {
          script.warmup.push_back(std::move(sub));
        } else {
          script.control.push_back(Script::PacedOp{
              workload.event_clock(), true, std::move(sub), 0});
        }
        break;
      }
      case ChurnWorkload::Op::Kind::Unsubscribe:
        script.control.push_back(
            Script::PacedOp{workload.event_clock(), false, {}, op.handle});
        break;
    }
  }
  return script;
}

TEST(ConcurrentChurnTest, PostQuiesceStateMatchesSequentialReplay) {
  AttributeRegistry attrs;
  const Script script = generate_script(attrs, 0xfade);

  ShardedBroker broker(attrs, ShardedBrokerConfig{
                                  .shard_count = 4,
                                  .engine = EngineKind::NonCanonical});
  // Deliveries during the concurrent phase are only counted (their content
  // is timing-dependent); correctness is judged post-quiesce.
  std::atomic<std::size_t> concurrent_notifications{0};
  std::vector<Delivery> probe_log;
  std::atomic<bool> probing{false};
  std::vector<SubscriberId> sessions;
  for (std::size_t i = 0; i < 3; ++i) {
    sessions.push_back(
        broker.register_subscriber([&](const Notification& n) {
          if (probing.load(std::memory_order_relaxed)) {
            probe_log.emplace_back(n.subscriber.value(),
                                   n.subscription.value());
          } else {
            concurrent_notifications.fetch_add(1, std::memory_order_relaxed);
          }
        }));
  }

  std::unordered_map<std::uint64_t, SubscriptionId> by_handle;
  std::unordered_map<std::uint64_t, Script::Sub> live;
  std::vector<std::uint64_t> live_order;  // insertion order of live handles
  for (const Script::Sub& sub : script.warmup) {
    by_handle.emplace(sub.handle,
                      broker.subscribe(sessions[sub.subscriber], sub.text));
    live.emplace(sub.handle, sub);
    live_order.push_back(sub.handle);
  }

  std::atomic<std::uint64_t> published{0};
  std::thread control([&] {
    for (const Script::PacedOp& paced : script.control) {
      while (published.load(std::memory_order_acquire) < paced.after_event) {
        std::this_thread::yield();
      }
      if (paced.subscribe) {
        by_handle.emplace(
            paced.sub.handle,
            broker.subscribe(sessions[paced.sub.subscriber], paced.sub.text));
        live.emplace(paced.sub.handle, paced.sub);
        live_order.push_back(paced.sub.handle);
      } else {
        ASSERT_TRUE(broker.unsubscribe(by_handle.at(paced.victim)));
        by_handle.erase(paced.victim);
        live.erase(paced.victim);
      }
    }
  });

  constexpr std::size_t kBatch = 16;
  for (std::size_t off = 0; off + kBatch <= script.events.size();
       off += kBatch) {
    broker.publish_batch(
        std::span<const Event>(script.events.data() + off, kBatch));
    published.fetch_add(kBatch, std::memory_order_release);
  }
  published.store(script.events.size() + 1, std::memory_order_release);
  control.join();
  broker.quiesce();

  // Sequential replay of the survivors into a fresh broker.
  ShardedBroker reference(attrs, ShardedBrokerConfig{
                                     .shard_count = 1,
                                     .engine = EngineKind::NonCanonical});
  std::vector<Delivery> reference_log;
  std::vector<SubscriberId> reference_sessions;
  for (std::size_t i = 0; i < 3; ++i) {
    reference_sessions.push_back(
        reference.register_subscriber([&](const Notification& n) {
          reference_log.emplace_back(n.subscriber.value(),
                                     n.subscription.value());
        }));
  }
  std::unordered_map<std::uint64_t, SubscriptionId> reference_by_handle;
  for (const std::uint64_t handle : live_order) {
    const auto it = live.find(handle);
    if (it == live.end()) continue;  // unsubscribed during the run
    reference_by_handle.emplace(
        handle, reference.subscribe(reference_sessions[it->second.subscriber],
                                    it->second.text));
  }
  ASSERT_EQ(broker.subscription_count(), reference.subscription_count());

  // Probe: both brokers must notify the same (owner, handle) multiset for
  // the same events. Ids differ (allocation interleaved with publishing on
  // the concurrent broker), so compare through the handle maps.
  const auto to_handles =
      [](const std::vector<Delivery>& log,
         const std::unordered_map<std::uint64_t, SubscriptionId>& handles) {
        std::vector<std::pair<std::uint32_t, std::uint64_t>> result;
        for (const auto& [owner, sub] : log) {
          for (const auto& [handle, id] : handles) {
            if (id.value() == sub) {
              result.emplace_back(owner, handle);
              break;
            }
          }
        }
        std::sort(result.begin(), result.end());
        return result;
      };

  probing.store(true);
  for (std::size_t e = 0; e < 20; ++e) {
    probe_log.clear();
    reference_log.clear();
    const std::size_t delivered = broker.publish(script.events[e]);
    const std::size_t expected = reference.publish(script.events[e]);
    ASSERT_EQ(delivered, expected) << "probe event " << e;
    ASSERT_EQ(to_handles(probe_log, by_handle),
              to_handles(reference_log, reference_by_handle))
        << "probe event " << e;
  }
}

TEST(ConcurrentChurnTest, QuiesceFencesUnsubscribedSubscription) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs, ShardedBrokerConfig{
                                  .shard_count = 2,
                                  .engine = EngineKind::NonCanonical});

  // The fenced subscription matches every event; `fenced_id` + `fenced` are
  // only examined by the callback (publisher thread) after the control
  // thread has published them via the release store to `fenced`.
  std::atomic<std::uint32_t> fenced_id{SubscriptionId::invalid().value()};
  std::atomic<bool> fenced{false};
  std::atomic<std::size_t> violations{0};
  std::atomic<std::size_t> matched{0};
  const SubscriberId session = broker.register_subscriber(
      [&](const Notification& n) {
        matched.fetch_add(1, std::memory_order_relaxed);
        if (fenced.load(std::memory_order_acquire) &&
            n.subscription.value() ==
                fenced_id.load(std::memory_order_relaxed)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      });

  const Event event = EventBuilder(attrs).set("attr0", 7).build();
  std::vector<Event> batch(8, event);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      broker.publish_batch(std::span<const Event>(batch.data(), batch.size()));
    }
  });

  for (int round = 0; round < 50; ++round) {
    fenced.store(false, std::memory_order_release);
    const SubscriptionId id = broker.subscribe(session, "attr0 exists");
    fenced_id.store(id.value(), std::memory_order_relaxed);
    // Passive fence first (the publisher's draining advances it), then the
    // full barrier; afterwards the subscription must be silent forever.
    ASSERT_TRUE(broker.unsubscribe(id));
    broker.wait_applied(broker.control_generation());
    broker.quiesce();
    fenced.store(true, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  publisher.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(broker.subscription_count(), 0u);
}

TEST(ChurnWorkloadTest, RatesAtOrAboveOneStillPublish) {
  AttributeRegistry attrs;
  ChurnWorkloadConfig config;
  config.target_population = 10;
  config.churn_rate = 2.0;  // two control ops per event
  config.seed = 0x77;
  ChurnWorkload workload(config, attrs);

  std::size_t publishes = 0;
  std::size_t control = 0;
  for (int i = 0; i < 600; ++i) {
    const ChurnWorkload::Op op = workload.next();
    if (op.kind == ChurnWorkload::Op::Kind::Publish) {
      ++publishes;
    } else if (workload.event_clock() > 0) {  // skip warm-up fill
      ++control;
    }
  }
  ASSERT_GT(publishes, 100u);
  // Long-run ratio must track the configured rate.
  EXPECT_NEAR(static_cast<double>(control) / static_cast<double>(publishes),
              2.0, 0.1);
}

TEST(ChurnFuzzTest, ParseAndCanonicalizationErrorsAreSynchronous) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs, ShardedBrokerConfig{
                                  .shard_count = 2,
                                  .engine = EngineKind::Counting});
  const SubscriberId session =
      broker.register_subscriber([](const Notification&) {});
  EXPECT_THROW((void)broker.subscribe(session, "x >"), ParseError);
  EXPECT_EQ(broker.subscription_count(), 0u);
  // Ids stay dense after the failed attempts.
  const SubscriptionId first = broker.subscribe(session, "x > 1");
  EXPECT_EQ(first.value(), 0u);
  EXPECT_EQ(broker.publish(EventBuilder(attrs).set("x", 5).build()), 1u);
}

}  // namespace
}  // namespace ncps
