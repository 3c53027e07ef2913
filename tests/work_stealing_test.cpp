// Work-stealing match scheduler tests.
//
// Three layers. (1) WorkStealingPool unit tests: every index runs exactly
// once, exceptions propagate and the pool survives them, a pool with no
// spawned threads runs everything on its caller, and forced imbalance
// actually produces steals. (2) Scheduler-equivalence property
// tests: the same subscription/event script must yield byte-identical
// notification *sequences* on the seed Broker and on ShardedBrokers across
// every scheduler axis — worker count, chunk size (batch sizes chosen so
// adaptive chunking yields 1-, 3- and whole-batch chunks), one task per
// shard (a single worker), spread vs subscriber-affine placement — because
// the deterministic merge promises order independent of steal
// interleaving. A churn variant interleaves control ops with batches.
// (3) A TSan-targeted concurrent-reader test: workers (or, on the seed
// shape, the publishing thread) match one shard's engine as epoch-pinned
// lock-free readers while a control thread churns subscriptions
// concurrently; run under the sanitizer CI job this certifies the const
// match path plus the epoch write gate (epoch_churn_test covers the
// churn-during-match races in depth).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "broker/broker.h"
#include "broker/sharded_broker.h"
#include "common/random.h"
#include "common/work_stealing_pool.h"
#include "subscription/printer.h"
#include "test_util.h"
#include "workload/churn_workload.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

// ---- WorkStealingPool -------------------------------------------------

TEST(WorkStealingPoolTest, RunsEveryIndexExactlyOnceAndIsReusable) {
  WorkStealingPool pool(4);
  for (int round = 0; round < 3; ++round) {
    constexpr std::size_t kCount = 203;  // not a multiple of the worker count
    std::vector<std::atomic<int>> hits(kCount);
    const WorkStealingPool::RunStats run = pool.run_tasks(
        kCount, [&](std::size_t task, std::size_t worker) {
          ASSERT_LT(task, kCount);
          ASSERT_LT(worker, pool.thread_count());
          hits[task].fetch_add(1, std::memory_order_relaxed);
        });
    EXPECT_EQ(run.tasks, kCount);
    for (std::size_t t = 0; t < kCount; ++t) {
      EXPECT_EQ(hits[t].load(), 1) << "task " << t << " round " << round;
    }
  }
  EXPECT_EQ(pool.run_tasks(0, [](std::size_t, std::size_t) {}).tasks, 0u);
}

TEST(WorkStealingPoolTest, PropagatesTaskExceptionAndStaysUsable) {
  WorkStealingPool pool(3);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      pool.run_tasks(64,
                     [&](std::size_t task, std::size_t) {
                       ran.fetch_add(1, std::memory_order_relaxed);
                       if (task == 17) throw std::runtime_error("boom");
                     }),
      std::runtime_error);
  // Remaining tasks still ran; the next run is clean.
  EXPECT_EQ(ran.load(), 64u);
  std::atomic<std::size_t> again{0};
  pool.run_tasks(10, [&](std::size_t, std::size_t) {
    again.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(again.load(), 10u);
}

TEST(WorkStealingPoolTest, ZeroSpawnedWorkersRunsEverythingOnTheCaller) {
  WorkStealingPool pool(0);
  ASSERT_EQ(pool.thread_count(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::size_t kCount = 37;
  std::vector<int> hits(kCount, 0);  // one thread: plain ints suffice
  const WorkStealingPool::RunStats run =
      pool.run_tasks(kCount, [&](std::size_t task, std::size_t worker) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(worker, 0u);
        EXPECT_EQ(worker, pool.thread_count() - 1);
        ++hits[task];
      });
  EXPECT_EQ(run.tasks, kCount);
  EXPECT_EQ(run.steals, 0u);
  for (std::size_t t = 0; t < kCount; ++t) EXPECT_EQ(hits[t], 1) << t;

  std::size_t ran = 0;
  EXPECT_THROW(pool.run_tasks(8,
                              [&](std::size_t task, std::size_t) {
                                ++ran;
                                if (task == 3) throw std::runtime_error("x");
                              }),
               std::runtime_error);
  EXPECT_EQ(ran, 8u);
  std::size_t again = 0;
  pool.run_tasks(5, [&](std::size_t, std::size_t) { ++again; });
  EXPECT_EQ(again, 5u);
  const std::vector<WorkStealingPool::WorkerSample> samples =
      pool.sample_workers();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].tasks, kCount + 8 + 5);
}

TEST(WorkStealingPoolTest, ImbalancedLoadIsStolen) {
  WorkStealingPool pool(4);  // four spawned workers plus the caller
  const std::size_t slots = pool.thread_count();
  const std::size_t count = slots * 8;
  const std::size_t per = count / slots;  // worker 0 owns [0, per)
  // Worker 0's slice blocks until every other slice has finished, so its
  // deque still holds tasks when the other workers (the caller among them)
  // go idle — they must steal. Stolen "heavy" tasks unblock as soon as the
  // trivial count is reached, so the test cannot deadlock even on one
  // hardware thread.
  std::atomic<std::size_t> trivial_done{0};
  const WorkStealingPool::RunStats run = pool.run_tasks(
      count, [&](std::size_t task, std::size_t) {
        if (task < per) {
          while (trivial_done.load(std::memory_order_acquire) <
                 count - per) {
            std::this_thread::yield();
          }
        } else {
          trivial_done.fetch_add(1, std::memory_order_release);
        }
      });
  EXPECT_EQ(run.tasks, count);
  EXPECT_GE(run.steals, 1u);
  EXPECT_GE(pool.total_steals(), run.steals);
  // Telemetry sampling sees the work.
  std::uint64_t sampled_tasks = 0;
  for (const WorkStealingPool::WorkerSample& s : pool.sample_workers()) {
    sampled_tasks += s.tasks;
    EXPECT_EQ(s.queued, 0u);
  }
  EXPECT_EQ(sampled_tasks, count);
}

// ---- Scheduler equivalence ---------------------------------------------

using Delivery = std::tuple<std::uint32_t, std::uint32_t, std::size_t>;

/// One broker under test plus its recorded notification stream (the same
/// harness idiom as sharded_broker_test.cpp).
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

/// One point on the scheduler axes.
struct SchedulerConfig {
  std::size_t shards;
  std::size_t workers;
  ShardPlacement placement = ShardPlacement::kSpread;

  [[nodiscard]] std::string label() const {
    return "shards=" + std::to_string(shards) +
           "/workers=" + std::to_string(workers) +
           (placement == ShardPlacement::kSubscriberAffine ? "/affine" : "");
  }

  [[nodiscard]] ShardedBrokerConfig broker_config(EngineKind kind) const {
    return ShardedBrokerConfig{.shard_count = shards,
                               .engine = kind,
                               .worker_threads = workers,
                               .placement = placement};
  }
};

// Every scheduler axis: many workers per shard (concurrent readers), more
// shards than workers (one spawned worker beside the publishing thread over
// eight shards: two tasks per shard; single-event publishes run one task
// per shard, the pre-work-stealing shape), and affine placement (skewed
// shards). `workers` counts spawned threads; the publisher matches too.
// Adaptive chunking gives ceil(batch / 20) events per chunk on
// {2 shards, 4 workers} and ceil(batch / 6) on {4 shards, 2 workers}, so
// the 12-event batch below runs single-event chunks (maximal interleaving
// freedom) on the first and 2-event chunks on the second.
const SchedulerConfig kSchedulerConfigs[] = {
    {.shards = 1, .workers = 4},
    {.shards = 2, .workers = 4},
    {.shards = 4, .workers = 2},
    {.shards = 4, .workers = 4},
    {.shards = 8, .workers = 1},
    {.shards = 4,
     .workers = 4,
     .placement = ShardPlacement::kSubscriberAffine},
};

class SchedulerEquivalenceTest : public ::testing::TestWithParam<EngineKind> {
};

// The same script on the seed Broker and every scheduler configuration:
// identical subscription ids, and — because the merge is deterministic —
// byte-identical notification sequences for every batch, regardless of how
// chunks were dealt or stolen.
TEST_P(SchedulerEquivalenceTest, BatchSequencesMatchSeedBroker) {
  const EngineKind kind = GetParam();

  AttributeRegistry attrs;
  PredicateTable scratch;
  RandomWorkloadConfig config;
  config.rich_operators = true;
  config.not_probability = 0.2;
  config.attribute_presence = 1.0;
  config.seed = 0x9e11a;
  RandomWorkload workload(config, attrs, scratch);

  Broker reference(attrs, kind);
  Harness ref(reference);

  std::vector<std::unique_ptr<ShardedBroker>> brokers;
  std::vector<std::unique_ptr<Harness>> harnesses;
  for (const SchedulerConfig& c : kSchedulerConfigs) {
    brokers.push_back(
        std::make_unique<ShardedBroker>(attrs, c.broker_config(kind)));
    harnesses.push_back(std::make_unique<Harness>(*brokers.back()));
  }

  constexpr std::size_t kSubscribers = 4;
  std::vector<SubscriberId> sessions;  // identical ids across brokers
  for (std::size_t i = 0; i < kSubscribers; ++i) {
    sessions.push_back(ref.session());
    for (auto& h : harnesses) ASSERT_EQ(h->session(), sessions.back());
  }

  Pcg32 driver(0xabba, 11);
  std::vector<ast::Expr> exprs;  // keep predicate refs alive in `scratch`
  std::vector<SubscriptionId> live;
  const auto subscribe_some = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      exprs.push_back(workload.next_subscription());
      const std::string text =
          print_expression(exprs.back().root(), scratch, attrs);
      const SubscriberId owner = sessions[driver.bounded(kSubscribers)];
      const SubscriptionId id = reference.subscribe(owner, text);
      for (std::size_t h = 0; h < harnesses.size(); ++h) {
        ASSERT_EQ(harnesses[h]->broker->subscribe(owner, text), id)
            << "id diverged on " << kSchedulerConfigs[h].label();
      }
      live.push_back(id);
    }
  };

  const auto publish_batch_round = [&](std::size_t events) {
    std::vector<Event> batch;
    batch.reserve(events);
    for (std::size_t i = 0; i < events; ++i) {
      batch.push_back(workload.next_event());
    }
    ref.log.clear();
    ref.batch_base = batch.data();
    const std::size_t expected = reference.publish_batch(batch);
    ref.batch_base = nullptr;
    for (std::size_t h = 0; h < harnesses.size(); ++h) {
      Harness& shd = *harnesses[h];
      shd.log.clear();
      shd.batch_base = batch.data();
      const std::size_t delivered = shd.broker->publish_batch(batch);
      shd.batch_base = nullptr;
      EXPECT_EQ(delivered, expected) << kSchedulerConfigs[h].label();
      // Exact sequence, not just multiset: the deterministic merge must be
      // independent of chunking, stealing and placement.
      EXPECT_EQ(shd.log, ref.log)
          << "sequence diverged on " << kSchedulerConfigs[h].label();
    }
  };

  subscribe_some(48);
  publish_batch_round(37);  // odd size: last chunk is a partial one
  publish_batch_round(1);   // single-event batch: chunk_count == 1
  publish_batch_round(12);  // 1-event and 2-event chunks (see above)
  publish_batch_round(64);

  // Churn a third of the population, then publish again (id reuse and
  // removal must stay in lockstep under every scheduler).
  for (std::size_t i = 0; i < 16; ++i) {
    const std::size_t pick =
        driver.bounded(static_cast<std::uint32_t>(live.size()));
    const SubscriptionId victim = live[pick];
    live[pick] = live.back();
    live.pop_back();
    ASSERT_TRUE(reference.unsubscribe(victim));
    for (std::size_t h = 0; h < harnesses.size(); ++h) {
      ASSERT_TRUE(harnesses[h]->broker->unsubscribe(victim))
          << kSchedulerConfigs[h].label();
    }
  }
  subscribe_some(10);
  publish_batch_round(41);

  for (std::size_t h = 0; h < harnesses.size(); ++h) {
    EXPECT_EQ(harnesses[h]->broker->subscription_count(),
              reference.subscription_count())
        << kSchedulerConfigs[h].label();
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SchedulerEquivalenceTest,
                         ::testing::ValuesIn(kAllEngineKinds),
                         [](const auto& param_info) {
                           std::string name(to_string(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Churn-fuzz differential under the work-stealing scheduler: control ops
// interleaved with *batched* publishes (the scheduler's native shape), all
// configurations in lockstep. Complements churn_fuzz_test.cpp, which drives
// single-event publishes through the default scheduler.
TEST(WorkStealingChurnTest, BatchedChurnStaysInLockstep) {
  for (const std::uint64_t seed : {0x5151u, 0x6262u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));

    AttributeRegistry attrs;
    ChurnWorkloadConfig config;
    config.target_population = 40;
    config.churn_rate = 0.4;
    config.subscriber_count = 3;
    config.base_lifetime_events = 10;
    config.subscriptions.attribute_count = 10;
    config.subscriptions.domain_size = 1000;  // high match probability
    config.seed = seed;
    ChurnWorkload workload(config, attrs);

    // Batches hold at most 8 events, so {4 shards, 4 workers} — ten tasks
    // per shard over the five matching threads — matches single-event
    // chunks.
    const SchedulerConfig configs[] = {
        {.shards = 1, .workers = 1},  // seed broker, no pool
        {.shards = 1, .workers = 4},
        {.shards = 4, .workers = 4},
        {.shards = 8, .workers = 1},  // two tasks per shard
        {.shards = 4,
         .workers = 3,
         .placement = ShardPlacement::kSubscriberAffine},
    };
    std::vector<std::unique_ptr<ShardedBroker>> brokers;
    std::vector<std::unique_ptr<Harness>> harnesses;
    for (const SchedulerConfig& c : configs) {
      brokers.push_back(std::make_unique<ShardedBroker>(
          attrs, c.broker_config(EngineKind::NonCanonical)));
      harnesses.push_back(std::make_unique<Harness>(*brokers.back()));
    }
    std::vector<SubscriberId> sessions;
    for (std::size_t i = 0; i < config.subscriber_count; ++i) {
      sessions.push_back(harnesses[0]->session());
      for (std::size_t h = 1; h < harnesses.size(); ++h) {
        ASSERT_EQ(harnesses[h]->session(), sessions.back());
      }
    }

    std::unordered_map<std::uint64_t, SubscriptionId> by_handle;
    std::vector<Event> pending;
    const auto flush_batch = [&] {
      if (pending.empty()) return;
      std::vector<Delivery> expected;
      for (std::size_t h = 0; h < harnesses.size(); ++h) {
        Harness& harness = *harnesses[h];
        harness.log.clear();
        harness.batch_base = pending.data();
        harness.broker->publish_batch(pending);
        harness.batch_base = nullptr;
        if (h == 0) {
          expected = harness.log;
        } else {
          ASSERT_EQ(harness.log, expected)
              << "batch diverged on " << configs[h].label();
        }
      }
      pending.clear();
    };

    std::size_t events = 0;
    while (events < 160) {
      ChurnWorkload::Op op = workload.next();
      switch (op.kind) {
        case ChurnWorkload::Op::Kind::Publish:
          ++events;
          pending.push_back(std::move(op.event));
          if (pending.size() >= 8) flush_batch();
          break;
        case ChurnWorkload::Op::Kind::Subscribe: {
          flush_batch();  // control between batches, like a live broker
          SubscriptionId expected = SubscriptionId::invalid();
          for (std::size_t h = 0; h < harnesses.size(); ++h) {
            const SubscriptionId id = harnesses[h]->broker->subscribe(
                sessions[op.subscriber], op.text);
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
          flush_batch();
          const SubscriptionId id = by_handle.at(op.handle);
          by_handle.erase(op.handle);
          for (std::size_t h = 0; h < harnesses.size(); ++h) {
            ASSERT_TRUE(harnesses[h]->broker->unsubscribe(id))
                << configs[h].label();
          }
          break;
        }
      }
    }
    flush_batch();
  }
}

// ---- Concurrent shard readers (TSan target) ----------------------------

void run_concurrent_readers_with_control_churn(std::size_t workers) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs,
                       ShardedBrokerConfig{.shard_count = 1,
                                           .engine = EngineKind::NonCanonical,
                                           .worker_threads = workers});

  std::atomic<std::size_t> concurrent_notifications{0};
  std::vector<std::pair<std::uint32_t, std::uint32_t>> probe_log;
  std::atomic<bool> probing{false};
  const SubscriberId session =
      broker.register_subscriber([&](const Notification& n) {
        if (probing.load(std::memory_order_relaxed)) {
          probe_log.emplace_back(n.subscriber.value(),
                                 n.subscription.value());
        } else {
          concurrent_notifications.fetch_add(1, std::memory_order_relaxed);
        }
      });

  // A stable population the publisher always matches, plus a churn band the
  // control thread cycles.
  std::vector<std::string> stable_texts;
  for (int i = 0; i < 12; ++i) {
    stable_texts.push_back("x > " + std::to_string(i * 3));
  }
  std::vector<SubscriptionId> stable;
  for (const std::string& text : stable_texts) {
    stable.push_back(broker.subscribe(session, text));
  }

  std::vector<Event> batch;
  Pcg32 rng(0xc0ffee, 3);
  for (int i = 0; i < 40; ++i) {
    batch.push_back(EventBuilder(attrs)
                        .set("x", static_cast<std::int64_t>(rng.bounded(40)))
                        .set("y", static_cast<std::int64_t>(rng.bounded(40)))
                        .build());
  }

  std::atomic<bool> stop{false};
  std::thread control([&] {
    Pcg32 control_rng(0xdead, 5);
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<SubscriptionId> churned;
      for (int i = 0; i < 6; ++i) {
        churned.push_back(broker.subscribe(
            session,
            "y < " + std::to_string(control_rng.bounded(40))));
      }
      for (const SubscriptionId id : churned) {
        ASSERT_TRUE(broker.unsubscribe(id));
      }
    }
  });

  for (int round = 0; round < 400; ++round) {
    broker.publish_batch(batch);
  }
  stop.store(true, std::memory_order_release);
  control.join();
  broker.quiesce();

  // Post-quiesce: only the stable population survives; the broker must now
  // behave exactly like a sequentially built one.
  EXPECT_EQ(broker.subscription_count(), stable.size());
  ShardedBroker reference(attrs,
                          ShardedBrokerConfig{
                              .shard_count = 1,
                              .engine = EngineKind::NonCanonical});
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reference_log;
  const SubscriberId ref_session =
      reference.register_subscriber([&](const Notification& n) {
        reference_log.emplace_back(n.subscriber.value(),
                                   n.subscription.value());
      });
  std::unordered_map<std::uint32_t, std::size_t> ref_rank;  // id → ordinal
  std::unordered_map<std::uint32_t, std::size_t> live_rank;
  for (std::size_t i = 0; i < stable_texts.size(); ++i) {
    ref_rank.emplace(
        reference.subscribe(ref_session, stable_texts[i]).value(), i);
    live_rank.emplace(stable[i].value(), i);
  }

  probing.store(true);
  for (const Event& event : batch) {
    probe_log.clear();
    reference_log.clear();
    ASSERT_EQ(broker.publish(event), reference.publish(event));
    // Ids differ (the churn consumed ids on the live broker), so compare
    // through each subscription's registration ordinal.
    const auto ranks =
        [](const std::vector<std::pair<std::uint32_t, std::uint32_t>>& log,
           const std::unordered_map<std::uint32_t, std::size_t>& rank) {
          std::vector<std::size_t> out;
          for (const auto& [owner, sub] : log) out.push_back(rank.at(sub));
          std::sort(out.begin(), out.end());
          return out;
        };
    ASSERT_EQ(ranks(probe_log, live_rank), ranks(reference_log, ref_rank));
  }
}

// Workers match ONE shard's engine concurrently (epoch-pinned readers,
// per-worker contexts) while a control thread churns subscriptions —
// commands apply concurrently with matching, excluded from the pinned
// readers only by the epoch write gate, so under TSan this test certifies
// the whole read-mostly match path. Two shapes: four spawned workers plus
// the publishing thread (adaptive chunking cuts the 40-event batch into
// single-event chunks), and the seed broker, whose publishing thread
// matches as the only reader without holding the shard mutex. The post-quiesce probe then checks the broker is
// still observationally correct against a sequentially built reference.
TEST(WorkStealingConcurrencyTest, ConcurrentReadersWithControlChurn) {
  for (const std::size_t workers : {std::size_t{4}, std::size_t{1}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    run_concurrent_readers_with_control_churn(workers);
  }
}

}  // namespace
}  // namespace ncps
