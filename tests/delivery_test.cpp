// Unit tests for the delivery plane's building blocks: the bounded ring,
// the per-subscriber outbox (all three backpressure policies, close
// semantics, stats), the executor's scheduling handshake, and the broker's
// async surface (flush, quiesce composition, unregister discard).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "common/spsc_ring.h"
#include "delivery/delivery_plane.h"

namespace ncps {
namespace {

// ------------------------------------------------------------ SpscRing ---

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64u);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128u);
}

TEST(SpscRingTest, FifoOrderAndFullEmpty) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.try_push(99));
  for (int i = 0; i < 4; ++i) {
    const auto v = ring.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(SpscRingTest, WrapsAroundManyLaps) {
  SpscRing<std::uint64_t> ring(4);
  std::uint64_t next_pop = 0;
  const auto pop_and_check = [&] {
    const auto v = ring.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_pop++);
  };
  for (std::uint64_t i = 0; i < 1000; ++i) {
    while (ring.full()) pop_and_check();  // vary the occupancy across laps
    ASSERT_TRUE(ring.try_push(std::uint64_t(i)));
    if (i % 3 != 0) pop_and_check();
  }
  while (!ring.empty()) pop_and_check();
  EXPECT_EQ(next_pop, 1000u);
}

TEST(SpscRingTest, ConcurrentProducerConsumer) {
  SpscRing<std::uint64_t> ring(16);
  constexpr std::uint64_t kCount = 50'000;
  std::thread consumer([&] {
    std::uint64_t expected = 0;
    while (expected < kCount) {
      if (auto v = ring.pop()) {
        ASSERT_EQ(*v, expected);
        ++expected;
      } else {
        std::this_thread::yield();  // single-core hosts: let the producer run
      }
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    while (!ring.try_push(std::uint64_t(i))) std::this_thread::yield();
  }
  consumer.join();
}

/// DropOldest's producer-side eviction races the consumer for the same
/// slots; every pushed value must be popped exactly once across the two.
TEST(SpscRingTest, ProducerEvictionRacesConsumer) {
  SpscRing<std::uint64_t> ring(8);
  constexpr std::uint64_t kCount = 50'000;
  std::vector<std::atomic<int>> seen(kCount);
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire) || !ring.empty()) {
      if (auto v = ring.pop()) {
        seen[*v].fetch_add(1);
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) {
    while (!ring.try_push(std::uint64_t(i))) {
      if (auto victim = ring.pop()) seen[*victim].fetch_add(1);  // evict
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "value " << i;
  }
}

// -------------------------------------------------------------- Outbox ---

Event make_event(AttributeRegistry& attrs, long value) {
  return EventBuilder(attrs).set("x", value).build();
}

OutboxBatch make_batch(const std::shared_ptr<const std::vector<Event>>& block,
                       std::initializer_list<std::uint32_t> indexes) {
  OutboxBatch batch;
  batch.events = block;
  for (const std::uint32_t index : indexes) {
    batch.items.push_back(OutboxBatch::Item{index, SubscriptionId(index)});
  }
  return batch;
}

struct OutboxFixture {
  AttributeRegistry attrs;
  DeliveryProgress progress;
  std::vector<long> received;
  std::shared_ptr<const std::vector<Event>> block;

  OutboxFixture() {
    auto events = std::make_shared<std::vector<Event>>();
    for (long v = 0; v < 16; ++v) events->push_back(make_event(attrs, v));
    block = std::move(events);
  }

  Outbox::NotifyFn recorder() {
    return [this](const Notification& n) {
      received.push_back(n.event->entries()[0].value.as_int());
    };
  }
};

TEST(OutboxTest, DeliversFifoAcrossBatches) {
  OutboxFixture fx;
  Outbox outbox(SubscriberId(0), fx.recorder(), BackpressurePolicy::Block, 8,
                fx.progress);
  EXPECT_EQ(outbox.push(make_batch(fx.block, {0, 1})), 2u);
  EXPECT_EQ(outbox.push(make_batch(fx.block, {2})), 1u);
  EXPECT_FALSE(outbox.drain(/*max_batches=*/8));
  EXPECT_EQ(fx.received, (std::vector<long>{0, 1, 2}));
  const DeliveryStats stats = outbox.stats();
  EXPECT_EQ(stats.delivered, 3u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.max_queue_depth, 3u);
  EXPECT_EQ(outbox.completed_marker(), 3u);
}

TEST(OutboxTest, DropNewestDiscardsIncomingWhenFull) {
  OutboxFixture fx;
  Outbox outbox(SubscriberId(0), fx.recorder(),
                BackpressurePolicy::DropNewest, 2, fx.progress);
  EXPECT_EQ(outbox.push(make_batch(fx.block, {0})), 1u);
  EXPECT_EQ(outbox.push(make_batch(fx.block, {1})), 1u);
  EXPECT_EQ(outbox.push(make_batch(fx.block, {2, 3})), 0u);  // full: dropped
  outbox.drain(8);
  EXPECT_EQ(fx.received, (std::vector<long>{0, 1}));
  const DeliveryStats stats = outbox.stats();
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.dropped, 2u);
}

TEST(OutboxTest, DropOldestEvictsQueuedWhenFull) {
  OutboxFixture fx;
  Outbox outbox(SubscriberId(0), fx.recorder(),
                BackpressurePolicy::DropOldest, 2, fx.progress);
  EXPECT_EQ(outbox.push(make_batch(fx.block, {0})), 1u);
  EXPECT_EQ(outbox.push(make_batch(fx.block, {1})), 1u);
  EXPECT_EQ(outbox.push(make_batch(fx.block, {2})), 1u);  // evicts {0}
  outbox.drain(8);
  EXPECT_EQ(fx.received, (std::vector<long>{1, 2}));
  const DeliveryStats stats = outbox.stats();
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.dropped, 1u);
  // Evicted notifications still count as completed (flush must not hang).
  EXPECT_EQ(outbox.completed_marker(), 3u);
}

TEST(OutboxTest, BlockWaitsForConsumerSpace) {
  OutboxFixture fx;
  std::atomic<int> delivered{0};
  Outbox outbox(
      SubscriberId(0),
      [&](const Notification&) { delivered.fetch_add(1); },
      BackpressurePolicy::Block, 2, fx.progress);
  ASSERT_EQ(outbox.push(make_batch(fx.block, {0})), 1u);
  ASSERT_EQ(outbox.push(make_batch(fx.block, {1})), 1u);

  std::atomic<bool> push_returned{false};
  std::thread producer([&] {
    EXPECT_EQ(outbox.push(make_batch(fx.block, {2})), 1u);  // blocks: full
    push_returned.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(push_returned.load(std::memory_order_acquire));
  outbox.drain(1);  // frees one slot
  producer.join();
  EXPECT_TRUE(push_returned.load());
  outbox.drain(8);
  EXPECT_EQ(delivered.load(), 3);
  EXPECT_EQ(outbox.stats().dropped, 0u);
}

TEST(OutboxTest, CloseDiscardsPendingAndUnblocksProducer) {
  OutboxFixture fx;
  Outbox outbox(SubscriberId(0), fx.recorder(), BackpressurePolicy::Block, 2,
                fx.progress);
  ASSERT_EQ(outbox.push(make_batch(fx.block, {0})), 1u);
  ASSERT_EQ(outbox.push(make_batch(fx.block, {1})), 1u);

  std::thread producer([&] {
    EXPECT_EQ(outbox.push(make_batch(fx.block, {2})), 0u);  // closed mid-wait
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  outbox.close();
  producer.join();
  outbox.drain(8);  // discards, delivers nothing
  EXPECT_TRUE(fx.received.empty());
  const DeliveryStats stats = outbox.stats();
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dropped, 3u);
  // The two batches accepted before close complete as drops.
  EXPECT_EQ(outbox.completed_marker(), 2u);
}

// ------------------------------------------------------- DeliveryPlane ---

TEST(DeliveryPlaneTest, FlushWaitsForAllAccepted) {
  DeliveryOptions options;
  options.mode = DeliveryMode::Async;
  options.threads = 2;
  DeliveryPlane plane(options);

  AttributeRegistry attrs;
  std::atomic<int> delivered{0};
  plane.add_subscriber(
      SubscriberId(0),
      [&](const Notification&) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        delivered.fetch_add(1);
      },
      BackpressurePolicy::Block);

  std::vector<Event> events;
  for (long v = 0; v < 64; ++v) events.push_back(make_event(attrs, v));
  plane.begin_batch(events);
  for (std::uint32_t e = 0; e < events.size(); ++e) {
    plane.add_match(e, SubscriberId(0), SubscriptionId(7));
  }
  EXPECT_EQ(plane.commit_batch(), 64u);
  plane.flush();
  EXPECT_EQ(delivered.load(), 64);
}

TEST(DeliveryPlaneTest, UnknownSubscriberMatchesAreSkipped) {
  DeliveryOptions options;
  options.mode = DeliveryMode::Async;
  DeliveryPlane plane(options);
  AttributeRegistry attrs;
  const std::vector<Event> events = {make_event(attrs, 1)};
  plane.begin_batch(events);
  plane.add_match(0, SubscriberId(42), SubscriptionId(0));
  EXPECT_EQ(plane.commit_batch(), 0u);
  plane.flush();  // returns immediately: nothing accepted
}

TEST(DeliveryPlaneTest, RemoveSubscriberCompletesPending) {
  DeliveryOptions options;
  options.mode = DeliveryMode::Async;
  options.threads = 1;
  DeliveryPlane plane(options);
  AttributeRegistry attrs;

  std::atomic<bool> gate{false};
  std::atomic<int> delivered{0};
  plane.add_subscriber(
      SubscriberId(0),
      [&](const Notification&) {
        while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
        delivered.fetch_add(1);
      },
      BackpressurePolicy::Block);

  std::vector<Event> events = {make_event(attrs, 1)};
  for (int batch = 0; batch < 4; ++batch) {
    plane.begin_batch(events);
    plane.add_match(0, SubscriberId(0), SubscriptionId(0));
    ASSERT_EQ(plane.commit_batch(), 1u);
  }
  // The worker is stuck in the first callback; removing the subscriber
  // closes the outbox, and the queued remainder completes as drops once the
  // gate opens — flush() must not hang on a dead subscriber.
  plane.remove_subscriber(SubscriberId(0));
  gate.store(true, std::memory_order_release);
  plane.flush();
  EXPECT_LE(delivered.load(), 1);
  EXPECT_FALSE(plane.stats(SubscriberId(0)).has_value());
}

// ------------------------------------------------- Broker async surface ---

TEST(BrokerAsyncTest, AsyncDeliveryMatchesInlineCounts) {
  AttributeRegistry attrs;
  BrokerOptions options;
  options.delivery.mode = DeliveryMode::Async;
  const auto broker = Broker::create(attrs, options);
  EXPECT_EQ(broker->delivery_mode(), DeliveryMode::Async);

  std::atomic<std::size_t> notified{0};
  const SubscriberId sub = broker->register_subscriber(
      [&](const Notification& n) {
        EXPECT_TRUE(n.event->has(attrs.intern("x")));
        notified.fetch_add(1);
      });
  broker->subscribe(sub, "x > 10");
  broker->subscribe(sub, "x > 100");

  std::size_t accepted = 0;
  for (long v = 0; v < 200; v += 10) {
    accepted += broker->publish(make_event(attrs, v));
  }
  broker->flush();
  EXPECT_EQ(notified.load(), accepted);
  const auto stats = broker->delivery_stats(sub);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->delivered, accepted);
  EXPECT_EQ(stats->dropped, 0u);
}

TEST(BrokerAsyncTest, InlineBrokerHasNoDeliveryStats) {
  AttributeRegistry attrs;
  const auto broker = Broker::create(attrs);
  EXPECT_EQ(broker->delivery_mode(), DeliveryMode::Inline);
  const SubscriberId sub =
      broker->register_subscriber([](const Notification&) {});
  EXPECT_FALSE(broker->delivery_stats(sub).has_value());
  broker->flush();  // no-op, must not crash
}

TEST(BrokerAsyncTest, QuiesceFencesUnsubscribeInAsyncMode) {
  AttributeRegistry attrs;
  BrokerOptions options;
  options.delivery.mode = DeliveryMode::Async;
  const auto broker = Broker::create(attrs, options);

  std::atomic<std::size_t> notified{0};
  const SubscriberId sub = broker->register_subscriber(
      [&](const Notification&) { notified.fetch_add(1); });
  const SubscriptionId s = broker->subscribe(sub, "x > 0");
  broker->publish(make_event(attrs, 5));
  broker->unsubscribe(s);
  broker->quiesce();
  const std::size_t at_fence = notified.load();
  broker->publish(make_event(attrs, 6));
  broker->flush();
  // Nothing after the quiesce fence: the subscription is gone.
  EXPECT_EQ(notified.load(), at_fence);
  EXPECT_EQ(at_fence, 1u);
}

TEST(BrokerAsyncTest, UnregisterDiscardsQueuedNotifications) {
  AttributeRegistry attrs;
  BrokerOptions options;
  options.delivery.mode = DeliveryMode::Async;
  options.delivery.threads = 1;
  const auto broker = Broker::create(attrs, options);

  std::atomic<bool> gate{false};
  std::atomic<std::size_t> notified{0};
  const SubscriberId slow = broker->register_subscriber(
      [&](const Notification&) {
        while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
        notified.fetch_add(1);
      });
  broker->subscribe(slow, "x > 0");
  for (long v = 1; v <= 8; ++v) broker->publish(make_event(attrs, v));
  broker->unregister_subscriber(slow);
  gate.store(true, std::memory_order_release);
  broker->quiesce();
  // At most the callback already in flight delivered; the queued backlog
  // was discarded by the close.
  EXPECT_LE(notified.load(), 1u);
}

TEST(BrokerAsyncTest, GlobalIdReuseWaitsForPendingDeliveries) {
  AttributeRegistry attrs;
  BrokerOptions options;
  options.delivery.mode = DeliveryMode::Async;
  options.delivery.threads = 1;
  const auto broker = Broker::create(attrs, options);

  std::atomic<bool> gate{false};
  std::vector<std::uint32_t> seen;  // subscription ids, delivery order
  std::mutex seen_mutex;
  const SubscriberId sub = broker->register_subscriber(
      [&](const Notification& n) {
        while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
        const std::lock_guard<std::mutex> lock(seen_mutex);
        seen.push_back(n.subscription.value());
      });
  const SubscriptionId first = broker->subscribe(sub, "x > 0");
  broker->publish(make_event(attrs, 5));  // queued behind the gate
  broker->unsubscribe(first);
  // The id must NOT be handed out while the queued notification still
  // references it; the new subscription would otherwise alias it.
  const SubscriptionId second = broker->subscribe(sub, "x > 1000");
  EXPECT_NE(second, first);
  gate.store(true, std::memory_order_release);
  broker->flush();
  {
    const std::lock_guard<std::mutex> lock(seen_mutex);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], first.value());
  }
  // After the flush the plane is idle, so the retired id becomes reusable.
  broker->unsubscribe(second);
  const SubscriptionId third = broker->subscribe(sub, "x > 5");
  EXPECT_TRUE(third == first || third == second);
}

}  // namespace
}  // namespace ncps
