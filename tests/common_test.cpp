// Tests for the common substrate: PRNG, epoch sets, strong ids,
// memory breakdowns, contracts, MPSC queue, generation fence.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/contracts.h"
#include "common/epoch_set.h"
#include "common/generation_fence.h"
#include "common/ids.h"
#include "common/memory_tracker.h"
#include "common/mpsc_queue.h"
#include "common/random.h"

namespace ncps {
namespace {

TEST(Pcg32Test, DeterministicForSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32Test, StreamsDiffer) {
  Pcg32 a(123, 1), b(123, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32Test, BoundedStaysInBounds) {
  Pcg32 rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.bounded(1), 0u);
  }
}

TEST(Pcg32Test, BoundedIsRoughlyUniform) {
  Pcg32 rng(10);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 80000; ++i) ++counts[rng.bounded(8)];
  for (const int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Pcg32Test, RangeIsInclusive) {
  Pcg32 rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Pcg32Test, RangeHandlesLargeSpans) {
  Pcg32 rng(12);
  for (int i = 0; i < 100; ++i) {
    const std::int64_t v = rng.range(0, std::int64_t{1} << 40);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, std::int64_t{1} << 40);
  }
}

TEST(Pcg32Test, NextDoubleInUnitInterval) {
  Pcg32 rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(43);
  EXPECT_NE(SplitMix64(42).next(), c.next());
}

TEST(EpochSetTest, InsertAndContains) {
  EpochSet set(10);
  EXPECT_FALSE(set.contains(3));
  EXPECT_TRUE(set.insert(3));
  EXPECT_FALSE(set.insert(3));  // duplicate
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(4));
}

TEST(EpochSetTest, ClearIsConstantTimeAndComplete) {
  EpochSet set(100);
  for (std::uint32_t i = 0; i < 100; ++i) set.insert(i);
  set.clear();
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(set.contains(i)) << i;
  }
  EXPECT_TRUE(set.insert(50));
}

TEST(EpochSetTest, ResizePreservesMembership) {
  EpochSet set(4);
  set.insert(2);
  set.resize(100);
  EXPECT_TRUE(set.contains(2));
  EXPECT_FALSE(set.contains(50));
  EXPECT_TRUE(set.insert(99));
}

TEST(EpochSetTest, ManyEpochsStayCorrect) {
  EpochSet set(4);
  for (int round = 0; round < 10000; ++round) {
    EXPECT_TRUE(set.insert(round % 4));
    set.clear();
  }
  EXPECT_FALSE(set.contains(0));
}

TEST(EpochSetTest, EpochWrapZeroesStaleStamps) {
  // After ~4G clears the 32-bit epoch wraps; the wrap path must zero the
  // stamp array so stale stamps from earlier epochs cannot alias the new
  // epoch values. Driven through the test hook instead of 4G clears.
  EpochSet set(8);
  set.insert(3);
  set.insert(5);
  set.jump_epoch_for_test(~0u);  // stale stamps are now far behind
  EXPECT_FALSE(set.contains(3));
  EXPECT_FALSE(set.contains(5));
  set.insert(7);  // stamped with the max epoch
  EXPECT_TRUE(set.contains(7));
  set.clear();  // wraps: zero-fill, epoch restarts at 1
  EXPECT_EQ(set.epoch(), 1u);
  for (std::uint32_t id = 0; id < 8; ++id) {
    EXPECT_FALSE(set.contains(id)) << id;
  }
  // Post-wrap inserts behave like a fresh set.
  EXPECT_TRUE(set.insert(3));
  EXPECT_FALSE(set.insert(3));
  set.clear();
  EXPECT_FALSE(set.contains(3));
}

TEST(StrongIdTest, TypedDistinctness) {
  const PredicateId p(5);
  const SubscriptionId s(5);
  EXPECT_EQ(p.value(), s.value());
  static_assert(!std::is_convertible_v<PredicateId, SubscriptionId>);
  static_assert(!std::is_convertible_v<std::uint32_t, PredicateId>);
}

TEST(StrongIdTest, InvalidSentinel) {
  const PredicateId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, PredicateId::invalid());
  EXPECT_TRUE(PredicateId(0).valid());
}

TEST(StrongIdTest, OrderingAndHash) {
  EXPECT_LT(PredicateId(1), PredicateId(2));
  EXPECT_EQ(std::hash<PredicateId>{}(PredicateId(7)),
            std::hash<PredicateId>{}(PredicateId(7)));
}

TEST(MemoryBreakdownTest, TotalsAndNesting) {
  MemoryBreakdown inner;
  inner.add("a", 100);
  inner.add("b", 50);
  EXPECT_EQ(inner.total(), 150u);

  MemoryBreakdown outer;
  outer.add("c", 1);
  outer.add_nested("inner/", inner);
  EXPECT_EQ(outer.total(), 151u);
  EXPECT_EQ(outer.components().size(), 3u);
  EXPECT_EQ(outer.components()[1].first, "inner/a");
}

TEST(MpscQueueTest, FifoSingleProducer) {
  MpscQueue<int> queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.pop().has_value());
  for (int i = 0; i < 100; ++i) queue.push(i);
  EXPECT_FALSE(queue.empty());
  for (int i = 0; i < 100; ++i) {
    const auto value = queue.pop();
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, i);
  }
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(MpscQueueTest, MoveOnlyPayloads) {
  MpscQueue<std::unique_ptr<int>> queue;
  queue.push(std::make_unique<int>(41));
  queue.push(std::make_unique<int>(42));
  // Destructor must free undrained nodes (checked by ASan).
  auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(**first, 41);
}

TEST(MpscQueueTest, ConcurrentProducersLoseNothing) {
  MpscQueue<int> queue;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.push(p * kPerProducer + i);
      }
    });
  }
  // Consume concurrently with production; per-producer order is FIFO.
  std::vector<int> next_expected(kProducers, 0);
  int received = 0;
  while (received < kProducers * kPerProducer) {
    const auto value = queue.pop();
    if (!value.has_value()) {
      std::this_thread::yield();
      continue;
    }
    const int producer = *value / kPerProducer;
    EXPECT_EQ(*value % kPerProducer, next_expected[producer]++);
    ++received;
  }
  for (std::thread& t : producers) t.join();
  EXPECT_TRUE(queue.empty());
}

TEST(GenerationFenceTest, MonotonicAdvance) {
  GenerationFence fence;
  EXPECT_EQ(fence.applied(), 0u);
  fence.advance(5);
  EXPECT_EQ(fence.applied(), 5u);
  fence.advance(3);  // stale advance is a no-op
  EXPECT_EQ(fence.applied(), 5u);
  fence.wait_until(5);  // already satisfied: returns immediately
}

TEST(GenerationFenceTest, WakesBlockedWaiter) {
  GenerationFence fence;
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    fence.wait_until(10);
    released.store(true, std::memory_order_release);
  });
  fence.advance(9);
  EXPECT_FALSE(released.load(std::memory_order_acquire));
  fence.advance(10);
  waiter.join();
  EXPECT_TRUE(released.load(std::memory_order_acquire));
}

TEST(ContractsTest, ViolationCarriesLocation) {
  try {
    NCPS_EXPECTS(1 == 2);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

}  // namespace
}  // namespace ncps
