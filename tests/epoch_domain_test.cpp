// Unit suite for the epoch read-gate (src/common/epoch_domain.h): pin/unpin
// bookkeeping, writer grace periods under reader contention, frees inside
// the writer section, writer preference, and exception safety of the RAII
// pin.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/epoch_domain.h"

namespace ncps {
namespace {

TEST(EpochDomainTest, PinUnpinBookkeeping) {
  EpochDomain domain(4);
  EXPECT_EQ(domain.reader_slots(), 4u);
  EXPECT_EQ(domain.pinned_readers(), 0u);

  domain.reader_enter(0);
  domain.reader_enter(2);
  EXPECT_EQ(domain.pinned_readers(), 2u);
  domain.reader_exit(2);
  EXPECT_EQ(domain.pinned_readers(), 1u);
  domain.reader_exit(0);
  EXPECT_EQ(domain.pinned_readers(), 0u);
}

TEST(EpochDomainTest, ReaderPinIsRaii) {
  EpochDomain domain(2);
  {
    EpochDomain::ReaderPin pin(domain, 1);
    EXPECT_EQ(domain.pinned_readers(), 1u);
  }
  EXPECT_EQ(domain.pinned_readers(), 0u);
}

TEST(EpochDomainTest, ReaderPinUnpinsOnException) {
  EpochDomain domain(1);
  try {
    EpochDomain::ReaderPin pin(domain, 0);
    throw std::runtime_error("reader body failed");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(domain.pinned_readers(), 0u);
  // The slot is reusable after the unwind: a writer cycle completes.
  domain.writer_enter();
  domain.writer_exit();
}

TEST(EpochDomainTest, WriterAdvancesEpochByTwo) {
  EpochDomain domain(1);
  const std::uint64_t before = domain.epoch();
  domain.writer_enter();
  domain.writer_exit();
  EXPECT_EQ(domain.epoch(), before + 2);
}

TEST(EpochDomainTest, WriterWaitsForInFlightReader) {
  EpochDomain domain(2);
  domain.reader_enter(0);

  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    domain.writer_enter();
    writer_in.store(true, std::memory_order_release);
    domain.writer_exit();
  });

  // The writer must not complete its grace period while slot 0 is pinned.
  for (int i = 0; i < 50; ++i) {
    ASSERT_FALSE(writer_in.load(std::memory_order_acquire));
    std::this_thread::yield();
  }
  domain.reader_exit(0);
  writer.join();
  EXPECT_TRUE(writer_in.load(std::memory_order_acquire));
}

TEST(EpochDomainTest, ReaderBlockedWhileWriterActive) {
  EpochDomain domain(1);
  domain.writer_enter();

  std::atomic<bool> reader_in{false};
  std::thread reader([&] {
    domain.reader_enter(0);
    reader_in.store(true, std::memory_order_release);
    domain.reader_exit(0);
  });

  for (int i = 0; i < 50; ++i) {
    ASSERT_FALSE(reader_in.load(std::memory_order_acquire));
    std::this_thread::yield();
  }
  domain.writer_exit();
  reader.join();
  EXPECT_TRUE(reader_in.load(std::memory_order_acquire));
}

// The core memory-safety property under real contention: a writer may free
// what it unlinks inside its critical section, because the grace period has
// already waited out every reader that could still see it. Readers
// repeatedly pin, read a published pointer's payload, and unpin; the writer
// swaps the pointer and deletes the old node before reopening the gate. A
// use-after-free here is what the ASan/TSan jobs watch for; the test itself
// asserts every node is destroyed exactly once.
TEST(EpochDomainTest, GracePeriodUnderContention) {
  struct Node {
    explicit Node(std::atomic<int>& counter, int v)
        : destroyed(counter), value(v) {}
    ~Node() {
      value = -1;
      destroyed.fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<int>& destroyed;
    int value;
  };

  constexpr int kReaders = 4;
  constexpr int kWriterCycles = 200;
  EpochDomain domain(kReaders);
  std::atomic<int> destroyed{0};
  // A plain pointer: the gate alone orders the writer's swap against every
  // reader's load, so TSan reports a race here if the gate leaks.
  Node* published = new Node(destroyed, 0);
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        EpochDomain::ReaderPin pin(domain, static_cast<std::size_t>(r));
        const Node* node = published;
        // A reclaimed-too-early node would read -1 (or fault outright).
        ASSERT_GE(node->value, 0);
      }
    });
  }

  for (int cycle = 1; cycle <= kWriterCycles; ++cycle) {
    domain.writer_enter();
    Node* old = published;
    published = new Node(destroyed, cycle);
    delete old;
    domain.writer_exit();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  delete published;
  EXPECT_EQ(destroyed.load(std::memory_order_relaxed), kWriterCycles + 1);
}

// Writer-preference liveness: with readers continuously cycling on every
// slot, a writer still gets through (a reader-preferring gate could starve
// it forever — this is the regression the Dekker retreat path protects).
TEST(EpochDomainTest, WriterNotStarvedByReaderStream) {
  constexpr int kReaders = 4;
  EpochDomain domain(kReaders);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        EpochDomain::ReaderPin pin(domain, static_cast<std::size_t>(r));
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    domain.writer_enter();
    domain.writer_exit();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  // 100 completed cycles at +2 each.
  EXPECT_EQ(domain.epoch(), 2u + 200u);
}

}  // namespace
}  // namespace ncps
