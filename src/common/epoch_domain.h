// Epoch-based read-mostly synchronisation for the matching stack.
//
// The broker's data plane is read-mostly: match tasks only *read* a shard's
// engine (every write lands in a per-worker MatchContext), while control
// commands mutate it rarely. PR 9 expressed that with a shared_mutex —
// readers shared, appliers exclusive — which puts a lock acquisition on
// every match task and, worse, makes exclusive acquisition mid-batch
// subject to the platform rwlock's fairness policy (glibc's default
// reader-preferring pthread_rwlock can starve a writer indefinitely under a
// steady reader stream). EpochDomain replaces it with an epoch read-gate in
// the percpu-rwsem / RCU lineage:
//
//   - Readers pin a *slot* (one per pool worker, no registration, no TLS)
//     by storing the current epoch into it. Entry is two uncontended
//     seq_cst accesses on a cache line the reader owns — no shared lock
//     word, so concurrent readers never bounce a line between cores.
//   - A writer raises a flag (blocking new readers), waits for every slot
//     to unpin — the grace period, bounded by the longest in-flight read
//     section (one event chunk in the broker) — then mutates with genuine
//     exclusivity, and finally drops the flag. Writer preference is
//     structural: readers that lose the entry race retreat and wait.
//
// The gate alone keeps readers safe, frees included: writer_enter()
// returns only once every slot is unpinned, so no reader can hold a
// pointer into the structures while the writer mutates them, and a reader
// that pins after writer_exit() walks the already-mutated structure.
// Memory a writer unlinks may therefore be freed (or reused) in place,
// inside its critical section; there is no deferred-reclamation list.
//
// The store-then-load entry/gate protocol is the classic Dekker/store-buffer
// pattern and needs seq_cst on both sides: the reader's pin store and flag
// load, and the writer's flag store and first pin load, must belong to the
// single total order — otherwise both can miss each other and a reader
// traverses structures mid-mutation. Every other access is acquire/release,
// which is also exactly what lets ThreadSanitizer see the happens-before
// edges (reader exit -> writer mutation -> next reader entry) natively.
//
// Threading contract: any number of concurrent readers, each on its own
// slot (one thread per slot at a time — the broker indexes by pool worker
// id). Writers must be externally serialised (the broker's per-shard mutex
// does this).
//
// EpochSet (epoch_set.h) is unrelated per-context *scratch* versioning;
// GenerationFence (generation_fence.h) tracks *command* application. This
// class is about who may read a structure while it is being mutated.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/contracts.h"

namespace ncps {

class EpochDomain {
 public:
  /// `reader_slots` fixes the reader concurrency: slot indices are
  /// [0, reader_slots). The broker sizes this to the worker-pool width.
  explicit EpochDomain(std::size_t reader_slots) : slots_(reader_slots) {
    NCPS_EXPECTS(reader_slots >= 1);
  }

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  // ---- reader side ----

  /// Enter a read-side section on `slot`. Blocks only while a writer is in
  /// (or entering) its critical section; otherwise two seq_cst accesses.
  void reader_enter(std::size_t slot) {
    NCPS_DASSERT(slot < slots_.size());
    std::atomic<std::uint64_t>& pin = slots_[slot].pinned;
    NCPS_DASSERT(pin.load(std::memory_order_relaxed) == 0);
    for (;;) {
      // Writer preference: never start (or re-start) a section while a
      // writer holds or wants the gate, so a steady reader stream cannot
      // starve the apply path the way a reader-preferring rwlock can.
      std::uint32_t w = writer_.load(std::memory_order_acquire);
      if (w != 0) {
        wait_u32(writer_, w);
        continue;
      }
      pin.store(current_epoch(), std::memory_order_seq_cst);
      if (writer_.load(std::memory_order_seq_cst) == 0) return;
      // Dekker race lost: a writer set the flag between our load and our
      // pin. Retreat (it may already be waiting on this very slot), let it
      // run, try again.
      pin.store(0, std::memory_order_seq_cst);
      notify_u64(pin);
    }
  }

  /// Leave the read-side section on `slot`. The release store is the edge a
  /// waiting writer's acquire load pairs with: everything this reader read
  /// is ordered before the writer's mutation.
  void reader_exit(std::size_t slot) {
    NCPS_DASSERT(slot < slots_.size());
    std::atomic<std::uint64_t>& pin = slots_[slot].pinned;
    NCPS_DASSERT(pin.load(std::memory_order_relaxed) != 0);
    pin.store(0, std::memory_order_release);
    notify_u64(pin);
  }

  /// RAII read-side section; unpins on scope exit, exceptions included.
  class ReaderPin {
   public:
    ReaderPin(EpochDomain& domain, std::size_t slot)
        : domain_(&domain), slot_(slot) {
      domain_->reader_enter(slot_);
    }
    ~ReaderPin() { domain_->reader_exit(slot_); }
    ReaderPin(const ReaderPin&) = delete;
    ReaderPin& operator=(const ReaderPin&) = delete;

   private:
    EpochDomain* domain_;
    std::size_t slot_;
  };

  // ---- writer side (externally serialised: at most one at a time) ----

  /// Block new readers, advance the epoch, then wait out every in-flight
  /// reader (the grace period). On return the caller mutates with genuine
  /// exclusivity until writer_exit().
  void writer_enter() {
    NCPS_DASSERT(writer_.load(std::memory_order_relaxed) == 0 &&
                 "writers must be externally serialised");
    writer_.store(1, std::memory_order_seq_cst);
    epoch_.fetch_add(2, std::memory_order_acq_rel);
    for (Slot& slot : slots_) {
      std::uint64_t v;
      // seq_cst pin loads: the first observation pairs with the reader's
      // seq_cst pin store in the Dekker total order (see header comment).
      while ((v = slot.pinned.load(std::memory_order_seq_cst)) != 0) {
        wait_u64(slot.pinned, v);
      }
    }
  }

  /// Reopen the gate to readers.
  void writer_exit() {
    NCPS_DASSERT(writer_.load(std::memory_order_relaxed) == 1);
    writer_.store(0, std::memory_order_release);
    notify_u32(writer_);
  }

  // ---- introspection (tests) ----

  /// Currently pinned reader slots (racy snapshot; exact when quiescent).
  [[nodiscard]] std::size_t pinned_readers() const {
    std::size_t n = 0;
    for (const Slot& slot : slots_) {
      if (slot.pinned.load(std::memory_order_acquire) != 0) ++n;
    }
    return n;
  }

  [[nodiscard]] std::uint64_t epoch() const { return current_epoch(); }
  [[nodiscard]] std::size_t reader_slots() const { return slots_.size(); }

 private:
  // One cache line per slot: a reader's pin/unpin touches memory no other
  // reader writes, so entry costs no coherence traffic between workers.
  // A fixed 64 bytes, not std::hardware_destructive_interference_size:
  // that value may differ between compilers and tuning flags, and the slot
  // layout must not.
  static constexpr std::size_t kSlotAlign = 64;
  struct alignas(kSlotAlign) Slot {
    /// 0 = unpinned; otherwise the (even, non-zero) epoch pinned at entry.
    std::atomic<std::uint64_t> pinned{0};
  };

  [[nodiscard]] std::uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  // C++20 atomic wait/notify with a yield fallback for toolchains that
  // predate it. The notify side is unconditional and cheap (a waiter-count
  // check); the wait side only runs on gate contention, never on the
  // uncontended reader path.
#if defined(__cpp_lib_atomic_wait)
  static void wait_u32(const std::atomic<std::uint32_t>& a,
                       std::uint32_t old) {
    a.wait(old, std::memory_order_acquire);
  }
  static void wait_u64(const std::atomic<std::uint64_t>& a,
                       std::uint64_t old) {
    a.wait(old, std::memory_order_acquire);
  }
  static void notify_u32(std::atomic<std::uint32_t>& a) { a.notify_all(); }
  static void notify_u64(std::atomic<std::uint64_t>& a) { a.notify_all(); }
#else
  static void wait_u32(const std::atomic<std::uint32_t>& a,
                       std::uint32_t old) {
    if (a.load(std::memory_order_acquire) == old) std::this_thread::yield();
  }
  static void wait_u64(const std::atomic<std::uint64_t>& a,
                       std::uint64_t old) {
    if (a.load(std::memory_order_acquire) == old) std::this_thread::yield();
  }
  static void notify_u32(std::atomic<std::uint32_t>&) {}
  static void notify_u64(std::atomic<std::uint64_t>&) {}
#endif

  /// Starts even and non-zero, advances by 2 per writer generation, so a
  /// slot's 0 ("unpinned") is never a legal epoch value.
  std::atomic<std::uint64_t> epoch_{2};
  std::atomic<std::uint32_t> writer_{0};
  std::vector<Slot> slots_;
};

}  // namespace ncps
