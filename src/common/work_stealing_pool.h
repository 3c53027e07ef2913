// Work-stealing task pool: the broker's match scheduler, and the one pool
// every parallel bulk build (PredicateIndex::bulk_load, engine load_state)
// runs on.
//
// A central queue with one task per shard makes the hottest shard the
// critical path: a skew-loaded shard's whole batch is one task, and idle
// workers have nothing to take from it. This pool runs *index ranges*
// instead: run_tasks(count, fn) splits [0, count) into per-worker deques
// of task indices, each worker pops its own deque LIFO (the most recently
// queued index is the one whose data is hottest in cache), and a worker
// whose deque is empty steals from a victim's deque FIFO — the oldest
// index, i.e. the head of the largest remaining contiguous run, so a steal
// grabs the biggest coherent piece of work and steal frequency stays low.
//
// Tasks are identified by index only; the caller's `fn(task, worker)` maps
// the index to work (the sharded broker maps it to a (shard, event-chunk)
// pair) and may use `worker` (0 .. thread_count()-1) to address per-worker
// state such as match contexts — a task runs on exactly one worker, and a
// worker runs one task at a time.
//
// One run_tasks() executes at a time (the broker's publish path is already
// serialised by its publish mutex; a second concurrent caller would be a
// bug, and is asserted against — which is why a bulk build that may run
// beside publishing brings a pool of its own).
//
// The calling thread is a worker too: it owns the last slot (worker
// thread_count() - 1), gets a slice of the deal like every spawned worker,
// and drains — own deque LIFO, then steals FIFO — before it waits for the
// join. A pool of N spawned threads therefore matches on N + 1, and
// WorkStealingPool(0) runs every task on the caller. Sleeping through the
// run instead left the publisher's core idle for the whole match stage —
// 94% of publish wall time on the paper-shaped end-to-end workload — and
// putting the caller to work raised the async churn workload's closed-loop
// throughput ×1.47 (median of ten runs, 1232 → 1813 events/s) on a 4-core
// x86-64 VM.
//
// Exceptions thrown by tasks, the caller's own included, are captured and
// rethrown once the run has joined (first one wins); remaining tasks still
// run, and the pool stays usable afterwards.
//
// Telemetry: per-worker counters (tasks executed, steals, busy nanoseconds,
// current queue depth) are relaxed atomics — each is written by exactly one
// worker and read by metrics sampling, so there is no contention to speak
// of. run_tasks() additionally returns the run's task/steal deltas so the
// caller can feed hot registry counters once per batch instead of per task.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.h"

namespace ncps {

class WorkStealingPool {
 public:
  /// Task/steal totals for one run_tasks() call.
  struct RunStats {
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
  };

  /// Point-in-time telemetry for one worker (metrics sampling).
  struct WorkerSample {
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    std::uint64_t busy_ns = 0;
    std::size_t queued = 0;
  };

  /// Spawns exactly `threads` workers; the thread calling run_tasks() is
  /// one more, so thread_count() is threads + 1.
  explicit WorkStealingPool(std::size_t threads)
      : start_time_(std::chrono::steady_clock::now()) {
    slots_.reserve(threads + 1);
    for (std::size_t i = 0; i <= threads; ++i) {
      slots_.push_back(std::make_unique<WorkerSlot>());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  ~WorkStealingPool() {
    {
      const std::lock_guard<std::mutex> lock(control_mutex_);
      stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Run fn(task, worker) for every task index in [0, count) across the
  /// pool and the calling thread, and block until all complete; rethrows
  /// the first exception any task raised. Indices are dealt to workers as
  /// contiguous ranges (worker w starts with the w-th slice of [0, count);
  /// the caller's is the last), so index-adjacent tasks — which the broker
  /// makes data-adjacent — start on the same worker.
  RunStats run_tasks(std::size_t count,
                     const std::function<void(std::size_t task,
                                              std::size_t worker)>& fn) {
    RunStats stats;
    if (count == 0) return stats;
    const std::uint64_t tasks_before = total_tasks();
    const std::uint64_t steals_before = total_steals();

    // Deal contiguous slices. Workers are parked (run_tasks is serialised
    // and joins before returning), so the deques are ours alone here.
    const std::size_t workers = slots_.size();
    const std::size_t per = (count + workers - 1) / workers;
    for (std::size_t w = 0; w < workers; ++w) {
      WorkerSlot& slot = *slots_[w];
      const std::size_t begin = std::min(w * per, count);
      const std::size_t end = std::min(begin + per, count);
      {
        const std::lock_guard<std::mutex> lock(slot.mutex);
        NCPS_ASSERT(slot.deque.empty());
        for (std::size_t t = begin; t < end; ++t) {
          slot.deque.push_back(static_cast<std::uint32_t>(t));
        }
      }
      slot.queued.store(end - begin, std::memory_order_relaxed);
    }

    {
      const std::lock_guard<std::mutex> lock(control_mutex_);
      NCPS_ASSERT(remaining_.load(std::memory_order_relaxed) == 0 &&
                  active_workers_ == 0 && "run_tasks is not reentrant");
      fn_ = &fn;
      remaining_.store(count, std::memory_order_relaxed);
      ++generation_;
    }
    work_available_.notify_all();
    drain(slots_.size() - 1);

    std::unique_lock<std::mutex> lock(control_mutex_);
    all_done_.wait(lock, [this] {
      return remaining_.load(std::memory_order_relaxed) == 0 &&
             active_workers_ == 0;
    });
    fn_ = nullptr;
    if (first_error_) {
      std::exception_ptr error = std::exchange(first_error_, nullptr);
      lock.unlock();
      std::rethrow_exception(error);
    }
    lock.unlock();
    stats.tasks = total_tasks() - tasks_before;
    stats.steals = total_steals() - steals_before;
    return stats;
  }

  /// Workers running tasks: the spawned threads plus the caller.
  [[nodiscard]] std::size_t thread_count() const { return slots_.size(); }

  /// Telemetry sample per worker. busy_ns is cumulative execution time (the
  /// whole drain loop, steal scans included — that *is* busy time); divide
  /// by lifetime_ns() for a busy fraction.
  [[nodiscard]] std::vector<WorkerSample> sample_workers() const {
    std::vector<WorkerSample> out;
    out.reserve(slots_.size());
    for (const auto& slot : slots_) {
      WorkerSample s;
      s.tasks = slot->tasks.load(std::memory_order_relaxed);
      s.steals = slot->steals.load(std::memory_order_relaxed);
      s.busy_ns = slot->busy_ns.load(std::memory_order_relaxed);
      s.queued = slot->queued.load(std::memory_order_relaxed);
      out.push_back(s);
    }
    return out;
  }

  /// Nanoseconds since the pool was constructed (busy-fraction denominator).
  [[nodiscard]] std::uint64_t lifetime_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_time_)
            .count());
  }

  [[nodiscard]] std::uint64_t total_steals() const {
    std::uint64_t total = 0;
    for (const auto& slot : slots_) {
      total += slot->steals.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  /// Per-worker state on its own cache line: the deque mutex is only ever
  /// contended by steals, and the telemetry cells are single-writer.
  struct alignas(64) WorkerSlot {
    std::mutex mutex;
    std::deque<std::uint32_t> deque;
    std::atomic<std::size_t> queued{0};
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  [[nodiscard]] std::uint64_t total_tasks() const {
    std::uint64_t total = 0;
    for (const auto& slot : slots_) {
      total += slot->tasks.load(std::memory_order_relaxed);
    }
    return total;
  }

  bool pop_own(std::size_t self, std::uint32_t& task) {
    WorkerSlot& slot = *slots_[self];
    const std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.deque.empty()) return false;
    task = slot.deque.back();  // LIFO: hottest data
    slot.deque.pop_back();
    slot.queued.store(slot.deque.size(), std::memory_order_relaxed);
    return true;
  }

  bool steal(std::size_t self, std::uint32_t& task) {
    const std::size_t workers = slots_.size();
    for (std::size_t i = 1; i < workers; ++i) {
      WorkerSlot& victim = *slots_[(self + i) % workers];
      // Racy pre-check: a stale zero just means we scan on; a stale
      // non-zero costs one uncontended lock.
      if (victim.queued.load(std::memory_order_relaxed) == 0) continue;
      const std::lock_guard<std::mutex> lock(victim.mutex);
      if (victim.deque.empty()) continue;
      task = victim.deque.front();  // FIFO: oldest = largest remaining run
      victim.deque.pop_front();
      victim.queued.store(victim.deque.size(), std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  void drain(std::size_t self) {
    WorkerSlot& slot = *slots_[self];
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t ran = 0;
    std::uint64_t stole = 0;
    for (;;) {
      std::uint32_t task;
      bool stolen = false;
      if (!pop_own(self, task)) {
        if (!steal(self, task)) break;
        stolen = true;
      }
      try {
        (*fn_)(task, self);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(control_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      ++ran;
      if (stolen) ++stole;
      remaining_.fetch_sub(1, std::memory_order_acq_rel);
    }
    slot.tasks.fetch_add(ran, std::memory_order_relaxed);
    slot.steals.fetch_add(stole, std::memory_order_relaxed);
    slot.busy_ns.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
  }

  void worker_loop(std::size_t self) {
    std::uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(control_mutex_);
        work_available_.wait(lock, [&] {
          return stopping_ || generation_ != seen_generation;
        });
        if (stopping_) return;
        seen_generation = generation_;
        // Stale wake-up: this worker slept through a whole run (its tasks
        // were stolen). remaining_ and generation_ change together under
        // this mutex, so remaining_ == 0 here means there is nothing to
        // drain and fn_ may already be gone — park again rather than
        // touching the deques mid-deal of a later run.
        if (remaining_.load(std::memory_order_relaxed) == 0) continue;
        ++active_workers_;
      }
      drain(self);
      {
        const std::lock_guard<std::mutex> lock(control_mutex_);
        if (--active_workers_ == 0 &&
            remaining_.load(std::memory_order_relaxed) == 0) {
          all_done_.notify_all();
        }
      }
    }
  }

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::vector<std::thread> workers_;

  std::mutex control_mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::uint64_t generation_ = 0;     // bumps per run_tasks; wakes workers
  std::size_t active_workers_ = 0;   // workers inside drain()
  std::atomic<std::size_t> remaining_{0};
  bool stopping_ = false;
  std::exception_ptr first_error_;
  const std::function<void(std::size_t, std::size_t)>* fn_ = nullptr;

  const std::chrono::steady_clock::time_point start_time_;
};

}  // namespace ncps
