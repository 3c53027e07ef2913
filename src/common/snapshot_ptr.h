// Copy-on-write snapshot publication: readers take a reference-counted copy
// of the current value, writers build a new value and swap it in.
//
// A plain std::shared_ptr behind a mutex that is held only for the pointer
// copy or swap. It replaces std::atomic<std::shared_ptr<const T>>, whose
// libstdc++ 12 implementation unlocks its internal spinlock with a relaxed
// store that ThreadSanitizer cannot see as synchronisation (GCC PR 113386),
// so every read-vs-swap was reported as a race. The broker's readers load a
// snapshot once per publish batch or control call, never per notification,
// so the uncontended lock costs nothing measurable.
//
// Writers that read-modify-write (copy the current map, change it, store
// it) must be serialised externally; the broker's control mutex does this.
#pragma once

#include <memory>
#include <mutex>
#include <utility>

namespace ncps {

template <typename T>
class SnapshotPtr {
 public:
  [[nodiscard]] std::shared_ptr<const T> load() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return current_;
  }

  /// Publish `next`. The previous value is released after the lock drops,
  /// so a writer holding its last reference never destroys it under the
  /// lock.
  void store(std::shared_ptr<const T> next) {
    const std::lock_guard<std::mutex> lock(mutex_);
    current_.swap(next);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const T> current_ = std::make_shared<const T>();
};

}  // namespace ncps
