// Dense sets over [0, n) with O(1) clear, used on the matching hot path.
//
// Phase 2 of every engine needs "have I seen this id during *this* event?"
// queries over predicate ids and subscription ids. A hash set would allocate
// and rehash; clearing a bitmap is O(n) per event. An epoch-stamped array
// gives O(1) insert/contains and O(1) clear (bump the epoch), at 4 bytes per
// slot — the classic trick for per-event scratch state in pub/sub matchers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/contracts.h"

namespace ncps {

class EpochSet {
 public:
  EpochSet() = default;
  explicit EpochSet(std::size_t capacity) { resize(capacity); }

  /// Grow the id universe to [0, capacity). Keeps current membership.
  void resize(std::size_t capacity) { stamps_.resize(capacity, 0); }

  [[nodiscard]] std::size_t capacity() const { return stamps_.size(); }

  /// Insert id; returns true if it was not yet a member this epoch.
  bool insert(std::uint32_t id) {
    NCPS_DASSERT(id < stamps_.size());
    if (stamps_[id] == epoch_) return false;
    stamps_[id] = epoch_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint32_t id) const {
    NCPS_DASSERT(id < stamps_.size());
    return stamps_[id] == epoch_;
  }

  /// Empty the set in O(1). On epoch wrap-around (once per ~4G clears) the
  /// stamp array is zeroed to keep correctness.
  void clear() {
    ++epoch_;
    if (epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      epoch_ = 1;
    }
  }

  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  /// Test hook: jump the epoch counter (e.g. to ~0u so the next clear()
  /// exercises the wrap path). Stale stamps stay strictly behind any past
  /// epoch, so membership after the jump is empty unless ids are
  /// re-inserted — exactly the state a long-lived set would reach.
  void jump_epoch_for_test(std::uint32_t epoch) {
    NCPS_ASSERT(epoch != 0);
    epoch_ = epoch;
  }

  /// Unchecked read-only view for hot loops whose ids are known in-range
  /// (e.g. predicate ids read back out of the engine's own encoded trees).
  /// Invalidated by resize/clear.
  class View {
   public:
    View(const std::uint32_t* stamps, std::uint32_t epoch)
        : stamps_(stamps), epoch_(epoch) {}
    [[nodiscard]] bool contains(std::uint32_t id) const {
      return stamps_[id] == epoch_;
    }

   private:
    const std::uint32_t* stamps_;
    std::uint32_t epoch_;
  };

  [[nodiscard]] View view() const { return View(stamps_.data(), epoch_); }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 1;
};

}  // namespace ncps
