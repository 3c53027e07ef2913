// Compact predicate-id posting list for the phase-1 index structures.
//
// The paper's workload ("we do not assume high predicate redundancy") makes
// most posting lists singletons, so the representation is sized for that
// case first: a PostingList is 16 bytes and stores up to two ids inline with
// no heap allocation at all. Lists that grow past two entries spill to a
// heap Rep holding
//
//   - `packed`:  the sorted bulk of the list as delta varints, cut into
//                blocks of 64 ids. Each block's first id lives only in the
//                `skips` directory (value + byte offset), so a stab can seek
//                to a block by binary search and decode just that block.
//   - `tail`:    recent adds, unsorted — add() is O(1) and compaction is
//                deferred until the tail outgrows a geometric threshold, so
//                a bulk load of n ids does O(n log n) total work, not O(n²).
//   - `dead`:    tombstoned ids still present in `packed` (sorted); they are
//                skipped on decode and physically dropped at the next
//                compaction.
//
// Decoding is branch-light: a SWAR fast path consumes eight one-byte deltas
// at a time whenever the next eight continuation bits are all clear (the
// common case for dense id ranges).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/contracts.h"
#include "common/ids.h"

namespace ncps {

class PostingList {
 public:
  PostingList() = default;

  ~PostingList() {
    if (spilled()) delete store_.rep;
  }

  PostingList(PostingList&& other) noexcept
      : count_(other.count_), store_(other.store_) {
    other.count_ = 0;
  }

  PostingList& operator=(PostingList&& other) noexcept {
    if (this != &other) {
      if (spilled()) delete store_.rep;
      count_ = other.count_;
      store_ = other.store_;
      other.count_ = 0;
    }
    return *this;
  }

  // Accidental copies of a hot-path structure are bugs; tests that need a
  // duplicate rebuild it from for_each.
  PostingList(const PostingList&) = delete;
  PostingList& operator=(const PostingList&) = delete;

  /// Append one id. Ids are unique per list (callers pair each add with at
  /// most one remove); amortised O(1).
  void add(std::uint32_t id);

  /// Remove one id. Returns false if absent. Tombstones the packed region;
  /// lists shrinking to <= 2 live ids collapse back to the inline form.
  bool remove(std::uint32_t id);

  [[nodiscard]] bool contains(std::uint32_t id) const;

  [[nodiscard]] std::uint32_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Invoke fn(std::uint32_t) for every live id. Order is unspecified
  /// (sorted bulk first, then recent adds).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (!spilled()) {
      for (std::uint32_t i = 0; i < count_; ++i) fn(store_.ids[i]);
      return;
    }
    const Rep& r = *store_.rep;
    std::size_t d = 0;
    decode_packed(r, [&](std::uint32_t v) {
      if (d < r.dead.size() && r.dead[d] == v) {
        ++d;
        return;
      }
      fn(v);
    });
    for (const std::uint32_t v : r.tail) fn(v);
  }

  /// Append every live id to `out` as PredicateIds (the stab output form).
  void append_to(std::vector<PredicateId>& out) const {
    // Grow geometrically, never to the exact fit: reserve(size + count_)
    // would cap capacity at the request, and a stab that appends thousands
    // of small lists into one output vector would then copy the whole
    // vector once per list — quadratic in the fulfilled-set size.
    if (out.capacity() < out.size() + count_) {
      out.reserve(std::max(out.size() + count_, out.capacity() * 2));
    }
    for_each([&](std::uint32_t v) { out.push_back(PredicateId(v)); });
  }

  /// Fold tail and tombstones into the packed encoding now.
  void compact();

  /// compact() plus release of vector growth slack (steady-state footprint).
  void shrink_to_fit();

  /// Heap bytes beyond sizeof(PostingList); 0 for inline lists.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// What the seed's std::vector<PredicateId> representation would hold
  /// resident for a list of `entries` ids: header + elements.
  [[nodiscard]] static std::size_t uncompressed_bytes(std::size_t entries) {
    return sizeof(std::vector<PredicateId>) + entries * sizeof(PredicateId);
  }

  /// Aggregated accounting over many lists, for BENCH_memory and the
  /// compression-ratio acceptance check.
  struct Stats {
    std::size_t lists = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;           ///< sizeof(PostingList) + heap, summed
    std::size_t baseline_bytes = 0;  ///< uncompressed_bytes, summed

    void observe(const PostingList& list) {
      ++lists;
      entries += list.size();
      bytes += sizeof(PostingList) + list.memory_bytes();
      baseline_bytes += uncompressed_bytes(list.size());
    }
  };

 private:
  struct Rep {
    std::vector<std::uint8_t> packed;  ///< delta varints, blocks of kBlockIds
    std::vector<std::uint32_t> skips;  ///< per block: first id, byte offset
    std::vector<std::uint32_t> tail;   ///< recent adds, unsorted
    std::vector<std::uint32_t> dead;   ///< tombstones in packed, sorted
    std::uint32_t packed_count = 0;
  };

  union Store {
    std::uint32_t ids[2];
    Rep* rep;
  };

  static constexpr std::uint32_t kInlineCapacity = 2;
  static constexpr std::uint32_t kBlockIds = 64;
  // Geometric dirtiness thresholds: a fixed cutoff would recompact a large
  // list every few adds (O(n²) bulk build); growing the allowance with the
  // packed size keeps total compaction work linearithmic.
  static constexpr std::size_t kTailSlack = 32;
  static constexpr std::size_t kDeadSlack = 16;

  [[nodiscard]] bool spilled() const { return count_ > kInlineCapacity; }

  /// Decode one block of `r.packed`, calling fn(id) for each id including
  /// tombstoned ones (callers filter).
  template <typename Fn>
  static void decode_block(const Rep& r, std::size_t block, Fn&& fn) {
    const std::size_t blocks = r.skips.size() / 2;
    NCPS_DASSERT(block < blocks);
    std::uint32_t value = r.skips[2 * block];
    fn(value);
    const std::uint8_t* p = r.packed.data() + r.skips[2 * block + 1];
    const std::uint8_t* stop =
        block + 1 < blocks ? r.packed.data() + r.skips[2 * block + 3]
                           : r.packed.data() + r.packed.size();
    while (p < stop) {
      if (stop - p >= 8) {
        // SWAR fast path: eight clear continuation bits mean eight
        // single-byte deltas.
        std::uint64_t w;
        std::memcpy(&w, p, sizeof(w));
        if ((w & 0x8080808080808080ULL) == 0) {
          for (int i = 0; i < 8; ++i) {
            value += static_cast<std::uint32_t>((w >> (8 * i)) & 0x7f);
            fn(value);
          }
          p += 8;
          continue;
        }
      }
      std::uint32_t delta = 0;
      int shift = 0;
      std::uint8_t byte;
      do {
        byte = *p++;
        delta |= static_cast<std::uint32_t>(byte & 0x7f) << shift;
        shift += 7;
      } while ((byte & 0x80) != 0);
      value += delta;
      fn(value);
    }
  }

  template <typename Fn>
  static void decode_packed(const Rep& r, Fn&& fn) {
    const std::size_t blocks = r.skips.size() / 2;
    for (std::size_t b = 0; b < blocks; ++b) decode_block(r, b, fn);
  }

  /// Rebuild packed+skips from a sorted id array.
  static void encode(Rep& r, const std::vector<std::uint32_t>& ids);

  /// Is `id` present in the packed region (tombstones not consulted)?
  [[nodiscard]] static bool packed_contains(const Rep& r, std::uint32_t id);

  void compact_rep(Rep& r);
  void maybe_compact(Rep& r);
  /// Drop the heap Rep, keeping all live ids except `excluded` inline.
  /// Precondition: live count minus the exclusion fits inline.
  void collapse_excluding(std::uint32_t excluded, bool skip_one);

  std::uint32_t count_ = 0;  ///< live ids; > kInlineCapacity means spilled
  Store store_{};
};

}  // namespace ncps
