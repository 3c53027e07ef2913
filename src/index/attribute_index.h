// Per-attribute predicate index: the phase-1 work for one event attribute.
//
// Predicates on one attribute are spread over operator-class-specific
// structures (paper §3.2: "These indexes are applied based on operators used
// in predicates"):
//
//   Eq                  → hash index on the interned operand value
//   Lt, Le, Gt, Ge      → one B+ tree per operator with one entry per
//     (numeric)           predicate, keyed by (bound, id); each leaf keeps
//                         its ids in one contiguous array. The fulfilled
//                         entries are a prefix (Gt: bounds < v, Ge: ≤ v) or
//                         a suffix (Lt: bounds > v, Le: ≥ v), so a stab is
//                         one boundary search per tree plus a copy of each
//                         leaf's id span
//   Between (numeric)   → width classes: each interval is filed by the
//                         least power of two above hi − lo (0 for a point,
//                         one open-ended class for widths that overflow);
//                         each class is a B+ tree keyed on lo with per-key
//                         runs sorted by hi DESCENDING. A stab starts each
//                         class at lo ≥ v − 2^e, so a run it visits either
//                         matches or starts in [v − 2^e, v − 2^(e−1)), a
//                         window no wider than the one matches start in:
//                         probes stay near 2 × matches + classes, not every
//                         interval with lo ≤ v
//   Prefix (string)     → hash index keyed by prefix; stab probes every
//                         prefix of the event string as a string_view
//                         (O(|v|) probes, zero allocations)
//   Exists              → plain posting list (matches on presence)
//   everything else     → scan list, evaluated predicate-by-predicate
//                         (Ne, NotBetween, Suffix, Contains, negative string
//                         ops, and ordered comparisons on non-numeric
//                         operands)
//
// The hash indexes, Exists and the scan list keep their ids in the
// compressed PostingList (posting_list.h).
//
// Every predicate registered on this attribute lives in exactly one of these
// structures, so a stab emits each matching id exactly once.
//
// stab_block stabs the values of up to 64 events at once (DESIGN.md §5)
// and reports each fulfilled id with the lane mask of the events it holds
// in. The range trees are merge-walked once per block against the block's
// sorted values, one mask per entry; every other structure is stabbed per
// event and tags its ids with that event's lane bit.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/memory_tracker.h"
#include "event/value.h"
#include "index/bplus_tree.h"
#include "index/hash_index.h"
#include "index/posting_list.h"
#include "predicate/predicate.h"
#include "predicate/predicate_table.h"

namespace ncps {

/// A block stab's output over up to 64 events, one lane bit per event:
/// `ids` cut into runs, each fulfilled by exactly the events whose bits its
/// `lanes` has set. Run r covers ids [runs[r - 1].end, runs[r].end), so
/// every id belongs to a run once close() has been called.
struct LaneRuns {
  struct Run {
    std::uint32_t end;
    std::uint64_t lanes;
  };
  std::vector<PredicateId> ids;
  std::vector<Run> runs;

  void clear() {
    ids.clear();
    runs.clear();
  }
  /// Ends the ids appended since the last run at `end` as one run held in
  /// `lanes`; merges into the last run when its lanes are the same.
  void close_at(std::size_t end, std::uint64_t lanes) {
    const std::uint32_t begin = runs.empty() ? 0 : runs.back().end;
    if (end == begin) return;
    if (!runs.empty() && runs.back().lanes == lanes) {
      runs.back().end = static_cast<std::uint32_t>(end);
    } else {
      runs.push_back(Run{static_cast<std::uint32_t>(end), lanes});
    }
  }
  void close(std::uint64_t lanes) { close_at(ids.size(), lanes); }
};

/// One event's value for an attribute in a block stab, with its lane bit.
struct LaneValue {
  const Value* value;
  std::uint64_t lane;
};

/// Caller-owned scratch of a block stab, one per matching thread.
struct BlockScratch {
  std::vector<LaneValue> values;      // the block's values, by attribute
  std::vector<std::uint32_t> starts;  // per attribute, its first value
  struct Sorted {
    double value;
    std::uint64_t lane;
  };
  std::vector<Sorted> sorted;         // one attribute's numeric values
  std::vector<std::uint64_t> below;   // below[j]: lanes of sorted[0, j)
  std::vector<std::uint64_t> from;    // from[j]: lanes of sorted[j, end)
};

class AttributeIndex {
 public:
  /// Register a predicate. `id` must not currently be registered here:
  /// posting lists hold sets, not multisets (the engine adds an id exactly
  /// once per live period — on the 0→1 use-count transition).
  void add(PredicateId id, const Predicate& p);

  /// Remove a previously added predicate. Returns true if found.
  bool remove(PredicateId id, const Predicate& p);

  /// Append all predicate ids on this attribute matching `value`.
  /// `table` resolves scan-list predicates.
  void stab(const Value& value, const PredicateTable& table,
            std::vector<PredicateId>& out) const;

  /// Block stab: append to `out` every predicate id on this attribute that
  /// some value in `values` fulfils, in runs whose lanes are the lane bits
  /// of exactly those values. Equals stab() per value with the lane bits
  /// ORed per id. Each range-tree id appears once per call.
  void stab_block(std::span<const LaneValue> values,
                  const PredicateTable& table, BlockScratch& scratch,
                  LaneRuns& out) const;

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t indexed_count() const { return indexed_count_; }
  [[nodiscard]] std::size_t scan_count() const { return scan_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Interval entries examined across all stabs so far (each hi comparison
  /// counts one). The interval tests assert this stays near the matches per
  /// stab instead of linear in the intervals with lo <= v.
  [[nodiscard]] std::uint64_t interval_probe_count() const {
    return interval_probes_.value.load(std::memory_order_relaxed);
  }
  void reset_interval_probe_count() {
    interval_probes_.value.store(0, std::memory_order_relaxed);
  }

  /// Aggregate the compressed-posting accounting for BENCH_memory.
  void observe_postings(PostingList::Stats& stats) const;

 private:
  /// Orders one operator's predicates by bound; the id breaks ties, so
  /// every predicate has its own entry.
  struct RangeKey {
    double bound = 0;
    std::uint32_t id = 0;
    friend bool operator<(const RangeKey& a, const RangeKey& b) {
      return a.bound < b.bound || (a.bound == b.bound && a.id < b.id);
    }
  };

  struct IntervalEntry {
    double hi;
    std::uint32_t id;
  };

  /// Intervals sharing one lo key, ordered by hi descending — the stab
  /// breaks at the first non-matching hi.
  struct IntervalRun {
    std::vector<IntervalEntry> entries;

    void insert(double hi, PredicateId id) {
      const auto pos = std::lower_bound(
          entries.begin(), entries.end(), hi,
          [](const IntervalEntry& e, double h) { return e.hi > h; });
      entries.insert(pos, IntervalEntry{hi, id.value()});
    }

    bool erase(PredicateId id) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].id == id.value()) {
          entries.erase(entries.begin() +
                        static_cast<std::ptrdiff_t>(i));  // keep hi order
          return true;
        }
      }
      return false;
    }

    [[nodiscard]] bool empty() const { return entries.empty(); }
    [[nodiscard]] std::size_t memory_bytes() const {
      return vector_bytes(entries);
    }
  };

  using RangeTree = BPlusTree<RangeKey, PredicateId>;
  using IntervalTree = BPlusTree<double, IntervalRun>;

  /// The intervals whose width is below `reach` and at least half of it
  /// (all of them, for the point class reach == 0 and the open-ended class
  /// reach == inf), keyed by lo.
  struct WidthClass {
    double reach;
    IntervalTree by_lo;
  };

  /// The tree of Lt, Le, Gt or Ge.
  RangeTree& range_tree(Operator op);

  // Per-value parts of stab() that stab_block runs once per event.
  void stab_intervals(double v, std::vector<PredicateId>& out) const;
  void stab_prefixes(const Value& value, std::vector<PredicateId>& out) const;
  void stab_scan(const Value& value, const PredicateTable& table,
                 std::vector<PredicateId>& out) const;

  HashIndex eq_;
  RangeTree lt_;
  RangeTree le_;
  RangeTree gt_;
  RangeTree ge_;
  std::vector<WidthClass> between_;  // non-empty classes, reach ascending
  HashIndex prefix_;        // string operands interned as dictionary slots
  PostingList exists_;
  PostingList scan_;
  std::size_t indexed_count_ = 0;
  // The const stab path runs concurrently from match workers, so this
  // mutable instrumentation counter must be atomic (relaxed: it is a
  // telemetry total, not a synchronisation point). A stab counts its probes
  // locally and adds them once, so workers do not trade the cache line per
  // probe. The wrapper restores copy/move — AttributeIndex lives in a
  // vector, and relocation only happens on the (exclusive) control path.
  struct ProbeCounter {
    std::atomic<std::uint64_t> value{0};
    ProbeCounter() = default;
    ProbeCounter(const ProbeCounter& other)
        : value(other.value.load(std::memory_order_relaxed)) {}
    ProbeCounter& operator=(const ProbeCounter& other) {
      value.store(other.value.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
  };
  mutable ProbeCounter interval_probes_;
};

}  // namespace ncps
