// Phase 1 of event filtering: predicate matching (paper §3.2, Fig. 2 top).
//
// "In the first step of event filtering (predicate matching) all predicates
// matching an event e are determined ... accomplished by the application of
// one-dimensional index structures such as hash tables or B+ trees."
//
// The PredicateIndex fans an event's attributes out to per-attribute
// AttributeIndex structures and handles the one cross-attribute operator
// (NotExists). Output: the list of matching predicate ids, each exactly once
// — the {id(p)} set handed to phase 2 — or, for a block of events, the ids
// with the lane mask of the events each one holds in.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/memory_tracker.h"
#include "event/event.h"
#include "index/attribute_index.h"
#include "predicate/predicate_table.h"

namespace ncps {

class WorkStealingPool;

class PredicateIndex {
 public:
  void add(PredicateId id, const Predicate& p);
  bool remove(PredicateId id, const Predicate& p);

  /// One predicate of a bulk load; the Predicate must stay alive and
  /// unmoved until bulk_load returns (PredicateTable slots qualify as long
  /// as nothing interns concurrently).
  struct BulkEntry {
    PredicateId id;
    const Predicate* predicate;
  };

  /// Register a batch of predicates at once — equivalent to add() in a loop
  /// but partitioned by attribute, so each AttributeIndex is built
  /// independently (and, given a pool, in parallel: attribute indexes are
  /// disjoint structures, one build task per attribute touches no shared
  /// state). `pool` may be null for a sequential build. May be called on a
  /// non-empty index; entries merge with existing postings.
  void bulk_load(std::span<const BulkEntry> entries, WorkStealingPool* pool);

  /// Append every registered predicate matching `event` to `out`.
  void match(const Event& event, const PredicateTable& table,
             std::vector<PredicateId>& out) const;

  /// Phase 1 for a whole batch: every event's fulfilled set, concatenated
  /// into `flat`; `offsets` gets events.size()+1 entries delimiting each
  /// event's slice. One traversal of the index structures serves the whole
  /// batch, so lookup setup and buffer growth amortise across events.
  void match_batch(std::span<const Event> events, const PredicateTable& table,
                   std::vector<PredicateId>& flat,
                   std::vector<std::uint32_t>& offsets) const;

  /// Phase 1 for a block of events, each event i on lane first_lane + i
  /// (at most 64 lanes): append every predicate some event fulfils to
  /// `out`, in runs tagged with the lanes of exactly the events that
  /// fulfil it. Equals match() per event with the lane bits ORed per id;
  /// each attribute index is stabbed once for the block (DESIGN.md §5).
  void stab_block(std::span<const Event> events, std::size_t first_lane,
                  const PredicateTable& table, BlockScratch& scratch,
                  LaneRuns& out) const;

  [[nodiscard]] std::size_t attribute_count() const { return per_attribute_.size(); }
  [[nodiscard]] MemoryBreakdown memory() const;

  /// Compressed-posting accounting across every attribute index (bytes vs
  /// the seed's uncompressed vector representation), for BENCH_memory.
  [[nodiscard]] PostingList::Stats posting_stats() const;

  /// The per-attribute index for one attribute, or nullptr if none is
  /// registered there (test/bench introspection, e.g. probe counters).
  [[nodiscard]] const AttributeIndex* attribute_index(AttributeId attr) const {
    if (!attr.valid() || attr.value() >= per_attribute_.size()) return nullptr;
    return &per_attribute_[attr.value()];
  }

 private:
  struct NotExistsEntry {
    AttributeId attribute;
    PredicateId id;
  };

  std::vector<AttributeIndex> per_attribute_;  // dense by AttributeId
  std::vector<NotExistsEntry> not_exists_;
};

}  // namespace ncps
