#include "index/predicate_index.h"

#include <algorithm>

#include "common/contracts.h"
#include "common/work_stealing_pool.h"

namespace ncps {

void PredicateIndex::add(PredicateId id, const Predicate& p) {
  NCPS_EXPECTS(p.attribute.valid());
  if (p.op == Operator::NotExists) {
    not_exists_.push_back(NotExistsEntry{p.attribute, id});
    return;
  }
  if (p.attribute.value() >= per_attribute_.size()) {
    per_attribute_.resize(p.attribute.value() + 1);
  }
  per_attribute_[p.attribute.value()].add(id, p);
}

bool PredicateIndex::remove(PredicateId id, const Predicate& p) {
  if (p.op == Operator::NotExists) {
    for (std::size_t i = 0; i < not_exists_.size(); ++i) {
      if (not_exists_[i].id == id) {
        not_exists_[i] = not_exists_.back();
        not_exists_.pop_back();
        return true;
      }
    }
    return false;
  }
  if (p.attribute.value() >= per_attribute_.size()) return false;
  return per_attribute_[p.attribute.value()].remove(id, p);
}

void PredicateIndex::bulk_load(std::span<const BulkEntry> entries,
                               WorkStealingPool* pool) {
  // Partition by attribute first: NotExists entries are cross-attribute
  // bookkeeping (sequential, cheap), everything else buckets to exactly one
  // AttributeIndex.
  std::uint32_t max_attribute = 0;
  for (const BulkEntry& entry : entries) {
    NCPS_EXPECTS(entry.predicate->attribute.valid());
    if (entry.predicate->op == Operator::NotExists) continue;
    max_attribute = std::max(max_attribute, entry.predicate->attribute.value());
  }
  if (max_attribute >= per_attribute_.size() && !entries.empty()) {
    per_attribute_.resize(max_attribute + 1);
  }
  std::vector<std::vector<BulkEntry>> buckets(per_attribute_.size());
  for (const BulkEntry& entry : entries) {
    if (entry.predicate->op == Operator::NotExists) {
      not_exists_.push_back(
          NotExistsEntry{entry.predicate->attribute, entry.id});
      continue;
    }
    buckets[entry.predicate->attribute.value()].push_back(entry);
  }
  std::vector<std::uint32_t> work;
  for (std::uint32_t a = 0; a < buckets.size(); ++a) {
    if (!buckets[a].empty()) work.push_back(a);
  }
  // One build task per attribute: tasks write disjoint AttributeIndex
  // objects (the vector itself was resized above), so no synchronisation is
  // needed beyond the pool's join.
  const auto build = [&](std::size_t i) {
    const std::uint32_t attribute = work[i];
    AttributeIndex& index = per_attribute_[attribute];
    for (const BulkEntry& entry : buckets[attribute]) {
      index.add(entry.id, *entry.predicate);
    }
  };
  if (pool == nullptr || work.size() <= 1) {
    for (std::size_t i = 0; i < work.size(); ++i) build(i);
  } else {
    pool->run_tasks(work.size(),
                    [&](std::size_t task, std::size_t /*worker*/) {
                      build(task);
                    });
  }
}

void PredicateIndex::match(const Event& event, const PredicateTable& table,
                           std::vector<PredicateId>& out) const {
  // Each attribute of the event is evaluated exactly once (§2.1: "applying
  // indexes means to evaluate each attribute only once").
  for (const Event::Entry& entry : event.entries()) {
    if (entry.attribute.value() >= per_attribute_.size()) continue;
    per_attribute_[entry.attribute.value()].stab(entry.value, table, out);
  }
  // NotExists predicates match on absence.
  for (const NotExistsEntry& entry : not_exists_) {
    if (!event.has(entry.attribute)) out.push_back(entry.id);
  }
}

void PredicateIndex::match_batch(std::span<const Event> events,
                                 const PredicateTable& table,
                                 std::vector<PredicateId>& flat,
                                 std::vector<std::uint32_t>& offsets) const {
  offsets.reserve(events.size() + 1);
  offsets.push_back(static_cast<std::uint32_t>(flat.size()));
  for (const Event& event : events) {
    match(event, table, flat);
    offsets.push_back(static_cast<std::uint32_t>(flat.size()));
  }
}

void PredicateIndex::stab_block(std::span<const Event> events,
                                std::size_t first_lane,
                                const PredicateTable& table,
                                BlockScratch& scratch, LaneRuns& out) const {
  NCPS_EXPECTS(first_lane + events.size() <= 64);
  // Group the block's values by attribute, in lane order (a counting sort:
  // attribute a's values end up in [starts[a], starts[a + 1])).
  const std::size_t bound = per_attribute_.size();
  std::vector<std::uint32_t>& starts = scratch.starts;
  starts.assign(bound + 2, 0);
  for (const Event& event : events) {
    for (const Event::Entry& entry : event.entries()) {
      if (entry.attribute.value() < bound) ++starts[entry.attribute.value() + 2];
    }
  }
  for (std::size_t a = 2; a < starts.size(); ++a) starts[a] += starts[a - 1];
  scratch.values.resize(starts.back());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t lane = std::uint64_t{1} << (first_lane + i);
    for (const Event::Entry& entry : events[i].entries()) {
      if (entry.attribute.value() >= bound) continue;
      scratch.values[starts[entry.attribute.value() + 1]++] =
          LaneValue{&entry.value, lane};
    }
  }
  for (std::size_t a = 0; a < bound; ++a) {
    if (starts[a] == starts[a + 1] || per_attribute_[a].empty()) continue;
    per_attribute_[a].stab_block(
        std::span<const LaneValue>(scratch.values.data() + starts[a],
                                   starts[a + 1] - starts[a]),
        table, scratch, out);
  }
  // NotExists predicates hold in the lanes that lack their attribute.
  for (const NotExistsEntry& entry : not_exists_) {
    std::uint64_t lanes = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (!events[i].has(entry.attribute)) {
        lanes |= std::uint64_t{1} << (first_lane + i);
      }
    }
    if (lanes == 0) continue;
    out.ids.push_back(entry.id);
    out.close(lanes);
  }
}

PostingList::Stats PredicateIndex::posting_stats() const {
  PostingList::Stats stats;
  for (const AttributeIndex& index : per_attribute_) {
    index.observe_postings(stats);
  }
  return stats;
}

MemoryBreakdown PredicateIndex::memory() const {
  MemoryBreakdown mem;
  std::size_t attribute_bytes =
      per_attribute_.capacity() * sizeof(AttributeIndex);
  for (const auto& index : per_attribute_) {
    attribute_bytes += index.memory_bytes();
  }
  mem.add("attribute_indexes", attribute_bytes);
  mem.add("not_exists_list", vector_bytes(not_exists_));
  return mem;
}

}  // namespace ncps
