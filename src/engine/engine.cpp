#include "engine/engine.h"

#include <chrono>

namespace ncps {

void FilterEngine::finish_bulk_load(WorkStealingPool* pool) {
  NCPS_EXPECTS(bulk_loading_);
  bulk_loading_ = false;
  std::vector<PredicateIndex::BulkEntry> entries;
  entries.reserve(pending_ids_.size());
  for (const PredicateId id : pending_ids_) {
    pending_index_add_[id.value()] = 0;
    // Acquired-then-fully-released predicates were never indexed; skip them.
    if (use_count_[id.value()] > 0) {
      entries.push_back(PredicateIndex::BulkEntry{id, &table_->get(id)});
    }
  }
  pending_ids_.clear();
  pending_index_add_.clear();
  index_.bulk_load(entries, pool);
}

void FilterEngine::match_range(std::span<const Event> events,
                               std::size_t first, std::size_t last,
                               MatchSink& sink, MatchContext& ctx) const {
  NCPS_EXPECTS(first <= last && last <= events.size());
  if (first == last) return;
  const std::span<const Event> range = events.subspan(first, last - first);
  const auto start = std::chrono::steady_clock::now();
  ctx.fulfilled.clear();
  ctx.offsets.clear();
  index_.match_batch(range, *table_, ctx.fulfilled, ctx.offsets);
  const auto phase1_end = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < range.size(); ++i) {
    const std::span<const PredicateId> fulfilled(
        ctx.fulfilled.data() + ctx.offsets[i],
        ctx.offsets[i + 1] - ctx.offsets[i]);
    // Event indexes reported to the sink are batch-global: chunked tasks on
    // different workers all address the same per-event merge buffers.
    match_predicates(fulfilled, first + i, range[i], sink, ctx);
  }
  const auto end = std::chrono::steady_clock::now();
  ctx.stats.phase1_ns += static_cast<std::uint64_t>(
      std::chrono::nanoseconds(phase1_end - start).count());
  ctx.stats.phase2_ns += static_cast<std::uint64_t>(
      std::chrono::nanoseconds(end - phase1_end).count());
}

}  // namespace ncps
