#include "engine/engine.h"

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

void FilterEngine::match_slice(std::span<const Event> range,
                               std::size_t first, MatchSink& sink,
                               MatchContext& ctx) const {
  Clock::time_point now = Clock::now();
  ctx.fulfilled.clear();
  ctx.offsets.clear();
  index_.match_batch(range, *table_, ctx.fulfilled, ctx.offsets);
  now = lap(now, ctx.stats.phase1_ns);
  match_each(range, first, sink, ctx);
  lap(now, ctx.stats.phase2_ns);
}

void FilterEngine::match_each(std::span<const Event> range,
                              std::size_t first, MatchSink& sink,
                              MatchContext& ctx) const {
  for (std::size_t i = 0; i < range.size(); ++i) {
    const std::span<const PredicateId> fulfilled(
        ctx.fulfilled.data() + ctx.offsets[i],
        ctx.offsets[i + 1] - ctx.offsets[i]);
    // Event indexes reported to the sink are batch-global: chunked tasks on
    // different workers all address the same per-event merge buffers.
    match_predicates(fulfilled, first + i, range[i], sink, ctx);
  }
}

}  // namespace ncps
