#include "engine/non_canonical_tree_engine.h"

#include <algorithm>

#include "common/contracts.h"

namespace ncps {

SubscriptionId NonCanonicalTreeEngine::allocate_id() {
  if (!free_ids_.empty()) {
    const SubscriptionId id = free_ids_.back();
    free_ids_.pop_back();
    return id;
  }
  const SubscriptionId id(static_cast<std::uint32_t>(subs_.size()));
  subs_.emplace_back();
  locations_.emplace_back();
  return id;
}

void NonCanonicalTreeEngine::validate(const ast::Node& expression,
                                      PredicateTable& /*scratch*/) const {
  // Dry-run the encoder into a scratch buffer: it enforces its fixed-width
  // limits by throwing EncodeError, which is the only way add() can fail.
  std::vector<std::byte> scratch_bytes;
  (void)encode_tree(expression, scratch_bytes);
}

SubscriptionId NonCanonicalTreeEngine::add(const ast::Node& expression) {
  const SubscriptionId id = allocate_id();
  SubRecord& record = subs_[id.value()];

  // Encode the tree as the subscriber wrote it — no canonicalisation.
  const std::size_t offset = tree_bytes_.size();
  const std::size_t length = encode_tree(expression, tree_bytes_);
  NCPS_ASSERT(offset <= UINT32_MAX && length <= UINT32_MAX);
  locations_[id.value()] =
      Location{static_cast<std::uint32_t>(offset),
               static_cast<std::uint32_t>(length)};

  // Engine-owned references + association entries, one per unique predicate.
  pred_scratch_.clear();
  ast::collect_predicates(expression, pred_scratch_);
  std::sort(pred_scratch_.begin(), pred_scratch_.end());
  pred_scratch_.erase(
      std::unique(pred_scratch_.begin(), pred_scratch_.end()),
      pred_scratch_.end());
  record.unique_predicates = pred_scratch_;
  for (const PredicateId pid : record.unique_predicates) {
    acquire_predicate(pid);
    assoc_.ensure_lists(pid.value() + 1);
    // A predicate id entering this engine for the first time — including a
    // freed id recycled by the table for a structurally different predicate
    // — must have an empty association list, or stale postings from its
    // previous life would resurrect dead candidates.
    NCPS_DASSERT(use_count_[pid.value()] > 1 || assoc_.size(pid.value()) == 0);
    assoc_.add(pid.value(), id.value());
  }

  record.always_candidate = ast::matches_all_false(expression);
  if (record.always_candidate) always_candidates_.push_back(id);

  record.live = true;
  ++live_count_;
  return id;
}

bool NonCanonicalTreeEngine::remove(SubscriptionId id) {
  if (!id.valid() || id.value() >= subs_.size() || !subs_[id.value()].live) {
    return false;
  }
  SubRecord& record = subs_[id.value()];
  for (const PredicateId pid : record.unique_predicates) {
    const bool removed = assoc_.remove(pid.value(), id.value());
    NCPS_ASSERT(removed);  // every registered posting must still be present
    release_predicate(pid);
  }
  if (record.always_candidate) {
    auto& list = always_candidates_;
    list.erase(std::remove(list.begin(), list.end(), id), list.end());
  }
  record = SubRecord{};
  dead_bytes_ += locations_[id.value()].length;
  locations_[id.value()] = Location{};
  free_ids_.push_back(id);
  --live_count_;
  return true;
}

std::unique_ptr<MatchContext> NonCanonicalTreeEngine::make_context() const {
  return std::make_unique<TreeContext>();
}

void NonCanonicalTreeEngine::match_predicates_impl(
    std::span<const PredicateId> fulfilled, std::size_t event_index,
    const Event& event, MatchSink& sink, MatchContext& ctx) const {
  match_impl(fulfilled, static_cast<TreeContext&>(ctx),
             [&](SubscriptionId sid) {
               sink.on_match(event_index, event, sid);
             });
}

template <typename Emit>
void NonCanonicalTreeEngine::match_impl(std::span<const PredicateId> fulfilled,
                                        TreeContext& ctx, Emit&& emit) const {
  if (ctx.truth.capacity() < table_->id_bound()) {
    ctx.truth.resize(table_->id_bound());
  }
  if (ctx.seen_subs.capacity() < subs_.size()) {
    ctx.seen_subs.resize(subs_.size());
  }
  ctx.truth.clear();
  ctx.seen_subs.clear();

  // Mark fulfilled predicates for O(1) truth lookups during evaluation.
  for (const PredicateId pid : fulfilled) {
    if (pid.value() < ctx.truth.capacity()) ctx.truth.insert(pid.value());
  }

  // Leaf ids inside this engine's encoded trees are always within the truth
  // array (sized to the table's id bound at match start), so the per-leaf
  // lookup can skip bounds checks — it is the innermost operation of
  // subscription matching.
  const EpochSet::View truth_view = ctx.truth.view();
  const auto truth = [truth_view, &ctx](PredicateId pid) {
    ++ctx.stats.truth_lookups;
    return truth_view.contains(pid.value());
  };

  const auto evaluate_candidate = [&](SubscriptionId sid) {
    if (!ctx.seen_subs.insert(sid.value())) return;  // already examined
    ++ctx.stats.candidates;
    const Location loc = locations_[sid.value()];
    const std::span<const std::byte> tree(tree_bytes_.data() + loc.offset,
                                          loc.length);
    ++ctx.stats.tree_evaluations;
    if (evaluate_encoded(tree, truth)) {
      emit(sid);
      ++ctx.stats.matches;
    }
  };

  // Candidate subscriptions: those containing ≥1 fulfilled predicate…
  for (const PredicateId pid : fulfilled) {
    if (pid.value() >= assoc_.list_count()) continue;
    assoc_.for_each(pid.value(), [&](std::uint32_t sid) {
      evaluate_candidate(SubscriptionId(sid));
    });
  }
  // …plus the ones satisfiable with no fulfilled predicate at all.
  for (const SubscriptionId sid : always_candidates_) {
    evaluate_candidate(sid);
  }
}

void NonCanonicalTreeEngine::compact_tree_storage() {
  std::vector<std::byte> compacted;
  compacted.reserve(tree_bytes_.size() - dead_bytes_);
  for (std::uint32_t i = 0; i < subs_.size(); ++i) {
    if (!subs_[i].live) continue;
    Location& loc = locations_[i];
    const std::size_t new_offset = compacted.size();
    compacted.insert(compacted.end(), tree_bytes_.begin() + loc.offset,
                     tree_bytes_.begin() + loc.offset + loc.length);
    loc.offset = static_cast<std::uint32_t>(new_offset);
  }
  tree_bytes_ = std::move(compacted);
  dead_bytes_ = 0;
}

void NonCanonicalTreeEngine::compact_storage() {
  FilterEngine::compact_storage();
  compact_tree_storage();
  tree_bytes_.shrink_to_fit();
  locations_.shrink_to_fit();
  subs_.shrink_to_fit();
  for (auto& record : subs_) record.unique_predicates.shrink_to_fit();
  free_ids_.shrink_to_fit();
  assoc_.shrink_to_fit();
  always_candidates_.shrink_to_fit();
  pred_scratch_.shrink_to_fit();
}

MemoryBreakdown NonCanonicalTreeEngine::memory() const {
  MemoryBreakdown mem;
  mem.add("encoded_trees", vector_bytes(tree_bytes_));
  mem.add("subscription_location_table", vector_bytes(locations_));
  mem.add("association_table", assoc_.memory_bytes());
  mem.add("always_candidate_list", vector_bytes(always_candidates_));
  // Unsubscription support: the subscription → predicates association the
  // paper discusses in §2.1/footnote 1.
  std::size_t record_bytes = subs_.capacity() * sizeof(SubRecord);
  for (const auto& r : subs_) {
    record_bytes += r.unique_predicates.capacity() * sizeof(PredicateId);
  }
  mem.add("unsub_support/subscription_predicates", record_bytes);
  mem.add("scratch/free_ids", vector_bytes(free_ids_));
  mem.add_nested("index/", index_.memory());
  return mem;
}

}  // namespace ncps
