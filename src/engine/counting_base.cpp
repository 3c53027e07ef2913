#include "engine/counting_base.h"

namespace ncps {

SubscriptionId CountingBase::allocate_id() {
  if (!free_ids_.empty()) {
    const SubscriptionId id = free_ids_.back();
    free_ids_.pop_back();
    return id;
  }
  const SubscriptionId id(static_cast<std::uint32_t>(subs_.size()));
  subs_.emplace_back();
  return id;
}

CountingBase::Tid CountingBase::allocate_tid() {
  if (!free_tids_.empty()) {
    const Tid tid = free_tids_.back();
    free_tids_.pop_back();
    return tid;
  }
  const Tid tid = static_cast<Tid>(required_.size());
  required_.push_back(kDeadTid);
  owner_.push_back(0);
  return tid;
}

std::unique_ptr<MatchContext> CountingBase::make_context() const {
  return std::make_unique<CountingContext>();
}

void CountingBase::validate(const ast::Node& expression,
                            PredicateTable& scratch) const {
  ast::Expr nnf_holder;
  const Dnf dnf = canonicalize(expression, scratch, nnf_holder, options_);
  for (const Disjunct& d : dnf.disjuncts) {
    if (d.size() > kMaxPredicatesPerDisjunct) {
      throw SubscriptionTooLargeError(d.size());
    }
  }
}

SubscriptionId CountingBase::add(const ast::Node& expression) {
  // Canonicalise: the transformation this engine family cannot avoid.
  ast::Expr nnf_holder;
  Dnf dnf = canonicalize(expression, *table_, nnf_holder, options_);
  NCPS_ASSERT(!dnf.disjuncts.empty());
  for (const Disjunct& d : dnf.disjuncts) {
    if (d.size() > kMaxPredicatesPerDisjunct) {
      throw SubscriptionTooLargeError(d.size());
    }
  }

  const SubscriptionId id = allocate_id();
  SubRecord& record = subs_[id.value()];
  record.tids.reserve(dnf.disjuncts.size());

  for (Disjunct& d : dnf.disjuncts) {
    const Tid tid = allocate_tid();
    required_[tid] = static_cast<std::uint8_t>(d.size());
    owner_[tid] = id.value();
    for (const PredicateId pid : d) {
      acquire_predicate(pid);
      assoc_.ensure_lists(pid.value() + 1);
      // First engine-local use of this id (possibly a recycled one): stale
      // postings from its previous life must not have survived removal.
      NCPS_DASSERT(use_count_[pid.value()] > 1 ||
                   assoc_.size(pid.value()) == 0);
      assoc_.add(pid.value(), tid);
    }
    ++live_tids_;
    if (support_unsubscription_) {
      // Only removal needs the tid list and the per-tid predicate lists;
      // the paper's configuration stores neither.
      record.tids.push_back(tid);
      record.disjuncts.push_back(std::move(d));
    }
  }

  record.live = true;
  ++live_count_;
  return id;
}

bool CountingBase::remove(SubscriptionId id) {
  // The paper's configuration does not store the subscription→predicate
  // association needed here (§3.3: "without the support of unsubscriptions").
  if (!support_unsubscription_) return false;
  if (!id.valid() || id.value() >= subs_.size() || !subs_[id.value()].live) {
    return false;
  }
  SubRecord& record = subs_[id.value()];
  for (std::size_t i = 0; i < record.tids.size(); ++i) {
    const Tid tid = record.tids[i];
    for (const PredicateId pid : record.disjuncts[i]) {
      const bool removed = assoc_.remove(pid.value(), tid);
      NCPS_ASSERT(removed);  // every registered posting must still be present
      release_predicate(pid);
    }
    required_[tid] = kDeadTid;
    free_tids_.push_back(tid);
    --live_tids_;
  }
  record = SubRecord{};
  free_ids_.push_back(id);
  --live_count_;
  return true;
}

void CountingBase::compact_storage() {
  FilterEngine::compact_storage();
  required_.shrink_to_fit();
  owner_.shrink_to_fit();
  assoc_.shrink_to_fit();
  subs_.shrink_to_fit();
  for (auto& record : subs_) {
    record.tids.shrink_to_fit();
    record.disjuncts.shrink_to_fit();
    for (auto& d : record.disjuncts) d.shrink_to_fit();
  }
  free_ids_.shrink_to_fit();
  free_tids_.shrink_to_fit();
}

MemoryBreakdown CountingBase::memory() const {
  MemoryBreakdown mem;
  mem.add("required_count_vector", vector_bytes(required_));
  mem.add("owner_table", vector_bytes(owner_));
  mem.add("association_table", assoc_.memory_bytes());
  std::size_t record_bytes = subs_.capacity() * sizeof(SubRecord);
  for (const auto& r : subs_) {
    record_bytes += vector_bytes(r.tids);
    record_bytes += nested_vector_bytes(r.disjuncts);
  }
  mem.add("unsub_support/subscription_disjuncts", record_bytes);
  mem.add("scratch/free_ids", vector_bytes(free_ids_));
  mem.add("scratch/free_tids", vector_bytes(free_tids_));
  mem.add_nested("index/", index_.memory());
  return mem;
}

}  // namespace ncps
