// Shared machinery of the two counting baselines (paper §3.3).
//
// The counting algorithm [Yan & García-Molina; Pereira et al.] supports only
// conjunctive subscriptions, so registration canonicalises every expression:
// NNF → DNF, then each disjunct is installed as an independent *transformed
// subscription* (tid) — exactly the multiplication of registered
// subscriptions the paper attributes to canonical approaches.
//
// Per-tid state follows the paper's memory-friendly list/array
// implementation ([2]-style): a 1-byte required-predicate count, a 1-byte
// hit counter (max 255 predicates per conjunction, the paper assumes 256),
// a 4-byte owner (the original subscription), and array-based
// predicate→tid association lists.
//
// The paper's measured configuration stores nothing else ("without the
// support of unsubscriptions"); this implementation additionally keeps the
// tid→disjunct predicate lists needed to honour remove(). Those bytes are
// reported under the "unsub_support/" memory prefix so bench_memory can
// reproduce both configurations.
#pragma once

#include <cstdint>
#include <vector>

#include "common/epoch_set.h"
#include "engine/engine.h"
#include "engine/posting_store.h"
#include "subscription/dnf.h"

namespace ncps {

/// Raised when a disjunct exceeds the 1-byte counter range.
class SubscriptionTooLargeError : public std::runtime_error {
 public:
  explicit SubscriptionTooLargeError(std::size_t predicates)
      : std::runtime_error("conjunction with " + std::to_string(predicates) +
                           " predicates exceeds the counting algorithm's "
                           "255-predicate limit") {}
};

class CountingBase : public FilterEngine {
 public:
  /// `support_unsubscription = false` reproduces the paper's measured
  /// configuration exactly: the tid→predicate lists are not stored, memory
  /// drops accordingly, and remove() reports failure for every id.
  CountingBase(PredicateTable& table, DnfOptions options,
               bool support_unsubscription = true)
      : FilterEngine(table),
        options_(options),
        support_unsubscription_(support_unsubscription) {}

  /// Disjuncts wider than this overflow the 1-byte counters (the paper
  /// assumes 256 predicates per subscription).
  static constexpr std::size_t kMaxPredicatesPerDisjunct = 255;

  SubscriptionId add(const ast::Node& expression) override;
  bool remove(SubscriptionId id) override;
  void validate(const ast::Node& expression,
                PredicateTable& scratch) const override;
  [[nodiscard]] std::unique_ptr<MatchContext> make_context() const override;

  [[nodiscard]] std::size_t subscription_count() const override {
    return live_count_;
  }

  /// Transformed (conjunctive) subscriptions currently registered — the
  /// "multiple of the number of original registered subscriptions" the
  /// counting phase actually works on.
  [[nodiscard]] std::size_t transformed_count() const { return live_tids_; }

  [[nodiscard]] MemoryBreakdown memory() const override;

  /// Chunked posting accounting for the predicate→tid association table
  /// (BENCH_memory's phase-2 compression row).
  [[nodiscard]] PostingStore::Stats assoc_stats() const {
    return assoc_.stats();
  }

  void compact_storage() override;

 protected:
  using Tid = std::uint32_t;
  static constexpr std::uint8_t kDeadTid = 0;  // required_[tid]==0 ⇒ dead slot

  /// Per-thread match scratch for both counting engines. The hit vector is
  /// the paper's per-matcher working set — each matching thread owns one,
  /// and the all-zero-between-events invariant holds per context. The
  /// touched list/set are used by the variant engine only (empty otherwise).
  struct CountingContext final : MatchContext {
    std::vector<std::uint8_t> hits;  // hit vector, dense by tid
    EpochSet matched_subs;           // output de-duplication across disjuncts
    std::vector<Tid> touched;        // variant: tids bumped this event
    EpochSet touched_set;
  };

  Tid allocate_tid();

  struct SubRecord {
    std::vector<Tid> tids;
    std::vector<Disjunct> disjuncts;  // per-tid predicate lists (unsub support)
    bool live = false;
  };

  DnfOptions options_;
  bool support_unsubscription_;

  // Dense per-tid arrays (the counting algorithm's read-only working set;
  // the per-event hit vector lives in the CountingContext).
  std::vector<std::uint8_t> required_;  // subscription-predicate count vector
  std::vector<std::uint32_t> owner_;    // tid → original subscription id

  // Association table: id(p) → {tid}, chunked posting lists (footnote 2).
  PostingStore assoc_;

  // Original-subscription bookkeeping.
  std::vector<SubRecord> subs_;
  std::vector<SubscriptionId> free_ids_;
  std::vector<Tid> free_tids_;
  std::size_t live_count_ = 0;
  std::size_t live_tids_ = 0;

 private:
  SubscriptionId allocate_id();
};

}  // namespace ncps
