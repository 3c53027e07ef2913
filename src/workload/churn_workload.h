// Subscription-churn workload: an interleaved stream of subscribe /
// unsubscribe / publish operations.
//
// The paper's workload (§4) registers a fixed subscription population and
// then only publishes; a broker serving real feeds sees subscriptions
// arrive and die continuously while events flow. This generator models
// that regime with two knobs the churn bench and fuzz tests sweep:
//
//   - churn_rate: expected control operations (subscribe + unsubscribe)
//     per published event, accumulated as fractional credit so any rate in
//     [0, ∞) is exact in the long run;
//   - Zipf-skewed lifetimes: each subscription is assigned a lifetime (in
//     published events) of rank drawn from Zipf(s) — most subscriptions are
//     short-lived, a heavy tail lives ~lifetime_ranks times longer, the
//     usual shape of session-scoped vs standing interests.
//
// The stream is deterministic given the seed. Subscriptions are identified
// by dense *handles* (0, 1, 2, …, in subscribe order); the driver maps
// handles to whatever SubscriptionIds its broker hands out. Expired
// subscriptions are unsubscribed in deadline order (earliest first), so the
// realised lifetimes follow the assigned distribution.
//
// Subscription shapes and events come from an embedded PaperWorkload, so
// churn results compare directly against the static-population benches.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "common/random.h"
#include "event/event.h"
#include "event/schema.h"
#include "predicate/predicate_table.h"
#include "workload/paper_workload.h"
#include "workload/zipf.h"

namespace ncps {

struct ChurnWorkloadConfig {
  /// Steady-state live subscription population (also the warm-up fill).
  std::size_t target_population = 1000;
  /// Expected control operations per published event (0 = static).
  double churn_rate = 0.01;
  /// Subscriber sessions the generated subscriptions spread across.
  std::size_t subscriber_count = 4;
  /// Zipf exponent for lifetime ranks (0 = uniform lifetimes).
  double lifetime_skew = 1.0;
  /// Number of distinct lifetime ranks.
  std::size_t lifetime_ranks = 64;
  /// Lifetime, in published events, of rank 0 (rank r lives (r+1)× this).
  std::size_t base_lifetime_events = 32;
  /// Probability that a subscribe reuses the text of an earlier
  /// subscription instead of a fresh one (0 = all distinct). Duplicates are
  /// drawn Zipf(duplicate_skew)-skewed from a pool of the first
  /// duplicate_pool_size distinct texts — the heavy structural overlap of
  /// real feeds (a few hot standing queries, a long tail), and the regime
  /// the shared-forest engine's refcounting must survive.
  double duplicate_probability = 0.0;
  double duplicate_skew = 1.0;
  std::size_t duplicate_pool_size = 64;
  /// Probability that a duplicate is emitted *commuted* — the same pool
  /// expression with AND/OR children re-shuffled. Commuted duplicates are
  /// semantically identical but structurally distinct as written: the
  /// forest shares them through its canonical child order, the other
  /// engines not at all, and the lockstep suites use this to check that
  /// sharing changes no notification.
  double commute_probability = 0.0;
  /// Shape of the generated subscriptions and events.
  PaperWorkloadConfig subscriptions;
  std::uint64_t seed = 0xc452;
};

class ChurnWorkload {
 public:
  struct Op {
    enum class Kind : std::uint8_t { Subscribe, Unsubscribe, Publish };
    Kind kind = Kind::Publish;
    /// Subscribe: the new subscription's handle. Unsubscribe: the victim.
    std::uint64_t handle = 0;
    /// Subscribe: owning subscriber session index ([0, subscriber_count)).
    std::size_t subscriber = 0;
    /// Subscribe: subscription text (parseable by the broker).
    std::string text;
    /// Publish: the event.
    Event event;
  };

  ChurnWorkload(ChurnWorkloadConfig config, AttributeRegistry& attrs);

  // The embedded workload's predicate pool owns table references; copying
  // would double-release them.
  ChurnWorkload(const ChurnWorkload&) = delete;
  ChurnWorkload& operator=(const ChurnWorkload&) = delete;

  /// The next operation of the deterministic stream. Warm-up first fills
  /// the population to target_population with Subscribe ops; afterwards
  /// Publish ops dominate, interleaved with control ops at churn_rate.
  [[nodiscard]] Op next();

  /// Handles currently live (subscribed, not yet unsubscribed).
  [[nodiscard]] std::size_t live_count() const { return live_.size(); }
  /// Total subscribe handles handed out so far.
  [[nodiscard]] std::uint64_t issued_handles() const { return next_handle_; }
  /// Published events so far (the lifetime clock).
  [[nodiscard]] std::uint64_t event_clock() const { return event_clock_; }
  /// Drain helper for teardown phases: all currently live handles, oldest
  /// deadline first.
  [[nodiscard]] std::vector<std::uint64_t> live_handles() const;

  [[nodiscard]] const ChurnWorkloadConfig& config() const { return config_; }

 private:
  struct Lease {
    std::uint64_t deadline;  // event_clock_ at which the handle expires
    std::uint64_t handle;
    bool operator>(const Lease& other) const {
      return deadline != other.deadline ? deadline > other.deadline
                                        : handle > other.handle;
    }
  };

  [[nodiscard]] Op make_subscribe();
  [[nodiscard]] Op make_unsubscribe();

  ChurnWorkloadConfig config_;
  PredicateTable scratch_;  // owns the generator's predicate pool
  AttributeRegistry* attrs_;
  PaperWorkload generator_;
  Pcg32 rng_;
  ZipfSampler lifetimes_;
  ZipfSampler duplicate_ranks_;
  /// First distinct texts; the parsed expression rides along (owning its
  /// predicate references in scratch_) so commuted duplicates can be
  /// re-printed from the tree rather than re-parsed from the text.
  struct PoolEntry {
    std::string text;
    ast::Expr expr;
  };
  std::vector<PoolEntry> duplicate_pool_;
  std::priority_queue<Lease, std::vector<Lease>, std::greater<Lease>> live_;
  std::uint64_t next_handle_ = 0;
  std::uint64_t event_clock_ = 0;
  double credit_ = 0.0;
};

}  // namespace ncps
