#include "workloads.h"

#include <string>
#include <utility>

#include "common/random.h"
#include "predicate/predicate_table.h"
#include "subscription/printer.h"
#include "workload/churn_workload.h"
#include "workload/paper_workload.h"

namespace e2e {

namespace {

using ncps::ShardPlacement;

// Static workloads: 4 shards on 3 workers plus the publisher, one thread per
// core on a 4-core box (in a prototype, a fourth worker made p99 swing
// fivefold between identical runs). churn trades a worker for the async
// delivery thread, which leaves the control thread and the apply thread a
// core between them.
// Open-loop rates are 40% of the closed-loop rates measured on a 4-core
// x86-64 VM when the benchmark was defined (658, 2152, 4731 and 1418
// events/s), except overlap's: its one-event batches take ~0.7 ms, so at 40%
// (1900 events/s, 0.53 ms apart) the open loop ran at capacity and p50
// swung 0.5-1.8 ms between runs. 900 events/s loads it like the others, at
// about 0.6 busy. The rates stay fixed so later runs compare like with like.
const std::vector<WorkloadSpec> kWorkloads = {
    {"paper", 4, 3, ShardPlacement::kSpread, false, 260.0, false},
    {"selective", 4, 3, ShardPlacement::kSpread, false, 860.0, false},
    {"overlap", 4, 3, ShardPlacement::kSubscriberAffine, false, 900.0, false},
    {"churn", 4, 2, ShardPlacement::kSpread, true, 570.0, true},
};

constexpr std::size_t kPaperPopulation = 20'000;
constexpr std::size_t kSelectivePopulation = 100'000;
constexpr std::size_t kOverlapPopulation = 20'000;
constexpr std::size_t kChurnPopulation = 10'000;
/// Control operations per published event on churn.
constexpr double kChurnRate = 0.5;
constexpr std::int64_t kDomain = 1'000'000'000;
/// Width of a `selective` range: 0.7% of the domain, so ~1.4k of the 200k
/// range predicates hold per event and ~6 subscriptions match.
constexpr std::int64_t kSelectiveWidth = 7'000'000;
/// Share of the `overlap` population owned by subscriber 0.
constexpr double kOverlapHeavyShare = 0.75;
/// Seed of the `overlap` population, whatever the run's seed.
constexpr std::uint64_t kOverlapPopulationSeed = 1;

ncps::PaperWorkloadConfig paper_shape(std::uint64_t seed) {
  ncps::PaperWorkloadConfig config;
  config.predicates_per_subscription = 6;
  config.attribute_count = 50;
  config.domain_size = kDomain;
  config.seed = seed;
  return config;
}

/// Population `texts` dealt round-robin over the subscribers, except that
/// the first `heavy_share` of them go to subscriber 0, and the control
/// script: for each population text, in an order shuffled so that any
/// stretch of it samples the whole population, subscribe a copy for its
/// owner and unsubscribe the copy again. The copies share one spare handle,
/// so the population and its ids stay as they were, and the probe stays the
/// last subscription.
void fill_static(Inputs& in, std::vector<std::string> texts,
                 double heavy_share, std::uint64_t seed) {
  in.portfolios.assign(kSubscribers, {});
  const auto heavy = static_cast<std::size_t>(
      heavy_share * static_cast<double>(texts.size()));
  std::vector<std::uint32_t> owner(texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    owner[i] = static_cast<std::uint32_t>(i < heavy ? 0 : i % kSubscribers);
  }
  std::vector<std::uint32_t> order(texts.size());
  ncps::Pcg32 rng(seed, /*stream=*/0xc0417);
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    const std::uint32_t j = rng.bounded(i + 1);
    order[i] = order[j];
    order[j] = i;
  }
  const auto spare = static_cast<std::uint32_t>(texts.size());
  for (const std::uint32_t handle : order) {
    in.control.push_back({0, true, spare, owner[handle], texts[handle]});
    in.control.push_back({0, false, spare, owner[handle], {}});
  }
  for (std::size_t i = 0; i < texts.size(); ++i) {
    in.portfolios[owner[i]].texts.push_back(std::move(texts[i]));
    in.portfolios[owner[i]].handles.push_back(static_cast<std::uint32_t>(i));
  }
  in.handle_count = spare + 1;
}

void paper_inputs(Inputs& in, std::uint64_t seed,
                  ncps::AttributeRegistry& attrs) {
  ncps::PredicateTable scratch;
  ncps::PaperWorkload workload(paper_shape(seed), attrs, scratch);
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < kPaperPopulation; ++i) {
    const ncps::ast::Expr expr = workload.next_subscription();
    texts.push_back(ncps::print_expression(expr.root(), scratch, attrs));
  }
  for (std::size_t i = 0; i < kEventPool; ++i) {
    in.events.push_back(workload.next_event());
  }
  fill_static(in, std::move(texts), 0.0, seed);
}

void selective_inputs(Inputs& in, std::uint64_t seed,
                      ncps::AttributeRegistry& attrs) {
  // The paper generator supplies the schema and the events (every attribute
  // uniform over the domain); the subscriptions are written here.
  ncps::PredicateTable unused;
  ncps::PaperWorkload workload(paper_shape(seed), attrs, unused);
  ncps::Pcg32 rng(seed, /*stream=*/0x5e1ec7);
  const auto attributes = static_cast<std::uint32_t>(
      workload.config().attribute_count);
  auto range = [&](std::uint32_t attribute) {
    const std::int64_t lo = rng.range(0, kDomain - kSelectiveWidth);
    return "attr" + std::to_string(attribute) + " between " +
           std::to_string(lo) + " and " +
           std::to_string(lo + kSelectiveWidth - 1);
  };
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < kSelectivePopulation; ++i) {
    const std::uint32_t a = rng.bounded(attributes);
    const std::uint32_t b = (a + 1 + rng.bounded(attributes - 1)) % attributes;
    texts.push_back(range(a) + " and " + range(b));
  }
  for (std::size_t i = 0; i < kEventPool; ++i) {
    in.events.push_back(workload.next_event());
  }
  fill_static(in, std::move(texts), 0.0, seed);
}

void overlap_inputs(Inputs& in, std::uint64_t seed,
                    ncps::AttributeRegistry& attrs) {
  ncps::ChurnWorkloadConfig config;
  config.target_population = kOverlapPopulation;
  config.churn_rate = 0.0;
  config.duplicate_probability = 0.95;
  config.duplicate_pool_size = 64;
  // Duplicates drawn uniformly from the pool. Under the generator's default
  // Zipf(1) skew a fifth of them copy the pool's first text, so whether that
  // one text matches set the cost of an event: notifications per event
  // ranged 1.9k-6.0k over ten seeds and events_per_s followed (28% spread).
  config.duplicate_skew = 0.0;
  config.commute_probability = 0.5;
  // The population is the same for every seed; the seed draws the events
  // and the control order. Each pool text has ~300 copies, so the event
  // cost rests on which of 64 texts match: drawn per seed, notifications
  // per event ranged 2.7k-4.8k over ten seeds, and events_per_s spread 23%.
  config.subscriptions = paper_shape(kOverlapPopulationSeed);
  config.seed = kOverlapPopulationSeed;
  ncps::ChurnWorkload workload(config, attrs);
  std::vector<std::string> texts;
  while (texts.size() < kOverlapPopulation) {
    texts.push_back(std::move(workload.next().text));
  }
  ncps::PredicateTable unused;
  ncps::PaperWorkload events(paper_shape(seed), attrs, unused);
  for (std::size_t i = 0; i < kEventPool; ++i) {
    in.events.push_back(events.next_event());
  }
  fill_static(in, std::move(texts), kOverlapHeavyShare, seed);
}

void churn_inputs(Inputs& in, std::uint64_t seed,
                  ncps::AttributeRegistry& attrs,
                  std::size_t control_events) {
  ncps::ChurnWorkloadConfig config;
  config.target_population = kChurnPopulation;
  config.churn_rate = kChurnRate;
  config.subscriber_count = kSubscribers;
  // Leases long enough that none expires within a run: with the default
  // 32-event base, every control op would reclaim an expired lease and the
  // population would drain to ~100 within seconds. Long leases keep it at
  // the target, alternating unsubscribe (earliest lease) and subscribe.
  config.base_lifetime_events = std::size_t{1} << 30;
  config.subscriptions = paper_shape(seed);
  config.seed = seed;
  ncps::ChurnWorkload workload(config, attrs);
  in.portfolios.assign(kSubscribers, {});
  std::uint64_t last_clock = 0;
  while (in.events.size() < kEventPool ||
         workload.event_clock() < control_events) {
    ncps::ChurnWorkload::Op op = workload.next();
    const auto handle = static_cast<std::uint32_t>(op.handle);
    const auto subscriber = static_cast<std::uint32_t>(op.subscriber);
    switch (op.kind) {
      case ncps::ChurnWorkload::Op::Kind::Publish:
        if (in.events.size() < kEventPool) {
          in.events.push_back(std::move(op.event));
        }
        break;
      case ncps::ChurnWorkload::Op::Kind::Subscribe:
        if (workload.event_clock() == 0) {
          in.portfolios[subscriber].texts.push_back(std::move(op.text));
          in.portfolios[subscriber].handles.push_back(handle);
          break;
        }
        [[fallthrough]];
      case ncps::ChurnWorkload::Op::Kind::Unsubscribe:
        in.control.push_back(
            {static_cast<std::uint32_t>(workload.event_clock() - last_clock),
             op.kind == ncps::ChurnWorkload::Op::Kind::Subscribe, handle,
             subscriber, std::move(op.text)});
        last_clock = workload.event_clock();
        break;
    }
  }
  in.handle_count = static_cast<std::uint32_t>(workload.issued_handles());
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   ncps::AttributeRegistry& attrs,
                   std::size_t control_events) {
  Inputs in;
  if (spec.name == "paper") {
    paper_inputs(in, seed, attrs);
  } else if (spec.name == "selective") {
    selective_inputs(in, seed, attrs);
  } else if (spec.name == "overlap") {
    overlap_inputs(in, seed, attrs);
  } else {
    churn_inputs(in, seed, attrs, control_events);
  }
  // Interned after the workload schema, so it sorts last in every event and
  // setting it per publish overwrites in place.
  in.seq_attribute = attrs.intern("seq");
  for (ncps::Event& event : in.events) {
    event.set(in.seq_attribute, ncps::Value(std::int64_t{0}));
  }
  return in;
}

}  // namespace e2e
