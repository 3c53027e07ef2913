// Inputs of the end-to-end broker benchmark, generated from one seed.
//
// Four workloads, each chosen so that a different layer of the broker
// carries the load (bench/e2e/README.md gives the reasoning and the layer to
// metric map):
//
//   paper      the paper's §4 population (AND of three two-way ORs over
//              unique predicates); phase 2 dominates.
//   selective  two narrow `between` ranges per subscription; phase 1
//              dominates, few matches per event.
//   overlap    95% duplicated texts, one subscriber owning 75% of them on
//              one shard; merge, delivery and stealing dominate.
//   churn      the paper's shapes at 10k live subscriptions with 0.5
//              control operations per event and async delivery.
//
// Only deployment knobs appear in a WorkloadSpec. Algorithm knobs
// (normalisation, scheduler, chunking) stay at the broker's defaults so the
// benchmark measures what the program ships.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "broker/shard_router.h"
#include "event/event.h"
#include "event/schema.h"

namespace e2e {

struct WorkloadSpec {
  std::string_view name;
  std::size_t shard_count;
  std::size_t worker_threads;
  ncps::ShardPlacement placement;
  bool async_delivery;
  /// Open-loop arrival rate, events per second. Frozen at about 40% of the
  /// closed-loop rate measured when the benchmark was defined.
  double open_rate;
  /// Whether the control script runs beside the publisher (churn only).
  /// Otherwise the data-path phases run no control operations, and the
  /// script is timed back to back on the quiescent broker between rounds.
  bool concurrent_control;
};

/// The workload named `name`, or nullptr.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// One control-plane operation of the script a control thread replays.
struct ControlOp {
  /// Events published between the previous operation and this one; the
  /// operation is due when the last of them is.
  std::uint32_t gap = 0;
  bool subscribe = true;
  /// Dense subscription handle: population handles first, then one per
  /// scripted subscribe. An unsubscribe names the handle it removes.
  std::uint32_t handle = 0;
  std::uint32_t subscriber = 0;
  std::string text;  // subscribe only
};

/// What one subscriber registers at set-up, in subscribe_bulk order.
struct Portfolio {
  std::vector<std::string> texts;
  std::vector<std::uint32_t> handles;
};

struct Inputs {
  /// Indexed by subscriber. Set-up registers the subscribers in this order
  /// and bulk-subscribes each portfolio in turn, so every broker built from
  /// the same Inputs hands out the same subscription ids.
  std::vector<Portfolio> portfolios;
  /// Published cyclically. Every event carries the `seq` attribute (set to
  /// the publish ordinal when it is sent), which the probe subscribes to.
  std::vector<ncps::Event> events;
  ncps::AttributeId seq_attribute;
  /// On churn, the workload's own subscribe/unsubscribe stream. On the
  /// static workloads, pairs that subscribe a copy of a population
  /// subscription and unsubscribe it again (gap 0), replayed cyclically:
  /// they leave the population as it was.
  std::vector<ControlOp> control;
  /// One past the largest handle any operation names.
  std::uint32_t handle_count = 0;
};

inline constexpr std::size_t kSubscribers = 8;
inline constexpr std::size_t kEventPool = 4096;

/// Generate a workload's inputs: its population, kEventPool events and its
/// control script; on churn, a script covering at least `control_events`
/// published events.
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                                 ncps::AttributeRegistry& attrs,
                                 std::size_t control_events);

}  // namespace e2e
