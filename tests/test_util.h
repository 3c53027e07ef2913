// Shared helpers for the test suite.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/ids.h"
#include "engine/engine.h"
#include "event/event.h"
#include "event/schema.h"
#include "predicate/predicate_table.h"
#include "subscription/ast.h"

namespace ncps::testing {

/// Sorted copy, for order-insensitive match-set comparison.
inline std::vector<SubscriptionId> sorted(std::vector<SubscriptionId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

inline std::vector<PredicateId> sorted(std::vector<PredicateId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Generic sorted copy for any comparable element type.
template <typename T>
std::vector<T> sorted_values(std::vector<T> values) {
  std::sort(values.begin(), values.end());
  return values;
}

/// Full pipeline for one event on a caller-owned context: match_range over a
/// one-event span. ctx.stats is reset first, so afterwards it covers exactly
/// this call. Returns the sorted match set.
inline std::vector<SubscriptionId> match_event(const FilterEngine& engine,
                                               const Event& event,
                                               MatchContext& ctx) {
  std::vector<SubscriptionId> out;
  VectorSink sink(out);
  ctx.stats.reset();
  engine.match_range(std::span<const Event>(&event, 1), 0, 1, sink, ctx);
  return sorted(std::move(out));
}

/// Full pipeline for one event on a fresh context.
inline std::vector<SubscriptionId> match_event(const FilterEngine& engine,
                                               const Event& event) {
  return match_event(engine, event, *engine.make_context());
}

/// Phase 2 only, on a fresh context; `stats` (optional) receives the call's
/// work counters. Returns the sorted match set.
inline std::vector<SubscriptionId> match_predicates(
    const FilterEngine& engine, const std::vector<PredicateId>& fulfilled,
    MatchStats* stats = nullptr) {
  std::vector<SubscriptionId> out;
  VectorSink sink(out);
  const std::unique_ptr<MatchContext> ctx = engine.make_context();
  engine.match_predicates(fulfilled, 0, Event{}, sink, *ctx);
  if (stats != nullptr) *stats = ctx->stats;
  return sorted(std::move(out));
}

/// Brute-force oracle: evaluate every registered expression against the
/// event directly (no indexes, no encodings, no candidate pruning).
inline std::vector<SubscriptionId> oracle_match(
    const std::vector<std::pair<SubscriptionId, const ast::Node*>>& subs,
    const PredicateTable& table, const Event& event) {
  std::vector<SubscriptionId> out;
  for (const auto& [id, root] : subs) {
    if (ast::evaluate_against_event(*root, table, event)) out.push_back(id);
  }
  return sorted(std::move(out));
}

}  // namespace ncps::testing
