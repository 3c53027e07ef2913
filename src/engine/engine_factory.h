// Uniform construction of the engines the test suites and benchmark
// harness compare: the paper's three algorithms plus the forest-backed
// non-canonical engine's unshared tree baseline.
#pragma once

#include <memory>
#include <string_view>

#include "engine/counting_engine.h"
#include "engine/counting_variant_engine.h"
#include "engine/non_canonical_engine.h"
#include "engine/non_canonical_tree_engine.h"

namespace ncps {

enum class EngineKind : std::uint8_t {
  NonCanonical,      ///< shared-forest DAG engine (the default)
  NonCanonicalTree,  ///< the paper's per-subscription encoded-tree prototype
  Counting,
  CountingVariant,
};

inline constexpr EngineKind kAllEngineKinds[] = {
    EngineKind::NonCanonical,
    EngineKind::NonCanonicalTree,
    EngineKind::Counting,
    EngineKind::CountingVariant,
};

[[nodiscard]] inline std::string_view to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::NonCanonical: return "non-canonical";
    case EngineKind::NonCanonicalTree: return "non-canonical-tree";
    case EngineKind::Counting: return "counting";
    case EngineKind::CountingVariant: return "counting-variant";
  }
  return "?";
}

/// Construct an engine of `kind` over `table`. Every kind takes its
/// defaults: the forest always interns commuted spellings as one node, the
/// tree engine stores subscriptions as written, and the counting engines
/// canonicalise to DNF.
[[nodiscard]] inline std::unique_ptr<FilterEngine> make_engine(
    EngineKind kind, PredicateTable& table) {
  switch (kind) {
    case EngineKind::NonCanonical:
      return std::make_unique<NonCanonicalEngine>(table);
    case EngineKind::NonCanonicalTree:
      return std::make_unique<NonCanonicalTreeEngine>(table);
    case EngineKind::Counting:
      return std::make_unique<CountingEngine>(table);
    case EngineKind::CountingVariant:
      return std::make_unique<CountingVariantEngine>(table);
  }
  return nullptr;
}

}  // namespace ncps
