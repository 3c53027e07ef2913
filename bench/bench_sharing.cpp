// Shared-subexpression sweep: how much memory and phase-2 work does the
// forest-backed non-canonical engine save as structural overlap grows, when
// every duplicate is *commuted*?
//
// Workload: a fixed population of paper-shaped subscriptions where an
// `overlap` fraction of registrations are Zipf-skewed duplicates of a small
// pool of distinct subscriptions — the regime subscription-aggregation
// studies (Shi et al.) report dominating real content-based networks.
// Every duplicate is registered *commuted* (AND/OR children re-shuffled):
// semantically the same interest, structurally a different spelling, which
// is how independent subscribers actually write overlapping queries. The
// unshared baseline is the paper's §3.3 prototype (NonCanonicalTreeEngine,
// one encoded byte tree per subscription); the forest interns AND/OR
// children in canonical order, so commuted duplicates collapse to one node.
//
// Per (overlap × engine) cell one JSON row reports storage bytes, phase-2
// throughput and per-event evaluation counts (paper methodology: phase 2
// over sampled fulfilled sets), the phase-2 time relative to the unshared
// trees at the same overlap (phase2_vs_tree), plus wall-clock add time.
// A `sharing_refinement` row per engine measures the same columns on a
// refinement-shaped population (hot base queries narrowed by one or two
// extra conjuncts; see run_refinement).
//
// Verified claim (exit status, like bench_memory), at 95% overlap: the
// forest's storage is at most 0.3x the unshared encoded trees, and its
// per-event node evaluations undercut the baseline's tree evaluations.
// Both fail if commuted duplicates stop collapsing.
//
// REPRO_SCALE=paper registers the full 500k-subscription population.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "subscription/parser.h"
#include "workload/zipf.h"

namespace {

using namespace ncps;
using namespace ncps::bench;

struct Cell {
  std::size_t subscriptions = 0;
  std::size_t distinct = 0;
  std::size_t storage_bytes = 0;   // forest components vs encoded trees
  std::size_t phase2_bytes = 0;    // full engine minus phase-1 index
  double add_seconds = 0.0;        // wall clock to register the population
  double seconds_per_event = 0.0;
  double evals_per_event = 0.0;    // node (forest) / tree (baseline) evals
  std::size_t live_nodes = 0;
};

std::size_t sum_components(const FilterEngine& engine, bool forest_only) {
  std::size_t sum = 0;
  const MemoryBreakdown mem = engine.memory();
  for (const auto& [name, bytes] : mem.components()) {
    const std::string_view n(name);
    if (forest_only) {
      if (n.starts_with("forest/")) sum += bytes;
    } else if (n == "encoded_trees") {
      sum += bytes;
    }
  }
  return sum;
}

std::size_t phase2_bytes(const FilterEngine& engine) {
  std::size_t sum = 0;
  const MemoryBreakdown mem = engine.memory();
  for (const auto& [name, bytes] : mem.components()) {
    if (!std::string_view(name).starts_with("index/")) sum += bytes;
  }
  return sum;
}

/// One engine under the sweep.
struct Config {
  const char* label;
  bool forest;  // storage = forest/ components vs encoded trees
};

constexpr Config kConfigs[] = {
    {"non-canonical-tree", false},
    {"non-canonical", true},
};

std::unique_ptr<FilterEngine> make_config_engine(const Config& config,
                                                 PredicateTable& table) {
  if (!config.forest) return std::make_unique<NonCanonicalTreeEngine>(table);
  return std::make_unique<NonCanonicalEngine>(table);
}

/// Registers `stream` into a fresh engine, then times phase 2 over
/// `fulfilled_sets` (the paper's methodology: phase 1 is identical across
/// engines). `distinct` is left for the caller.
Cell measure(const Config& config, PredicateTable& table,
             const std::vector<const ast::Node*>& stream,
             const std::vector<std::vector<PredicateId>>& fulfilled_sets) {
  const auto engine = make_config_engine(config, table);
  Cell cell;
  cell.subscriptions = stream.size();
  cell.add_seconds = time_seconds(
      [&] {
        for (const ast::Node* expression : stream) engine->add(*expression);
      },
      /*repetitions=*/1);
  engine->compact_storage();
  cell.storage_bytes = sum_components(*engine, config.forest);
  cell.phase2_bytes = phase2_bytes(*engine);
  std::vector<SubscriptionId> out;
  const auto ctx = engine->make_context();
  std::uint64_t evals = 0;
  const auto events = static_cast<double>(fulfilled_sets.size());
  cell.seconds_per_event = time_seconds([&] {
    evals = 0;
    for (const auto& fulfilled : fulfilled_sets) {
      out.clear();
      match_predicates(*engine, fulfilled, *ctx, out);
      evals += config.forest ? ctx->stats.node_evaluations
                             : ctx->stats.tree_evaluations;
    }
  }) / events;
  cell.evals_per_event = static_cast<double>(evals) / events;
  if (config.forest) {
    cell.live_nodes = static_cast<const NonCanonicalEngine&>(*engine)
                          .forest()
                          .live_nodes();
  }
  return cell;
}

/// The refinement shape: 64 hot base queries `(x or y) and (z or w)`, each
/// refined 300 times by one or two extra equality conjuncts — a standing
/// query that many subscribers narrow in their own way. Every refinement
/// shares the base's two ORs by identity; the base's AND is its own node.
/// One `sharing_refinement` row per engine; no claim rides on it.
void run_refinement(std::size_t events, std::size_t fulfilled_per_event) {
  constexpr int kBases = 64;
  constexpr int kRefinements = 300;
  constexpr int kRefineAttributes = 16;
  constexpr int kRefineValues = 64;
  AttributeRegistry attrs;
  PredicateTable table;
  Pcg32 rng(0x7ef1);
  std::vector<ast::Expr> population;
  population.reserve(kBases * (kRefinements + 1));
  for (int b = 0; b < kBases; ++b) {
    const std::string base = "(x == " + std::to_string(b) + " or y == " +
                             std::to_string(b) + ") and (z == " +
                             std::to_string(b) + " or w == " +
                             std::to_string(b) + ")";
    population.push_back(parse_subscription(base, attrs, table));
    for (int r = 0; r < kRefinements; ++r) {
      std::string text = base;
      const std::uint32_t conjuncts = 1 + rng.bounded(2);
      for (std::uint32_t c = 0; c < conjuncts; ++c) {
        text += " and r" + std::to_string(rng.bounded(kRefineAttributes)) +
                " == " + std::to_string(rng.bounded(kRefineValues));
      }
      population.push_back(parse_subscription(text, attrs, table));
    }
  }
  std::vector<const ast::Node*> stream;
  std::vector<PredicateId> predicates;
  for (const ast::Expr& expression : population) {
    stream.push_back(&expression.root());
    ast::collect_predicates(expression.root(), predicates);
  }
  std::sort(predicates.begin(), predicates.end());
  predicates.erase(std::unique(predicates.begin(), predicates.end()),
                   predicates.end());

  // Uniform fulfilled sets over the population's own predicates (partial
  // Fisher–Yates, as PaperWorkload::sample_fulfilled).
  const std::size_t count = std::min(fulfilled_per_event, predicates.size());
  std::vector<std::vector<PredicateId>> fulfilled_sets;
  for (std::size_t e = 0; e < events; ++e) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t j =
          i + rng.bounded(static_cast<std::uint32_t>(predicates.size() - i));
      std::swap(predicates[i], predicates[j]);
    }
    fulfilled_sets.emplace_back(predicates.begin(),
                                predicates.begin() + count);
  }

  double tree_seconds = 0.0;
  for (const Config& config : kConfigs) {
    const Cell cell = measure(config, table, stream, fulfilled_sets);
    if (!config.forest) tree_seconds = cell.seconds_per_event;
    JsonRow("sharing_refinement")
        .field("engine", config.label)
        .field("bases", static_cast<std::size_t>(kBases))
        .field("refinements_per_base", static_cast<std::size_t>(kRefinements))
        .field("subscriptions", cell.subscriptions)
        .field("storage_kind", config.forest ? "forest" : "encoded_trees")
        .field("storage_bytes", cell.storage_bytes)
        .field("phase2_bytes", cell.phase2_bytes)
        .field("live_forest_nodes", cell.live_nodes)
        .field("add_s_total", cell.add_seconds)
        .field("phase2_s_per_event", cell.seconds_per_event)
        .field("phase2_vs_tree", cell.seconds_per_event / tree_seconds)
        .field("phase2_evals_per_event", cell.evals_per_event)
        .emit();
    std::printf("refinement %s: %.1f us/event, %.0f evals/event, %zuB\n",
                config.label, cell.seconds_per_event * 1e6,
                cell.evals_per_event, cell.storage_bytes);
  }
}

}  // namespace

int main() {
  std::printf(
      "# Shared-subexpression sweep: overlap fraction x engine\n"
      "# duplicates are commuted (AND/OR children shuffled); storage =\n"
      "# forest components (shared) / encoded trees (baseline)\n");

  const Scale scale = scale_from_env();
  std::size_t subscriptions = 20000;
  if (scale == Scale::kBig) subscriptions = 100000;
  if (scale == Scale::kPaper) subscriptions = 500000;
  const std::size_t distinct_pool = subscriptions / 40;
  const std::size_t events = 20;
  const std::size_t fulfilled_per_event = 500;

  bool tree_ratio_claim = false;
  bool evals_claim = false;
  double tree_ratio_at_95 = -1.0;

  for (const int overlap_pct : {0, 25, 75, 95}) {
    const double overlap = overlap_pct / 100.0;

    // One shared subscription stream per overlap cell: the distinct pool
    // grows lazily, duplicates are Zipf-skewed *commuted* respellings of
    // what exists. The stream is materialised once so every engine
    // configuration registers the identical population.
    AttributeRegistry attrs;
    PredicateTable table;
    PaperWorkloadConfig config;
    config.predicates_per_subscription = 10;  // the paper's largest |p|
    config.seed = 0x5a1e + overlap_pct;
    PaperWorkload workload(config, attrs, table);
    Pcg32 rng(0xd00d + overlap_pct);
    ZipfSampler dup_ranks(distinct_pool, 1.1);

    std::vector<ast::Expr> pool;          // owns the predicate references
    std::vector<ast::NodePtr> commuted;   // duplicate respellings
    std::vector<const ast::Node*> stream;
    stream.reserve(subscriptions);
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < subscriptions; ++i) {
      const bool duplicate = !pool.empty() && rng.next_double() < overlap;
      if (duplicate) {
        // Zipf over the first distinct_pool texts: a few hot standing
        // queries soak up most of the duplication — each re-spelled.
        const ast::Expr& base = pool[dup_ranks.sample(rng) % pool.size()];
        commuted.push_back(ast::clone_commuted(base.root(), rng));
        stream.push_back(commuted.back().get());
      } else {
        pool.push_back(workload.next_subscription());
        stream.push_back(&pool.back().root());
        ++distinct;
      }
    }

    // Phase-2 timing + work counters over sampled fulfilled sets (the
    // paper's methodology: phase 1 is identical across engines).
    std::vector<std::vector<PredicateId>> fulfilled_sets;
    for (std::size_t e = 0; e < events; ++e) {
      fulfilled_sets.push_back(workload.sample_fulfilled(std::min(
          fulfilled_per_event, workload.predicate_pool().size())));
    }

    struct Result {
      const Config* config;
      Cell cell;
    };
    std::vector<Result> results;
    for (const Config& engine_config : kConfigs) {
      Cell cell = measure(engine_config, table, stream, fulfilled_sets);
      cell.distinct = distinct;
      results.push_back(Result{&engine_config, cell});
    }

    const auto cell_of = [&](const char* label) -> const Cell& {
      for (const Result& result : results) {
        if (std::string_view(result.config->label) == label) {
          return result.cell;
        }
      }
      std::fprintf(stderr, "missing cell %s\n", label);
      std::abort();
    };
    const Cell& tree_cell = cell_of("non-canonical-tree");
    const Cell& forest_cell = cell_of("non-canonical");

    const double tree_ratio =
        static_cast<double>(forest_cell.storage_bytes) /
        static_cast<double>(tree_cell.storage_bytes);
    if (overlap_pct == 95) {
      tree_ratio_at_95 = tree_ratio;
      tree_ratio_claim = tree_ratio <= 0.3;
      evals_claim = forest_cell.evals_per_event < tree_cell.evals_per_event;
    }

    for (const Result& result : results) {
      JsonRow("sharing")
          .field("overlap_pct", static_cast<std::size_t>(overlap_pct))
          .field("engine", result.config->label)
          .field("subscriptions", result.cell.subscriptions)
          .field("distinct_subscriptions", result.cell.distinct)
          .field("storage_kind",
                 result.config->forest ? "forest" : "encoded_trees")
          .field("storage_bytes", result.cell.storage_bytes)
          .field("phase2_bytes", result.cell.phase2_bytes)
          .field("live_forest_nodes", result.cell.live_nodes)
          .field("add_s_total", result.cell.add_seconds)
          .field("phase2_s_per_event", result.cell.seconds_per_event)
          .field("phase2_vs_tree", result.cell.seconds_per_event /
                                       tree_cell.seconds_per_event)
          .field("phase2_evals_per_event", result.cell.evals_per_event)
          .emit();
    }
    std::printf(
        "overlap=%d%%: distinct=%zu trees=%zuB forest=%zuB (vs trees %.3f) "
        "adds trees=%.2fs forest=%.2fs\n",
        overlap_pct, distinct, tree_cell.storage_bytes,
        forest_cell.storage_bytes, tree_ratio, tree_cell.add_seconds,
        forest_cell.add_seconds);
  }

  run_refinement(events, fulfilled_per_event);

  std::printf("# claim: forest storage at 95%% overlap <= 0.3x "
              "unshared encoded trees: %s (ratio %.3f)\n",
              tree_ratio_claim ? "HOLDS" : "FAILS", tree_ratio_at_95);
  std::printf("# claim: per-event node evaluations < per-event tree "
              "evaluations at 95%% overlap: %s\n",
              evals_claim ? "HOLDS" : "FAILS");
  const bool pass = tree_ratio_claim && evals_claim;
  std::printf("# verification: %s\n", pass ? "PASS" : "FAIL");
  JsonRow("sharing_claim")
      .field("claim", "forest_0.3x_storage_and_fewer_evals_at_95pct")
      .field("storage_ratio_at_95", tree_ratio_at_95)
      .field("verdict", pass ? "PASS" : "FAIL")
      .emit();
  return pass ? 0 : 1;
}
