// Shared-subexpression sweep: how much memory and phase-2 work does the
// forest-backed non-canonical engine save as structural overlap grows —
// and how much of that survives when the duplicates are *commuted*?
//
// Workload: a fixed population of paper-shaped subscriptions where an
// `overlap` fraction of registrations are Zipf-skewed duplicates of a small
// pool of distinct subscriptions — the regime subscription-aggregation
// studies (Shi et al.) report dominating real content-based networks.
// Every duplicate is registered *commuted* (AND/OR children re-shuffled):
// semantically the same interest, structurally a different spelling, which
// is how independent subscribers actually write overlapping queries. The
// unshared baseline is the paper's §3.3 prototype (NonCanonicalTreeEngine,
// one encoded byte tree per subscription); the shared engine runs at three
// configurations spanning the normalisation ladder:
//
//   - none            : order-preserving interning, covering-based root
//                       aliasing on (the default engine) — commuted
//                       duplicates collapse, but each one pays a DNF-
//                       budgeted equivalence probe at add time;
//   - none-unaliased  : order-preserving interning with the covering
//                       probes off — shares nothing across commuted pairs
//                       (leaf/subtree sharing only);
//   - sorted          : Normalisation::SortedChildren — commuted
//                       duplicates collapse by *identity* at interning
//                       cost, no covering probes involved.
//
// Per (overlap × configuration) cell one JSON row reports storage bytes,
// phase-2 throughput and per-event evaluation counts (paper methodology:
// phase 2 over sampled fulfilled sets), plus wall-clock add time — where
// the sorted forest's identity-based sharing beats probe-based aliasing.
//
// Verified claims (exit status, like bench_memory), all at 95% overlap:
//   1. the default forest's storage is at most 0.3x the unshared encoded
//      trees, and its per-event node evaluations undercut the baseline's
//      tree evaluations;
//   2. the sorted forest's bytes are at most 0.5x the none-unaliased
//      forest (which shares nothing across commuted pairs).
//
// REPRO_SCALE=paper registers the full 500k-subscription population.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
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
  std::uint64_t subsumption_hits = 0;
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

/// One engine configuration under the sweep.
struct Config {
  const char* label;
  const char* normalisation;  // JSON column (run_benches.sh asserts it)
  bool forest;                // storage = forest/ components vs encoded trees
  bool aliasing;              // covering-based root subsumption
  Normalisation level;
};

constexpr Config kConfigs[] = {
    {"non-canonical-tree", "none", false, false, Normalisation::None},
    {"non-canonical", "none", true, true, Normalisation::None},
    {"non-canonical-unaliased", "none", true, false, Normalisation::None},
    {"non-canonical-sorted", "sorted", true, false,
     Normalisation::SortedChildren},
};

std::unique_ptr<FilterEngine> make_config_engine(const Config& config,
                                                 PredicateTable& table) {
  if (!config.forest) return std::make_unique<NonCanonicalTreeEngine>(table);
  NonCanonicalEngineOptions options;
  options.normalisation = config.level;
  options.root_subsumption = config.aliasing;
  options.partial_sharing = config.aliasing;
  return std::make_unique<NonCanonicalEngine>(table, options);
}

}  // namespace

int main() {
  std::printf(
      "# Shared-subexpression sweep: overlap fraction x normalisation\n"
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
  bool sorted_ratio_claim = false;
  double tree_ratio_at_95 = -1.0;
  double sorted_ratio_at_95 = -1.0;

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
      const auto engine = make_config_engine(engine_config, table);
      Cell cell;
      cell.subscriptions = subscriptions;
      cell.distinct = distinct;
      cell.add_seconds = time_seconds(
          [&] {
            for (const ast::Node* expression : stream) {
              engine->add(*expression);
            }
          },
          /*repetitions=*/1);
      engine->compact_storage();
      cell.storage_bytes = sum_components(*engine, engine_config.forest);
      cell.phase2_bytes = phase2_bytes(*engine);
      std::vector<SubscriptionId> out;
      const auto ctx = engine->make_context();
      std::uint64_t evals = 0;
      cell.seconds_per_event = time_seconds([&] {
        evals = 0;
        for (const auto& fulfilled : fulfilled_sets) {
          out.clear();
          match_predicates(*engine, fulfilled, *ctx, out);
          evals += engine_config.forest ? ctx->stats.node_evaluations
                                        : ctx->stats.tree_evaluations;
        }
      }) / static_cast<double>(events);
      cell.evals_per_event =
          static_cast<double>(evals) / static_cast<double>(events);
      if (engine_config.forest) {
        const auto& forest_engine =
            static_cast<const NonCanonicalEngine&>(*engine);
        cell.live_nodes = forest_engine.forest().live_nodes();
        cell.subsumption_hits = forest_engine.subsumption_hits();
      }
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
    const Cell& default_cell = cell_of("non-canonical");
    const Cell& unaliased_cell = cell_of("non-canonical-unaliased");
    const Cell& sorted_cell = cell_of("non-canonical-sorted");

    const double tree_ratio =
        static_cast<double>(default_cell.storage_bytes) /
        static_cast<double>(tree_cell.storage_bytes);
    const double sorted_ratio =
        static_cast<double>(sorted_cell.storage_bytes) /
        static_cast<double>(unaliased_cell.storage_bytes);
    if (overlap_pct == 95) {
      tree_ratio_at_95 = tree_ratio;
      tree_ratio_claim = tree_ratio <= 0.3;
      evals_claim =
          default_cell.evals_per_event < tree_cell.evals_per_event;
      sorted_ratio_at_95 = sorted_ratio;
      sorted_ratio_claim = sorted_ratio <= 0.5;
    }

    for (const Result& result : results) {
      JsonRow("sharing")
          .field("overlap_pct", static_cast<std::size_t>(overlap_pct))
          .field("engine", result.config->label)
          .field("normalisation", result.config->normalisation)
          .field("subscriptions", result.cell.subscriptions)
          .field("distinct_subscriptions", result.cell.distinct)
          .field("storage_kind",
                 result.config->forest ? "forest" : "encoded_trees")
          .field("storage_bytes", result.cell.storage_bytes)
          .field("phase2_bytes", result.cell.phase2_bytes)
          .field("live_forest_nodes", result.cell.live_nodes)
          .field("subsumption_hits",
                 static_cast<std::size_t>(result.cell.subsumption_hits))
          .field("add_s_total", result.cell.add_seconds)
          .field("phase2_s_per_event", result.cell.seconds_per_event)
          .field("phase2_evals_per_event", result.cell.evals_per_event)
          .emit();
    }
    std::printf(
        "overlap=%d%%: distinct=%zu trees=%zuB forest none=%zuB "
        "unaliased=%zuB sorted=%zuB (vs trees %.3f, sorted vs unaliased "
        "%.3f) adds none=%.2fs sorted=%.2fs\n",
        overlap_pct, distinct, tree_cell.storage_bytes,
        default_cell.storage_bytes, unaliased_cell.storage_bytes,
        sorted_cell.storage_bytes, tree_ratio, sorted_ratio,
        default_cell.add_seconds, sorted_cell.add_seconds);
  }

  std::printf("# claim: default forest storage at 95%% overlap <= 0.3x "
              "unshared encoded trees: %s (ratio %.3f)\n",
              tree_ratio_claim ? "HOLDS" : "FAILS", tree_ratio_at_95);
  std::printf("# claim: per-event node evaluations < per-event tree "
              "evaluations at 95%% overlap: %s\n",
              evals_claim ? "HOLDS" : "FAILS");
  std::printf("# claim: sorted forest bytes at 95%% overlap <= 0.5x the "
              "unaliased Normalisation::None forest: %s (ratio %.3f)\n",
              sorted_ratio_claim ? "HOLDS" : "FAILS", sorted_ratio_at_95);
  const bool pass = tree_ratio_claim && evals_claim && sorted_ratio_claim;
  std::printf("# verification: %s\n", pass ? "PASS" : "FAIL");
  JsonRow("sharing_claim")
      .field("claim", "forest_0.3x_storage_and_fewer_evals_at_95pct")
      .field("storage_ratio_at_95", tree_ratio_at_95)
      .field("verdict", tree_ratio_claim && evals_claim ? "PASS" : "FAIL")
      .emit();
  JsonRow("sharing_claim")
      .field("claim", "sorted_0.5x_forest_bytes_vs_none_at_95pct_commuted")
      .field("storage_ratio_at_95", sorted_ratio_at_95)
      .field("verdict", sorted_ratio_claim ? "PASS" : "FAIL")
      .emit();
  return pass ? 0 : 1;
}
