// Ablation micro-benchmarks for the design decisions DESIGN.md calls out:
//
//   1. Encoded byte trees vs pointer ASTs for evaluation — the paper's §3.3
//      encoding choice: tree-v1 as written, tree-v1 reordered cheapest-first
//      at encode time, and the heap AST.
//   2. Phase-2 cost vs predicate sharing, unshared tree engine against the
//      shared-forest engine, as the workload leaves the paper's
//      unique-predicate regime.
//   3. B+ tree stab vs linear scan for range-predicate matching — the
//      phase-1 index choice.
//   4. Registration cost: direct encoding vs forest interning vs
//      DNF-transforming registration.
//   5. Phase-2 cost on the e2e `paper` population shape, shared forest
//      against the unshared tree engine, over fulfilled sets stabbed from
//      real events; and the forest through match_range in 8- to 64-event
//      chunks, where its block path evaluates each node once per chunk.
//
// Previously written against Google Benchmark, which emitted no JsonRow
// output and left BENCH_ablation.json empty; now hand-timed like the other
// benches (bench_util.h time_seconds) with one JSON row per case, and no
// external benchmark dependency.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "index/bplus_tree.h"
#include "subscription/encoded_tree.h"

namespace {

using namespace ncps;
using namespace ncps::bench;

// ---- 1. Evaluation representation -----------------------------------------

// A cheap deterministic pseudo-truth: ~1/3 of predicates true.
bool truth_of(PredicateId id, std::uint32_t salt) {
  return ((id.value() * 0x9e3779b9u) ^ salt) % 3 == 0;
}

void eval_representation_study(int passes) {
  constexpr int kTrees = 256;
  AttributeRegistry attrs;
  PredicateTable table;
  PaperWorkloadConfig config;
  config.predicates_per_subscription = 10;
  config.seed = 555;
  PaperWorkload workload(config, attrs, table);

  std::vector<ast::Expr> exprs;
  std::vector<std::byte> encoded, reordered;
  std::vector<std::size_t> offsets, r_offsets, widths;
  for (int i = 0; i < kTrees; ++i) {
    exprs.push_back(workload.next_subscription());
    offsets.push_back(encoded.size());
    widths.push_back(encode_tree(exprs.back().root(), encoded));
    r_offsets.push_back(reordered.size());
    (void)encode_tree(exprs.back().root(), reordered,
                      ReorderPolicy::kCheapestFirst);
  }

  // Per-representation resident bytes for the 256 trees, so the rows
  // carry the memory side of the trade-off alongside the timing.
  std::size_t pointer_bytes = 0;
  const auto count_pointer_bytes = [&](const ast::Node& n,
                                       auto&& self) -> void {
    pointer_bytes += sizeof(ast::Node) +
                     n.children.capacity() * sizeof(ast::NodePtr);
    for (const auto& c : n.children) self(*c, self);
  };
  for (const ast::Expr& e : exprs) {
    count_pointer_bytes(e.root(), count_pointer_bytes);
  }

  volatile bool guard = false;  // keep the evaluations observable
  const auto run = [&](const char* variant, std::size_t variant_bytes,
                       auto&& eval_pass) {
    std::uint32_t salt = 0;
    const double seconds = time_seconds([&] {
      bool acc = false;
      for (int p = 0; p < passes; ++p) {
        ++salt;
        acc ^= eval_pass(salt);
      }
      guard = guard ^ acc;
    });
    const double per_eval =
        seconds / (static_cast<double>(passes) * kTrees);
    std::printf("eval_representation,%s,%.3e s/tree,%zu B\n", variant,
                per_eval, variant_bytes);
    JsonRow("ablation")
        .field("study", "eval_representation")
        .field("variant", variant)
        .field("seconds_per_tree", per_eval)
        .field("bytes_total", variant_bytes)
        .emit();
  };

  run("encoded_v1", encoded.size(), [&](std::uint32_t salt) {
    bool acc = false;
    for (int i = 0; i < kTrees; ++i) {
      const std::span<const std::byte> tree(encoded.data() + offsets[i],
                                            widths[i]);
      acc ^= evaluate_encoded(
          tree, [&](PredicateId id) { return truth_of(id, salt); });
    }
    return acc;
  });
  run("encoded_v1_reordered", reordered.size(),
      [&](std::uint32_t salt) {
    bool acc = false;
    for (int i = 0; i < kTrees; ++i) {
      const std::span<const std::byte> tree(reordered.data() + r_offsets[i],
                                            widths[i]);
      acc ^= evaluate_encoded(
          tree, [&](PredicateId id) { return truth_of(id, salt); });
    }
    return acc;
  });
  run("pointer_ast", pointer_bytes, [&](std::uint32_t salt) {
    bool acc = false;
    for (int i = 0; i < kTrees; ++i) {
      acc ^= ast::evaluate(exprs[i].root(), [&](PredicateId id) {
        return truth_of(id, salt);
      });
    }
    return acc;
  });
}

// ---- 2. Phase-2 cost vs predicate sharing ---------------------------------

void sharing_study() {
  for (const int sharing_pct : {0, 50, 90}) {
    AttributeRegistry attrs;
    PredicateTable table;
    PaperWorkloadConfig config;
    config.predicates_per_subscription = 6;
    config.sharing_probability = sharing_pct / 100.0;
    config.domain_size = 200000;
    config.seed = 777;
    PaperWorkload workload(config, attrs, table);
    NonCanonicalEngine forest_engine(table);
    NonCanonicalTreeEngine tree_engine(table);
    for (int i = 0; i < 20000; ++i) {
      const ast::Expr expr = workload.next_subscription();
      forest_engine.add(expr.root());
      tree_engine.add(expr.root());
    }
    const std::vector<PredicateId> fulfilled = workload.sample_fulfilled(
        std::min<std::size_t>(2000, workload.predicate_pool().size()));

    const auto run = [&](const char* engine_name, FilterEngine& engine) {
      std::vector<SubscriptionId> out;
      const auto ctx = engine.make_context();
      const double seconds = time_seconds([&] {
        out.clear();
        match_predicates(engine, fulfilled, *ctx, out);
      });
      std::printf("phase2_sharing,%d%%,%s,%.3e s/event,%zu matches\n",
                  sharing_pct, engine_name, seconds, out.size());
      JsonRow("ablation")
          .field("study", "phase2_sharing")
          .field("sharing_pct", static_cast<std::size_t>(sharing_pct))
          .field("engine", engine_name)
          .field("seconds_per_event", seconds)
          .field("matches", out.size())
          .emit();
    };
    run("non-canonical", forest_engine);
    run("non-canonical-tree", tree_engine);
  }
}

// ---- 3. Range index vs linear scan ----------------------------------------

void range_index_study() {
  for (const std::size_t n : {10000u, 100000u, 1000000u}) {
    BPlusTree<double, std::uint32_t> tree;
    std::vector<double> thresholds(n);
    Pcg32 rng(1);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = static_cast<double>(rng.range(0, 1000000));
      tree.try_emplace(v, static_cast<std::uint32_t>(i));
      thresholds[i] = v;
    }
    // Stab: predicates `a < c` with c in the top 1% of the domain —
    // output-bound work, like phase 1.
    volatile std::size_t guard = 0;
    const double stab_s = time_seconds([&] {
      std::size_t hits = 0;
      const double v = 990000.0 + static_cast<double>(rng.bounded(10000));
      for (auto it = tree.lower_bound(v); it != tree.end(); ++it) ++hits;
      guard = guard + hits;
    });
    const double scan_s = time_seconds([&] {
      std::size_t hits = 0;
      const double v = 990000.0 + static_cast<double>(rng.bounded(10000));
      for (const double t : thresholds) {
        if (t > v) ++hits;
      }
      guard = guard + hits;
    });
    std::printf("range_stab,n=%zu,bplus %.3e s,linear %.3e s\n", n, stab_s,
                scan_s);
    JsonRow("ablation")
        .field("study", "range_stab")
        .field("n", n)
        .field("bplus_seconds", stab_s)
        .field("linear_seconds", scan_s)
        .emit();
  }
}

// ---- 4. Registration cost --------------------------------------------------

void registration_study(int count) {
  const auto run = [&](const char* engine_name, auto&& make) {
    AttributeRegistry attrs;
    PredicateTable table;
    PaperWorkloadConfig config;
    config.predicates_per_subscription = 10;
    config.seed = 888;
    PaperWorkload workload(config, attrs, table);
    auto engine = make(table);
    const double seconds = time_seconds([&] {
      for (int i = 0; i < count; ++i) {
        const ast::Expr expr = workload.next_subscription();
        (void)engine->add(expr.root());
      }
    }, /*repetitions=*/1);
    const double per_sub = seconds / count;
    std::printf("registration,%s,%.3e s/sub\n", engine_name, per_sub);
    JsonRow("ablation")
        .field("study", "registration")
        .field("engine", engine_name)
        .field("seconds_per_subscription", per_sub)
        .emit();
  };
  run("non-canonical-tree", [](PredicateTable& t) {
    return std::make_unique<NonCanonicalTreeEngine>(t);
  });
  run("non-canonical", [](PredicateTable& t) {
    return std::make_unique<NonCanonicalEngine>(t);
  });
  run("counting-dnf", [](PredicateTable& t) {
    return std::make_unique<CountingEngine>(t);
  });
}

// ---- 5. Phase 2 on the e2e paper shape -------------------------------------

/// 5k subscriptions of the e2e `paper` workload's shape (ANDs of three
/// two-way ORs over unique predicates; 50 attributes, values in [0, 1e9))
/// in both engines over one predicate table. Each event's fulfilled set is
/// stabbed once from the forest engine's PredicateIndex; only phase 2 is
/// timed, over the whole event list, best of five. The per-event rows
/// call match_predicates; the chunked rows run the same events through the
/// forest's match_range and time both phases from the context's phase1_ns
/// and phase2_ns. The block path moves work across the phase boundary
/// (phase 1 hands phase 2 lane masks instead of id lists), so those rows
/// report phase 1 next to phase 2.
void phase2_paper_study(std::size_t event_count) {
  AttributeRegistry attrs;
  PredicateTable table;
  PaperWorkloadConfig config;
  config.predicates_per_subscription = 6;
  config.attribute_count = 50;
  config.domain_size = 1'000'000'000;
  config.seed = 1;
  PaperWorkload workload(config, attrs, table);
  NonCanonicalEngine forest_engine(table);
  NonCanonicalTreeEngine tree_engine(table);
  constexpr int kSubscriptions = 5000;
  for (int i = 0; i < kSubscriptions; ++i) {
    const ast::Expr expr = workload.next_subscription();
    forest_engine.add(expr.root());
    tree_engine.add(expr.root());
  }
  std::vector<Event> events;
  std::vector<std::vector<PredicateId>> fulfilled(event_count);
  for (std::vector<PredicateId>& set : fulfilled) {
    events.push_back(workload.next_event());
    forest_engine.predicate_index().match(events.back(), table, set);
  }

  const auto run = [&](const char* engine_name, FilterEngine& engine) {
    std::vector<SubscriptionId> out;
    const auto ctx = engine.make_context();
    MatchStats total;
    const double seconds = time_seconds([&] {
      total.reset();
      for (const std::vector<PredicateId>& set : fulfilled) {
        out.clear();
        match_predicates(engine, set, *ctx, out);
        total.node_evaluations += ctx->stats.node_evaluations;
        total.tree_evaluations += ctx->stats.tree_evaluations;
        total.matches += ctx->stats.matches;
      }
    });
    const auto n = static_cast<double>(event_count);
    std::printf(
        "phase2_paper,%s,%.1f us/event,%.0f node evals/event,%.0f tree "
        "evals/event,%.1f matches/event\n",
        engine_name, seconds / n * 1e6,
        static_cast<double>(total.node_evaluations) / n,
        static_cast<double>(total.tree_evaluations) / n,
        static_cast<double>(total.matches) / n);
    JsonRow("ablation")
        .field("study", "phase2_paper")
        .field("engine", engine_name)
        .field("subscriptions", static_cast<std::size_t>(kSubscriptions))
        .field("events", event_count)
        .field("us_per_event", seconds / n * 1e6)
        .field("node_evals_per_event",
               static_cast<double>(total.node_evaluations) / n)
        .field("tree_evals_per_event",
               static_cast<double>(total.tree_evaluations) / n)
        .field("matches_per_event", static_cast<double>(total.matches) / n)
        .emit();
  };
  run("non-canonical", forest_engine);
  run("non-canonical-tree", tree_engine);

  const auto run_chunks = [&](std::size_t chunk) {
    std::vector<SubscriptionId> out;
    VectorSink sink(out);
    const auto ctx = forest_engine.make_context();
    // Best of five by the two phases' sum; each phase reads that rep.
    double seconds = 1e300;
    double phase1_seconds = 0;
    for (int rep = 0; rep < 5; ++rep) {
      ctx->stats.reset();
      for (std::size_t first = 0; first < event_count; first += chunk) {
        out.clear();
        forest_engine.match_range(events, first,
                                  std::min(event_count, first + chunk), sink,
                                  *ctx);
      }
      const double phase1 = static_cast<double>(ctx->stats.phase1_ns) * 1e-9;
      const double phase2 = static_cast<double>(ctx->stats.phase2_ns) * 1e-9;
      if (phase1 + phase2 < phase1_seconds + seconds) {
        phase1_seconds = phase1;
        seconds = phase2;
      }
    }
    const MatchStats& total = ctx->stats;
    const auto n = static_cast<double>(event_count);
    const double block_share = static_cast<double>(total.block_events) / n;
    std::printf(
        "phase2_paper,non-canonical,%zu-event chunks,%.1f us/event phase 1,"
        "%.1f us/event,%.0f node evals/event,%.1f matches/event,%.0f "
        "fulfilled/event,%.2f block share\n",
        chunk, phase1_seconds / n * 1e6, seconds / n * 1e6,
        static_cast<double>(total.node_evaluations) / n,
        static_cast<double>(total.matches) / n,
        static_cast<double>(total.fulfilled_predicates) / n, block_share);
    JsonRow("ablation")
        .field("study", "phase2_paper")
        .field("engine", "non-canonical")
        .field("subscriptions", static_cast<std::size_t>(kSubscriptions))
        .field("events", event_count)
        .field("chunk_events", chunk)
        .field("block_share", block_share)
        .field("phase1_us", phase1_seconds / n * 1e6)
        .field("us_per_event", seconds / n * 1e6)
        .field("node_evals_per_event",
               static_cast<double>(total.node_evaluations) / n)
        .field("matches_per_event", static_cast<double>(total.matches) / n)
        .field("fulfilled_per_event",
               static_cast<double>(total.fulfilled_predicates) / n)
        .emit();
  };
  for (const std::size_t chunk : {8, 16, 32, 64}) run_chunks(chunk);
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  const int eval_passes = scale == Scale::kQuick ? 200 : 2000;
  const int registrations = scale == Scale::kQuick ? 20000 : 100000;

  eval_representation_study(eval_passes);
  sharing_study();
  range_index_study();
  registration_study(registrations);
  phase2_paper_study(scale == Scale::kQuick ? 1024 : 4096);
  return 0;
}
