// Reproduces Figure 3 (a)–(f): subscription-matching (phase 2) time per
// event versus registered subscription count, for the three engines, at
// |p| ∈ {6, 8, 10} predicates per subscription and {5 000, 10 000} fulfilled
// predicates per event.
//
// Methodology follows the paper §4 exactly:
//   - subscriptions are the paper-shaped Boolean expressions over globally
//     unique predicates (AND of |p|/2 binary ORs);
//   - the counting engines register the DNF transformation (2^(|p|/2)
//     conjunctions of |p|/2 predicates); the non-canonical engine registers
//     the original expression;
//   - only phase 2 is measured ("We only need to compare the second phases
//     ... since the first phases use the same indexes in the same way");
//   - the fulfilled-predicate set is sampled uniformly from the registered
//     predicate population, |F| ∈ {5 000, 10 000}.
//
// Output: one CSV block per panel (N, seconds per event per engine), then a
// shape summary comparing the orderings the paper reports.
#include <cinttypes>

#include "bench_util.h"

namespace {

using namespace ncps;
using namespace ncps::bench;

struct PanelResult {
  std::size_t n = 0;
  double non_canonical = 0;
  double counting_variant = 0;
  double counting = 0;
};

std::vector<PanelResult> run_panel(char label, std::size_t predicates,
                                   std::size_t fulfilled_count, Scale scale) {
  std::printf("# Fig 3(%c): %zu predicates, %zu fulfilled ones\n", label,
              predicates, fulfilled_count);
  std::printf(
      "# transformed subscriptions per original: %" PRIu64
      " (of %zu predicates each)\n",
      std::uint64_t{1} << (predicates / 2), predicates / 2);
  std::printf("n_subscriptions,non_canonical_s,counting_variant_s,counting_s\n");

  AttributeRegistry attrs;
  PredicateTable table;
  PaperWorkloadConfig config;
  config.predicates_per_subscription = predicates;
  config.attribute_count = 50;
  config.seed = 0x2005 + predicates * 31 + fulfilled_count;
  PaperWorkload workload(config, attrs, table);
  EngineTrio engines(table);
  const auto nc_ctx = engines.non_canonical.make_context();
  const auto variant_ctx = engines.counting_variant.make_context();
  const auto counting_ctx = engines.counting.make_context();

  std::vector<PanelResult> results;
  std::size_t registered = 0;
  std::vector<SubscriptionId> out;
  for (const std::size_t n : sweep_points(predicates, scale)) {
    // Grow the registered population incrementally to the next sweep point.
    while (registered < n) {
      const ast::Expr expr = workload.next_subscription();
      engines.add(expr.root());
      ++registered;
    }
    const std::vector<PredicateId> fulfilled =
        workload.sample_fulfilled(fulfilled_count);

    PanelResult r;
    r.n = n;
    r.non_canonical = time_seconds([&] {
      out.clear();
      match_predicates(engines.non_canonical, fulfilled, *nc_ctx, out);
    });
    r.counting_variant = time_seconds([&] {
      out.clear();
      match_predicates(engines.counting_variant, fulfilled, *variant_ctx, out);
    });
    r.counting = time_seconds([&] {
      out.clear();
      match_predicates(engines.counting, fulfilled, *counting_ctx, out);
    });
    results.push_back(r);
    std::printf("%zu,%.6e,%.6e,%.6e\n", r.n, r.non_canonical,
                r.counting_variant, r.counting);
    JsonRow("fig3")
        .field("panel", std::string_view(&label, 1))
        .field("predicates", predicates)
        .field("fulfilled", fulfilled_count)
        .field("subscriptions", r.n)
        .field("non_canonical_s", r.non_canonical)
        .field("counting_variant_s", r.counting_variant)
        .field("counting_s", r.counting)
        .emit();
    std::fflush(stdout);
  }
  return results;
}

void shape_summary(char label, const std::vector<PanelResult>& results) {
  const PanelResult& last = results.back();
  const char* fastest = "non-canonical";
  if (last.counting < last.non_canonical &&
      last.counting < last.counting_variant) {
    fastest = "counting";
  } else if (last.counting_variant < last.non_canonical) {
    fastest = "counting-variant";
  }
  std::printf(
      "# shape(%c): at N=%zu fastest=%s; counting/non-canonical=%.1fx; "
      "variant/non-canonical=%.1fx\n",
      label, last.n, fastest, last.counting / last.non_canonical,
      last.counting_variant / last.non_canonical);

  // Counting-linear check: time ratio between last and first point vs N
  // ratio (the paper: "matching time of the counting algorithm increases
  // linearly with the number of registered subscriptions").
  const PanelResult& first = results.front();
  if (first.counting > 0) {
    std::printf("# shape(%c): counting grew %.1fx while N grew %.1fx\n", label,
                last.counting / first.counting,
                static_cast<double>(last.n) / static_cast<double>(first.n));
  }
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  std::printf("# Figure 3 reproduction (scale=%s; REPRO_SCALE=quick|big|paper)\n",
              to_string(scale));

  struct Panel {
    char label;
    std::size_t predicates;
    std::size_t fulfilled;
  };
  const Panel panels[] = {
      {'a', 6, 5000},  {'b', 8, 5000},  {'c', 10, 5000},
      {'d', 6, 10000}, {'e', 8, 10000}, {'f', 10, 10000},
  };

  for (const Panel& panel : panels) {
    const auto results =
        run_panel(panel.label, panel.predicates, panel.fulfilled, scale);
    shape_summary(panel.label, results);
    std::printf("\n");
  }
  return 0;
}
