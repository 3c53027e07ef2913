// Reproduces the small-N crossover the paper describes in §4.1: "For small
// subscription numbers (e.g. up to 700,000 subscriptions in Fig. 3(d)) the
// counting algorithm behaves most efficient compared to other approaches due
// to the small number of required comparisons", while "small numbers of
// subscriptions require more overhead for creating a list of candidate
// subscriptions than saved computation costs" for the variant.
//
// Fine-grained sweep at |p| = 6 with a fixed fulfilled-predicate count: at
// low N the counting full scan is cheaper than candidate bookkeeping; the
// ordering flips as N grows. The bench reports per-point times and the
// measured crossover.
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace ncps;
  using namespace ncps::bench;

  constexpr std::size_t kPredicates = 6;
  constexpr std::size_t kFulfilled = 5000;

  AttributeRegistry attrs;
  PredicateTable table;
  PaperWorkloadConfig config;
  config.predicates_per_subscription = kPredicates;
  config.seed = 0xc0ffee;
  PaperWorkload workload(config, attrs, table);
  EngineTrio engines(table);
  const auto nc_ctx = engines.non_canonical.make_context();
  const auto variant_ctx = engines.counting_variant.make_context();
  const auto counting_ctx = engines.counting.make_context();

  std::printf("# Crossover analysis: |p|=%zu, %zu fulfilled predicates\n",
              kPredicates, kFulfilled);
  std::printf("n_subscriptions,non_canonical_s,counting_variant_s,counting_s,"
              "fastest\n");

  const std::size_t points[] = {1000,  2000,  4000,  8000,   16000,
                                32000, 64000, 128000, 256000};
  std::size_t registered = 0;
  std::vector<SubscriptionId> out;
  std::size_t crossover_n = 0;
  bool counting_was_fastest = false;

  for (const std::size_t n : points) {
    while (registered < n) {
      const ast::Expr expr = workload.next_subscription();
      engines.add(expr.root());
      ++registered;
    }
    // Fulfilled count can exceed the predicate population at tiny N; clamp.
    const std::size_t fulfilled_count =
        std::min(kFulfilled, workload.predicate_pool().size() / 2);
    const std::vector<PredicateId> fulfilled =
        workload.sample_fulfilled(fulfilled_count);

    const double nc = time_seconds([&] {
      out.clear();
      match_predicates(engines.non_canonical, fulfilled, *nc_ctx, out);
    });
    const double var = time_seconds([&] {
      out.clear();
      match_predicates(engines.counting_variant, fulfilled, *variant_ctx, out);
    });
    const double cnt = time_seconds([&] {
      out.clear();
      match_predicates(engines.counting, fulfilled, *counting_ctx, out);
    });

    const char* fastest = "non-canonical";
    if (cnt <= nc && cnt <= var) {
      fastest = "counting";
    } else if (var <= nc) {
      fastest = "counting-variant";
    }
    if (std::string_view(fastest) == "counting") {
      counting_was_fastest = true;
    } else if (counting_was_fastest && crossover_n == 0) {
      crossover_n = n;
    }
    std::printf("%zu,%.6e,%.6e,%.6e,%s\n", n, nc, var, cnt, fastest);
    JsonRow("crossover")
        .field("predicates", kPredicates)
        .field("fulfilled", fulfilled_count)
        .field("subscriptions", n)
        .field("non_canonical_s", nc)
        .field("counting_variant_s", var)
        .field("counting_s", cnt)
        .field("fastest", fastest)
        .emit();
    std::fflush(stdout);
  }

  JsonRow("crossover_summary")
      .field("predicates", kPredicates)
      .field("counting_was_fastest", counting_was_fastest ? "yes" : "no")
      .field("crossover_n", crossover_n)
      .emit();
  if (crossover_n != 0) {
    std::printf("# counting stops being fastest at N = %zu\n", crossover_n);
  } else if (counting_was_fastest) {
    std::printf("# counting stayed fastest for the whole sweep (extend the "
                "sweep via REPRO_SCALE)\n");
  } else {
    std::printf("# counting was never fastest at this fulfilled-predicate "
                "count\n");
  }
  return 0;
}
