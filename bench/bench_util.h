// Shared harness pieces for the figure/table reproduction benches.
//
// Scale: the paper sweeps to 5 M subscriptions on 2005 hardware and lets the
// OS swap; the default sweeps here finish in minutes on a laptop while
// preserving the curve shapes. Set REPRO_SCALE=big for a longer sweep or
// REPRO_SCALE=paper for the full subscription counts (hours, gigabytes).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "engine/counting_engine.h"
#include "engine/counting_variant_engine.h"
#include "engine/non_canonical_engine.h"
#include "engine/non_canonical_tree_engine.h"
#include "workload/paper_workload.h"

namespace ncps::bench {

enum class Scale { kQuick, kBig, kPaper };

inline Scale scale_from_env() {
  const char* env = std::getenv("REPRO_SCALE");
  if (env == nullptr) return Scale::kQuick;
  const std::string_view s(env);
  if (s == "big") return Scale::kBig;
  if (s == "paper") return Scale::kPaper;
  return Scale::kQuick;
}

inline const char* to_string(Scale scale) {
  switch (scale) {
    case Scale::kQuick: return "quick";
    case Scale::kBig: return "big";
    case Scale::kPaper: return "paper";
  }
  return "?";
}

/// Subscription-count sweep for one figure panel. The paper's panels stop
/// earlier for larger |p| (5 M at 6 predicates, 4 M at 8, 2.5 M at 10);
/// the scaled sweeps keep that proportionality.
inline std::vector<std::size_t> sweep_points(std::size_t predicates,
                                             Scale scale) {
  double factor = 1.0;
  if (predicates == 8) factor = 0.8;
  if (predicates == 10) factor = 0.5;
  std::vector<std::size_t> base;
  switch (scale) {
    case Scale::kQuick:
      base = {2000, 5000, 10000, 20000, 50000, 100000, 200000};
      break;
    case Scale::kBig:
      base = {2000, 10000, 50000, 100000, 200000, 500000, 1000000};
      break;
    case Scale::kPaper:
      base = {2000,    100000,  500000,  1000000, 1500000, 2000000,
              2500000, 3000000, 3500000, 4000000, 4500000, 5000000};
      break;
  }
  for (auto& n : base) {
    n = static_cast<std::size_t>(static_cast<double>(n) * factor);
  }
  return base;
}

/// Wall-clock seconds of one phase-2 run, repeated; returns the minimum
/// (least-noise estimator for a deterministic computation).
template <typename Fn>
double time_seconds(Fn&& fn, int repetitions = 5) {
  double best = 1e300;
  for (int r = 0; r < repetitions; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double s =
        std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
            .count();
    if (s < best) best = s;
  }
  return best;
}

/// Run-wide metadata stamped on every JSON row, so a scraped row is
/// self-describing without the file name or CI context it came from. The
/// git sha comes from the NCPS_GIT_SHA environment variable (set by
/// scripts/run_benches.sh and CI); "unknown" outside those harnesses.
struct RunMetadata {
  std::string git_sha;
  Scale scale;
  std::size_t hw_threads;

  static const RunMetadata& get() {
    static const RunMetadata meta = [] {
      RunMetadata m;
      const char* sha = std::getenv("NCPS_GIT_SHA");
      m.git_sha = sha == nullptr ? "unknown" : sha;
      m.scale = scale_from_env();
      m.hw_threads = std::thread::hardware_concurrency();
      return m;
    }();
    return meta;
  }
};

/// One machine-readable result row, emitted to stdout as a single JSON
/// object per line (the benches' CSV stays for humans; JSON rows are what
/// downstream tooling scrapes). Field order follows insertion order; every
/// row opens with the bench name plus the RunMetadata stamp.
class JsonRow {
 public:
  explicit JsonRow(std::string_view bench) {
    line_ = "{\"bench\":\"";
    line_ += bench;
    line_ += '"';
    const RunMetadata& meta = RunMetadata::get();
    field("git_sha", meta.git_sha);
    field("scale", to_string(meta.scale));
    field("hw_threads", meta.hw_threads);
  }

  JsonRow& field(std::string_view key, std::string_view value) {
    open_field(key);
    line_ += '"';
    line_ += value;
    line_ += '"';
    return *this;
  }

  JsonRow& field(std::string_view key, double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    open_field(key);
    line_ += buffer;
    return *this;
  }

  JsonRow& field(std::string_view key, std::size_t value) {
    open_field(key);
    line_ += std::to_string(value);
    return *this;
  }

  /// Print the row (one line) and flush so partial sweeps are scrapable.
  void emit() {
    std::printf("%s}\n", line_.c_str());
    std::fflush(stdout);
  }

 private:
  void open_field(std::string_view key) {
    line_ += ",\"";
    line_ += key;
    line_ += "\":";
  }

  std::string line_;
};

/// The three engines of the paper's comparison over one shared predicate
/// table, counting engines in the paper's no-unsubscription configuration.
/// The non-canonical entry is the paper's §3.3 prototype (per-subscription
/// encoded trees) — reproduction benches measure what the paper measured;
/// the shared-forest engine is benchmarked against it in bench_sharing.
/// Phase 2 alone, the way the paper's figures time it: appends the matches
/// for a given fulfilled set to `out` through the const entry point on a
/// caller-held context. ctx.stats is reset first, so afterwards it covers
/// exactly this call.
inline void match_predicates(const FilterEngine& engine,
                             std::span<const PredicateId> fulfilled,
                             MatchContext& ctx,
                             std::vector<SubscriptionId>& out) {
  static const Event kNoEvent;  // phase-2-only callers carry no event
  VectorSink sink(out);
  ctx.stats.reset();
  engine.match_predicates(fulfilled, 0, kNoEvent, sink, ctx);
}

struct EngineTrio {
  explicit EngineTrio(PredicateTable& table)
      : non_canonical(table),
        counting(table, DnfOptions{}, /*support_unsubscription=*/false),
        counting_variant(table, DnfOptions{},
                         /*support_unsubscription=*/false) {}

  void add(const ast::Node& root) {
    non_canonical.add(root);
    counting.add(root);
    counting_variant.add(root);
  }

  NonCanonicalTreeEngine non_canonical;
  CountingEngine counting;
  CountingVariantEngine counting_variant;
};

}  // namespace ncps::bench
