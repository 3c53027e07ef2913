// Telemetry plane: low-overhead metric cells + snapshot-time aggregation.
//
// Two halves, deliberately asymmetric:
//
//   Hot side — Counter / Gauge / Histogram cells handed out by a
//   MetricsRegistry. Cells are plain relaxed atomics (no locks, no hashing,
//   no allocation after registration), so recording from the publish path
//   costs one `fetch_add` — or, for latency histograms, one clock read plus
//   two. Cell *placement* carries the concurrency story: broker-level
//   counters have a single writer (the publish path is serialised by the
//   publish mutex), per-shard match counters live inside the shard (plain
//   integers under the shard mutex, sampled by the broker at snapshot
//   time), and only the delivery-plane cells are genuinely multi-writer —
//   which relaxed atomics absorb without ordering cost.
//
//   Cold side — MetricsSnapshot, an owning point-in-time copy assembled by
//   MetricsRegistry::snapshot_into() plus whatever the caller samples under
//   its own locks (the broker adds per-shard engine stats, control-plane
//   lag, outbox gauges). The snapshot renders to Prometheus text
//   exposition or JSON and answers quantile queries; none of that work
//   happens on the hot path.
//
// Histograms are log-bucketed (4 linear sub-buckets per power of two,
// indices 0..251 covering the full uint64 range) and record *nanoseconds*;
// exposition divides by 1e9, which is why every histogram metric is named
// `*_seconds`. Counters named `*_seconds_total` accumulate nanoseconds too
// and are exposed in seconds the same way (counter_value() stays in ns).
// Quantiles interpolate linearly inside a bucket, so p99 is exact to ~25%
// of the value — the right trade for a cell that is written millions of
// times and read once a scrape.
#pragma once

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ncps::obs {

/// Monotonic nanosecond tick for latency stamps.
inline std::uint64_t now_ticks() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Metric label set, rendered in insertion order. Kept tiny: labels are
/// fixed at registration (shard index, delivery path, drop policy), never
/// constructed on the hot path.
using Labels = std::vector<std::pair<std::string, std::string>>;

// ---------------------------------------------------------------- buckets --
// Shared by the live histogram and its snapshot so quantile math agrees
// with recording. Layout: values < 4 map to their own bucket (identity);
// above that, each power of two splits into 4 linear sub-buckets.

inline constexpr std::uint32_t kHistogramSubBits = 2;
inline constexpr std::uint32_t kHistogramSub = 1u << kHistogramSubBits;  // 4
inline constexpr std::uint32_t kHistogramBuckets = 252;

[[nodiscard]] inline std::uint32_t histogram_bucket(std::uint64_t v) {
  if (v < kHistogramSub) return static_cast<std::uint32_t>(v);
  const std::uint32_t msb = static_cast<std::uint32_t>(std::bit_width(v)) - 1;
  const std::uint32_t sub = static_cast<std::uint32_t>(
      (v >> (msb - kHistogramSubBits)) & (kHistogramSub - 1));
  return (msb - kHistogramSubBits) * kHistogramSub + sub + kHistogramSub;
}

/// Inclusive lower bound of a bucket.
[[nodiscard]] inline std::uint64_t histogram_bucket_lo(std::uint32_t idx) {
  if (idx < kHistogramSub) return idx;
  const std::uint32_t msb =
      (idx - kHistogramSub) / kHistogramSub + kHistogramSubBits;
  const std::uint32_t sub = (idx - kHistogramSub) % kHistogramSub;
  return static_cast<std::uint64_t>(kHistogramSub + sub)
         << (msb - kHistogramSubBits);
}

/// Exclusive upper bound of a bucket (saturates at the top of the range).
[[nodiscard]] inline std::uint64_t histogram_bucket_hi(std::uint32_t idx) {
  if (idx + 1 >= kHistogramBuckets) return ~std::uint64_t{0};
  return histogram_bucket_lo(idx + 1);
}

// --------------------------------------------------------------- snapshot --

/// Owning copy of one histogram's state: sparse (index, count) pairs in
/// ascending bucket order plus the count/sum pair. Values are nanoseconds.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
  /// q in [0, 1]; linear interpolation inside the target bucket. 0 when
  /// empty.
  [[nodiscard]] double quantile_ns(double q) const;
  [[nodiscard]] double quantile_seconds(double q) const {
    return quantile_ns(q) / 1e9;
  }
  /// Fold another histogram's buckets into this one (same bucket layout).
  void merge(const HistogramData& other);
};

/// Point-in-time metric aggregation: what Broker::metrics() returns.
/// Assembled from two sources — the registry's hot cells and values the
/// broker samples under its own locks — then queried or rendered off the
/// hot path. Rows preserve insertion order in both expositions.
class MetricsSnapshot {
 public:
  struct CounterRow {
    std::string name;
    Labels labels;
    std::uint64_t value = 0;
  };
  struct GaugeRow {
    std::string name;
    Labels labels;
    double value = 0;
  };
  struct HistogramRow {
    std::string name;
    Labels labels;
    HistogramData data;
  };

  void add_counter(std::string name, Labels labels, std::uint64_t value);
  void add_gauge(std::string name, Labels labels, double value);
  void add_histogram(std::string name, Labels labels, HistogramData data);

  /// Sum of a counter across all label sets (0 if absent).
  [[nodiscard]] std::uint64_t counter_total(std::string_view name) const;
  /// Exact (name, labels) counter lookup.
  [[nodiscard]] std::optional<std::uint64_t> counter_value(
      std::string_view name, const Labels& labels) const;
  /// First gauge with this name and (when given) exactly these labels.
  [[nodiscard]] std::optional<double> gauge_value(
      std::string_view name, const Labels& labels = {}) const;
  /// All histograms with this name merged across label sets (empty
  /// HistogramData if absent) — e.g. publish→notify latency over both
  /// delivery paths.
  [[nodiscard]] HistogramData histogram_merged(std::string_view name) const;

  [[nodiscard]] const std::vector<CounterRow>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::vector<GaugeRow>& gauges() const { return gauges_; }
  [[nodiscard]] const std::vector<HistogramRow>& histograms() const {
    return histograms_;
  }

  /// Prometheus text exposition (version 0.0.4): one TYPE comment per
  /// metric family, histogram buckets cumulative with `le` in seconds,
  /// empty buckets elided.
  [[nodiscard]] std::string to_prometheus() const;
  /// Single JSON object: counters/gauges as rows, histograms with
  /// precomputed p50/p90/p99/p999 (seconds).
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<CounterRow> counters_;
  std::vector<GaugeRow> gauges_;
  std::vector<HistogramRow> histograms_;
};

// -------------------------------------------------------------- hot cells --

/// Monotonic counter; relaxed — readers see a recent value, the snapshot
/// sees everything recorded-before in the happens-before sense of whatever
/// lock or fence the caller already holds.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log-bucketed latency histogram (nanoseconds). record_n folds `n` events
/// of the same observed latency in one shot — the delivery plane uses it to
/// stamp a whole outbox batch with one clock read.
class Histogram {
 public:
  Histogram() : buckets_(kHistogramBuckets) {}

  void record(std::uint64_t v_ns) { record_n(v_ns, 1); }
  void record_n(std::uint64_t v_ns, std::uint64_t n) {
    if (n == 0) return;
    buckets_[histogram_bucket(v_ns)].fetch_add(n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(v_ns * n, std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramData snapshot() const {
    HistogramData data;
    data.count = count_.load(std::memory_order_relaxed);
    data.sum_ns = sum_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < kHistogramBuckets; ++i) {
      const std::uint64_t c = buckets_[i].load(std::memory_order_relaxed);
      if (c != 0) data.buckets.emplace_back(i, c);
    }
    return data;
  }

 private:
  // deque-compatible but heap-backed: 252 atomics ≈ 2 KB per histogram,
  // kept off the owning object so registries of histograms stay cheap to
  // walk.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Named cell store. Registration (name+labels → stable cell reference)
/// happens at setup time under a mutex; the hot path holds only the
/// returned reference. Requesting the same (name, labels) twice returns the
/// same cell. snapshot_into copies every cell's current value.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, Labels labels = {});
  Gauge& gauge(std::string_view name, Labels labels = {});
  Histogram& histogram(std::string_view name, Labels labels = {});

  void snapshot_into(MetricsSnapshot& out) const;

 private:
  template <typename Cell>
  struct Entry {
    std::string name;
    Labels labels;
    Cell cell;
  };

  mutable std::mutex mutex_;
  // deques: growth never moves an entry, so handed-out references stay
  // valid for the registry's lifetime.
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<Histogram>> histograms_;
};

}  // namespace ncps::obs
