#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

namespace ncps::obs {

namespace {

/// Renders `{k="v",k2="v2"}` (empty string for no labels). Label values in
/// this codebase are shard indices / enum names, so escaping is minimal
/// (backslash, quote, newline — the Prometheus text-format set).
std::string render_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    for (const char c : value) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string format_double(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

void append_json_labels(std::string& out, const Labels& labels) {
  out += "\"labels\":{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(key);
    out += "\":\"";
    out += json_escape(value);
    out += '"';
  }
  out += '}';
}

/// Counters render as integers, except `*_seconds_total` ones: like
/// histograms, they accumulate nanoseconds and expose seconds.
std::string counter_text(const MetricsSnapshot::CounterRow& row) {
  if (!row.name.ends_with("_seconds_total")) return std::to_string(row.value);
  return format_double(static_cast<double>(row.value) / 1e9);
}

/// Families must carry one TYPE comment each; rows arrive grouped by
/// insertion order, so emit the comment whenever the name changes.
void maybe_type_comment(std::string& out, std::string& last,
                        const std::string& name, const char* type) {
  if (name == last) return;
  last = name;
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

double HistogramData::quantile_ns(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (const auto& [idx, bucket_count] : buckets) {
    const std::uint64_t next = cumulative + bucket_count;
    if (static_cast<double>(next) >= target) {
      const double lo = static_cast<double>(histogram_bucket_lo(idx));
      // The top bucket is open-ended; interpolate toward double its lower
      // bound rather than toward uint64 max.
      const std::uint64_t hi_raw = histogram_bucket_hi(idx);
      const double hi = hi_raw == ~std::uint64_t{0}
                            ? lo * 2.0
                            : static_cast<double>(hi_raw);
      const double within =
          bucket_count == 0
              ? 0.0
              : (target - static_cast<double>(cumulative)) /
                    static_cast<double>(bucket_count);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    cumulative = next;
  }
  // Numerically unreachable (count > 0 implies a bucket crosses target).
  return buckets.empty()
             ? 0.0
             : static_cast<double>(histogram_bucket_hi(buckets.back().first));
}

void HistogramData::merge(const HistogramData& other) {
  count += other.count;
  sum_ns += other.sum_ns;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < buckets.size() || b < other.buckets.size()) {
    if (b >= other.buckets.size() ||
        (a < buckets.size() && buckets[a].first < other.buckets[b].first)) {
      merged.push_back(buckets[a++]);
    } else if (a >= buckets.size() ||
               other.buckets[b].first < buckets[a].first) {
      merged.push_back(other.buckets[b++]);
    } else {
      merged.emplace_back(buckets[a].first,
                          buckets[a].second + other.buckets[b].second);
      ++a;
      ++b;
    }
  }
  buckets = std::move(merged);
}

void MetricsSnapshot::add_counter(std::string name, Labels labels,
                                  std::uint64_t value) {
  counters_.push_back(CounterRow{std::move(name), std::move(labels), value});
}

void MetricsSnapshot::add_gauge(std::string name, Labels labels,
                                double value) {
  gauges_.push_back(GaugeRow{std::move(name), std::move(labels), value});
}

void MetricsSnapshot::add_histogram(std::string name, Labels labels,
                                    HistogramData data) {
  histograms_.push_back(
      HistogramRow{std::move(name), std::move(labels), std::move(data)});
}

std::uint64_t MetricsSnapshot::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  for (const CounterRow& row : counters_) {
    if (row.name == name) total += row.value;
  }
  return total;
}

std::optional<std::uint64_t> MetricsSnapshot::counter_value(
    std::string_view name, const Labels& labels) const {
  for (const CounterRow& row : counters_) {
    if (row.name == name && row.labels == labels) return row.value;
  }
  return std::nullopt;
}

std::optional<double> MetricsSnapshot::gauge_value(std::string_view name,
                                                   const Labels& labels) const {
  for (const GaugeRow& row : gauges_) {
    if (row.name == name && (labels.empty() || row.labels == labels)) {
      return row.value;
    }
  }
  return std::nullopt;
}

HistogramData MetricsSnapshot::histogram_merged(std::string_view name) const {
  HistogramData merged;
  for (const HistogramRow& row : histograms_) {
    if (row.name == name) merged.merge(row.data);
  }
  return merged;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  std::string last_family;
  for (const CounterRow& row : counters_) {
    maybe_type_comment(out, last_family, row.name, "counter");
    out += row.name;
    out += render_labels(row.labels);
    out += ' ';
    out += counter_text(row);
    out += '\n';
  }
  last_family.clear();
  for (const GaugeRow& row : gauges_) {
    maybe_type_comment(out, last_family, row.name, "gauge");
    out += row.name;
    out += render_labels(row.labels);
    out += ' ';
    out += format_double(row.value);
    out += '\n';
  }
  last_family.clear();
  for (const HistogramRow& row : histograms_) {
    maybe_type_comment(out, last_family, row.name, "histogram");
    // Cumulative buckets over the non-empty cells only: any subset of
    // boundaries is a valid histogram as long as counts are cumulative and
    // +Inf closes the series.
    std::uint64_t cumulative = 0;
    for (const auto& [idx, bucket_count] : row.data.buckets) {
      cumulative += bucket_count;
      Labels with_le = row.labels;
      with_le.emplace_back(
          "le", format_double(static_cast<double>(histogram_bucket_hi(idx)) /
                              1e9));
      out += row.name;
      out += "_bucket";
      out += render_labels(with_le);
      out += ' ';
      out += std::to_string(cumulative);
      out += '\n';
    }
    Labels inf = row.labels;
    inf.emplace_back("le", "+Inf");
    out += row.name;
    out += "_bucket";
    out += render_labels(inf);
    out += ' ';
    out += std::to_string(row.data.count);
    out += '\n';
    out += row.name;
    out += "_sum";
    out += render_labels(row.labels);
    out += ' ';
    out += format_double(static_cast<double>(row.data.sum_ns) / 1e9);
    out += '\n';
    out += row.name;
    out += "_count";
    out += render_labels(row.labels);
    out += ' ';
    out += std::to_string(row.data.count);
    out += '\n';
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const CounterRow& row : counters_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += json_escape(row.name);
    out += "\",";
    append_json_labels(out, row.labels);
    out += ",\"value\":";
    out += counter_text(row);
    out += '}';
  }
  out += "],\"gauges\":[";
  first = true;
  for (const GaugeRow& row : gauges_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += json_escape(row.name);
    out += "\",";
    append_json_labels(out, row.labels);
    out += ",\"value\":";
    out += format_double(row.value);
    out += '}';
  }
  out += "],\"histograms\":[";
  first = true;
  for (const HistogramRow& row : histograms_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += json_escape(row.name);
    out += "\",";
    append_json_labels(out, row.labels);
    out += ",\"count\":";
    out += std::to_string(row.data.count);
    out += ",\"sum_seconds\":";
    out += format_double(static_cast<double>(row.data.sum_ns) / 1e9);
    out += ",\"p50\":";
    out += format_double(row.data.quantile_seconds(0.50));
    out += ",\"p90\":";
    out += format_double(row.data.quantile_seconds(0.90));
    out += ",\"p99\":";
    out += format_double(row.data.quantile_seconds(0.99));
    out += ",\"p999\":";
    out += format_double(row.data.quantile_seconds(0.999));
    out += '}';
  }
  out += "]}";
  return out;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Entry<Counter>& entry : counters_) {
    if (entry.name == name && entry.labels == labels) return entry.cell;
  }
  // In-place: cells hold atomics, so Entry is neither movable nor copyable.
  counters_.emplace_back(std::string(name), std::move(labels));
  return counters_.back().cell;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Entry<Gauge>& entry : gauges_) {
    if (entry.name == name && entry.labels == labels) return entry.cell;
  }
  gauges_.emplace_back(std::string(name), std::move(labels));
  return gauges_.back().cell;
}

Histogram& MetricsRegistry::histogram(std::string_view name, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Entry<Histogram>& entry : histograms_) {
    if (entry.name == name && entry.labels == labels) return entry.cell;
  }
  histograms_.emplace_back(std::string(name), std::move(labels));
  return histograms_.back().cell;
}

void MetricsRegistry::snapshot_into(MetricsSnapshot& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Entry<Counter>& entry : counters_) {
    out.add_counter(entry.name, entry.labels, entry.cell.value());
  }
  for (const Entry<Gauge>& entry : gauges_) {
    out.add_gauge(entry.name, entry.labels,
                  static_cast<double>(entry.cell.value()));
  }
  for (const Entry<Histogram>& entry : histograms_) {
    out.add_histogram(entry.name, entry.labels, entry.cell.snapshot());
  }
}

}  // namespace ncps::obs
