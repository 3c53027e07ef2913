// ncps_e2e: end-to-end benchmark of ShardedBroker, one workload per process.
//
//   ncps_e2e --workload NAME [--seed N] [--seconds S] [--smoke]
//            [--trace-file FILE]
//
// The broker is driven only through its public API, with only deployment
// knobs set (shard_count, worker_threads, placement, delivery). A run:
//
//   1. correctness reference: a seed broker (1 shard, 1 worker) built from
//      the same inputs publishes the first 256 events;
//   2. set-up: construct, subscribe_bulk the population plus the probe
//      subscription `seq >= 0`, quiesce. setup_s is the median of this
//      set-up and of spare ones timed between the rounds of step 4;
//   3. correctness gate: the same 256 events through the measured broker;
//      every subscriber's notification sequence must equal the reference;
//   4. a closed-loop warm-up, then kRounds rounds of closed loop and open
//      loop (phase lengths: kWarmupSeconds and below). The closed loop
//      publishes 64-event batches back to back (events_per_s: the median
//      round). The open loop sends each event at its scheduled time,
//      batching whatever is due, up to 64. Latency runs from that time to
//      the probe's callback: the probe subscribed last, so its notification
//      is its event's last (notify_p*_ms). Each latency metric is the median
//      over rounds of that round's percentile.
//   5. control operations, timed until wait_applied returns (the ungated
//      diagnostics control_p*_us). On churn a control thread replays the
//      workload's stream beside the publisher in every phase; in the open
//      loop each op is due when the event it trails is due. The static
//      workloads have no control traffic of their own, so their data-path
//      phases run none; after each open-loop round their script runs back
//      to back on the quiescent broker, each sample the subscribe and
//      unsubscribe of one transient copy of a population subscription, so
//      that the per-layer apply latencies have samples on every workload.
//
// With --trace-file the run is the traced one: in every other closed round,
// each batch is quiesced and replayed layer by layer (phase 1 through each
// shard's predicate index, phase 2 through the engine's const
// match_predicates) inside spans. The spans are written to FILE as Chrome
// trace-event JSON, and the per-layer metrics replace the end-to-end ones in
// the result.
//
// stdout gets two JSON lines: run metadata and diagnostics, then the result
// {"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
// when any operation failed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "broker/sharded_broker.h"
#include "subscription/parser.h"
#include "workloads.h"

namespace {

using namespace ncps;
using e2e::ControlOp;
using e2e::Inputs;
using e2e::WorkloadSpec;

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t)));
}

constexpr std::size_t kBatch = 64;
constexpr std::size_t kGateEvents = 256;
/// Closed-loop/open-loop rounds after the warm-up.
constexpr std::size_t kRounds = 5;
/// Phase lengths of a `--seconds kRunSeconds` run; other run lengths scale
/// them. The quiet control phase runs on the static workloads only.
constexpr double kRunSeconds = 26.0;
constexpr double kWarmupSeconds = 3.0;
constexpr double kClosedSeconds = 10.0;
constexpr double kOpenSeconds = 12.0;
constexpr double kQuietControlSeconds = 1.0;
/// Set-ups per run: the measured broker's, then spare ones spread evenly
/// over the rounds. setup_s is their median.
constexpr std::size_t kSetupReps = 6;
constexpr const char* kProbeText = "seq >= 0";
constexpr std::uint32_t kMainTid = 0;
constexpr std::uint32_t kControlTid = 1;

/// q-quantile of `v` (linear interpolation between closest ranks); 0 when
/// empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

// ------------------------------------------------------------------ spans --

/// In-memory span recorder. Spans are recorded around calls into the broker
/// from this file only; they are written out once, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(now_ns()) {}

  /// Open from construction until finish() or destruction. Inert (no clock
  /// reads, id 0) when tracing is off.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint32_t parent,
         std::uint32_t batch, std::uint32_t tid = kMainTid)
        : tracer_(tracer.enabled_ ? &tracer : nullptr),
          name_(name),
          parent_(parent),
          batch_(batch),
          tid_(tid) {
      if (tracer_ == nullptr) return;
      id_ = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
      start_ = now_ns();
    }
    ~Span() { finish(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    [[nodiscard]] std::uint32_t id() const { return id_; }

    /// Close the span (once) and return its duration in nanoseconds.
    std::int64_t finish() {
      if (tracer_ == nullptr) return 0;
      const std::int64_t end = now_ns();
      tracer_->record({name_, start_, end, id_, parent_, batch_, tid_});
      tracer_ = nullptr;
      return end - start_;
    }

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint32_t parent_;
    std::uint32_t batch_;
    std::uint32_t tid_;
    std::uint32_t id_ = 0;
    std::int64_t start_ = 0;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Chrome trace-event JSON: one complete ("X") event per span, with the
  /// span id, parent id and batch id in args; `other_data` is a JSON object.
  bool write(const std::string& path, const std::string& other_data) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::lock_guard lock(mutex_);
    std::fprintf(out, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                   "\"parent\":%u,\"batch\":%u}}",
                   i == 0 ? "" : ",", r.name, r.tid,
                   static_cast<double>(r.start - origin_) / 1e3,
                   static_cast<double>(r.end - r.start) / 1e3, r.id, r.parent,
                   r.batch);
    }
    std::fprintf(out, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":%s}\n",
                 other_data.c_str());
    return std::fclose(out) == 0;
  }

 private:
  struct Record {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::uint32_t id;
    std::uint32_t parent;
    std::uint32_t batch;
    std::uint32_t tid;
  };

  void record(const Record& r) {
    const std::lock_guard lock(mutex_);
    records_.push_back(r);
  }

  bool enabled_;
  std::int64_t origin_;
  std::atomic<std::uint32_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Record> records_;
};

// -------------------------------------------------------------- observers --

/// Subscriber callbacks of one broker. Callbacks record the gate prefix
/// while `recording` is set; the probe also stamps the arrival time of every
/// open-loop event. Outlives the broker whose callbacks point at it.
class Observers {
 public:
  Observers(AttributeId seq_attribute, std::size_t open_events)
      : seq_attribute_(seq_attribute),
        seen_(e2e::kSubscribers + 1),
        arrivals_(open_events) {}

  std::atomic<bool> recording{false};
  /// seq of the first open-loop event; -1 outside the open loop.
  std::atomic<std::int64_t> open_base{-1};

  ShardedBroker::NotifyFn subscriber(std::size_t index) {
    return [this, index](const Notification& n) {
      if (recording.load(std::memory_order_relaxed)) record(index, n);
    };
  }

  ShardedBroker::NotifyFn probe() {
    return [this](const Notification& n) {
      const std::int64_t arrived = now_ns();
      if (recording.load(std::memory_order_relaxed)) {
        record(e2e::kSubscribers, n);
      }
      const std::int64_t base = open_base.load(std::memory_order_relaxed);
      if (base < 0) return;
      const std::int64_t index = seq_of(n) - base;
      if (index >= 0 && static_cast<std::size_t>(index) < arrivals_.size()) {
        arrivals_[static_cast<std::size_t>(index)].store(
            arrived, std::memory_order_relaxed);
      }
    };
  }

  void reset_arrivals() {
    for (auto& a : arrivals_) a.store(-1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t arrival(std::size_t index) const {
    return arrivals_[index].load(std::memory_order_relaxed);
  }

  /// Per subscriber (probe last): the gate prefix's (seq, subscription)
  /// pairs in arrival order. Read only after the broker is quiesced.
  [[nodiscard]] const std::vector<std::vector<std::pair<std::uint32_t,
                                                         std::uint32_t>>>&
  seen() const {
    return seen_;
  }

  [[nodiscard]] std::size_t recorded() const {
    std::size_t total = 0;
    for (const auto& s : seen_) total += s.size();
    return total;
  }

 private:
  [[nodiscard]] std::int64_t seq_of(const Notification& n) const {
    return n.event->find(seq_attribute_)->as_int();
  }

  // Each subscriber's callbacks run one at a time (inline on the publisher,
  // or on the subscriber's outbox drain), so its vector has one writer.
  void record(std::size_t index, const Notification& n) {
    seen_[index].emplace_back(static_cast<std::uint32_t>(seq_of(n)),
                              n.subscription.value());
  }

  AttributeId seq_attribute_;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> seen_;
  std::vector<std::atomic<std::int64_t>> arrivals_;
};

/// Events of the gate prefix whose per-subscriber notification lists differ
/// between `reference` and `got`, plus one if any list arrived out of event
/// order.
std::size_t gate_mismatches(const Observers& reference, const Observers& got) {
  using Seen = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  auto by_event = [](const Seen& seen) {
    std::vector<std::vector<std::uint32_t>> out(kGateEvents);
    for (const auto& [seq, subscription] : seen) {
      if (seq < kGateEvents) out[seq].push_back(subscription);
    }
    return out;
  };
  std::vector<bool> bad(kGateEvents, false);
  bool out_of_order = false;
  for (std::size_t s = 0; s < got.seen().size(); ++s) {
    const Seen& mine = got.seen()[s];
    out_of_order |= !std::is_sorted(
        mine.begin(), mine.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    const auto expected = by_event(reference.seen()[s]);
    const auto actual = by_event(mine);
    for (std::size_t e = 0; e < kGateEvents; ++e) {
      if (expected[e] != actual[e]) bad[e] = true;
    }
  }
  return static_cast<std::size_t>(std::count(bad.begin(), bad.end(), true)) +
         (out_of_order ? 1 : 0);
}

/// `after` minus `before` for one histogram (same bucket layout; histograms
/// only grow).
obs::HistogramData histogram_delta(obs::HistogramData after,
                                   const obs::HistogramData& before) {
  after.count -= before.count;
  after.sum_ns -= before.sum_ns;
  for (const auto& [index, count] : before.buckets) {
    for (auto& [after_index, after_count] : after.buckets) {
      if (after_index == index) {
        after_count -= count;
        break;
      }
    }
  }
  std::erase_if(after.buckets, [](const auto& b) { return b.second == 0; });
  return after;
}

/// Discards phase-2 matches during the traced replay; counts live in the
/// match context.
class NullSink final : public MatchSink {
 public:
  void on_match(std::size_t, const Event&, SubscriptionId) override {}
};

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 26.0;
  bool smoke = false;
  std::string trace_file;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// -------------------------------------------------------------------- run --

class Run {
 public:
  explicit Run(const Options& options)
      : spec_(*options.spec),
        options_(options),
        tracer_(!options.trace_file.empty()) {
    const double scale =
        options.seconds / kRunSeconds * (options.smoke ? 0.1 : 1.0);
    warmup_s_ = kWarmupSeconds * scale;
    closed_s_ = kClosedSeconds * scale;
    open_s_ = kOpenSeconds * scale;
    quiet_control_s_ = kQuietControlSeconds * scale;
    spare_setups_ = options.smoke ? 0 : (kSetupReps - 1) / kRounds;
    open_events_ =
        static_cast<std::size_t>(open_s_ / kRounds * spec_.open_rate);
    // churn's stream must cover the open loop, plus what the closed phases
    // publish at up to five times the open-loop rate.
    const auto control_events =
        static_cast<std::size_t>((warmup_s_ + closed_s_) * 5.0 *
                                 spec_.open_rate) +
        kRounds * open_events_;
    inputs_ = e2e::make_inputs(spec_, options.seed, attrs_, control_events);
    observers_ = std::make_unique<Observers>(inputs_.seq_attribute,
                                             open_events_);
    batch_.resize(kBatch);
  }

  /// Every phase; returns false when any operation failed.
  bool execute() {
    if (tracer_.enabled()) time_parse();
    Observers reference(inputs_.seq_attribute, 0);
    {
      const Deployment seed =
          deploy(seed_config(), reference, "bench.seed_setup");
      publish_gate(*seed.broker, reference);
    }
    notifications_per_event_ =
        static_cast<double>(reference.recorded()) / kGateEvents;

    {
      Deployment measured = deploy(config(), *observers_, "bench.setup");
      record_setup(measured);
      broker_ = std::move(measured.broker);
      subscribers_ = std::move(measured.subscribers);
      ids_ = std::move(measured.ids);
    }
    measure_memory();

    publish_gate(*broker_, *observers_);
    attempted_events_ += kGateEvents;
    gate_failures_ = gate_mismatches(reference, *observers_);
    log("gate: %zu mismatched events over %zu notifications", gate_failures_,
        reference.recorded());

    closed_loop(warmup_s_, false);
    // Closed and open loop alternate, and each timing is the median over
    // rounds, so a host stall that spoils a round or two does not move it.
    // The further set-ups are spread over the rounds for the same reason.
    // The traced run replays in every other round.
    std::vector<double> rates;
    for (std::size_t round = 0; round < kRounds; ++round) {
      const bool replay = tracer_.enabled() && round % 2 == 1;
      const Totals closed = closed_loop(closed_s_ / kRounds, replay);
      (replay ? replayed_ : untraced_).add(closed);
      rates.push_back(static_cast<double>(closed.events) / closed.seconds);
      open_loop();
      for (std::size_t i = 0; i < spare_setups_; ++i) {
        Observers unused(inputs_.seq_attribute, 0);
        record_setup(deploy(config(), unused, "bench.setup"));
      }
    }
    events_per_s_ = median(std::move(rates));
    setup_s_ = median(setups_);
    subscribe_bulk_s_ = median(bulks_);

    if (spec_.async_delivery) {
      for (const SubscriberId s : subscribers_) {
        if (const auto stats = broker_->delivery_stats(s)) {
          dropped_ += stats->dropped;
        }
      }
    }
    broker_.reset();  // joins the broker's threads before the report
    return failed() == 0;
  }

  void report() {
    const double error_frac =
        static_cast<double>(failed()) / static_cast<double>(attempted());
    const char* sha = std::getenv("NCPS_GIT_SHA");
    std::printf(
        "{\"workload\":\"%.*s\",\"seed\":%llu,\"git_sha\":\"%s\","
        "\"hw_threads\":%u,\"seconds\":%s,\"smoke\":%s,\"traced\":%s,"
        "\"samples\":{\"notify\":%zu,\"control\":%zu,\"closed_events\":%llu,"
        "\"rounds\":%zu,\"setup_reps\":%zu},\"diag\":{\"notify_p50_ms\":%s,"
        "\"notify_p90_ms\":%s,\"notify_p99_ms\":%s,\"control_p50_us\":%s,"
        "\"control_p90_us\":%s,"
        "\"error_frac\":%s,\"gate_mismatches\":%zu,\"missing_probes\":%zu,"
        "\"control_failures\":%zu,\"dropped\":%llu}}\n",
        static_cast<int>(spec_.name.size()), spec_.name.data(),
        static_cast<unsigned long long>(options_.seed),
        sha == nullptr ? "unknown" : sha, std::thread::hardware_concurrency(),
        json_number(options_.seconds).c_str(),
        options_.smoke ? "true" : "false",
        tracer_.enabled() ? "true" : "false", notify_ms_.size(),
        control_us_.size(),
        static_cast<unsigned long long>(untraced_.events + replayed_.events),
        rounds_.size(), setups_.size(),
        json_number(median_round(&RoundLatency::notify_p50)).c_str(),
        json_number(median_round(&RoundLatency::notify_p90)).c_str(),
        json_number(quantile(notify_ms_, 0.99)).c_str(),
        json_number(median_round(&RoundLatency::control_p50)).c_str(),
        json_number(median_round(&RoundLatency::control_p90)).c_str(),
        json_number(error_frac).c_str(), gate_failures_, missing_probes_,
        control_failures_, static_cast<unsigned long long>(dropped_));

    const std::vector<Metric> metrics =
        tracer_.enabled() ? layer_metrics() : end_to_end_metrics();
    std::string line = "{\"correct\": ";
    line += failed() == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted());
    line += ", \"failed\": " + std::to_string(failed());
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i != 0) line += ", ";
      line += "\"" + metrics[i].name + "\": {\"value\": " +
              json_number(metrics[i].value) + ", \"unit\": \"" +
              metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);

    if (tracer_.enabled()) {
      std::string other = "{\"workload\":\"" + std::string(spec_.name) +
                          "\",\"seed\":" + std::to_string(options_.seed) +
                          ",\"shards\":" + std::to_string(spec_.shard_count) +
                          ",\"workers\":" +
                          std::to_string(spec_.worker_threads) +
                          ",\"published_events\":" +
                          std::to_string(published_events_) +
                          ",\"replay_events\":" +
                          std::to_string(replayed_.events) +
                          ",\"replay_batches\":" +
                          std::to_string(replayed_.batches) +
                          ",\"metrics\":{";
      for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i != 0) other += ",";
        other += "\"" + metrics[i].name + "\":" + json_number(metrics[i].value);
      }
      other += "}}";
      if (!tracer_.write(options_.trace_file, other)) {
        log("cannot write %s", options_.trace_file.c_str());
      } else {
        log("spans written to %s", options_.trace_file.c_str());
      }
    }
  }

 private:
  /// What one closed-loop phase did; the replay fields are filled only by
  /// the traced half.
  struct Totals {
    std::uint64_t events = 0;
    std::uint64_t batches = 0;
    double seconds = 0;
    std::int64_t publish_ns = 0;
    std::int64_t phase1_ns = 0;
    std::int64_t phase2_ns = 0;
    std::uint64_t fulfilled = 0;
    std::uint64_t candidates = 0;
    std::uint64_t node_evaluations = 0;
    std::uint64_t matches = 0;
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;

    void add(const Totals& o) {
      events += o.events;
      batches += o.batches;
      seconds += o.seconds;
      publish_ns += o.publish_ns;
      phase1_ns += o.phase1_ns;
      phase2_ns += o.phase2_ns;
      fulfilled += o.fulfilled;
      candidates += o.candidates;
      node_evaluations += o.node_evaluations;
      matches += o.matches;
      tasks += o.tasks;
      steals += o.steals;
    }
  };

  /// One open-loop round's latency percentiles.
  struct RoundLatency {
    double notify_p50;
    double notify_p90;
    double control_p50;
    double control_p90;
  };

  __attribute__((format(printf, 2, 3))) void log(const char* format,
                                                 ...) const {
    std::fprintf(stderr, "[%.*s] ", static_cast<int>(spec_.name.size()),
                 spec_.name.data());
    va_list args;
    va_start(args, format);
    std::vfprintf(stderr, format, args);
    va_end(args);
    std::fprintf(stderr, "\n");
  }

  [[nodiscard]] ShardedBrokerConfig config() const {
    ShardedBrokerConfig config;
    config.shard_count = spec_.shard_count;
    config.worker_threads = spec_.worker_threads;
    config.placement = spec_.placement;
    if (spec_.async_delivery) {
      config.delivery.mode = DeliveryMode::Async;
      config.delivery.threads = 1;
      config.delivery.default_policy = BackpressurePolicy::Block;
    }
    return config;
  }

  [[nodiscard]] static ShardedBrokerConfig seed_config() {
    ShardedBrokerConfig config;
    config.shard_count = 1;
    config.worker_threads = 1;
    return config;
  }

  /// A broker set up with the workload's population, and what set-up took.
  struct Deployment {
    std::unique_ptr<ShardedBroker> broker;
    std::vector<SubscriberId> subscribers;  // the probe last
    std::vector<SubscriptionId> ids;        // by handle
    double setup_seconds = 0;
    double bulk_seconds = 0;
  };

  /// Construct a broker, register the subscribers and the probe, bulk-load
  /// the population and quiesce.
  Deployment deploy(const ShardedBrokerConfig& config, Observers& observers,
                    const char* span_name) {
    Deployment d;
    d.ids.resize(inputs_.handle_count);
    const std::int64_t start = now_ns();
    Tracer::Span setup(tracer_, span_name, 0, 0);
    {
      Tracer::Span span(tracer_, "broker.construct", setup.id(), 0);
      d.broker = ShardedBroker::create(attrs_, config);
      for (std::size_t s = 0; s < e2e::kSubscribers; ++s) {
        d.subscribers.push_back(
            d.broker->register_subscriber(observers.subscriber(s)));
      }
      d.subscribers.push_back(
          d.broker->register_subscriber(observers.probe()));
    }
    {
      Tracer::Span span(tracer_, "broker.subscribe_bulk", setup.id(), 0);
      const std::int64_t bulk_start = now_ns();
      for (std::size_t s = 0; s < e2e::kSubscribers; ++s) {
        const e2e::Portfolio& portfolio = inputs_.portfolios[s];
        const std::vector<SubscriptionId> ids =
            d.broker->subscribe_bulk(d.subscribers[s], portfolio.texts);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          d.ids[portfolio.handles[i]] = ids[i];
        }
      }
      d.broker->subscribe(d.subscribers.back(), kProbeText);
      d.bulk_seconds = static_cast<double>(now_ns() - bulk_start) / 1e9;
    }
    {
      Tracer::Span span(tracer_, "broker.quiesce", setup.id(), 0);
      d.broker->quiesce();
    }
    d.setup_seconds = static_cast<double>(now_ns() - start) / 1e9;
    return d;
  }

  void record_setup(const Deployment& d) {
    setups_.push_back(d.setup_seconds);
    bulks_.push_back(d.bulk_seconds);
  }

  /// Publish the gate prefix (seq 0..255) with recording on, then quiesce.
  void publish_gate(ShardedBroker& broker, Observers& observers) {
    observers.recording.store(true, std::memory_order_relaxed);
    for (std::size_t first = 0; first < kGateEvents; first += kBatch) {
      broker.publish_batch(fill_batch(first, kBatch));
    }
    broker.quiesce();
    observers.recording.store(false, std::memory_order_relaxed);
    next_seq_ = kGateEvents;
  }

  /// Copy `count` pool events into the batch buffer, stamped seq = first..
  std::span<const Event> fill_batch(std::uint64_t first, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t seq = first + i;
      batch_[i] = inputs_.events[seq % inputs_.events.size()];
      batch_[i].set(inputs_.seq_attribute,
                    Value(static_cast<std::int64_t>(seq)));
    }
    return {batch_.data(), count};
  }

  void time_parse() {
    Tracer::Span span(tracer_, "subscription.parse", 0, 0);
    PredicateTable table;
    std::size_t texts = 0;
    const std::int64_t start = now_ns();
    for (const e2e::Portfolio& portfolio : inputs_.portfolios) {
      for (const std::string& text : portfolio.texts) {
        const ast::Expr expr = parse_subscription(text, attrs_, table);
        ++texts;
      }
    }
    parse_us_ = static_cast<double>(now_ns() - start) / 1e3 /
                static_cast<double>(texts);
  }

  void measure_memory() {
    const MemoryBreakdown memory = broker_->memory();
    memory_bytes_ = memory.total();
    for (const auto& [name, bytes] : memory.components()) {
      if (name.find("engine/index/") != std::string::npos ||
          name.find("predicates/") != std::string::npos) {
        index_bytes_ += bytes;
      } else {
        engine_bytes_ += bytes;
      }
    }
  }

  // ---- control plane ----

  /// Run one scripted control op, timed from `due` (when >= 0) until
  /// wait_applied returns. Holds the replay gate shared, so a traced replay
  /// never reads an engine a control op is mutating.
  void execute_control(const ControlOp& op, std::int64_t due) {
    const std::shared_lock gate(replay_gate_);
    Tracer::Span span(tracer_, "bench.control", 0, 0, kControlTid);
    try {
      if (op.subscribe) {
        Tracer::Span call(tracer_, "broker.subscribe", span.id(), 0,
                          kControlTid);
        ids_[op.handle] =
            broker_->subscribe(subscribers_[op.subscriber], op.text);
      } else {
        Tracer::Span call(tracer_, "broker.unsubscribe", span.id(), 0,
                          kControlTid);
        if (!broker_->unsubscribe(ids_[op.handle])) ++control_failures_;
      }
      Tracer::Span wait(tracer_, "broker.wait_applied", span.id(), 0,
                        kControlTid);
      broker_->wait_applied(broker_->control_generation());
    } catch (const std::exception& e) {
      ++control_failures_;
      log("control op failed: %s", e.what());
    }
    ++control_ops_;
    if (due >= 0) {
      control_us_.push_back(static_cast<double>(now_ns() - due) / 1e3);
    }
  }

  /// churn's closed phases: each op trails the publisher by its gap.
  void control_trailing() {
    std::uint64_t target = 0;
    while (cursor_ < inputs_.control.size()) {
      target += inputs_.control[cursor_].gap;
      {
        std::unique_lock lock(phase_mutex_);
        phase_cv_.wait(lock, [&] { return stop_ || published_ >= target; });
        if (stop_) return;
      }
      execute_control(inputs_.control[cursor_++], -1);
    }
    log("control script exhausted");
  }

  /// churn's open loop: each op is due when the event it trails is due.
  void control_scheduled(std::int64_t start, std::int64_t end) {
    std::uint64_t target = 0;
    while (cursor_ < inputs_.control.size()) {
      target += inputs_.control[cursor_].gap;
      const std::int64_t due =
          scheduled(start, std::max<std::uint64_t>(target, 1) - 1);
      if (due >= end) return;
      sleep_until_ns(due);
      execute_control(inputs_.control[cursor_++], due);
    }
    log("control script exhausted");
  }

  /// Static workloads: the script back to back on the quiescent broker,
  /// cyclically. A sample is one transient subscription, its subscribe and
  /// the unsubscribe that removes it timed together. An unsubscribe costs
  /// about twice a subscribe, so a median over the two kinds timed apart
  /// would sit in the gap between them.
  void control_quiet(double seconds) {
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      const std::int64_t start = now_ns();
      for (int i = 0; i < 2; ++i) {
        execute_control(inputs_.control[cursor_++ % inputs_.control.size()],
                        -1);
      }
      control_us_.push_back(static_cast<double>(now_ns() - start) / 1e3);
    } while (now_ns() < end);
  }

  [[nodiscard]] std::int64_t scheduled(std::int64_t start,
                                       std::uint64_t index) const {
    return start + static_cast<std::int64_t>(static_cast<double>(index) *
                                             1e9 / spec_.open_rate);
  }

  // ---- data plane ----

  /// Publish one batch inside bench.batch / broker.publish_batch spans;
  /// with `replay`, then quiesce and replay it layer by layer.
  void publish(std::span<const Event> batch, bool replay, Totals& totals) {
    const std::uint32_t id = ++batch_id_;
    {
      Tracer::Span span(tracer_, "bench.batch", 0, id);
      Tracer::Span call(tracer_, "broker.publish_batch", span.id(), id);
      broker_->publish_batch(batch);
      totals.publish_ns += call.finish();
    }
    ++totals.batches;
    totals.events += batch.size();
    published_events_ += batch.size();
    if (replay) replay_batch(batch, id, totals);
  }

  void replay_batch(std::span<const Event> batch, std::uint32_t id,
                    Totals& totals) {
    const std::unique_lock gate(replay_gate_);
    broker_->quiesce();
    Tracer::Span span(tracer_, "bench.replay", 0, id);
    for (std::size_t s = 0; s < broker_->shard_count(); ++s) {
      FilterEngine& engine = broker_->shard_engine(s);
      MatchContext& ctx = *contexts_[s];
      ctx.stats.reset();
      {
        Tracer::Span phase1(tracer_, "index.match_batch", span.id(), id);
        flat_.clear();
        offsets_.clear();
        engine.predicate_index().match_batch(batch, engine.predicate_table(),
                                             flat_, offsets_);
        totals.phase1_ns += phase1.finish();
      }
      {
        Tracer::Span phase2(tracer_, "engine.match_predicates", span.id(), id);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          engine.match_predicates(
              std::span<const PredicateId>(flat_.data() + offsets_[i],
                                           offsets_[i + 1] - offsets_[i]),
              i, batch[i], sink_, ctx);
        }
        totals.phase2_ns += phase2.finish();
      }
      totals.fulfilled += flat_.size();
      totals.candidates += ctx.stats.candidates;
      totals.node_evaluations += ctx.stats.node_evaluations;
      totals.matches += ctx.stats.matches;
    }
  }

  /// Publish 64-event batches back to back for `seconds` (then flush, so
  /// async delivery is inside the window), on churn beside the control
  /// stream.
  Totals closed_loop(double seconds, bool replay) {
    if (replay) {
      contexts_.clear();
      for (std::size_t s = 0; s < broker_->shard_count(); ++s) {
        contexts_.push_back(broker_->shard_engine(s).make_context());
      }
    }
    const obs::MetricsSnapshot before = broker_->metrics();
    {
      const std::lock_guard lock(phase_mutex_);
      published_ = 0;
      stop_ = false;
    }
    std::thread control;
    if (spec_.concurrent_control) {
      control = std::thread([this] { control_trailing(); });
    }
    Totals totals;
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    do {
      publish(fill_batch(next_seq_, kBatch), replay, totals);
      next_seq_ += kBatch;
      {
        const std::lock_guard lock(phase_mutex_);
        published_ += kBatch;
      }
      phase_cv_.notify_one();
    } while (now_ns() < deadline);
    broker_->flush();
    totals.seconds = static_cast<double>(now_ns() - start) / 1e9;
    {
      const std::lock_guard lock(phase_mutex_);
      stop_ = true;
    }
    phase_cv_.notify_one();
    if (control.joinable()) control.join();
    const obs::MetricsSnapshot after = broker_->metrics();
    totals.tasks = after.counter_total("ncps_match_tasks_total") -
                   before.counter_total("ncps_match_tasks_total");
    totals.steals = after.counter_total("ncps_steals_total") -
                    before.counter_total("ncps_steals_total");
    attempted_events_ += totals.events;
    return totals;
  }

  /// Send open_events_ events on a fixed schedule, batching what is due;
  /// on the static workloads, then time the quiet control phase.
  void open_loop() {
    const std::size_t notify_from = notify_ms_.size();
    const std::size_t control_from = control_us_.size();
    observers_->reset_arrivals();
    std::vector<std::int64_t> returned(open_events_, 0);
    const obs::HistogramData apply_before = broker_->metrics().histogram_merged(
        "ncps_control_apply_latency_seconds");
    const auto base = static_cast<std::int64_t>(next_seq_);
    observers_->open_base.store(base, std::memory_order_relaxed);
    const std::int64_t start = now_ns() + 2'000'000;
    const std::int64_t end = scheduled(start, open_events_);
    std::thread control;
    if (spec_.concurrent_control) {
      control = std::thread(
          [this, start, end] { control_scheduled(start, end); });
    }
    Totals totals;
    std::size_t sent = 0;
    while (sent < open_events_) {
      const std::int64_t t = now_ns();
      const std::size_t due =
          t < start ? 0
                    : std::min<std::size_t>(
                          open_events_,
                          static_cast<std::size_t>(
                              static_cast<double>(t - start) *
                              spec_.open_rate / 1e9) +
                              1);
      if (due <= sent) {
        sleep_until_ns(scheduled(start, sent));
        continue;
      }
      const std::size_t count = std::min(due - sent, kBatch);
      lag_ms_.push_back(static_cast<double>(t - scheduled(start, sent)) / 1e6);
      backlog_max_ = std::max(backlog_max_, due - sent);
      publish(fill_batch(next_seq_, count), false, totals);
      next_seq_ += count;
      const std::int64_t back = now_ns();
      std::fill_n(returned.begin() + static_cast<std::ptrdiff_t>(sent), count,
                  back);
      sent += count;
    }
    {
      Tracer::Span span(tracer_, "delivery.flush", 0, 0);
      const std::int64_t flush_start = now_ns();
      broker_->flush();
      flush_ms_.push_back(static_cast<double>(now_ns() - flush_start) / 1e6);
    }
    if (control.joinable()) control.join();
    broker_->quiesce();
    observers_->open_base.store(-1, std::memory_order_relaxed);
    attempted_events_ += totals.events;
    if (!spec_.concurrent_control) control_quiet(quiet_control_s_ / kRounds);

    std::size_t missing = 0;
    for (std::size_t j = 0; j < open_events_; ++j) {
      const std::int64_t arrived = observers_->arrival(j);
      if (arrived < 0) {
        ++missing;
        continue;
      }
      notify_ms_.push_back(
          static_cast<double>(arrived - scheduled(start, j)) / 1e6);
      queue_ms_.push_back(static_cast<double>(arrived - returned[j]) / 1e6);
    }
    const std::vector<double> round_notify(notify_ms_.begin() + notify_from,
                                           notify_ms_.end());
    const std::vector<double> round_control(
        control_us_.begin() + control_from, control_us_.end());
    rounds_.push_back(
        {quantile(round_notify, 0.50), quantile(round_notify, 0.90),
         quantile(round_control, 0.50), quantile(round_control, 0.90)});
    apply_.merge(histogram_delta(broker_->metrics().histogram_merged(
                                     "ncps_control_apply_latency_seconds"),
                                 apply_before));
    if (missing != 0) {
      log("%zu probe notifications never arrived", missing);
      missing_probes_ += missing;
    }
  }

  // ---- results ----

  [[nodiscard]] std::uint64_t attempted() const {
    return attempted_events_ + control_ops_;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return gate_failures_ + missing_probes_ + control_failures_ + dropped_;
  }

  /// The median over open-loop rounds of one per-round percentile. A host
  /// stall that spoils a round or two leaves it unmoved, where pooling every
  /// sample let one stalled round set p90.
  [[nodiscard]] double median_round(double RoundLatency::*field) const {
    std::vector<double> values;
    for (const RoundLatency& round : rounds_) values.push_back(round.*field);
    return median(std::move(values));
  }

  /// The gated metrics. Open-loop notify latency and control latency are
  /// reported as diagnostics instead: over ten seeds their spread passed
  /// 25%, the largest bound allowed, whenever the host slowed (README,
  /// "Measured spread").
  [[nodiscard]] std::vector<Metric> end_to_end_metrics() const {
    return {
        {"events_per_s", events_per_s_, "1/s"},
        {"setup_s", setup_s_, "s"},
        {"memory_mb", static_cast<double>(memory_bytes_) / (1024.0 * 1024.0),
         "MB"},
    };
  }

  [[nodiscard]] std::vector<Metric> layer_metrics() const {
    const Totals& t = replayed_;
    const auto events = static_cast<double>(t.events);
    const auto batches = static_cast<double>(t.batches);
    const auto workers = static_cast<double>(spec_.worker_threads);
    const double publish_us = static_cast<double>(t.publish_ns) / 1e3 / events;
    const double untraced_publish_us =
        static_cast<double>(untraced_.publish_ns) / 1e3 /
        static_cast<double>(untraced_.events);
    const double phase1_us = static_cast<double>(t.phase1_ns) / 1e3 / events;
    const double phase2_us = static_cast<double>(t.phase2_ns) / 1e3 / events;
    return {
        {"subscription.parse_us", parse_us_, "us"},
        {"broker.subscribe_bulk_s", subscribe_bulk_s_, "s"},
        {"index.phase1_us", phase1_us, "us"},
        {"index.fulfilled_per_event",
         static_cast<double>(t.fulfilled) / events, "count"},
        {"index.bytes", static_cast<double>(index_bytes_), "bytes"},
        {"engine.phase2_us", phase2_us, "us"},
        {"engine.candidates_per_event",
         static_cast<double>(t.candidates) / events, "count"},
        {"engine.node_evals_per_event",
         static_cast<double>(t.node_evaluations) / events, "count"},
        {"engine.matches_per_event", static_cast<double>(t.matches) / events,
         "count"},
        {"engine.match_yield",
         static_cast<double>(t.matches) / static_cast<double>(t.candidates),
         "ratio"},
        {"engine.bytes", static_cast<double>(engine_bytes_), "bytes"},
        {"broker.publish_us", publish_us, "us"},
        {"broker.overhead_us", publish_us - (phase1_us + phase2_us) / workers,
         "us"},
        {"broker.parallel_efficiency",
         (phase1_us + phase2_us) / (publish_us * workers), "ratio"},
        {"broker.tasks_per_batch", static_cast<double>(t.tasks) / batches,
         "count"},
        {"broker.steals_per_batch", static_cast<double>(t.steals) / batches,
         "count"},
        {"broker.apply_p50_us", apply_.quantile_ns(0.50) / 1e3, "us"},
        {"broker.apply_p99_us", apply_.quantile_ns(0.99) / 1e3, "us"},
        {"broker.notifications_per_event", notifications_per_event_,
         "count"},
        {"delivery.queue_ms_p50", median(queue_ms_), "ms"},
        {"delivery.flush_ms", median(flush_ms_), "ms"},
        {"loadgen.lag_p99_ms", quantile(lag_ms_, 0.99), "ms"},
        {"loadgen.backlog_max", static_cast<double>(backlog_max_), "count"},
        {"trace.overhead_pct", (publish_us / untraced_publish_us - 1.0) * 100,
         "%"},
    };
  }

  const WorkloadSpec& spec_;
  Options options_;
  Tracer tracer_;
  AttributeRegistry attrs_;
  Inputs inputs_;

  double warmup_s_ = 0;
  double closed_s_ = 0;
  double open_s_ = 0;
  double quiet_control_s_ = 0;
  std::size_t spare_setups_ = 0;  // per round
  std::size_t open_events_ = 0;  // per round

  std::vector<Event> batch_;
  std::uint64_t next_seq_ = 0;
  std::uint32_t batch_id_ = 0;
  std::uint64_t published_events_ = 0;  // inside bench.batch spans

  // Shared with the control thread; see control_trailing/control_scheduled.
  std::mutex phase_mutex_;
  std::condition_variable phase_cv_;
  std::uint64_t published_ = 0;  // guarded by phase_mutex_
  bool stop_ = false;            // guarded by phase_mutex_
  std::shared_mutex replay_gate_;
  std::size_t cursor_ = 0;  // next script op; control thread only in phases
  std::vector<SubscriptionId> ids_;  // by handle
  std::vector<SubscriberId> subscribers_;

  // Traced replay state.
  std::vector<std::unique_ptr<MatchContext>> contexts_;
  std::vector<PredicateId> flat_;
  std::vector<std::uint32_t> offsets_;
  NullSink sink_;

  // Results.
  std::vector<double> setups_;
  std::vector<double> bulks_;
  double setup_s_ = 0;
  double subscribe_bulk_s_ = 0;
  double parse_us_ = 0;
  std::size_t memory_bytes_ = 0;
  std::size_t index_bytes_ = 0;
  std::size_t engine_bytes_ = 0;
  double notifications_per_event_ = 0;
  double events_per_s_ = 0;
  Totals untraced_;  // closed rounds without replay
  Totals replayed_;  // closed rounds with replay (traced run only)
  std::vector<RoundLatency> rounds_;  // one per open-loop round
  // Pooled over the open-loop rounds.
  std::vector<double> notify_ms_;
  std::vector<double> control_us_;
  std::vector<double> queue_ms_;
  std::vector<double> flush_ms_;
  std::vector<double> lag_ms_;
  std::size_t backlog_max_ = 0;
  obs::HistogramData apply_;
  std::uint64_t attempted_events_ = 0;
  std::size_t control_ops_ = 0;
  std::size_t gate_failures_ = 0;
  std::size_t missing_probes_ = 0;
  std::size_t control_failures_ = 0;
  std::uint64_t dropped_ = 0;

  // Declared last: destroyed first, while everything its callbacks and
  // threads touch is still alive.
  std::unique_ptr<Observers> observers_;
  std::unique_ptr<ShardedBroker> broker_;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: ncps_e2e --workload paper|selective|overlap|churn "
               "[--seed N] [--seconds S] [--smoke] [--trace-file FILE]\n",
               message);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.spec = e2e::find_workload(value());
      if (options.spec == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
      if (!(options.seconds > 0)) usage("--seconds must be positive");
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--trace-file") {
      options.trace_file = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.spec == nullptr) usage("--workload is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  Run run(options);
  const bool ok = run.execute();
  run.report();
  return ok ? 0 : 1;
}
