// Phase-1 index microbenchmarks: dictionary-encoded values, compressed
// posting lists, the parallel bulk build, and the interval and range stabs.
//
// Five measurement groups, each emitting JsonRows:
//   phase1_stab      — events/sec through PredicateIndex::match vs a naive
//                      reference index (the seed's pre-overhaul shape:
//                      Value-keyed hash maps of id vectors, linear interval
//                      scans, per-probe string allocation), swept over
//                      population x operand-domain (selectivity) x batch.
//   phase1_postings  — resident posting bytes vs the uncompressed
//                      vector-per-list baseline (target ratio <= 0.6).
//   phase1_bulk_load — attribute-partitioned bulk_load on a thread pool vs
//                      sequential bulk_load vs an add() loop.
//   phase1_intervals — one AttributeIndex of 1,000 `between` ranges, stabbed
//                      at uniform values: µs, interval probes and matches
//                      per stab, for narrow equal widths (the e2e
//                      `selective` shape) and for uniform endpoints (mixed
//                      widths up to the whole domain).
//   phase1_ranges    — one AttributeIndex of unique `>`, `<=` and `==`
//                      bounds, stabbed at uniform values: µs and ids per
//                      stab and ns per emitted id, at 600 predicates (the
//                      e2e `paper` per-shard, per-attribute shape) and at
//                      60,000.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/work_stealing_pool.h"
#include "index/attribute_index.h"
#include "index/predicate_index.h"

namespace {

using namespace ncps;
using namespace ncps::bench;

// ---------------------------------------------------------------------------
// Naive reference index: the pre-overhaul phase-1 shape. Equality and prefix
// tables key std::string/Value maps of std::vector<PredicateId>; ranges live
// in std::map walked per stab; Between entries are scanned linearly; prefix
// probes allocate a std::string per length. Deliberately unsophisticated —
// this is the baseline the overhaul is measured against.
class NaiveAttributeIndex {
 public:
  void add(PredicateId id, const Predicate& p) {
    switch (p.op) {
      case Operator::Eq:
        eq_[p.lo].push_back(id);
        return;
      case Operator::Lt:
        upper_[p.lo.numeric()].strict.push_back(id);
        return;
      case Operator::Le:
        upper_[p.lo.numeric()].inclusive.push_back(id);
        return;
      case Operator::Gt:
        lower_[p.lo.numeric()].strict.push_back(id);
        return;
      case Operator::Ge:
        lower_[p.lo.numeric()].inclusive.push_back(id);
        return;
      case Operator::Between:
        intervals_.push_back(Interval{p.lo.numeric(), p.hi.numeric(), id});
        return;
      case Operator::Prefix:
        prefix_[std::string(p.lo.as_string())].push_back(id);
        return;
      case Operator::Exists:
        exists_.push_back(id);
        return;
      default:
        scan_.push_back(id);
        return;
    }
  }

  void stab(const Value& v, const PredicateTable& table,
            std::vector<PredicateId>& out) const {
    if (const auto it = eq_.find(v); it != eq_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    if (v.is_numeric()) {
      const double d = v.numeric();
      for (auto it = upper_.upper_bound(d); it != upper_.end(); ++it) {
        append(it->second.strict, out);
        append(it->second.inclusive, out);
      }
      if (const auto it = upper_.find(d); it != upper_.end()) {
        append(it->second.inclusive, out);
      }
      for (auto it = lower_.begin(); it != lower_.end() && it->first < d;
           ++it) {
        append(it->second.strict, out);
        append(it->second.inclusive, out);
      }
      if (const auto it = lower_.find(d); it != lower_.end()) {
        append(it->second.inclusive, out);
      }
      for (const Interval& iv : intervals_) {  // full linear scan
        if (iv.lo <= d && d <= iv.hi) out.push_back(iv.id);
      }
    }
    if (v.type() == ValueType::String) {
      const std::string_view s = v.as_string();
      for (std::size_t len = 0; len <= s.size(); ++len) {
        // Per-length std::string allocation: the pre-overhaul probe cost.
        const std::string key(s.substr(0, len));
        if (const auto it = prefix_.find(key); it != prefix_.end()) {
          append(it->second, out);
        }
      }
    }
    append(exists_, out);
    for (const PredicateId id : scan_) {
      const Predicate& p = table.get(id);
      if (eval_operator(p.op, v, p.lo, p.hi)) out.push_back(id);
    }
  }

 private:
  struct Bounds {
    std::vector<PredicateId> strict;
    std::vector<PredicateId> inclusive;
  };
  struct Interval {
    double lo, hi;
    PredicateId id;
  };
  struct ValueHash {
    std::size_t operator()(const Value& v) const { return v.hash(); }
  };

  static void append(const std::vector<PredicateId>& from,
                     std::vector<PredicateId>& to) {
    to.insert(to.end(), from.begin(), from.end());
  }

  std::unordered_map<Value, std::vector<PredicateId>, ValueHash> eq_;
  std::map<double, Bounds> upper_;  // Lt/Le keyed by operand
  std::map<double, Bounds> lower_;  // Gt/Ge keyed by operand
  std::vector<Interval> intervals_;
  std::map<std::string, std::vector<PredicateId>> prefix_;
  std::vector<PredicateId> exists_;
  std::vector<PredicateId> scan_;
};

class NaivePredicateIndex {
 public:
  void add(PredicateId id, const Predicate& p) {
    if (p.op == Operator::NotExists) return;  // out of scope for the bench
    if (p.attribute.value() >= per_attribute_.size()) {
      per_attribute_.resize(p.attribute.value() + 1);
    }
    per_attribute_[p.attribute.value()].add(id, p);
  }

  void match(const Event& event, const PredicateTable& table,
             std::vector<PredicateId>& out) const {
    for (const Event::Entry& entry : event.entries()) {
      if (entry.attribute.value() >= per_attribute_.size()) continue;
      per_attribute_[entry.attribute.value()].stab(entry.value, table, out);
    }
  }

 private:
  std::vector<NaiveAttributeIndex> per_attribute_;
};

// ---------------------------------------------------------------------------
// Synthetic predicate population: a paper-shaped operator mix (equality
// dominated) spread over `attributes`, operands drawn from [0, domain) —
// small domains force many-entry posting lists (high selectivity pressure),
// large domains make singleton lists dominate.
struct Population {
  AttributeRegistry attrs;
  PredicateTable table;
  std::vector<PredicateId> ids;
  std::vector<std::string> attribute_names;

  Population(std::size_t n, std::size_t attributes, std::int64_t domain,
             std::uint64_t seed) {
    Pcg32 rng(seed);
    for (std::size_t a = 0; a < attributes; ++a) {
      attribute_names.push_back("a" + std::to_string(a));
    }
    ids.reserve(n);
    while (ids.size() < n) {
      const AttributeId attr = attrs.intern(
          attribute_names[rng.bounded(static_cast<std::uint32_t>(attributes))]);
      const auto operand = [&] {
        return Value(static_cast<std::int64_t>(
            rng.bounded(static_cast<std::uint32_t>(domain))));
      };
      Predicate p;
      p.attribute = attr;
      const std::uint32_t roll = rng.bounded(100);
      if (roll < 60) {
        p.op = Operator::Eq;
        p.lo = operand();
      } else if (roll < 70) {
        p.op = Operator::Gt;
        p.lo = operand();
      } else if (roll < 80) {
        p.op = Operator::Le;
        p.lo = operand();
      } else if (roll < 90) {
        const std::int64_t lo = rng.bounded(static_cast<std::uint32_t>(domain));
        p.op = Operator::Between;
        p.lo = Value(lo);
        p.hi = Value(lo + 1 + rng.bounded(static_cast<std::uint32_t>(domain)));
      } else {
        p.op = Operator::Prefix;
        p.lo = Value("k" + std::to_string(rng.bounded(
                               static_cast<std::uint32_t>(domain))));
      }
      const auto r = table.intern(p);
      if (r.newly_created) ids.push_back(r.id);
      // Duplicates keep their extra table reference; harmless for a bench.
    }
  }

  Event next_event(Pcg32& rng, std::size_t attributes_per_event,
                   std::int64_t domain) {
    EventBuilder builder(attrs);
    for (std::size_t i = 0; i < attributes_per_event; ++i) {
      const std::string& name = attribute_names[rng.bounded(
          static_cast<std::uint32_t>(attribute_names.size()))];
      if (rng.bounded(8) == 0) {
        builder.set(name, Value("k" + std::to_string(rng.bounded(
                                    static_cast<std::uint32_t>(domain)))));
      } else {
        builder.set(name, Value(static_cast<std::int64_t>(rng.bounded(
                              static_cast<std::uint32_t>(domain)))));
      }
    }
    return builder.build();
  }
};

bool bench_stab(Scale scale) {
  const std::vector<std::size_t> populations =
      scale == Scale::kQuick
          ? std::vector<std::size_t>{20000, 100000, 200000}
          : std::vector<std::size_t>{100000, 500000, 1000000};
  constexpr std::size_t kAttributes = 20;
  constexpr std::size_t kEvents = 200;

  bool speedup_ok = false;
  double headline = 0.0;
  for (const std::size_t n : populations) {
    for (const std::int64_t domain : {2000L, 1000000L}) {
      Population pop(n, kAttributes, domain, 0x9a1d + n);
      PredicateIndex indexed;
      NaivePredicateIndex naive;
      for (const PredicateId id : pop.ids) {
        const Predicate& p = pop.table.get(id);
        indexed.add(id, p);
        naive.add(id, p);
      }
      Pcg32 rng(0xe7e7);
      std::vector<Event> events;
      for (std::size_t i = 0; i < kEvents; ++i) {
        events.push_back(pop.next_event(rng, 6, domain));
      }

      std::vector<PredicateId> out;
      std::size_t matches = 0;
      const double indexed_s = time_seconds([&] {
        matches = 0;
        for (const Event& e : events) {
          out.clear();
          indexed.match(e, pop.table, out);
          matches += out.size();
        }
      });
      const double naive_s = time_seconds([&] {
        for (const Event& e : events) {
          out.clear();
          naive.match(e, pop.table, out);
        }
      });
      // Batched phase 1 amortises traversal setup across the whole batch.
      std::vector<PredicateId> flat;
      std::vector<std::uint32_t> offsets;
      const double batch_s = time_seconds([&] {
        flat.clear();
        offsets.clear();
        indexed.match_batch(events, pop.table, flat, offsets);
      });

      const double speedup = naive_s / indexed_s;
      std::printf(
          "stab n=%zu domain=%lld: indexed %.1f us/ev, naive %.1f us/ev, "
          "batch %.1f us/ev, speedup %.2fx (%.1f matches/ev)\n",
          n, static_cast<long long>(domain),
          indexed_s / kEvents * 1e6, naive_s / kEvents * 1e6,
          batch_s / kEvents * 1e6, speedup,
          static_cast<double>(matches) / kEvents);
      JsonRow("phase1_stab")
          .field("predicates", n)
          .field("domain", static_cast<std::size_t>(domain))
          .field("events", kEvents)
          .field("indexed_us_per_event", indexed_s / kEvents * 1e6)
          .field("naive_us_per_event", naive_s / kEvents * 1e6)
          .field("batch_us_per_event", batch_s / kEvents * 1e6)
          .field("speedup", speedup)
          .field("matches_per_event",
                 static_cast<double>(matches) / kEvents)
          .emit();
      if (n >= 100000) {
        headline = std::max(headline, speedup);
        if (speedup >= 2.0) speedup_ok = true;
      }

      // Posting compression at this population.
      const PostingList::Stats stats = indexed.posting_stats();
      const double ratio = stats.baseline_bytes == 0
                               ? 1.0
                               : static_cast<double>(stats.bytes) /
                                     static_cast<double>(stats.baseline_bytes);
      JsonRow("phase1_postings")
          .field("predicates", n)
          .field("domain", static_cast<std::size_t>(domain))
          .field("lists", stats.lists)
          .field("entries", stats.entries)
          .field("bytes", stats.bytes)
          .field("baseline_bytes", stats.baseline_bytes)
          .field("ratio", ratio)
          .emit();
    }
  }
  std::printf("# phase-1 speedup at >=100k predicates: best %.2fx — %s\n",
              headline, speedup_ok ? "PASS" : "FAIL");
  JsonRow("phase1_claim")
      .field("claim", "indexed_2x_naive_at_100k")
      .field("best_speedup", headline)
      .field("verdict", speedup_ok ? "PASS" : "FAIL")
      .emit();
  return speedup_ok;
}

void bench_bulk_load(Scale scale) {
  const std::size_t n = scale == Scale::kQuick ? 200000 : 1000000;
  constexpr std::size_t kAttributes = 32;
  constexpr std::size_t kThreads = 8;
  Population pop(n, kAttributes, 1000000, 0xb17e);

  std::vector<PredicateIndex::BulkEntry> entries;
  entries.reserve(pop.ids.size());
  for (const PredicateId id : pop.ids) {
    entries.push_back(PredicateIndex::BulkEntry{id, &pop.table.get(id)});
  }

  const double add_loop_s = time_seconds(
      [&] {
        PredicateIndex index;
        for (const auto& e : entries) index.add(e.id, *e.predicate);
      },
      3);
  const double sequential_s = time_seconds(
      [&] {
        PredicateIndex index;
        index.bulk_load(entries, nullptr);
      },
      3);
  WorkStealingPool pool(kThreads - 1);  // the calling thread builds too
  const double parallel_s = time_seconds(
      [&] {
        PredicateIndex index;
        index.bulk_load(entries, &pool);
      },
      3);

  const double speedup = sequential_s / parallel_s;
  std::printf("bulk_load n=%zu: add-loop %.3fs, sequential %.3fs, parallel "
              "(%zu threads) %.3fs — %.2fx vs sequential\n",
              n, add_loop_s, sequential_s, kThreads, parallel_s, speedup);
  JsonRow("phase1_bulk_load")
      .field("predicates", n)
      .field("threads", kThreads)
      .field("add_loop_seconds", add_loop_s)
      .field("sequential_seconds", sequential_s)
      .field("parallel_seconds", parallel_s)
      .field("speedup", speedup)
      .emit();
}

void bench_intervals() {
  constexpr std::int64_t kDomain = 1'000'000'000;
  constexpr std::int64_t kNarrowWidth = 7'000'000;  // 0.7% of the domain
  constexpr std::size_t kIntervals = 1000;
  constexpr std::size_t kStabs = 20000;

  for (const bool mixed : {false, true}) {
    Pcg32 rng(0x57ab);
    AttributeRegistry attrs;
    const AttributeId attr = attrs.intern("x");
    PredicateTable table;
    AttributeIndex index;
    for (std::size_t i = 0; i < kIntervals; ++i) {
      std::int64_t lo = rng.range(0, kDomain - kNarrowWidth);
      std::int64_t hi = lo + kNarrowWidth - 1;
      if (mixed) {
        const std::int64_t a = rng.range(0, kDomain - 1);
        const std::int64_t b = rng.range(0, kDomain - 1);
        lo = std::min(a, b);
        hi = std::max(a, b);
      }
      const auto r = table.intern(
          Predicate{attr, Operator::Between, Value(lo), Value(hi)});
      if (r.newly_created) index.add(r.id, table.get(r.id));
    }
    std::vector<Value> values;
    for (std::size_t i = 0; i < kStabs; ++i) {
      values.emplace_back(rng.range(0, kDomain - 1));
    }

    std::vector<PredicateId> out;
    std::size_t matches = 0;
    const double seconds = time_seconds([&] {
      index.reset_interval_probe_count();
      matches = 0;
      for (const Value& v : values) {
        out.clear();
        index.stab(v, table, out);
        matches += out.size();
      }
    });
    const double probes =
        static_cast<double>(index.interval_probe_count()) / kStabs;
    const char* widths = mixed ? "mixed" : "narrow";
    std::printf("intervals widths=%s n=%zu: %.3f us/stab, %.1f probes/stab, "
                "%.1f matches/stab\n",
                widths, kIntervals, seconds / kStabs * 1e6, probes,
                static_cast<double>(matches) / kStabs);
    JsonRow("phase1_intervals")
        .field("widths", widths)
        .field("intervals", kIntervals)
        .field("stabs", kStabs)
        .field("us_per_stab", seconds / kStabs * 1e6)
        .field("probes_per_stab", probes)
        .field("matches_per_stab", static_cast<double>(matches) / kStabs)
        .emit();
  }
}

void bench_ranges() {
  constexpr std::int64_t kDomain = 1'000'000'000;
  constexpr std::size_t kEmittedPerPass = 12'000'000;

  for (const std::size_t n : {std::size_t{600}, std::size_t{60000}}) {
    Pcg32 rng(0x7a46);
    AttributeRegistry attrs;
    const AttributeId attr = attrs.intern("x");
    PredicateTable table;
    AttributeIndex index;
    static constexpr Operator kOps[] = {Operator::Gt, Operator::Le,
                                        Operator::Eq};
    std::set<std::int64_t> bounds;
    while (bounds.size() < n) {
      const std::int64_t bound = rng.range(0, kDomain - 1);
      if (!bounds.insert(bound).second) continue;
      const auto r = table.intern(
          Predicate{attr, kOps[rng.bounded(3)], Value(bound), {}});
      index.add(r.id, table.get(r.id));
    }
    // About a third of the bounds fulfil a uniform stab (half of the `>`
    // and `<=` ones), so this keeps each timed pass near kEmittedPerPass ids.
    const std::size_t stabs = 3 * kEmittedPerPass / n;
    std::vector<Value> values;
    for (std::size_t i = 0; i < stabs; ++i) {
      values.emplace_back(rng.range(0, kDomain - 1));
    }

    std::vector<PredicateId> out;
    std::size_t emitted = 0;
    const double seconds = time_seconds([&] {
      emitted = 0;
      for (const Value& v : values) {
        out.clear();
        index.stab(v, table, out);
        emitted += out.size();
      }
    });
    const double per_stab = static_cast<double>(emitted) / stabs;
    const double ns_per_id = seconds / static_cast<double>(emitted) * 1e9;
    std::printf("ranges n=%zu: %.3f us/stab, %.1f ids/stab, %.2f ns/id\n", n,
                seconds / stabs * 1e6, per_stab, ns_per_id);
    JsonRow("phase1_ranges")
        .field("predicates", n)
        .field("stabs", stabs)
        .field("us_per_stab", seconds / stabs * 1e6)
        .field("ids_per_stab", per_stab)
        .field("ns_per_id", ns_per_id)
        .emit();
  }
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  std::printf("# phase-1 index bench (scale=%s)\n", to_string(scale));
  const bool ok = bench_stab(scale);
  bench_bulk_load(scale);
  bench_intervals();
  bench_ranges();
  return ok ? 0 : 1;
}
