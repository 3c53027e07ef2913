#!/usr/bin/env bash
# Run every bench at REPRO_SCALE=quick and persist the machine-readable rows.
#
# For each build/bench_* binary this script captures stdout, extracts the
# one-object-per-line JSON rows (bench_util.h JsonRow; human CSV/summary
# lines are left behind), and writes them to BENCH_<name>.json at the repo
# root — the bench trajectory CI uploads as artifacts. Every bench emits
# JSON rows (bench_ablation included, since it moved off Google Benchmark);
# an empty BENCH_*.json therefore means the bench silently regressed, and
# the script fails on it.
#
# Usage: scripts/run_benches.sh [build-dir]   (default: build)
# Environment: REPRO_SCALE is forced to quick unless already set;
# NCPS_GIT_SHA is derived from git when absent so every row is stamped.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [ ! -d "$build_dir" ]; then
  echo "error: build directory '$build_dir' not found (configure first)" >&2
  exit 1
fi

export REPRO_SCALE="${REPRO_SCALE:-quick}"
if [ -z "${NCPS_GIT_SHA:-}" ]; then
  NCPS_GIT_SHA="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
  export NCPS_GIT_SHA
fi

echo "# run_benches: scale=$REPRO_SCALE sha=$NCPS_GIT_SHA build=$build_dir"

status=0
found=0
for bench in "$build_dir"/bench_*; do
  [ -x "$bench" ] || continue
  found=1
  name="$(basename "$bench")"
  out_json="$repo_root/BENCH_${name#bench_}.json"
  log="$(mktemp)"
  echo "== $name"
  # bench_memory/bench_table1 exit non-zero when a paper claim fails to
  # verify; record the failure but keep running the rest of the suite.
  if ! "$bench" >"$log" 2>&1; then
    echo "   (exit != 0 — verification failure recorded)" >&2
    status=1
  fi
  grep '^{' "$log" > "$out_json" || true
  rows="$(wc -l < "$out_json")"
  echo "   -> $out_json ($rows rows)"
  if [ "$rows" -eq 0 ]; then
    echo "   error: $name emitted no JSON rows" >&2
    status=1
  fi
  rm -f "$log"
done

if [ "$found" -eq 0 ]; then
  echo "error: no bench_* binaries in '$build_dir'" >&2
  exit 1
fi

# Schema guard: bench_sharing rows must carry the forest-vs-tree phase-2
# time ratio, the trajectory of the default engine's gap to the paper's
# encoded-tree prototype.
sharing_json="$repo_root/BENCH_sharing.json"
if [ -s "$sharing_json" ] && ! grep -q '"phase2_vs_tree"' "$sharing_json"; then
  echo "error: BENCH_sharing.json lacks the \"phase2_vs_tree\" column" >&2
  status=1
fi
if [ -s "$sharing_json" ] && ! grep -q '"sharing_refinement"' "$sharing_json"; then
  echo "error: BENCH_sharing.json lacks the \"sharing_refinement\" row" >&2
  status=1
fi

# Schema guard: bench_ablation's phase2_paper study must carry the forest's
# match_range rows in 8- and 64-event chunks (the block path) beside the
# per-event rows.
ablation_json="$repo_root/BENCH_ablation.json"
if [ -s "$ablation_json" ]; then
  for chunk in 8 64; do
    if ! grep '"study":"phase2_paper"' "$ablation_json" |
        grep -q "\"chunk_events\":$chunk,"; then
      echo "error: BENCH_ablation.json lacks the phase2_paper row in $chunk-event chunks" >&2
      status=1
    fi
  done
fi

# Schema guard: bench_phase1 rows must carry the naive-vs-indexed speedup and
# the posting-compression ratio — the two columns the phase-1 overhaul's
# acceptance thresholds are scraped from — the interval-stab row that
# tracks probes per stab against matches per stab, and the range-stab row
# that tracks ns per emitted id.
phase1_json="$repo_root/BENCH_phase1.json"
if [ -s "$phase1_json" ]; then
  for col in '"speedup"' '"ratio"' '"parallel_seconds"'; do
    if ! grep -q "$col" "$phase1_json"; then
      echo "error: BENCH_phase1.json lacks the $col column" >&2
      status=1
    fi
  done
  for row in '"phase1_intervals"' '"phase1_ranges"'; do
    if ! grep -q "$row" "$phase1_json"; then
      echo "error: BENCH_phase1.json lacks the $row row" >&2
      status=1
    fi
  done
fi

# Schema guard: bench_recovery rows must carry the durable-resubscribe vs
# snapshot-load speedup (the >= 5x cold-start acceptance claim) and the
# journal-tail replay timing.
recovery_json="$repo_root/BENCH_recovery.json"
if [ -s "$recovery_json" ]; then
  for col in '"speedup"' '"recover_seconds"' '"journal_tail_ops"'; do
    if ! grep -q "$col" "$recovery_json"; then
      echo "error: BENCH_recovery.json lacks the $col column" >&2
      status=1
    fi
  done
fi

# Schema guard: bench_delivery rows must carry the telemetry-histogram
# latency percentiles (the unified-telemetry acceptance column) next to the
# bench's own mean/max measurement.
delivery_json="$repo_root/BENCH_delivery.json"
if [ -s "$delivery_json" ] && ! grep -q '"p99_latency_us"' "$delivery_json"; then
  echo "error: BENCH_delivery.json lacks the \"p99_latency_us\" column" >&2
  status=1
fi

# Schema guard: bench_sharded rows must carry the placement-scenario axis,
# the honest-hardware throughput column and the steal counts — the
# work-stealing scheduler's acceptance numbers (per-hw-thread throughput,
# steals on skew) are scraped from these.
sharded_json="$repo_root/BENCH_sharded.json"
if [ -s "$sharded_json" ]; then
  for col in '"scenario"' '"events_per_sec_per_hw_thread"' '"steals"'; do
    if ! grep -q "$col" "$sharded_json"; then
      echo "error: BENCH_sharded.json lacks the $col column" >&2
      status=1
    fi
  done
fi

# Schema guard: bench_churn rows must carry the queued-control-op apply
# latency percentiles — the epoch refactor's acceptance claim (apply latency
# decoupled from batch size) is scraped from these.
churn_json="$repo_root/BENCH_churn.json"
if [ -s "$churn_json" ]; then
  for col in '"apply_p50_us"' '"apply_p99_us"' '"apply_ops"'; do
    if ! grep -q "$col" "$churn_json"; then
      echo "error: BENCH_churn.json lacks the $col column" >&2
      status=1
    fi
  done
fi

# Schema guard: bench_obs rows must carry the metrics-on/off overhead and
# the scrape cost — the telemetry plane's <= 2% budget is scraped from
# overhead_pct (and enforced by the bench's own exit code above).
obs_json="$repo_root/BENCH_obs.json"
if [ -s "$obs_json" ]; then
  for col in '"overhead_pct"' '"snapshot_us"'; do
    if ! grep -q "$col" "$obs_json"; then
      echo "error: BENCH_obs.json lacks the $col column" >&2
      status=1
    fi
  done
fi
exit "$status"
