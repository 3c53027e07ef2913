#!/usr/bin/env bash
# Build the end-to-end broker benchmark in Release and run it.
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1] [--smoke]
#
# With --workload, runs that workload in one process; the last line of
# stdout is its result, {"correct", "attempted", "failed", "metrics"}.
# Without it, runs paper, selective, overlap and churn, each in its own
# process, and prints each one's two lines (metadata, then result).
#
# --trace 1 makes the run the traced one: it reports the per-layer metrics
# instead of the end-to-end ones and writes its spans (Chrome trace-event
# JSON) to <build>/trace/<workload>-<seed>.json; summarise them with
# bench/e2e/trace_summary.py. --smoke runs every phase at a tenth of its
# length, correctness gate included.
#
# The build goes to ${CARGO_TARGET_DIR:-.bench_build}/e2e under the
# repository root. Every run must be reproducible from --seed alone.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

workload=""
seed=1
seconds=26
trace=0
smoke=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [[ "$trace" != 0 && "$trace" != 1 ]]; then
  echo "run.sh: --trace takes 0 or 1" >&2
  exit 2
fi

if [[ ! -f CMakeLists.txt || ! -d src/broker ]]; then
  echo "run.sh: the ncps sources are not at $root; nothing to benchmark" >&2
  exit 1
fi

build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  command -v ninja > /dev/null && generator=(-G Ninja)
  cmake -S bench/e2e -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target ncps_e2e -j 4 >&2

if [[ -z "${NCPS_GIT_SHA:-}" ]]; then
  NCPS_GIT_SHA="$(git rev-parse --short HEAD 2> /dev/null || echo unknown)"
  export NCPS_GIT_SHA
fi

run_one() {
  local args=(--workload "$1" --seed "$seed" --seconds "$seconds" "${smoke[@]}")
  if [[ "$trace" == 1 ]]; then
    mkdir -p "$build/trace"
    args+=(--trace-file "$build/trace/$1-$seed.json")
  fi
  "$build/ncps_e2e" "${args[@]}"
}

if [[ -n "$workload" ]]; then
  run_one "$workload"
else
  status=0
  for w in paper selective overlap churn; do
    run_one "$w" || status=1
  done
  exit "$status"
fi
