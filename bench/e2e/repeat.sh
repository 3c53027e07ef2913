#!/usr/bin/env bash
# Run the untraced benchmark N times per workload and report its spread.
#
#   bench/e2e/repeat.sh N [--seed-base B] [--seconds S] [--workloads a,b,...]
#
# Repetition i runs every workload with seed B+i (B defaults to 1), in
# forward order on even i and reverse order on odd i, so no workload always
# runs first. It then prints, per workload and end-to-end metric, the median,
# the quartiles (statistics.quantiles(values, n=4)) and the spread, the
# interquartile distance as a share of the median. A spread above the
# metric's bound in BENCHMARK.json is flagged "OVER BOUND", one above a
# third of the bound "over 1/3". The ungated latency diagnostics follow,
# without a bound. Raw results go to <build>/repeat-<pid>.jsonl. Exits
# non-zero when a run failed or a spread is over its bound.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

usage="usage: repeat.sh N [--seed-base B] [--seconds S] [--workloads a,b,...]"
n="${1:?$usage}"
shift
seed_base=1
seconds=26
workloads=(paper selective overlap churn)
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed-base) seed_base="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workloads) IFS=, read -r -a workloads <<< "$2"; shift 2 ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done

out="${CARGO_TARGET_DIR:-.bench_build}/e2e/repeat-$$.jsonl"
mkdir -p "$(dirname "$out")"
: > "$out"
status=0
for ((i = 0; i < n; i++)); do
  order=("${workloads[@]}")
  if ((i % 2 == 1)); then
    for ((j = 0; j < ${#workloads[@]}; j++)); do
      order[j]="${workloads[${#workloads[@]} - 1 - j]}"
    done
  fi
  seed=$((seed_base + i))
  for w in "${order[@]}"; do
    if ! result="$(bash bench/e2e/run.sh --workload "$w" --seed "$seed" \
                     --seconds "$seconds")"; then
      echo "repeat.sh: $w seed $seed failed" >&2
      status=1
    fi
    line="$(tail -n 1 <<< "$result")"
    meta="$(tail -n 2 <<< "$result" | head -n 1)"
    [[ "$line" == "{"* && "$meta" == "{"* ]] || continue
    printf '{"workload":"%s","seed":%d,"meta":%s,"result":%s}\n' \
      "$w" "$seed" "$meta" "$line" >> "$out"
    echo "repeat.sh: $w seed $seed done" >&2
  done
done
echo "raw results: $out"

python3 - "$out" BENCHMARK.json <<'EOF' || status=1
import json
import statistics
import sys

rows = [json.loads(line) for line in open(sys.argv[1])]
gated = [(m["name"], m["bound"],
          lambda r, n=m["name"]: r["result"]["metrics"][n]["value"])
         for m in json.load(open(sys.argv[2]))["end_to_end"]]
diag = [("diag." + n, None, lambda r, n=n: r["meta"]["diag"][n])
        for n in ("notify_p50_ms", "notify_p90_ms", "notify_p99_ms",
                  "control_p50_us", "control_p90_us")]
over = False
for workload in dict.fromkeys(r["workload"] for r in rows):
    runs = [r for r in rows if r["workload"] == workload]
    incorrect = sum(not r["result"]["correct"] for r in runs)
    over |= incorrect > 0
    print(f"\n{workload}: {len(runs)} runs, {incorrect} incorrect")
    print(f"  {'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for name, bound, value in gated + diag:
        values = [value(r) for r in runs]
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        mid = statistics.median(values)
        spread = (q3 - q1) / mid if mid else float("inf")
        flag = ""
        if bound is not None and spread > bound:
            flag = "  OVER BOUND"
            over = True
        elif bound is not None and spread > bound / 3:
            flag = "  over 1/3"
        shown = "-" if bound is None else f"{bound:.0%}"
        print(f"  {name:<20}{mid:>12.4g}{q1:>12.4g}{q3:>12.4g}"
              f"{spread:>9.2%}{shown:>8}{flag}")
sys.exit(1 if over else 0)
EOF
exit "$status"
