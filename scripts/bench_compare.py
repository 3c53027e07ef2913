#!/usr/bin/env python3
"""Diff two trees of BENCH_*.json rows (scripts/run_benches.sh output).

Each BENCH_*.json holds one JSON object per line (bench_util.h JsonRow).
Rows are keyed by their non-numeric fields — bench name, mode, engine,
scale... — minus the run-stamp fields (git_sha, hw_threads),
so the same logical cell pairs up across runs even when sweep order or row
count changed. Numeric fields of paired rows are then compared with a
direction heuristic on the field name: throughput-like columns
(*_per_sec, speedup, ratio, sharing...) regress when they drop,
cost-like columns (*_seconds, *_us, latency, bytes, overhead_pct,
dropped...) regress when they rise; anything unrecognised is reported as a
neutral change.

Usage:
    scripts/bench_compare.py BASELINE_DIR CURRENT_DIR [--threshold PCT]
                             [--strict] [--only GLOB]

Exit status is 0 unless --strict is given and at least one regression
exceeds the threshold — the CI hook runs it non-blocking (no --strict) so a
noisy runner annotates the log instead of failing the build. --only narrows
the comparison to file names matching a glob (e.g. --only
'BENCH_sharded.json'), which is how the scheduled big-scale job gates just
the scheduler-throughput columns strictly while the rest of the suite stays
advisory.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import sys
from pathlib import Path

# Run-stamp fields: identical-per-run metadata that would prevent rows from
# pairing across runs (git_sha) or that describes the machine, not the
# measurement (hw_threads).
STAMP_FIELDS = {"git_sha", "hw_threads"}

HIGHER_IS_BETTER = ("per_sec", "speedup", "ratio", "sharing", "throughput")
LOWER_IS_BETTER = (
    "seconds",
    "latency",
    "_us",
    "_ns",
    "bytes",
    "overhead",
    "dropped",
    "depth",
)


def direction(field: str) -> int:
    """+1 higher-better, -1 lower-better, 0 unknown."""
    for marker in HIGHER_IS_BETTER:
        if marker in field:
            return 1
    for marker in LOWER_IS_BETTER:
        if marker in field:
            return -1
    return 0


def load_rows(path: Path) -> list[dict]:
    rows = []
    for line_number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as err:
            print(f"warning: {path}:{line_number}: unparsable row ({err})",
                  file=sys.stderr)
    return rows


def row_key(row: dict) -> tuple:
    return tuple(
        sorted((k, v) for k, v in row.items()
               if not isinstance(v, (int, float)) and k not in STAMP_FIELDS))


def index_rows(rows: list[dict]) -> dict[tuple, dict]:
    indexed: dict[tuple, dict] = {}
    for row in rows:
        key = row_key(row)
        if key in indexed:
            # Duplicate logical cells (e.g. a repeated sweep point): last
            # row wins, mirroring how a scrape of the file would read it.
            pass
        indexed[key] = row
    return indexed


def pct_change(base: float, cur: float) -> float:
    if base == 0:
        return 0.0 if cur == 0 else math.inf
    return (cur - base) / abs(base) * 100.0


def describe_key(key: tuple) -> str:
    return " ".join(f"{k}={v}" for k, v in key if k != "scale") or "(row)"


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json trees")
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument("--threshold", type=float, default=5.0,
                        help="percent change considered significant "
                             "(default 5)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any regression exceeds the "
                             "threshold")
    parser.add_argument("--only", metavar="GLOB", default=None,
                        help="compare only BENCH_*.json files whose name "
                             "matches this glob")
    args = parser.parse_args()

    for tree in (args.baseline, args.current):
        if not tree.is_dir():
            print(f"error: {tree} is not a directory", file=sys.stderr)
            return 2

    base_files = {p.name: p for p in sorted(args.baseline.glob("BENCH_*.json"))}
    cur_files = {p.name: p for p in sorted(args.current.glob("BENCH_*.json"))}
    if args.only is not None:
        base_files = {n: p for n, p in base_files.items()
                      if fnmatch.fnmatch(n, args.only)}
        cur_files = {n: p for n, p in cur_files.items()
                     if fnmatch.fnmatch(n, args.only)}
    if not base_files or not cur_files:
        print("error: no BENCH_*.json files to compare"
              + (f" (after --only {args.only})" if args.only else ""),
              file=sys.stderr)
        return 2

    for name in sorted(set(base_files) - set(cur_files)):
        print(f"note: {name} only in baseline (bench removed?)")
    for name in sorted(set(cur_files) - set(base_files)):
        print(f"note: {name} only in current (new bench)")

    regressions = []
    improvements = []
    neutral = []
    compared_cells = 0

    for name in sorted(set(base_files) & set(cur_files)):
        base_rows = index_rows(load_rows(base_files[name]))
        cur_rows = index_rows(load_rows(cur_files[name]))
        for key in sorted(set(base_rows) & set(cur_rows)):
            base_row, cur_row = base_rows[key], cur_rows[key]
            for field, base_value in base_row.items():
                if field in STAMP_FIELDS or not isinstance(
                        base_value, (int, float)) or isinstance(
                            base_value, bool):
                    continue
                cur_value = cur_row.get(field)
                if not isinstance(cur_value, (int, float)):
                    continue
                compared_cells += 1
                change = pct_change(float(base_value), float(cur_value))
                if abs(change) < args.threshold:
                    continue
                entry = (name, describe_key(key), field, float(base_value),
                         float(cur_value), change)
                sign = direction(field)
                if sign == 0:
                    neutral.append(entry)
                elif (change > 0) == (sign > 0):
                    improvements.append(entry)
                else:
                    regressions.append(entry)

    def print_table(title: str, entries: list) -> None:
        if not entries:
            return
        print(f"\n## {title} (threshold {args.threshold:g}%)")
        print(f"{'file':<24} {'field':<26} {'baseline':>12} "
              f"{'current':>12} {'change':>9}  row")
        for name, keydesc, field, base_value, cur_value, change in sorted(
                entries, key=lambda e: -abs(e[5])):
            print(f"{name:<24} {field:<26} {base_value:>12.6g} "
                  f"{cur_value:>12.6g} {change:>+8.1f}%  {keydesc}")

    print_table("Regressions", regressions)
    print_table("Improvements", improvements)
    print_table("Changes (no direction heuristic)", neutral)
    print(f"\n{compared_cells} numeric cells compared: "
          f"{len(regressions)} regressions, {len(improvements)} "
          f"improvements, {len(neutral)} neutral changes beyond "
          f"{args.threshold:g}%")

    if args.strict and regressions:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
