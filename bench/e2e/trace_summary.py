#!/usr/bin/env python3
"""Summarise span files written by a traced run of bench/e2e/run.sh.

    python3 bench/e2e/trace_summary.py .bench_build/e2e/trace/*.json

For each file, prints every span name's call count and self time: its
duration minus the part of it that its child spans cover. Self time is
given per event for spans under bench.batch (per published event) and under
bench.replay (per replayed event), and per call for the rest (set-up,
control operations, flush). Then prints broker.parallel_efficiency: phase 1
plus phase 2 replay time over the publish time of the replayed batches times
the worker count.
"""

import json
import sys
from collections import defaultdict


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarise(path):
    with open(path) as f:
        trace = json.load(f)
    info = trace["otherData"]
    spans = {}
    for event in trace["traceEvents"]:
        args = event["args"]
        spans[args["id"]] = {
            "name": event["name"],
            "start": event["ts"],
            "end": event["ts"] + event["dur"],
            "parent": args["parent"],
            "batch": args["batch"],
        }
    children = defaultdict(list)
    for span in spans.values():
        if span["parent"] in spans:
            children[span["parent"]].append(span)

    def root(span):
        while span["parent"] in spans:
            span = spans[span["parent"]]
        return span["name"]

    per_event = {"bench.batch": info["published_events"],
                 "bench.replay": info["replay_events"]}
    calls = defaultdict(int)
    self_us = defaultdict(float)
    denominator = {}
    for span_id, span in spans.items():
        kids = [(c["start"], c["end"]) for c in children[span_id]]
        duration = span["end"] - span["start"]
        calls[span["name"]] += 1
        self_us[span["name"]] += duration - covered(span["start"], span["end"],
                                                    kids)
        denominator[span["name"]] = per_event.get(root(span))

    print(f"{info['workload']} (seed {info['seed']}): {info['shards']} shards, "
          f"{info['workers']} workers, {info['published_events']} published "
          f"and {info['replay_events']} replayed events")
    print(f"  {'span':<28}{'calls':>8}{'self ms':>12}{'self us':>12}  per")
    for name in sorted(calls, key=lambda n: -self_us[n]):
        events = denominator[name]
        share = self_us[name] / (events or calls[name])
        print(f"  {name:<28}{calls[name]:>8}{self_us[name] / 1e3:>12.2f}"
              f"{share:>12.2f}  {'event' if events else 'call'}")

    replayed = {s["batch"] for s in spans.values()
                if s["name"] == "bench.replay"}
    publish = sum(s["end"] - s["start"] for s in spans.values()
                  if s["name"] == "broker.publish_batch"
                  and s["batch"] in replayed)
    phases = sum(self_us[n] for n in ("index.match_batch",
                                      "engine.match_predicates"))
    if publish > 0:
        print(f"  broker.parallel_efficiency {phases / (publish * info['workers']):.3f}"
              f" (phase 1 + phase 2 {phases / 1e3:.1f} ms over publish"
              f" {publish / 1e3:.1f} ms x {info['workers']} workers)")


def main(paths):
    if not paths:
        sys.exit(__doc__)
    for i, path in enumerate(paths):
        if i:
            print()
        summarise(path)


if __name__ == "__main__":
    main(sys.argv[1:])
