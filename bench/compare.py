#!/usr/bin/env python3
"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/compare.py base/result-*.json change/result-*.json

Files are grouped by directory: the first directory named is the parent
(base), the second the change.  For every end-to-end metric of
BENCHMARK.json and every workload, the tool prints each side's median
and quartiles, the change against the parent's median, and a verdict:

- ``REGRESSION``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: the parent's own spread (quartile distance over median)
  is wider than the bound, unless every run of the change reads better
  than every run of the parent (``better, all runs``);
- ``gain``: with at least ten pairs (the i-th run of each side, in the
  order they started, as the alternating recipe makes them), the change
  wins nine tenths of the pairs and the medians differ by more than the
  parent's spread;
- ``ok``: none of these.

Runs of one commit compared with each other should all read ``ok``.
It also reports whether the exact counts repeat within each workload and
seed.  Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load_groups(paths):
    """Result records grouped by directory, in the order first named."""
    groups = {}
    for path in map(Path, paths):
        record = json.loads(path.read_text())
        if "workload" not in record or "metrics" not in record:
            continue  # a trace export, not a result
        groups.setdefault(path.parent, []).append(record)
    if len(groups) != 2:
        raise SystemExit(f"need result files from exactly two directories, got {len(groups)}")
    return [sorted(records, key=lambda r: r["started"]) for records in groups.values()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(base, change, better, bound):
    """(verdict, change in the median, parent spread, pairs won, pairs)."""
    sign = 1 if better == "lower" else -1
    base_med = statistics.median(base)
    q1, q3 = quartiles(base)
    spread = (q3 - q1) / base_med
    delta = (statistics.median(change) - base_med) / base_med
    worse = sign * delta
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if spread > bound:
        all_better = max(change) < min(base) if sign > 0 else min(change) > max(base)
        text = "better, all runs" if all_better else "unresolved"
    elif worse > bound:
        text = "REGRESSION"
    elif len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and -worse > spread:
        text = "gain"
    else:
        text = "ok"
    return text, delta, spread, wins, len(pairs)


def exact_counts(records):
    """Workload/seed pairs whose exact counts differ between runs."""
    seen = defaultdict(set)
    for record in records:
        key = (record["workload"], record["seed"], record["trace"], record["quick"])
        seen[key].add(json.dumps(record["counts"], sort_keys=True))
    return sorted(f"{w} seed {s}" for (w, s, _t, _q), counts in seen.items() if len(counts) > 1)


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_runs, change_runs = load_groups(argv)
    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = False
    print(f"{'workload':13s} {'metric':20s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'change':>8s} {'spread':>7s} "
          f"{'bound':>6s} {'pairs':>7s}  verdict")
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload and not r["trace"]]
        change = [r for r in change_runs if r["workload"] == workload and not r["trace"]]
        if not base or not change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in change if name in r["metrics"]]
            if not b or not c:
                print(f"{workload:13s} {name:20s} missing")
                continue
            text, delta, spread, wins, pairs = verdict(b, c, metric["better"], metric["bound"])
            regressed |= text == "REGRESSION"
            sides = [
                f"{statistics.median(v):.5g} [{quartiles(v)[0]:.5g}, {quartiles(v)[1]:.5g}] n={len(v)}"
                for v in (b, c)
            ]
            print(f"{workload:13s} {name:20s} {sides[0]:>32s} {sides[1]:>32s} "
                  f"{delta:+8.2%} {spread:7.2%} {metric['bound']:6.0%} "
                  f"{wins:>3d}/{pairs:<3d}  {text}")
    differing = exact_counts(base_runs + change_runs)
    print("exact counts: " + ("identical within each workload and seed" if not differing
                              else "DIFFER for " + ", ".join(differing)))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
