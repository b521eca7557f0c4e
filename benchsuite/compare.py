#!/usr/bin/env python3
"""Compares two sets of bench_suite result files against BENCHMARK.json bounds.

    python3 benchsuite/compare.py <base_dir> [<new_dir>]

Each directory holds the --out files of untraced runs (run.py --out-dir), any
number per workload, typically one per seed. For every workload and every
end-to-end metric the script takes each set's median and its spread, the
distance between the first and third quartile as a share of the median, and
prints one verdict:

  better / worse   the median moved by more than the metric's bound
  within bound     it moved by less
  unresolved       a spread is wider than the bound, so the sets cannot be
                   told apart (unless every new run beats every base run)

It exits 1 when any verdict is "worse". With one directory it prints each
metric's median and spread, and the plan signatures seen, instead.
"""
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: [result, ...]} for the untraced results in a directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            result = json.load(f)
        if result["trace"] == 0:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def summary(values):
    """(median, spread) with spread = (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def verdict(metric, base, new):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    (base_med, base_spread), (new_med, new_spread) = summary(base), summary(new)
    worse_by = (new_med - base_med) / abs(base_med)
    if not lower:
        worse_by = -worse_by
    if max(base_spread, new_spread) > bound:
        all_better = max(new) < min(base) if lower else min(new) > max(base)
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if -worse_by > bound else "within bound"


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base = load(sys.argv[1])
    if len(sys.argv) == 2:
        for workload, runs in sorted(base.items()):
            plans = sorted({r["fingerprint"]["plan"] for r in runs})
            print(f"{workload} ({len(runs)} runs) plans: {' | '.join(plans)}")
            for m in metrics:
                med, spread = summary(values(runs, m["name"]))
                print(f"  {m['name']:<16} {med:14.4f} {m['unit']:<6} spread {spread:6.3f} "
                      f"(bound {m['bound']})")
        return
    new = load(sys.argv[2])
    worse = False
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print(f"{workload}: only in one set")
            continue
        for m in metrics:
            a, b = values(base[workload], m["name"]), values(new[workload], m["name"])
            v = verdict(m, a, b)
            worse = worse or v == "worse"
            print(f"{workload:<24} {m['name']:<16} {statistics.median(a):12.4f} -> "
                  f"{statistics.median(b):12.4f} {m['unit']:<6} {v}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
