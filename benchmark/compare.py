#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py BASE_DIR NEW_DIR

Each directory holds the report files that `run.sh ... --report <file>`
writes, one per run. Runs are paired by (workload, seed). For every metric
and workload the script prints each side's median and quartiles (as Python's
statistics.quantiles(n=4) gives them), the spread (interquartile range over
median), the pair wins of NEW over BASE, and a verdict:

  gain           NEW wins at least 9 of every 10 pairs (ties count for
                 neither side) and the medians differ by more than BASE's
                 interquartile range
  better         every NEW run is better than every BASE run, though the
                 spread is wider than the bound
  unresolved     either side's spread is wider than the metric's bound
  REGRESSION     NEW's median is worse than BASE's by more than the bound
  no regression  otherwise

Per-layer metrics (traced runs) have no bound; they get medians and wins
but no verdict. Exits 1 when any end-to-end metric regressed.
"""

import json
import os
import statistics
import sys


def load_runs(directory):
    """{(workload, seed): report} for every report file in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            try:
                report = json.load(f)
            except json.JSONDecodeError:
                continue
        if not isinstance(report, dict) or report.get("benchmark") != "ptpbench":
            continue
        if not isinstance(report.get("metrics"), dict):
            continue
        runs[(report["workload"], report["seed"])] = report
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(q1, median, q3):
    """Interquartile range as a percentage of the median."""
    return 100 * (q3 - q1) / abs(median) if median else 0.0


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(base, new, wins, pairs, better, bound):
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    if (pairs and wins * 10 >= 9 * pairs
            and is_better(n_med, b_med, better)
            and abs(n_med - b_med) > b_q3 - b_q1):
        return "gain"
    if bound is None:
        return ""
    widest = max(spread(b_q1, b_med, b_q3), spread(n_q1, n_med, n_q3))
    if widest > 100 * bound:
        worst_new = max(new) if better == "lower" else min(new)
        best_base = min(base) if better == "lower" else max(base)
        return "better" if is_better(worst_new, best_base, better) else "unresolved"
    worse = (n_med - b_med) if better == "lower" else (b_med - n_med)
    if b_med and worse / abs(b_med) > bound:
        return "REGRESSION"
    return "no regression"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    base_runs, new_runs = load_runs(argv[1]), load_runs(argv[2])
    if not base_runs or not new_runs:
        print("no ptpbench reports in one of the directories", file=sys.stderr)
        return 2

    metrics = [(m, m["bound"]) for m in spec["end_to_end"]]
    metrics += [(m, None) for m in spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    header = ("%-22s %-18s %30s %7s %30s %7s %8s %6s  %s" %
              ("metric", "workload", "base median [q1, q3]", "spread",
               "new median [q1, q3]", "spread", "change", "wins", "verdict"))
    print(header)
    print("-" * len(header))
    regressions = 0
    for metric, bound in metrics:
        name = metric["name"]
        for workload in workloads:
            def values(runs):
                return {seed: r["metrics"][name]["value"]
                        for (w, seed), r in runs.items()
                        if w == workload and name in r["metrics"]}
            base, new = values(base_runs), values(new_runs)
            if not base or not new:
                continue
            pairs = [(base[s], new[s]) for s in sorted(base) if s in new]
            b_q1, b_med, b_q3 = quartiles(list(base.values()))
            n_q1, n_med, n_q3 = quartiles(list(new.values()))
            change = (n_med - b_med) / abs(b_med) if b_med else 0.0
            wins = sum(1 for b, n in pairs if is_better(n, b, metric["better"]))
            v = verdict(list(base.values()), list(new.values()), wins,
                        len(pairs), metric["better"], bound)
            regressions += v == "REGRESSION"
            print("%-22s %-18s %12.4g [%7.4g, %7.4g] %6.1f%% "
                  "%12.4g [%7.4g, %7.4g] %6.1f%% %+7.1f%% %3d/%-2d  %s" %
                  (name, workload, b_med, b_q1, b_q3, spread(b_q1, b_med, b_q3),
                   n_med, n_q1, n_q3, spread(n_q1, n_med, n_q3),
                   100 * change, wins, len(pairs), v))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
