#!/usr/bin/env python3
"""Compare benchmark runs of a parent commit and a change.

    python3 benchmark/compare.py --parent P.jsonl --change C.jsonl
                                 [--trace 0|1] [--benchmark BENCHMARK.json]
    python3 benchmark/compare.py --self-test

Each file holds `lacc_bench --json` lines (one per workload run).  Runs of a
workload pair up in file order: the i-th parent run with the i-th change
run, which should have run next to each other, alternating which went
first.  Runs of one mode are compared: untraced (--trace 0, the default)
or traced.  One row per (workload, metric) of BENCHMARK.json the runs
report.  An end_to_end metric has a bound:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's own
              spread (distance between its quartiles)
  regressed   the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  the parent's spread, as a share of its median, is wider than
              the bound, and not every change run beats every parent run
  unchanged   anything else

A per-layer metric has none: it is improved as above, "worse" by the
mirror rule (the parent wins 9 of 10 pairs and the gap exceeds the
parent's spread), and otherwise unchanged.

A rise in the share of failed operations (failed / attempted, summed over
a workload's runs) is its own "failed_share" row, reported as regressed.
At least ten pairs per workload are required.  Exit status: 1 if any row
regressed, else 0.
"""

import argparse
import collections
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound=None):
    """Classify one metric from paired runs; returns (verdict, wins).
    `bound` is None for a per-layer metric."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (p - c) < 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gap_clear = abs(cm - pm) > (p3 - p1)
    if bound is not None:
        every_run_better = all(sign * (p - c) > 0
                               for p in parent for c in change)
        if pm == 0:
            return ("unresolved", wins)
        if (p3 - p1) / abs(pm) > bound:
            return ("improved" if every_run_better else "unresolved", wins)
        if sign * (cm - pm) / abs(pm) > bound:
            return ("regressed", wins)
    elif losses >= WIN_SHARE * len(pairs) and gap_clear:
        return ("worse", wins)
    if wins >= WIN_SHARE * len(pairs) and gap_clear:
        return ("improved", wins)
    return ("unchanged", wins)


def load(path, trace):
    runs = collections.defaultdict(list)
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if r.get("trace", 0) == trace:
                runs[r["workload"]].append(r)
    return runs


def compare(spec, parent_runs, change_runs, out):
    """Print the table; return the list of (workload, metric, verdict)."""
    rows = []
    fmt = "{:<15} {:<16} {:<11} {:>28} {:>28} {:>8} {:>6}"
    print(fmt.format("workload", "metric", "verdict", "parent med [q1, q3]",
                     "change med [q1, q3]", "delta", "wins"), file=out)
    for w in spec["workloads"]:
        name = w["name"]
        parent, change = parent_runs.get(name, []), change_runs.get(name, [])
        n = min(len(parent), len(change))
        if n < MIN_PAIRS:
            raise SystemExit(f"compare.py: {name}: {n} pairs, need at least "
                             f"{MIN_PAIRS}")
        parent, change = parent[:n], change[:n]
        for m in spec["end_to_end"] + spec.get("per_layer", []):
            if not all(m["name"] in r["metrics"] for r in parent + change):
                continue
            p = [r["metrics"][m["name"]]["value"] for r in parent]
            c = [r["metrics"][m["name"]]["value"] for r in change]
            v, wins = verdict(p, c, m["better"], m.get("bound"))
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
            print(fmt.format(
                name, m["name"], v,
                f"{pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]",
                f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]",
                f"{delta:+.1f}%", f"{wins}/{n}"), file=out)
            rows.append((name, m["name"], v))
        share = [sum(r["failed"] for r in runs) /
                 max(1, sum(r["attempted"] for r in runs))
                 for runs in (parent, change)]
        v = "regressed" if share[1] > share[0] else "unchanged"
        print(fmt.format(name, "failed_share", v, f"{share[0]:.4g}",
                         f"{share[1]:.4g}", "", ""), file=out)
        rows.append((name, "failed_share", v))
    return rows


def self_test():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "lat", "better": "lower", "bound": 0.1},
                           {"name": "rate", "better": "higher", "bound": 0.1}],
            "per_layer": [{"name": "layer", "better": "lower"}]}

    def runs(lat, rate, failed=0, layer=None):
        layer = layer or [1.0] * len(lat)
        return {"w": [{"workload": "w", "trace": 0, "attempted": 100,
                       "failed": failed,
                       "metrics": {"lat": {"value": a}, "rate": {"value": b},
                                   "layer": {"value": x}}}
                      for a, b, x in zip(lat, rate, layer)]}

    base = [100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8]
    faster = [x * 0.9 for x in base]
    slower = [x * 1.2 for x in base]
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    devnull = open(os.devnull, "w")
    checks = [
        # (parent lat, parent rate, change lat, change rate, expected)
        (base, base, faster, base, {"lat": "improved", "rate": "unchanged"}),
        (base, base, slower, [x * 0.8 for x in base],
         {"lat": "regressed", "rate": "regressed"}),
        (base, base, base, [x * 1.12 for x in base],
         {"lat": "unchanged", "rate": "improved"}),
        (noisy, base, [x * 0.97 for x in noisy], base,
         {"lat": "unresolved", "rate": "unchanged"}),
        # Wide spread, but every change run beats every parent run.
        (noisy, base, [x * 0.3 for x in base], base,
         {"lat": "improved", "rate": "unchanged"}),
        # 8 wins in 10 is not enough for a claim.
        (base, base, [x * 0.97 for x in base[:8]] + [x * 1.01 for x in base[8:]],
         base, {"lat": "unchanged", "rate": "unchanged"}),
    ]
    ok = True
    for pl, pr, cl, cr, want in checks:
        rows = compare(spec, runs(pl, pr), runs(cl, cr), devnull)
        got = {m: v for _, m, v in rows if m not in ("failed_share", "layer")}
        if got != want:
            print(f"FAIL: want {want}, got {got}")
            ok = False
    # Per-layer metrics have no bound: 20% slower on every pair is "worse",
    # 20% faster "improved", noise "unchanged".
    for layer, want in (([x * 1.2 for x in base], "worse"),
                        ([x * 0.8 for x in base], "improved"),
                        (list(reversed(base)), "unchanged")):
        rows = compare(spec, runs(base, base, layer=base),
                       runs(base, base, layer=layer), devnull)
        if ("w", "layer", want) not in rows:
            print(f"FAIL: per-layer metric should read {want}: {rows}")
            ok = False
    rows = compare(spec, runs(base, base), runs(base, base, failed=1), devnull)
    if ("w", "failed_share", "regressed") not in rows:
        print("FAIL: a rise in failures is not flagged")
        ok = False
    try:
        compare(spec, runs(base[:5], base[:5]), runs(base[:5], base[:5]),
                devnull)
        print("FAIL: five pairs were accepted")
        ok = False
    except SystemExit:
        pass
    print("compare.py self-test:", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark runs.")
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.parent or not args.change:
        parser.error("--parent and --change are required")
    with open(args.benchmark) as f:
        spec = json.load(f)
    rows = compare(spec, load(args.parent, args.trace),
                   load(args.change, args.trace), sys.stdout)
    return 1 if any(v == "regressed" for _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
