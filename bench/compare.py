"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` records that
``run.py`` writes to ``.bench_results/``.  For every workload and
end-to-end metric of ``BENCHMARK.json`` it prints each side's median and
quartiles, the ratio of the medians (change / parent) and a verdict:

* improved: the change wins at least nine tenths of the pairs (runs with
  the same seed; ties count for neither side) and the medians differ by
  more than the parent's own spread (its interquartile distance);
* worse: the change's median is worse than the parent's by more than the
  metric's bound;
* unresolved: the spread of either side, as a share of its median, is
  wider than the bound, and not every run of the change reads better than
  every run of the parent; also an improvement with more failed jobs;
* unchanged: otherwise.

Per-layer metrics from traced runs are listed with their medians and
ratio only; they carry no bound.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
NAME = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json$")


def load(directory: str) -> dict:
    """{(workload, trace): {seed: record}}"""
    out: dict = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        m = NAME.match(os.path.basename(path))
        if not m:
            continue
        with open(path) as fh:
            record = json.load(fh)
        key = (m["workload"], int(m["trace"]))
        out.setdefault(key, {})[int(m["seed"])] = record
    return out


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, better: str, bound: float, more_failures: bool) -> str:
    """Apply the rules of the module docstring to {seed: value} maps."""
    sign = 1 if better == "higher" else -1
    a, b = list(parent.values()), list(change.values())
    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    spread_a = (qa[2] - qa[0]) / abs(ma) if ma else float("inf")
    spread_b = (qb[2] - qb[0]) / abs(mb) if mb else float("inf")
    if pairs and wins >= 0.9 * len(pairs) and sign * (mb - ma) > qa[2] - qa[0]:
        return "unresolved (more failed jobs)" if more_failures else "improved"
    if sign * (mb - ma) < -bound * abs(ma):
        return "worse"
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    for workload in [w["name"] for w in spec["workloads"]]:
        pa, ch = parent.get((workload, 0), {}), change.get((workload, 0), {})
        if not pa or not ch:
            print(f"{workload}: no untraced results on one side")
            continue
        fails_a = sum(r["failed"] for r in pa.values())
        fails_b = sum(r["failed"] for r in ch.values())
        print(f"{workload}: {len(pa)} parent runs ({fails_a} failed jobs), {len(ch)} change runs ({fails_b} failed jobs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = {s: r["metrics"][name]["value"] for s, r in pa.items() if name in r["metrics"]}
            b = {s: r["metrics"][name]["value"] for s, r in ch.items() if name in r["metrics"]}
            if not a or not b:
                print(f"  {name}: missing on one side")
                continue
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            v = verdict(a, b, metric["better"], metric["bound"], fails_b > fails_a)
            print(
                f"  {name:12s} parent {fmt(qa[1])} [{fmt(qa[0])}, {fmt(qa[2])}]  "
                f"change {fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] {metric['unit']}  "
                f"ratio {qb[1] / qa[1]:.3f} (base parent median)  {v}"
            )
        ta, tb = parent.get((workload, 1), {}), change.get((workload, 1), {})
        if ta and tb:
            print(f"  per-layer (traced, {len(ta)} parent / {len(tb)} change runs):")
            for metric in spec["per_layer"]:
                name = metric["name"]
                a = [r["metrics"][name]["value"] for r in ta.values() if name in r["metrics"]]
                b = [r["metrics"][name]["value"] for r in tb.values() if name in r["metrics"]]
                if not a or not b:
                    continue
                ma, mb = statistics.median(a), statistics.median(b)
                ratio = f"{mb / ma:.3f}" if ma else "n/a"
                print(f"    {name:44s} {fmt(ma):>10s} -> {fmt(mb):>10s}  ratio {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
