"""Compare benchmark runs of a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the summaries `run.py --out FILE` appended, one run per line
(tagged with workload, seed and trace).  For every workload and end-to-end
metric of BENCHMARK.json the tool prints each side's median and quartiles
and a verdict:

* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: the parent's own spread (interquartile range over median)
  is wider than the bound, so a regression of that size could not be seen,
  unless every change run is better than every parent run;
* ``gain``: the change wins at least 9 in 10 of the pairs (runs paired by
  seed, ties count for neither side) and the medians differ by more than
  the parent's interquartile range;
* ``same``: none of the above.

Per-layer metrics from traced runs (``--trace 1``) are listed side by side
by median, without a verdict: they carry no bound.  Exit status is 1 when
any metric regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))


def load(path: str) -> dict:
    """{(workload, trace): {seed: {metric: value}}}"""
    runs: dict = defaultdict(dict)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            run = json.loads(line)
            runs[run["workload"], run["trace"]][run["seed"]] = {
                name: m["value"] for name, m in run["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float):
    """(verdict, detail) for one metric on one workload."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse_by = sign * (pm - cm) / pm
    spread = (p3 - p1) / pm
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    detail = f"wins {wins}/{len(pairs)}, parent spread {spread:.1%}, change worse by {worse_by:+.1%}"
    if worse_by > bound:
        return "regression", detail
    if spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved", detail
    if wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "gain", detail
    return "same", detail


def paired(parent: dict, change: dict, name: str):
    common = sorted(set(parent) & set(change))
    if common:
        return [parent[s][name] for s in common], [change[s][name] for s in common]
    return [r[name] for r in parent.values()], [r[name] for r in change.values()]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    regressed = False
    for (workload, trace) in sorted(set(parent) & set(change)):
        print(f"== {workload}" + (" (traced, per layer)" if trace else ""))
        if trace:
            names = sorted(set().union(*(r.keys() for r in parent[workload, 1].values())))
            for name in names:
                p, c = paired(parent[workload, 1], change[workload, 1], name)
                print(f"  {name:40s} parent {statistics.median(p):>14.6g}  "
                      f"change {statistics.median(c):>14.6g}")
            continue
        for metric in SPEC["end_to_end"]:
            p, c = paired(parent[workload, 0], change[workload, 0], metric["name"])
            result, detail = verdict(p, c, metric["better"], metric["bound"])
            regressed |= result == "regression"
            pq, cq = quartiles(p), quartiles(c)
            print(f"  {metric['name']:16s} {metric['unit']:>4s}  "
                  f"parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
                  f"{result} ({detail}; bound {metric['bound']:.0%})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
