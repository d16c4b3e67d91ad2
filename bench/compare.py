"""Compare two sets of benchmark runs of one workload, metric by metric.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds the JSON result lines of runs of the same workload, one per
line, as ``run.py`` prints them last (for example ten runs with seeds 0-9,
``| tail -n 1 >> parent.jsonl``). Pair runs by line: run the parent and the
change alternately with the same seeds. Directions and bounds come from
BENCHMARK.json.

For each metric the table gives both medians with their quartiles, the
change as a share of the parent's median, and a verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (``setup_s`` included);
* ``unresolved``: the parent's own spread (quartile distance over median)
  is wider than the bound, and not every change run beats every parent run;
* ``better``: the change wins at least nine pairs in ten and the medians
  differ by more than the parent's quartile distance;
* ``same`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def _load(path):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    if not runs:
        raise SystemExit(f"compare: no runs in {path}")
    return runs


def verdict(parent, change, better, bound) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [p_med] * 3
    gain = sign * (c_med - p_med) / abs(p_med)
    if gain < -bound:
        return "worse"
    spread = (p_q[2] - p_q[0]) / abs(p_med)
    if spread > bound and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    if wins >= 0.9 * min(len(parent), len(change)) and abs(c_med - p_med) > p_q[2] - p_q[0]:
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = _load(argv[0]), _load(argv[1])
    declared = json.loads((Path(__file__).resolve().parent.parent
                           / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"] + declared["per_layer"]
    for name, runs in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        print(f"{name}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed share {failed:.6f}")
    print(f"{'metric':34s} {'parent median [q1, q3]':>34s} {'change median':>14s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    exit_code = 0
    for m in metrics:
        p = [r["metrics"][m["name"]]["value"] for r in parent if m["name"] in r["metrics"]]
        c = [r["metrics"][m["name"]]["value"] for r in change if m["name"] in r["metrics"]]
        if not p or not c:
            continue
        p_med, c_med = statistics.median(p), statistics.median(c)
        q = statistics.quantiles(p, n=4) if len(p) > 1 else [p_med] * 3
        share = (c_med - p_med) / abs(p_med) if p_med else float("nan")
        bound = m.get("bound")
        v = verdict(p, c, m["better"], bound) if bound is not None else "-"
        exit_code |= v == "worse"
        print(f"{m['name']:34s} {p_med:12.5g} [{q[0]:9.4g}, {q[2]:9.4g}] {c_med:14.5g} "
              f"{100 * share:+7.1f}% {bound if bound is not None else '':>6}  {v}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
