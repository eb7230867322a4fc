"""Compare two sets of benchmark run records, metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are directories of run records (the JSON files
``perfbench/run.py`` writes under ``.perfbench/records/``) or single
record files.  Runs pair up by seed (same seed on both sides); seeds on
one side only are ignored.  For every workload and every metric named in
``BENCHMARK.json`` the script prints each side's median and quartiles and
one verdict, by the paired-runs rule for claiming a change:

* ``better`` -- at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither side), and the medians differ, in the
  change's favour, by more than the parent's interquartile range;
* ``worse``  -- the same with the roles swapped;
* ``unresolved`` -- anything else.

End-to-end metrics also get a bound column: ``over`` when the change's
median is worse than the parent's by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def by_key(records: List[dict]) -> Dict[Tuple[str, int], Dict[int, dict]]:
    """{(workload, trace): {seed: metric values}} (last record wins)."""
    out: Dict[Tuple[str, int], Dict[int, dict]] = {}
    for rec in records:
        values = {n: m["value"]
                  for n, m in rec["result"]["metrics"].items()}
        out.setdefault((rec["workload"], rec["trace"]), {})[
            rec["seed"]] = values
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float],
            better: str) -> Tuple[str, int, int]:
    """(verdict, change wins, parent wins) over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    n = len(parent)
    q1, med_p, q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - med_p)
    if n >= MIN_PAIRS and abs(gain) > q3 - q1:
        if gain > 0 and wins >= WIN_SHARE * n:
            return "better", wins, losses
        if gain < 0 and losses >= WIN_SHARE * n:
            return "worse", wins, losses
    return "unresolved", wins, losses


def fmt_q(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(parent_recs: List[dict], change_recs: List[dict],
            spec: dict) -> List[str]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = by_key(parent_recs), by_key(change_recs)
    lines = [f"{'workload':<16} {'metric':<28} {'n':>3} "
             f"{'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
             f"{'delta':>8} {'win/loss':>7} {'bound':>5}  verdict"]
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        if not seeds:
            lines.append(f"{workload:<16} (no common seeds)")
            continue
        names = [n for n in metrics if n in parent[key][seeds[0]]]
        for name in names:
            m = metrics[name]
            pv = [parent[key][s][name] for s in seeds]
            cv = [change[key][s][name] for s in seeds]
            pq, cq = quartiles(pv), quartiles(cv)
            v, wins, losses = verdict(pv, cv, m["better"])
            delta = ((cq[1] - pq[1]) / pq[1]) if pq[1] else 0.0
            worse_share = -delta if m["better"] == "higher" else delta
            bound = ("-" if "bound" not in m
                     else "over" if worse_share > m["bound"] else "ok")
            lines.append(
                f"{workload:<16} {name:<28} {len(seeds):>3} "
                f"{fmt_q(pq):>32} {fmt_q(cq):>32} {delta:>+8.1%} "
                f"{wins:>3}/{losses:<3} {bound:>5}  {v}")
    return lines


def probe_summary(label: str, records: List[dict]) -> str:
    probes = [p for r in records for p in r["probe_ms"].values()]
    if not probes:
        return f"{label}: no records"
    q1, med, q3 = quartiles(probes)
    return (f"{label}: {len(records)} records, host-speed probe "
            f"{med:.2f} ms [{q1:.2f}, {q3:.2f}] (higher = slower host)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = p.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    parent_recs = load_records(args.parent)
    change_recs = load_records(args.change)
    print(probe_summary("parent", parent_recs))
    print(probe_summary("change", change_recs))
    for line in compare(parent_recs, change_recs, spec):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
