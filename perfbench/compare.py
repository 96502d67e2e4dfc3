"""Compare two sets of saved benchmark results.

    python3 perfbench/run.py --compare BASE_DIR CHANGE_DIR

Each directory holds the JSON records that untraced runs save (copy them out
of perfbench/results/).  For every workload and every end-to-end metric of
BENCHMARK.json the table shows each side's median and quartiles and a
verdict from the metric's own bound:

* unresolved: either side's spread (quartile distance over median) exceeds
  the bound, unless every change run is better than every base run;
* worse: the change's median is worse than the base median by more than the
  bound;
* better: the medians differ by more than the base's quartile distance and
  the change wins at least nine tenths of the run pairs (paired by seed);
* same: otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_set(directory: Path) -> dict[str, dict[int, dict]]:
    """Untraced records by workload and seed (a later run of a seed wins)."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") != 0:
            continue
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    if max((b3 - b1) / bmed, (c3 - c1) / cmed) > bound:
        all_better = all(sign * c < sign * b for c in change for b in base)
        return "better" if all_better else "unresolved"
    if sign * (cmed - bmed) / bmed > bound:
        return "worse"
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    if sign * (bmed - cmed) > b3 - b1 and pairs and wins >= 0.9 * len(pairs):
        return "better"
    return "same"


def compare(base_dir: Path, change_dir: Path, spec: dict) -> int:
    base, change = load_set(base_dir), load_set(change_dir)
    workloads = [w["name"] for w in spec["workloads"]]
    header = f"{'workload':<10} {'metric':<14} {'base q1/med/q3':>30} {'change q1/med/q3':>30}  verdict"
    print(header)
    for workload in workloads:
        b_runs, c_runs = base.get(workload, {}), change.get(workload, {})
        if not b_runs or not c_runs:
            print(f"{workload:<10} (no runs on {'base' if not b_runs else 'change'} side)")
            continue
        common = sorted(set(b_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_vals = [r["metrics"][name]["value"] for r in b_runs.values()]
            c_vals = [r["metrics"][name]["value"] for r in c_runs.values()]
            if common:
                pairs = [(b_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                         for s in common]
            else:
                pairs = list(zip(sorted(b_vals), sorted(c_vals)))
            v = verdict(b_vals, c_vals, pairs, metric["better"], metric["bound"])
            bq = "/".join(f"{x:.4g}" for x in quartiles(b_vals))
            cq = "/".join(f"{x:.4g}" for x in quartiles(c_vals))
            print(f"{workload:<10} {name:<14} {bq:>30} {cq:>30}  {v}")
        b_failed = sum(r["failed"] for r in b_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        print(f"{workload:<10} {'failed tasks':<14} {b_failed:>30} {c_failed:>30}  "
              f"({len(b_runs)} base runs, {len(c_runs)} change runs)")
    return 0
