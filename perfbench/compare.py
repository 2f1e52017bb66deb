"""Compare two benchmark result files metric by metric.

Each file holds one JSON record per line, as ``run.py`` appends them.
For every metric, one row per workload shows the median over that
file's runs on the old and new side and the relative change.  Untraced
runs supply the end-to-end metrics and traced runs the per-layer ones,
so a file with both gives the full table.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict:
    """workload -> metric -> (unit, [values])."""
    table: dict = defaultdict(dict)
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["result"]["metrics"].items():
                unit, values = table[record["workload"]].setdefault(
                    name, (metric["unit"], [])
                )
                values.append(metric["value"])
    return table


def compare(old_path: str, new_path: str) -> int:
    old, new = load(old_path), load(new_path)
    workloads = [w for w in old if w in new]
    if not workloads:
        print("no workload appears in both files")
        return 1
    names = []
    for workload in workloads:
        for name in list(old[workload]) + list(new[workload]):
            if name not in names:
                names.append(name)
    print(f"{'metric':32s} {'workload':16s} {'old':>12s} {'new':>12s} "
          f"{'delta':>9s}  unit  runs")
    for name in names:
        for workload in workloads:
            if name not in old[workload] or name not in new[workload]:
                continue
            unit, before = old[workload][name]
            _, after = new[workload][name]
            a, b = statistics.median(before), statistics.median(after)
            delta = f"{100.0 * (b - a) / a:+8.1f}%" if a else "       -"
            print(f"{name:32s} {workload:16s} {a:12.5g} {b:12.5g} {delta}  "
                  f"{unit}  {len(before)}/{len(after)}")
    return 0
