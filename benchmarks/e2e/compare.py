#!/usr/bin/env python3
"""Compare runs of two commits, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``<workload>.jsonl``: one result object (the last
line ``run.py`` prints for one workload) per line, in the order the runs
were made, so line i of both files is pair i.  Run the two commits
alternately, switching which goes first in each pair.

Each end-to-end metric of ``BENCHMARK.json`` gets one verdict:

* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound;
* ``improved`` — at least 10 pairs, the change wins at least 9 in 10
  of them (ties count for neither side), and the medians differ by
  more than the distance between the parent's quartiles;
* ``unresolved`` — the parent's spread (quartile distance over median)
  is wider than the bound, and not every change run beats every parent
  run;
* ``unchanged`` — otherwise.

A workload whose share of failed operations grew gets a
``failed_share`` row marked ``regressed``.  The exit status is 1 if any
row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """One metric's verdict from paired samples (see module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if sign * (p_med - c_med) / p_med > bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > q3 - q1):
        return "improved"
    every_run_better = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if (q3 - q1) / p_med > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def load(directory: Path) -> dict[str, list[dict]]:
    return {
        path.stem: [json.loads(line) for line in path.read_text().splitlines()
                    if line.strip()]
        for path in sorted(directory.glob("*.jsonl"))
    }


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / max(1, attempted)


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> list[tuple]:
    """Rows of (workload, metric, parent median, change median, wins,
    pairs, verdict)."""
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [run["metrics"][name]["value"] for run in p_runs]
            c = [run["metrics"][name]["value"] for run in c_runs]
            if len(p) < 2 or len(c) < 1:
                rows.append((workload, name, None, None, 0, 0, "unresolved"))
                continue
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
            rows.append((
                workload, name, statistics.median(p), statistics.median(c),
                wins, min(len(p), len(c)),
                verdict(p, c, metric["better"], metric["bound"]),
            ))
        if failed_share(c_runs) > failed_share(p_runs):
            rows.append((workload, "failed_share", failed_share(p_runs),
                         failed_share(c_runs), 0, 0, "regressed"))
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(Path(args[0]), Path(args[1]), spec)
    print(f"{'workload':<10} {'metric':<14} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'wins':>7}  verdict")
    for workload, metric, p_med, c_med, wins, pairs, result in rows:
        if p_med is None:
            print(f"{workload:<10} {metric:<14} {'-':>12} {'-':>12} "
                  f"{'-':>8} {'-':>7}  {result}")
            continue
        delta = (c_med - p_med) / p_med if p_med else 0.0
        print(f"{workload:<10} {metric:<14} {p_med:12.6g} {c_med:12.6g} "
              f"{delta:+8.1%} {wins:>3}/{pairs:<3}  {result}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
