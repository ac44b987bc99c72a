#!/usr/bin/env python3
"""Core performance benchmark: the columnar fast path against the
retained pure-Python reference path, plus the multi-seed sweep engine.

At 1x/10x/100x the Tsubame-2 paper scale (897 records — larger scales
are built by time-tiling the calibrated 1x log, since the placement
model caps a single generated trace at the node count), this times:

* log construction (generation plus tiling),
* a chained-filter pass — trusted mask path vs. re-validating every
  subset through the public constructor,
* the full analysis pass (every vectorized kernel) vs. the per-record
  oracles in ``tests/core/oracles.py``,
* each TBF / spatial / seasonal / multi-GPU kernel individually,
* ``read_csv`` of the tiled log — the columnar reader vs. the
  row-by-row oracle in ``tests/io/oracles.py``, after asserting both
  give equal logs — plus the first-touch cost of the lazy records,

and a 50-seed :func:`repro.parallel.sweep` (serial vs. 4 workers),
then writes ``BENCH_core.json`` at the repo root so future PRs have a
perf trajectory to regress against.

Run::

    PYTHONPATH=src python benchmarks/perf_core.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import metrics, multigpu, seasonal, spatial, temporal
from repro.core import taxonomy
from repro.core.records import FailureLog
from repro.core.taxonomy import FailureClass
from repro.io import read_csv, write_csv
from repro.parallel import available_cpus, sweep
from repro.synth import GeneratorConfig, generate_log

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
from tests.core import oracles  # noqa: E402
from tests.io.oracles import read_csv_rows  # noqa: E402
REPORT_PATH = REPO_ROOT / "BENCH_core.json"

BENCH_SEED = 42
SCALES = {"1x": 1, "10x": 10, "100x": 100}
SWEEP_SEEDS = 50
SWEEP_WORKERS = 4


def _selected_scales() -> dict[str, int]:
    """Scales to run, optionally restricted via ``REPRO_BENCH_SCALES``.

    The variable is a comma-separated list of multipliers (``"1"``,
    ``"1,10"``) or labels (``"1x,10x"``); CI smoke runs set it to
    ``1`` so the 100x tier does not eat the build budget.
    """
    raw = os.environ.get("REPRO_BENCH_SCALES", "").strip()
    if not raw:
        return dict(SCALES)
    wanted = {
        token if token.endswith("x") else f"{token}x"
        for token in (t.strip() for t in raw.split(","))
        if token
    }
    selected = {
        label: factor
        for label, factor in SCALES.items()
        if label in wanted
    }
    if not selected:
        raise SystemExit(
            f"REPRO_BENCH_SCALES={raw!r} matches no known scale "
            f"(choose from {', '.join(SCALES)})"
        )
    return selected


def _best_of(fn, repeats: int = 3):
    """Best wall-clock of ``repeats`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def tiled_log(factor: int, seed: int = BENCH_SEED) -> FailureLog:
    """Calibrated Tsubame-2 log tiled ``factor`` times along the time
    axis (record ids re-assigned, window extended), validated once by
    the public constructor like any externally built log."""
    base = generate_log(
        "tsubame2", config=GeneratorConfig(seed=seed)
    )
    if factor == 1:
        return base
    span = base.window_end - base.window_start
    records = []
    record_id = 0
    for copy in range(factor):
        shift = span * copy
        for record in base.records:
            records.append(
                dataclasses.replace(
                    record,
                    record_id=record_id,
                    timestamp=record.timestamp + shift,
                )
            )
            record_id += 1
    return FailureLog(
        machine=base.machine,
        records=tuple(records),
        window_start=base.window_start,
        window_end=base.window_start + span * factor,
    )


def _validated_subset(log: FailureLog, predicate) -> FailureLog:
    """The pre-columnar subset path: filter, then re-validate and
    re-sort everything through the public constructor."""
    return FailureLog(
        machine=log.machine,
        records=tuple(r for r in log.records if predicate(r)),
        window_start=log.window_start,
        window_end=log.window_end,
    )


def _midpoint(log: FailureLog):
    return log.window_start + (log.window_end - log.window_start) / 2


def filter_chain_fast(log: FailureLog) -> int:
    sub = (
        log.gpu_failures()
        .between(log.window_start, _midpoint(log))
        .by_class(FailureClass.HARDWARE)
    )
    return len(sub)


def filter_chain_reference(log: FailureLog) -> int:
    end = _midpoint(log)
    sub = _validated_subset(
        log,
        lambda r: bool(r.gpus_involved)
        or taxonomy.is_gpu_category(log.machine, r.category),
    )
    sub = _validated_subset(
        sub, lambda r: log.window_start <= r.timestamp < end
    )
    sub = _validated_subset(
        sub,
        lambda r: taxonomy.failure_class(log.machine, r.category)
        is FailureClass.HARDWARE,
    )
    return len(sub)


def analysis_chain_fast(log: FailureLog) -> dict:
    gpu = log.gpu_failures()
    mid = gpu.between(log.window_start, _midpoint(log))
    return {
        "tbf": metrics.tbf_series_hours(mid),
        "ttr": metrics.ttr_series_hours(mid),
        "tbf_categories": [
            e.category for e in temporal.tbf_by_category(log)
        ],
        "node_counts": spatial.node_failure_distribution(
            mid
        ).counts_per_node,
        "class_split": spatial.repeat_failure_class_split(log),
        "slots": spatial.gpu_slot_distribution(gpu, (0, 1, 2)),
        "monthly": seasonal.monthly_failure_counts(mid).counts,
        "monthly_ttr_keys": sorted(
            seasonal.monthly_ttr(log).summaries
        ),
        "weekday": seasonal.weekday_profile(log),
        "hourly": seasonal.hour_of_day_profile(log),
        "involvement": multigpu.multi_gpu_involvement(mid, 3),
        "clustering_events": len(
            multigpu.multi_gpu_clustering(log).events
        ),
    }


def analysis_chain_reference(log: FailureLog) -> dict:
    end = _midpoint(log)
    gpu = _validated_subset(
        log,
        lambda r: bool(r.gpus_involved)
        or taxonomy.is_gpu_category(log.machine, r.category),
    )
    mid = _validated_subset(
        gpu, lambda r: log.window_start <= r.timestamp < end
    )
    return {
        "tbf": oracles.tbf_series_hours(mid),
        "ttr": oracles.ttr_series_hours(mid),
        "tbf_categories": [
            e.category
            for e in oracles.tbf_by_category(log)
        ],
        "node_counts": oracles.node_failure_distribution(
            mid
        ).counts_per_node,
        "class_split": oracles.repeat_failure_class_split(
            log
        ),
        "slots": oracles.gpu_slot_distribution(
            gpu, (0, 1, 2)
        ),
        "monthly": oracles.monthly_failure_counts(
            mid
        ).counts,
        "monthly_ttr_keys": sorted(
            oracles.monthly_ttr(log).summaries
        ),
        "weekday": oracles.weekday_profile(log),
        "hourly": oracles.hour_of_day_profile(log),
        "involvement": oracles.multi_gpu_involvement(
            mid, 3
        ),
        "clustering_events": len(
            oracles.multi_gpu_clustering(log).events
        ),
    }


#: name -> (fast kernel, reference kernel), each taking the full log.
KERNELS = {
    "tbf_series": (
        metrics.tbf_series_hours,
        oracles.tbf_series_hours,
    ),
    "tbf_by_category": (
        temporal.tbf_by_category,
        oracles.tbf_by_category,
    ),
    "node_failure_distribution": (
        spatial.node_failure_distribution,
        oracles.node_failure_distribution,
    ),
    "repeat_failure_class_split": (
        spatial.repeat_failure_class_split,
        oracles.repeat_failure_class_split,
    ),
    "monthly_ttr": (
        seasonal.monthly_ttr,
        oracles.monthly_ttr,
    ),
    "hour_of_day_profile": (
        seasonal.hour_of_day_profile,
        oracles.hour_of_day_profile,
    ),
    "multi_gpu_clustering": (
        multigpu.multi_gpu_clustering,
        oracles.multi_gpu_clustering,
    ),
}


def _bench_read(log: FailureLog) -> dict:
    """Columnar ``read_csv`` vs. the row-path oracle on one CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        write_csv(log, path)
        columnar, oracle = read_csv(path), read_csv_rows(path)
        if columnar != oracle or columnar != log:
            raise AssertionError(
                "columnar read_csv disagrees with the row-path oracle"
            )
        columnar_s, _ = _best_of(lambda: read_csv(path))
        row_s, _ = _best_of(lambda: read_csv_rows(path))
        lazy = [read_csv(path) for _ in range(3)]
    # The records a lazy log defers, built on first touch.
    first_touch_s = min(
        _best_of(lambda: fresh.records, repeats=1)[0] for fresh in lazy
    )
    return {
        "rows": len(log),
        "columnar_s": columnar_s,
        "row_path_s": row_s,
        "speedup": row_s / columnar_s if columnar_s else float("inf"),
        "first_touch_records_s": first_touch_s,
        "logs_equal": True,
    }


def _bench_scale(factor: int) -> dict:
    start = time.perf_counter()
    log = tiled_log(factor)
    build_s = time.perf_counter() - start

    filter_fast_s, fast_n = _best_of(lambda: filter_chain_fast(log))
    filter_ref_s, ref_n = _best_of(
        lambda: filter_chain_reference(log), repeats=1
    )

    # Cold = first touch on a fresh log (includes the one-time column
    # build); warm = the steady state every later call sees.
    cold_log = tiled_log(factor)
    start = time.perf_counter()
    analysis_chain_fast(cold_log)
    chain_cold_s = time.perf_counter() - start
    chain_warm_s, fast_out = _best_of(
        lambda: analysis_chain_fast(cold_log)
    )
    chain_ref_s, ref_out = _best_of(
        lambda: analysis_chain_reference(cold_log), repeats=1
    )

    kernels = {}
    for name, (fast_fn, ref_fn) in KERNELS.items():
        fast_s, _ = _best_of(lambda: fast_fn(log))
        ref_s, _ = _best_of(lambda: ref_fn(log), repeats=1)
        kernels[name] = {
            "fast_s": fast_s,
            "reference_s": ref_s,
            "speedup": ref_s / fast_s if fast_s else float("inf"),
        }

    return {
        "records": len(log),
        "build_log_s": build_s,
        "filter_chain": {
            "fast_s": filter_fast_s,
            "reference_s": filter_ref_s,
            "speedup": filter_ref_s / filter_fast_s
            if filter_fast_s
            else float("inf"),
            "survivors_match": fast_n == ref_n,
        },
        "analysis_chain": {
            "fast_cold_s": chain_cold_s,
            "fast_warm_s": chain_warm_s,
            "reference_s": chain_ref_s,
            "speedup_cold": chain_ref_s / chain_cold_s
            if chain_cold_s
            else float("inf"),
            "speedup_warm": chain_ref_s / chain_warm_s
            if chain_warm_s
            else float("inf"),
            "parity_ok": fast_out == ref_out,
        },
        "kernels": kernels,
        "read": _bench_read(log),
    }


def _sweep_job(seed: int) -> tuple[int, float]:
    """Per-seed work for the sweep benchmark: generate a calibrated
    Tsubame-3 trace and reduce it to (failure count, MTBF hours)."""
    log = generate_log(
        "tsubame3", config=GeneratorConfig(seed=seed)
    )
    return len(log), metrics.mtbf(log)


def _bench_sweep() -> dict:
    seeds = list(range(SWEEP_SEEDS))
    start = time.perf_counter()
    serial = sweep(_sweep_job, seeds, processes=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = sweep(_sweep_job, seeds, processes=SWEEP_WORKERS)
    parallel_s = time.perf_counter() - start
    return {
        "seeds": SWEEP_SEEDS,
        "workers": SWEEP_WORKERS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s
        if parallel_s
        else float("inf"),
        "identical": serial == parallel,
        # Parity (identical) holds on any host; the speedup ratio is
        # only a claim where there are cores to back it.
        "speedup_asserted": available_cpus() >= 2,
    }


def run_benchmark() -> dict:
    results = {
        "schema": 1,
        "seed": BENCH_SEED,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scales": {
            label: _bench_scale(factor)
            for label, factor in _selected_scales().items()
        },
        "sweep": _bench_sweep(),
    }
    return results


def write_report(results: dict, path: Path = REPORT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def main() -> None:
    results = run_benchmark()
    for label, scale in results["scales"].items():
        chain = scale["analysis_chain"]
        print(
            f"{label:>4} ({scale['records']} records): "
            f"analysis {chain['fast_warm_s'] * 1e3:.1f} ms vs "
            f"reference {chain['reference_s'] * 1e3:.1f} ms "
            f"({chain['speedup_warm']:.1f}x warm, "
            f"{chain['speedup_cold']:.1f}x cold), "
            f"filter chain {scale['filter_chain']['speedup']:.1f}x, "
            f"read_csv {scale['read']['columnar_s'] * 1e3:.1f} ms vs "
            f"row path {scale['read']['row_path_s'] * 1e3:.1f} ms "
            f"({scale['read']['speedup']:.1f}x)"
        )
    sweep_result = results["sweep"]
    print(
        f"sweep ({sweep_result['seeds']} seeds, "
        f"{sweep_result['workers']} workers on "
        f"{results['cpu_count']} cores): "
        f"{sweep_result['serial_s']:.2f} s serial vs "
        f"{sweep_result['parallel_s']:.2f} s parallel "
        f"({sweep_result['speedup']:.2f}x), "
        f"identical={sweep_result['identical']}"
    )
    path = write_report(results)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
