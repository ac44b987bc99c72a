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
  beside a frozen ``before`` block measured while the reader split
  the decoded body into one string per field,
* the ``report`` tier: ``full_report`` plus the five ``/analyze``
  payloads over the tiled log read back from CSV (with the 1x
  Tsubame-3 log), the exact number of ``ColumnarView.mask`` and
  ``np.percentile`` calls they make, and the sha256 of their bytes,
  beside a frozen ``before`` block measured while the per-category
  kernels built a sub-log per category,

and a 50-seed :func:`repro.parallel.sweep` (serial vs. 4 workers),
then writes ``BENCH_core.json`` at the repo root so future PRs have a
perf trajectory to regress against.

Run::

    PYTHONPATH=src python benchmarks/perf_core.py
"""

from __future__ import annotations

import dataclasses
import hashlib
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
from repro.core.columns import ColumnarView
from repro.core.payloads import PAYLOADS
from repro.core.records import FailureLog
from repro.core.report import full_report
from repro.core.taxonomy import FailureClass
from repro.io import read_csv, write_csv
from repro.parallel import available_cpus, sweep
from repro.serve.http import json_body
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


#: The ``report`` tier as last measured while ``ttr_by_category``,
#: ``component_class_mtbf`` and ``software_root_loci`` built one
#: sub-log (a ``ColumnarView.mask`` of every column) per category,
#: the metrics went through Python lists and Figure 8 binned its
#: events in a Python loop.  Frozen; never re-measured.
REPORT_BEFORE = {
    "note": (
        "sub-log per category: this tier's code run against the "
        "previous src, median of five best-of-3 runs alternating with the "
        "grouped version's, measured once on 2 CPUs (Python 3.11.7, NumPy "
        "2.4.6); not re-measured"
    ),
    "1x": {
        "rows": 897,
        "report_s": 0.03890041799968458,
        "mask_calls": 73,
        "report_sha256": "e17ddfceb244c089c1848547f89cb760"
                         "4f4c9fafe044f1c92d19987b7574ab7a",
        "payloads_sha256": "4b8398fdf3f5a12ba4455f7b2230f455"
                           "b1d6869768c0d2c3a939d257962e5d11",
    },
    "10x": {
        "rows": 8970,
        "report_s": 0.06849280899950827,
        "mask_calls": 73,
        "report_sha256": "245f33b46368db2bad9121615164bfa5"
                         "ad05c54fbcce69653a0df8961f7dc46a",
        "payloads_sha256": "50ae51983b51026729f5286e5720cfcb"
                           "69d408358ea454e890759648f816a125",
    },
    "100x": {
        "rows": 89700,
        "report_s": 0.35415536100117606,
        "mask_calls": 73,
        "report_sha256": "f41696204952689ef5600a9619edd519"
                         "465fa94c7c15d882f928879bdc210ebd",
        "payloads_sha256": "69717fe0d5f78ac6ca4bc5f22235ec67"
                           "6818c17be2eeb7dd0c6722f02eb92fbc",
    },
}


#: The ``read`` tier as last measured while ``read_csv`` decoded the
#: body to text and split it into one ``str`` per field before
#: converting each column.  Frozen; never re-measured.
READ_BEFORE = {
    "note": (
        "str-split columnar reader: the previous src's read_csv, median "
        "of five best-of-3 runs alternating with the byte tokenizer's, "
        "measured once on 2 CPUs (Python 3.11.7, NumPy 2.4.6); not "
        "re-measured"
    ),
    "1x": {
        "rows": 897,
        "columnar_s": 0.003363932002685033,
        "first_touch_records_s": 0.005303777998051373,
    },
    "10x": {
        "rows": 8970,
        "columnar_s": 0.030604351999500068,
        "first_touch_records_s": 0.06393495900192647,
    },
    "100x": {
        "rows": 89700,
        "columnar_s": 0.33846013999936986,
        "first_touch_records_s": 0.7154727019988059,
    },
}


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


def _bench_read(label: str, log: FailureLog) -> dict:
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
    before = READ_BEFORE[label]
    return {
        "rows": len(log),
        "columnar_s": columnar_s,
        "row_path_s": row_s,
        "speedup": row_s / columnar_s if columnar_s else float("inf"),
        "first_touch_records_s": first_touch_s,
        "logs_equal": True,
        "before": {"note": READ_BEFORE["note"], **before},
        "speedup_over_before": before["columnar_s"] / columnar_s,
    }


def _count_calls(owner, name: str, fn):
    """``fn()`` and the number of calls it made to ``owner.<name>``."""
    calls = 0
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    setattr(owner, name, counted)
    try:
        result = fn()
    finally:
        setattr(owner, name, original)
    return calls, result


def _bench_report(label: str, log: FailureLog) -> dict:
    """``full_report`` and the five payloads over CSV-read logs."""
    t3 = generate_log("tsubame3", config=GeneratorConfig(seed=BENCH_SEED))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{each.machine}.csv" for each in (log, t3)]
        for each, path in zip((log, t3), paths):
            write_csv(each, path)
        # Fresh logs for every pass, so no pass reuses another's work.
        fresh = [[read_csv(path) for path in paths] for _ in range(4)]

    def render(t2_log, t3_log):
        text = full_report(t2_log, t3_log)
        payloads = {name: fn(t2_log) for name, fn in PAYLOADS.items()}
        return text.encode(), json_body(payloads)

    mask_calls, (percentile_calls, (text, payloads)) = _count_calls(
        ColumnarView, "mask",
        lambda: _count_calls(np, "percentile", lambda: render(*fresh[0])),
    )
    report_s = min(
        _best_of(lambda: render(*logs), repeats=1)[0] for logs in fresh[1:]
    )
    before = REPORT_BEFORE[label]
    report_sha256 = hashlib.sha256(text).hexdigest()
    payloads_sha256 = hashlib.sha256(payloads).hexdigest()
    return {
        "rows": len(log),
        "report_s": report_s,
        "mask_calls": mask_calls,
        "percentile_calls": percentile_calls,
        "report_sha256": report_sha256,
        "payloads_sha256": payloads_sha256,
        "before": {"note": REPORT_BEFORE["note"], **before},
        "speedup": before["report_s"] / report_s,
        "same_bytes_as_before": (
            report_sha256 == before["report_sha256"]
            and payloads_sha256 == before["payloads_sha256"]
        ),
    }


def _bench_scale(label: str, factor: int) -> dict:
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
        "read": _bench_read(label, log),
        "report": _bench_report(label, log),
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
            label: _bench_scale(label, factor)
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
            f"({scale['read']['speedup']:.1f}x), "
            f"report {scale['report']['report_s'] * 1e3:.1f} ms with "
            f"{scale['report']['mask_calls']} mask calls and "
            f"{scale['report']['percentile_calls']} percentile calls"
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
