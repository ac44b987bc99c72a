#!/usr/bin/env python3
"""Store benchmark: the warm-restart and incremental-analytics claims.

Three sections, written to ``BENCH_store.json`` at the repo root:

* ``ingest`` — append throughput: the benchmark log committed to a
  fresh store in batches (segment write + fsync + manifest commit +
  incremental view update per batch), reported as rows/second.
* ``warm_restart`` — the headline claim: serving analytics after a
  restart.  The *cold* path is what a file-backed dataset pays —
  parse the log from disk, build columns, run all five cold kernels,
  render canonical JSON.  The *warm* path is what a ``store:`` spec
  pays — ``open_store`` (manifest + digest verification + views
  load) and rendering the same five payloads from the materialized
  views.  At the default 100x scale the warm path must be >= 10x
  faster; parity of every payload against the cold kernels is
  asserted before any number is reported.
* ``incremental`` — appending one 1x-sized batch to the big store
  (including the views delta-update and save) vs recomputing all
  five analyses from scratch over the grown log.  Must be >= 5x
  faster at the default scale, with parity asserted again after the
  append.  ``absorb_py_calls`` counts the calls cProfile sees inside
  ``StoreViews.absorb`` for one calibrated 1x batch, and
  ``absorb_keys`` the distinct tally keys it touches; calls beyond
  one per key stay below the batch's rows unless the views loop per
  row.  ``append_records_built`` counts cProfile's calls of
  ``FailureRecord.__post_init__`` during one ``append`` of the first
  calibrated 1x tile, given as a record list with ``reindex=True``
  and as a lazy ``read_csv`` log (``csv_log_still_lazy`` says whether
  that log still holds only its columns afterwards).  The writer
  checks a batch as arrays, so both counts are 0.

Run::

    PYTHONPATH=src python benchmarks/perf_store.py

``REPRO_BENCH_STORE_SCALE`` resizes the benchmark log (default 100 ==
~33,800 failures, one hundred Tsubame-3 logs); the >=10x / >=5x
floors are asserted by the harness only at scale >= 100, smaller
scales just record their numbers.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import json
import os
import platform
import pstats
import shutil
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import numpy as np

from repro.core.records import FailureLog, FailureRecord
from repro.io import read_csv, read_log, write_csv
from repro.serve.app import ANALYSES
from repro.serve.http import json_body
from repro.store import init_store, open_store
from repro.store.views import StoreViews, verify_parity
from repro.synth import GeneratorConfig, generate_log

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_store.json"

BENCH_SEED = 42
BENCH_MACHINE = "tsubame3"
BASE_FAILURES = 338  # one calibrated Tsubame-3 log == 1x
INGEST_BATCHES = 10
#: The ``/analyze`` payloads a store materializes; the cold path runs
#: the same ones (``ANALYSES`` also serves ``ettf``, which no store
#: materializes).
STORE_ANALYSES = ("breakdown", "metrics", "spatial", "seasonal", "multigpu")


def _scale() -> int:
    raw = os.environ.get("REPRO_BENCH_STORE_SCALE", "").strip()
    return int(raw) if raw else 100


def _tiled_log(base: FailureLog, scale: int) -> FailureLog:
    """``scale`` time-shifted copies of the calibrated log, end to end.

    Tiling (rather than generating one huge trace) keeps every
    marginal the paper calibrates intact while scaling the row count —
    and each tile is a valid time-monotone append batch.
    """
    span = base.window_end - base.window_start
    records = []
    for tile in range(scale):
        shift = span * tile
        for record in base.records:
            records.append(
                dataclasses.replace(
                    record,
                    record_id=len(records),
                    timestamp=record.timestamp + shift,
                )
            )
    return FailureLog(
        machine=base.machine,
        records=tuple(records),
        window_start=base.window_start,
        window_end=base.window_start + span * scale,
        _strict_taxonomy=base._strict_taxonomy,
    )


def _sub_log(log: FailureLog, start: int, stop: int) -> FailureLog:
    return FailureLog(
        machine=log.machine,
        records=log.records[start:stop],
        window_start=log.window_start,
        window_end=log.window_end,
        _strict_taxonomy=log._strict_taxonomy,
    )


def _cold_bodies(log: FailureLog) -> dict[str, bytes]:
    return {
        name: json_body(ANALYSES[name](log)) for name in STORE_ANALYSES
    }


def _bench_ingest(log: FailureLog, root: Path) -> dict:
    """Commit the whole log in batches; report append throughput."""
    path = root / "events.store"
    n = len(log)
    bounds = [
        round(i * n / INGEST_BATCHES) for i in range(INGEST_BATCHES + 1)
    ]
    start = time.perf_counter()
    store = init_store(
        path,
        log.machine,
        window_start=log.window_start,
        window_end=log.window_end,
    )
    for a, b in zip(bounds, bounds[1:]):
        store.append(_sub_log(log, a, b))
    ingest_s = time.perf_counter() - start
    nbytes = sum(p.stat().st_size for p in path.glob("seg-*.rps"))
    return {
        "rows": n,
        "batches": INGEST_BATCHES,
        "ingest_s": ingest_s,
        "rows_per_s": n / ingest_s if ingest_s else float("inf"),
        "segment_bytes": nbytes,
        "bytes_per_row": nbytes / n,
    }


def _bench_warm_restart(log: FailureLog, root: Path) -> dict:
    """Cold file restart vs warm store restart, to first analytics."""
    store_path = root / "events.store"
    csv_path = root / "events.csv"
    write_csv(log, csv_path)

    # Each timed path starts from a collected heap, so a full
    # collection of an earlier phase's garbage is not billed to it.
    gc.collect()
    start = time.perf_counter()
    cold_log = read_log(csv_path)
    cold = _cold_bodies(cold_log)
    cold_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    store = open_store(store_path)
    warm = {
        name: json_body(payload)
        for name, payload in store.payloads().items()
    }
    warm_s = time.perf_counter() - start

    # Exact parity before any speedup is reported: the integer-derived
    # values are equal, float means agree to 1e-9 (the documented
    # Welford-vs-pairwise contract).
    verify_parity(store.payloads(), cold_log)
    assert set(warm) == set(cold)
    return {
        "rows": len(log),
        "cold_restart_s": cold_s,
        "warm_restart_s": warm_s,
        "speedup": cold_s / warm_s if warm_s else float("inf"),
        "analyses": sorted(warm),
        "parity_ok": True,
    }


def _bench_incremental(log: FailureLog, root: Path) -> dict:
    """One 1x append (delta view update) vs full recomputation."""
    store = open_store(root / "events.store")
    last = log.records[-1]
    batch = [
        dataclasses.replace(
            last,
            record_id=len(log) + i,
            timestamp=last.timestamp + timedelta(seconds=i + 1),
        )
        for i in range(BASE_FAILURES)
    ]

    gc.collect()  # as in _bench_warm_restart
    start = time.perf_counter()
    store.append(batch)
    append_s = time.perf_counter() - start

    # The from-scratch alternative: rebuild the grown log and run
    # every cold kernel over all of it.
    grown_records = log.records + tuple(batch)
    gc.collect()
    start = time.perf_counter()
    grown = FailureLog(
        machine=log.machine,
        records=grown_records,
        window_start=store.log().window_start,
        window_end=store.log().window_end,
        _strict_taxonomy=log._strict_taxonomy,
    )
    _cold_bodies(grown)
    recompute_s = time.perf_counter() - start

    verify_parity(store.payloads(), store.log())
    return {
        "base_rows": len(log),
        "batch_rows": BASE_FAILURES,
        "append_update_s": append_s,
        "full_recompute_s": recompute_s,
        "speedup": (
            recompute_s / append_s if append_s else float("inf")
        ),
        "parity_ok": True,
        **_absorb_calls(log, store.manifest["window_start_us"]),
        **_records_built(log, root),
    }


def _absorb_calls(log: FailureLog, window_start_us: int) -> dict:
    """cProfile's call count in ``StoreViews.absorb`` for one 1x batch.

    The batch is the log's first calibrated tile, so it spans the
    nodes, months and categories a real append does.  The views do a
    little work per distinct tally key; beyond one call per key, the
    count stays below the batch's rows unless the views loop per row.
    Deterministic for the seed.
    """
    views = StoreViews(log.machine, window_start_us)
    profiler = cProfile.Profile()
    profiler.runcall(views.absorb, log.columns.mask(
        np.arange(len(log)) < BASE_FAILURES
    ))
    keys = sum(
        len(tally) for tally in (
            views.category_counts, views.node_counts,
            views.month_counts, views.involvement,
        )
    )
    return {
        "absorb_rows": views.rows,
        "absorb_keys": keys,
        "absorb_py_calls": pstats.Stats(profiler).total_calls,
    }


def _records_built(log: FailureLog, root: Path) -> dict:
    """``FailureRecord.__post_init__`` calls in one append of the
    first calibrated tile, as records and as a lazy CSV log.

    Each append goes to a fresh store; deterministic for the seed.
    """
    check = FailureRecord.__post_init__.__code__
    key = (check.co_filename, check.co_firstlineno, check.co_name)

    def built(name: str, batch, **options) -> int:
        store = init_store(root / f"{name}.store", log.machine)
        profiler = cProfile.Profile()
        profiler.runcall(store.append, batch, **options)
        return pstats.Stats(profiler).stats.get(key, (0, 0))[1]

    tile = _sub_log(log, 0, BASE_FAILURES)
    write_csv(tile, root / "tile.csv")
    csv_log = read_csv(root / "tile.csv")
    return {
        "append_records_built": {
            "records_reindexed": built(
                "records", list(tile.records), reindex=True
            ),
            "csv_log": built("csv", csv_log),
        },
        "csv_log_still_lazy": csv_log._lazy,
    }


def run_benchmark() -> dict:
    scale = _scale()
    log = _tiled_log(
        generate_log(
            BENCH_MACHINE,
            config=GeneratorConfig(
                seed=BENCH_SEED, num_failures=BASE_FAILURES
            ),
        ),
        scale,
    )
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    try:
        return {
            "schema": 1,
            "seed": BENCH_SEED,
            "machine": BENCH_MACHINE,
            "scale": scale,
            "floors_asserted": scale >= 100,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "ingest": _bench_ingest(log, workdir),
            "warm_restart": _bench_warm_restart(log, workdir),
            "incremental": _bench_incremental(log, workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_report(results: dict, path: Path = REPORT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def main() -> None:
    results = run_benchmark()
    ingest = results["ingest"]
    print(
        f"ingest: {ingest['rows']} rows in {ingest['ingest_s']:.2f}s "
        f"({ingest['rows_per_s']:.0f} rows/s, "
        f"{ingest['bytes_per_row']:.0f} B/row)"
    )
    warm = results["warm_restart"]
    print(
        f"restart-to-analytics: cold {warm['cold_restart_s']:.3f}s vs "
        f"warm {warm['warm_restart_s']:.3f}s "
        f"({warm['speedup']:.1f}x, parity verified)"
    )
    incremental = results["incremental"]
    print(
        f"incremental: append+update {1e3 * incremental['append_update_s']:.1f} ms vs "
        f"recompute {1e3 * incremental['full_recompute_s']:.1f} ms "
        f"({incremental['speedup']:.1f}x, parity verified, "
        f"{incremental['absorb_py_calls']} calls in absorb for "
        f"{incremental['absorb_keys']} keys, records built per append "
        f"{incremental['append_records_built']})"
    )
    write_report(results)
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
