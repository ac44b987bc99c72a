#!/usr/bin/env python3
"""Parallel-substrate benchmark: warm pool, shared payload, stealing.

Four sections, written to ``BENCH_parallel.json`` at the repo root:

* ``pool`` — the warm-pool claim: the same small parallel sweep timed
  cold (first dispatch pays the executor spawn) and warm (singleton
  reused), with the spawn counter proving the second sweep paid no
  cold start.
* ``ensemble`` — the headline number: serial vs 4-worker
  :func:`repro.sim.montecarlo.run_replications`, bit-exact parity
  asserted, with ``speedup_asserted`` false on hosts without the
  cores to honestly claim a ratio (never a <1x regression recorded
  as a passing result).
* ``shared`` — the ``shared=`` payload transport on a grid sweep:
  ``SHARED_GRID`` (16 points) over a 10x ``perf_core.tiled_log`` (4x
  under a smoke-sized ``REPRO_BENCH_REPLICATIONS``) on a warm
  2-worker pool.  Serial, the ``shared=`` sweep and a
  ``functools.partial`` sweep that pickles the log into every chunk
  are timed interleaved for ``SHARED_ROUNDS`` rounds, parity asserted
  on every run, with the payload bytes each chunk carries and the
  most times any worker unpickled the payload in one sweep.  The
  frozen ``before_shm`` block holds the shared-memory transport this
  one replaced, measured against it.
* ``stealing`` — work-stealing under adversarially uneven lengths:
  one 50x-long item among 31 short ones.  Sleep-based, so workers
  overlap even on a single-core host: the parallel wall must beat
  the serial sum on any machine.

Run::

    PYTHONPATH=src python benchmarks/perf_parallel.py

Environment knob: ``REPRO_BENCH_REPLICATIONS`` resizes the ensemble
(CI smoke uses a small one) and, below the default, the ``shared``
section's log.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from perf_core import tiled_log
from repro.parallel import (
    available_cpus,
    pool_stats,
    shutdown_pool,
    sweep,
)
from repro.predict.tuning import _evaluate_pair, sweep_rate_predictor
from repro.sim.montecarlo import run_replications

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_parallel.json"

BENCH_SEED = 42
BENCH_MACHINE = "tsubame2"
POOL_WORKERS = 4
ENSEMBLE_REPLICATIONS = 24
ENSEMBLE_HORIZON_HOURS = 500.0
STEALING_SHORT_S = 0.01
STEALING_LONG_S = 0.5
STEALING_ITEMS = 32
SHARED_WORKERS = 2
SHARED_GRID = dict(
    window_grid=(336.0, 1000.0, 3000.0, 8000.0),
    threshold_grid=(2, 3, 4, 5),
)
SHARED_LOG_FACTOR = 10
SHARED_SMOKE_LOG_FACTOR = 4
SHARED_ROUNDS = 3

#: The shared-memory transport that ``shared=`` used before the
#: cached pickle, measured alternating with it; not re-measured.
SHARED_BEFORE = {
    "note": (
        "shared-memory transport (the log's records pickled into one "
        "segment, its columns exported as zero-copy views): the grid "
        "sweep of the shared section on a 10x log, ten runs alternating "
        "with the cached pickle, each side in its own process on a warm "
        "2-worker pool, parity asserted on every run, on a shared 2-CPU "
        "host (Python 3.11.7, NumPy 2.4.6); not re-measured"
    ),
    "log_factor": 10,
    "grid_points": 16,
    "workers": 2,
    "runs_s": [
        4.423, 4.45, 3.798, 4.172, 5.111,
        5.391, 5.639, 6.174, 6.755, 5.262,
    ],
    "median_s": 5.187,
    "quartiles_s": [4.36, 5.187, 5.773],
    "cached_pickle_runs_s": [
        3.887, 3.956, 5.307, 4.622, 5.067,
        4.487, 4.78, 6.249, 5.21, 5.351,
    ],
    "cached_pickle_median_s": 4.923,
    "cached_pickle_quartiles_s": [4.354, 4.923, 5.318],
}


def _replications() -> int:
    raw = os.environ.get("REPRO_BENCH_REPLICATIONS", "").strip()
    return int(raw) if raw else ENSEMBLE_REPLICATIONS


def _square(seed: int) -> int:
    return seed * seed


def _sleep_item(task: tuple[int, float]) -> int:
    index, duration = task
    time.sleep(duration)
    return index


def _bench_pool() -> dict:
    """Cold vs warm dispatch of an identical small sweep."""
    seeds = list(range(64))
    shutdown_pool()
    start = time.perf_counter()
    cold = sweep(_square, seeds, processes=POOL_WORKERS)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    warm = sweep(_square, seeds, processes=POOL_WORKERS)
    warm_s = time.perf_counter() - start
    stats = pool_stats()
    assert cold == warm == [s * s for s in seeds]
    return {
        "items": len(seeds),
        "workers": POOL_WORKERS,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_vs_cold": cold_s / warm_s if warm_s else float("inf"),
        # One executor spawn across both sweeps == the warm pool
        # actually got reused; this is the assertable claim (wall
        # clocks on a loaded host are not).
        "spawns": stats["spawns"] if stats else None,
        "parity_ok": cold == warm,
    }


def _bench_ensemble() -> dict:
    replications = _replications()

    def run(max_workers):
        return run_replications(
            BENCH_MACHINE,
            replications=replications,
            horizon_hours=ENSEMBLE_HORIZON_HOURS,
            seed=BENCH_SEED,
            intensity=10.0,
            max_workers=max_workers,
        )

    start = time.perf_counter()
    serial_report = run(None)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel_report = run(POOL_WORKERS)
    parallel_s = time.perf_counter() - start
    parity = serial_report == parallel_report
    assert parity, (
        "serial and parallel ensembles diverged — the determinism "
        "contract of run_replications is broken"
    )
    return {
        "replications": replications,
        "horizon_hours": ENSEMBLE_HORIZON_HOURS,
        "workers": POOL_WORKERS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s else float("inf"),
        "parity_ok": parity,
        "speedup_asserted": available_cpus() >= 2,
    }


#: Payloads seen by this process, by id, so that no payload is freed
#: and a second unpickled copy cannot reuse its address.
_held: dict[int, object] = {}


def _worker_and_payload(item: int, shared) -> tuple[int, int]:
    _held[id(shared)] = shared
    return os.getpid(), id(shared)


def _quartiles(runs: list[float]) -> list[float]:
    return statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3


def _bench_shared() -> dict:
    """Serial vs ``shared=`` vs a log pickled into every chunk."""
    smoke = _replications() < ENSEMBLE_REPLICATIONS
    factor = SHARED_SMOKE_LOG_FACTOR if smoke else SHARED_LOG_FACTOR
    log = tiled_log(factor)
    tasks = [
        (window, threshold)
        for window in SHARED_GRID["window_grid"]
        for threshold in SHARED_GRID["threshold_grid"]
    ]
    per_chunk = functools.partial(_evaluate_pair, log=log)
    shutdown_pool()
    sweep(per_chunk, tasks[:SHARED_WORKERS], processes=SHARED_WORKERS)

    runs = {
        "serial": lambda: sweep_rate_predictor(log, **SHARED_GRID),
        "shared": lambda: sweep_rate_predictor(
            log, **SHARED_GRID, processes=SHARED_WORKERS
        ),
        "per_chunk_pickle": lambda: sweep(
            per_chunk, tasks, processes=SHARED_WORKERS
        ),
    }
    walls: dict[str, list[float]] = {name: [] for name in runs}
    expected = None
    for round_index in range(SHARED_ROUNDS):
        names = list(runs)
        names = names[round_index % 3:] + names[:round_index % 3]
        for name in names:
            start = time.perf_counter()
            result = runs[name]()
            walls[name].append(time.perf_counter() - start)
            if expected is None:
                expected = result
            assert result == expected, (
                f"{name} grid sweep diverged from the others"
            )

    pairs = sweep(
        _worker_and_payload, range(16), processes=SHARED_WORKERS,
        chunksize=1, shared=log,
    )
    ids_by_pid: dict[int, set[int]] = {}
    for pid, ident in pairs:
        ids_by_pid.setdefault(pid, set()).add(ident)
    log_pickle = pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "log_factor": factor,
        "log_failures": len(log),
        "grid_points": len(tasks),
        "workers": SHARED_WORKERS,
        "rounds": SHARED_ROUNDS,
        "payload_bytes_per_chunk": {
            # The token and the log's pickle, sent with every chunk;
            # a worker unpickles them once per sweep.
            "shared": len(pickle.dumps(("0" * 32, log_pickle))),
            # The log inside the pickled function, unpickled per chunk.
            "per_chunk_pickle": len(pickle.dumps(per_chunk)),
        },
        "max_loads_per_worker": max(
            len(ids) for ids in ids_by_pid.values()
        ),
        "runs_s": walls,
        "median_s": {
            name: statistics.median(values)
            for name, values in walls.items()
        },
        "quartiles_s": {
            name: _quartiles(values) for name, values in walls.items()
        },
        "parity_ok": True,
        "before_shm": SHARED_BEFORE,
    }


def _bench_stealing() -> dict:
    """One long item among short ones; sleeps overlap across worker
    processes regardless of core count, so the parallel wall must
    beat the serial sum everywhere."""
    tasks = [
        (
            index,
            STEALING_LONG_S if index == 7 else STEALING_SHORT_S,
        )
        for index in range(STEALING_ITEMS)
    ]
    serial_sum = sum(duration for _, duration in tasks)
    sweep(_sleep_item, tasks, processes=POOL_WORKERS)  # warm + tune
    start = time.perf_counter()
    results = sweep(_sleep_item, tasks, processes=POOL_WORKERS)
    parallel_s = time.perf_counter() - start
    ordered = results == list(range(STEALING_ITEMS))
    assert ordered, "stealing dispatch broke input ordering"
    return {
        "items": STEALING_ITEMS,
        "long_item_s": STEALING_LONG_S,
        "short_item_s": STEALING_SHORT_S,
        "workers": POOL_WORKERS,
        "serial_sum_s": serial_sum,
        "parallel_s": parallel_s,
        "speedup_vs_serial_sum": (
            serial_sum / parallel_s if parallel_s else float("inf")
        ),
        "ordered_ok": ordered,
    }


def run_benchmark() -> dict:
    return {
        "schema": 1,
        "seed": BENCH_SEED,
        "machine": BENCH_MACHINE,
        "cpu_count": os.cpu_count() or 1,
        "available_cpus": available_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pool": _bench_pool(),
        "ensemble": _bench_ensemble(),
        "shared": _bench_shared(),
        "stealing": _bench_stealing(),
    }


def write_report(results: dict, path: Path = REPORT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def main() -> None:
    results = run_benchmark()
    pool = results["pool"]
    print(
        f"pool: cold {pool['cold_s'] * 1e3:.1f} ms vs warm "
        f"{pool['warm_s'] * 1e3:.1f} ms "
        f"({pool['warm_vs_cold']:.1f}x), spawns={pool['spawns']}"
    )
    ensemble = results["ensemble"]
    print(
        f"ensemble ({ensemble['replications']} replications, "
        f"{ensemble['workers']} workers on "
        f"{results['available_cpus']} schedulable cores): "
        f"{ensemble['serial_s']:.2f}s serial vs "
        f"{ensemble['parallel_s']:.2f}s parallel "
        f"({ensemble['speedup']:.2f}x, "
        f"asserted={ensemble['speedup_asserted']}), "
        f"parity={ensemble['parity_ok']}"
    )
    shared = results["shared"]
    medians = shared["median_s"]
    print(
        f"shared ({shared['log_factor']}x log, "
        f"{shared['grid_points']} points, {shared['workers']} workers, "
        f"median of {shared['rounds']}): serial "
        f"{medians['serial']:.2f}s, shared= {medians['shared']:.2f}s, "
        f"per-chunk pickle {medians['per_chunk_pickle']:.2f}s; "
        f"{shared['payload_bytes_per_chunk']['shared']:,} B per chunk, "
        f"<= {shared['max_loads_per_worker']} load(s) per worker, "
        f"parity={shared['parity_ok']}"
    )
    stealing = results["stealing"]
    print(
        f"stealing: {stealing['serial_sum_s']:.2f}s of sleep drained "
        f"in {stealing['parallel_s']:.2f}s "
        f"({stealing['speedup_vs_serial_sum']:.1f}x), "
        f"ordered={stealing['ordered_ok']}"
    )
    path = write_report(results)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
