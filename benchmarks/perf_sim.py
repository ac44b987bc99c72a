#!/usr/bin/env python3
"""Simulation performance benchmark: the vectorized fault injector
plus the Monte-Carlo replication engine.

At 1x/10x/100x the Tsubame-2 historical failure intensity over a
2000-hour horizon, this times one full :class:`ClusterSimulator` run
(batched NumPy draw streams + the cluster's O(1) healthy-node index)
and reports processed events per second.  The retired per-event draw
path is no longer run; its last measured timings are carried verbatim
in the report's ``historical_reference`` block for comparison.

An ``a100_1x`` tier runs the 8-GPU A100 fleet at its historical rate,
where multi-GPU failures take the injector's sequential
topology-affinity slot pick; it records the multi-GPU failure count
beside events per second, and carries the tier's measurement from
before the bus-mate table (when every pick walked the topology graph)
as a frozen ``before`` block, the tier's measurement before the columnar
cluster, tuple repair bookkeeping and unrolled slot draw as a frozen
``before_columnar`` block, and its measurement before the C-level draw
streams, closure-free repair events and acyclic replications as a
frozen ``before_lean_fire`` block.  Its ``parity_ok`` records that the
run, repeated with the object-per-node cluster of
``tests/sim/oracles.py`` and the ``choice(p=)`` slot draw of
``tests/synth/oracles.py`` patched in, gives an equal report and
injected log.

It then benchmarks :func:`repro.sim.montecarlo.run_replications`:
replications per second serially and across workers, asserting the
two ensembles are bit-identical (the serial-vs-parallel parity
guarantee), records the cyclic garbage collections per generation
during the serial ensemble (``gc.get_stats()`` deltas), and writes
``BENCH_sim.json`` at the repo root next to ``BENCH_core.json``.

Run::

    PYTHONPATH=src python benchmarks/perf_sim.py

Environment knobs: ``REPRO_BENCH_SCALES`` restricts the intensity
tiers (same syntax as perf_core), ``REPRO_BENCH_REPLICATIONS``
resizes the ensemble (CI smoke uses a small one).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.parallel import available_cpus
from repro.sim import simulator as simulator_module
from repro.sim.montecarlo import run_replications
from repro.sim.simulator import ClusterSimulator
from repro.synth import involvement

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
from tests.sim.oracles import NodeObjectCluster  # noqa: E402
from tests.synth.oracles import weighted_sample_choice  # noqa: E402
REPORT_PATH = REPO_ROOT / "BENCH_sim.json"

BENCH_SEED = 42
BENCH_MACHINE = "tsubame2"
HORIZON_HOURS = 2000.0
#: Intensity multipliers on the historical failure rate.
SCALES = {"1x": 1, "10x": 10, "100x": 100}
ENSEMBLE_REPLICATIONS = 24
ENSEMBLE_HORIZON_HOURS = 500.0
ENSEMBLE_WORKERS = 4
#: The multi-GPU tier's fleet: eight GPUs per node behind four PCIe
#: switches.
MULTI_GPU_MACHINE = "a100"

#: The retired per-event injector path (one RNG round-trip per draw and
#: a fleet-sized healthy-node scan per event), as last measured before
#: it was deleted: 1 CPU, Python 3.11.7, NumPy 2.4.6, same seed,
#: machine and horizon as above.  Frozen; never re-measured.
HISTORICAL_REFERENCE = {
    "note": (
        "per-event draw path, measured once before its removal on "
        "1 CPU (Python 3.11.7, NumPy 2.4.6); not re-measured"
    ),
    "scales": {
        "1x": {
            "wall_s": 0.041465242999947804,
            "events": 329,
            "events_per_s": 7934.356009933769,
            "failures": 119,
        },
        "10x": {
            "wall_s": 0.5061295370001062,
            "events": 2477,
            "events_per_s": 4894.004042288249,
            "failures": 1283,
        },
        "100x": {
            "wall_s": 3.857482769000171,
            "events": 14755,
            "events_per_s": 3825.0332881783365,
            "failures": 13096,
        },
    },
}


#: The ``a100_1x`` tier as last measured while ``choose_slots`` walked
#: the networkx topology graph for every candidate slot, with the same
#: seed, machine and horizon.  Frozen; never re-measured.
A100_BEFORE = {
    "note": (
        "graph-walk slot picks, median of five best-of-3 runs measured "
        "once on 2 CPUs (Python 3.11.7, NumPy 2.4.6); not re-measured"
    ),
    "wall_s": 0.021069905000331346,
    "events": 2962,
    "events_per_s": 140579.65614716438,
    "failures": 1425,
    "multi_gpu_failures": 62,
}


#: The ``a100_1x`` tier as last measured with one ``Node`` object per
#: node, a ``_PendingRepair`` object per repair, a frozen-dataclass
#: ``DowntimeInterval`` and a ``Generator.choice(p=)`` call per slot
#: draw.  Frozen; never re-measured.
A100_BEFORE_COLUMNAR = {
    "note": (
        "object-per-node cluster and choice(p=) slot draws: this tier "
        "of the previous perf_sim.py, median of five runs alternating "
        "with the columnar version's, measured once on 2 CPUs (Python "
        "3.11.7, NumPy 2.4.6); not re-measured"
    ),
    "wall_s": 0.02130025599944929,
    "events": 2962,
    "events_per_s": 139059.3615436632,
    "failures": 1425,
    "multi_gpu_failures": 62,
}


#: The ``a100_1x`` tier as last measured with the per-draw ``_Stream``
#: buffer, lambda repair events, a list of back-orders and a finished
#: replication left for the cyclic collector.  Frozen; never
#: re-measured.
A100_BEFORE_LEAN_FIRE = {
    "note": (
        "Python-level draw buffers and lambda repair events: this tier "
        "of the previous perf_sim.py, median of seven best-of-10 runs "
        "alternating with the lean version's, measured once on 2 CPUs "
        "(Python 3.11.7, NumPy 2.4.6); not re-measured"
    ),
    "wall_s": 0.01989823899930343,
    "events": 2962,
    "events_per_s": 148857.39386805485,
    "failures": 1425,
    "multi_gpu_failures": 62,
}


def _selected_scales() -> dict[str, int]:
    """Scales to run, optionally restricted via ``REPRO_BENCH_SCALES``
    (same comma-separated syntax as perf_core)."""
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


def _replications() -> int:
    raw = os.environ.get("REPRO_BENCH_REPLICATIONS", "").strip()
    return int(raw) if raw else ENSEMBLE_REPLICATIONS


def _best_of(fn, repeats: int = 3):
    """Best wall-clock of ``repeats`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_once(intensity: float, machine: str = BENCH_MACHINE):
    """One full simulation; returns (events processed, report)."""
    simulator = ClusterSimulator(
        machine,
        seed=BENCH_SEED,
        intensity=intensity,
        keep_injected_log=False,
    )
    report = simulator.run(HORIZON_HOURS)
    return simulator.engine.processed, report


def _bench_scale(factor: int) -> dict:
    intensity = float(factor)
    wall_s, (events, report) = _best_of(lambda: _run_once(intensity))
    return {
        "intensity": intensity,
        "horizon_hours": HORIZON_HOURS,
        "wall_s": wall_s,
        "events": events,
        "events_per_s": events / wall_s if wall_s else 0.0,
        "failures": report.failures_injected,
    }


def _logged_run():
    """The a100 tier's run keeping the injected log: (report, log)."""
    simulator = ClusterSimulator(MULTI_GPU_MACHINE, seed=BENCH_SEED)
    report = simulator.run(HORIZON_HOURS)
    return report, simulator.injected_log()


def _oracle_run():
    """:func:`_logged_run` with the object-per-node cluster and the
    ``choice(p=)`` slot draw patched in; also returns how many slot
    draws and clusters the oracles made, so a patch that missed its
    target cannot pass for parity."""
    draws = 0
    clusters = []

    def draw(*args):
        nonlocal draws
        draws += 1
        return weighted_sample_choice(*args)

    def cluster(spec):
        clusters.append(NodeObjectCluster(spec))
        return clusters[-1]

    with mock.patch.object(simulator_module, "Cluster", cluster), \
            mock.patch.object(
                involvement, "weighted_sample_without_replacement", draw
            ):
        result = _logged_run()
    return result, draws, len(clusters)


def _bench_multi_gpu() -> dict:
    wall_s, (events, report) = _best_of(
        lambda: _run_once(1.0, MULTI_GPU_MACHINE)
    )
    # Same seed, so the same failures; counted on an untimed run that
    # keeps the injected log.
    logged = _logged_run()
    oracle, oracle_draws, oracle_clusters = _oracle_run()
    return {
        "machine": MULTI_GPU_MACHINE,
        "intensity": 1.0,
        "horizon_hours": HORIZON_HOURS,
        "wall_s": wall_s,
        "events": events,
        "events_per_s": events / wall_s if wall_s else 0.0,
        "failures": report.failures_injected,
        "multi_gpu_failures": sum(
            1 for record in logged[1]
            if record.num_gpus_involved > 1
        ),
        "parity_ok": (
            oracle_draws > 0 and oracle_clusters == 1 and oracle == logged
        ),
        "before": A100_BEFORE,
        "before_columnar": A100_BEFORE_COLUMNAR,
        "before_lean_fire": A100_BEFORE_LEAN_FIRE,
    }


def _gc_collections() -> list[int]:
    """Cyclic collections so far, per generation."""
    return [stats["collections"] for stats in gc.get_stats()]


def _bench_ensemble() -> dict:
    replications = _replications()

    def serial():
        return run_replications(
            BENCH_MACHINE,
            replications=replications,
            horizon_hours=ENSEMBLE_HORIZON_HOURS,
            seed=BENCH_SEED,
            intensity=10.0,
        )

    def parallel():
        return run_replications(
            BENCH_MACHINE,
            replications=replications,
            horizon_hours=ENSEMBLE_HORIZON_HOURS,
            seed=BENCH_SEED,
            intensity=10.0,
            max_workers=ENSEMBLE_WORKERS,
        )

    collections = _gc_collections()
    start = time.perf_counter()
    serial_report = serial()
    serial_s = time.perf_counter() - start
    serial_gc = [
        after - before
        for before, after in zip(collections, _gc_collections())
    ]
    start = time.perf_counter()
    parallel_report = parallel()
    parallel_s = time.perf_counter() - start
    parity = serial_report == parallel_report
    assert parity, (
        "serial and parallel ensembles diverged — the determinism "
        "contract of run_replications is broken"
    )
    return {
        "replications": replications,
        "horizon_hours": ENSEMBLE_HORIZON_HOURS,
        "workers": ENSEMBLE_WORKERS,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "serial_replications_per_s": (
            replications / serial_s if serial_s else 0.0
        ),
        "parallel_replications_per_s": (
            replications / parallel_s if parallel_s else 0.0
        ),
        "speedup": serial_s / parallel_s if parallel_s else float("inf"),
        "parity_ok": parity,
        "serial_gc_collections": {
            f"gen{generation}": count
            for generation, count in enumerate(serial_gc)
        },
        # Parity is asserted everywhere; an actual speedup is only a
        # meaningful claim on a multi-core host.  On fewer cores the
        # timings are still recorded but the flag tells consumers
        # (and the bench tests) not to read the ratio as a result.
        "speedup_asserted": available_cpus() >= 2,
        "mean_availability": serial_report.availability.mean,
    }


def run_benchmark() -> dict:
    return {
        "schema": 1,
        "seed": BENCH_SEED,
        "machine": BENCH_MACHINE,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scales": {
            label: _bench_scale(factor)
            for label, factor in _selected_scales().items()
        },
        "a100_1x": _bench_multi_gpu(),
        "ensemble": _bench_ensemble(),
        "historical_reference": HISTORICAL_REFERENCE,
    }


def write_report(results: dict, path: Path = REPORT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def main() -> None:
    results = run_benchmark()
    historical = results["historical_reference"]["scales"]
    for label, scale in results["scales"].items():
        print(
            f"{label:>4} intensity: {scale['events_per_s']:,.0f} "
            f"events/s ({scale['events']} events in "
            f"{scale['wall_s'] * 1e3:.1f} ms); historical per-event "
            f"reference {historical[label]['events_per_s']:,.0f} events/s"
        )
    tier = results["a100_1x"]
    print(
        f"a100 1x: {tier['events_per_s']:,.0f} events/s, "
        f"{tier['multi_gpu_failures']} multi-GPU failures, "
        f"parity={tier['parity_ok']}; before the lean fire path "
        f"{tier['before_lean_fire']['events_per_s']:,.0f} events/s, "
        f"before the columnar cluster "
        f"{tier['before_columnar']['events_per_s']:,.0f} events/s, before "
        f"the bus-mate table {tier['before']['events_per_s']:,.0f} events/s"
    )
    ensemble = results["ensemble"]
    print(
        f"ensemble ({ensemble['replications']} replications, "
        f"{ensemble['workers']} workers on "
        f"{results['cpu_count']} cores): "
        f"{ensemble['serial_replications_per_s']:.1f} rep/s serial vs "
        f"{ensemble['parallel_replications_per_s']:.1f} rep/s parallel "
        f"({ensemble['speedup']:.2f}x), "
        f"parity={ensemble['parity_ok']}, serial gc collections "
        f"{ensemble['serial_gc_collections']}"
    )
    path = write_report(results)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
