#!/usr/bin/env python3
"""End-to-end benchmark: six user paths, each split by layer.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                  [--seconds S] [--trace 0|1]

Each workload makes its inputs from ``--seed``, sets up three times in
fresh interpreters (``setup_s`` is the median), then measures for
``--seconds`` and checks its outputs.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs half the time untraced and half
with spans installed (``spans.py``), checks that both halves produce
the same outputs, and reports per-layer metrics, attribution coverage
and tracing overhead.  Spans are written to ``out/spans-<workload>.json``.

Timings are corrected for the host's speed at the moment they were
taken (``hostspeed.py``); raw wall times are printed alongside.  The
benchmark and its child processes run on one CPU.

Every metric is printed as ``workload metric value unit``.  With one
workload the last line is ``{"correct", "attempted", "failed",
"metrics"}``; with several (default: all) each runs in its own child
process and the last line maps workload to that object.  The exit
status is non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from hostspeed import REFERENCE_PROBE_S, probe, scaled
from workloads import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOADS = ("analyze", "ingest", "simulate", "train", "trace", "serve")
SETUP_REPEATS = 3
COVERAGE_FLOOR = 0.90

#: End-to-end metric -> unit (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit (``--trace 1``).  Times are self time (span
#: duration minus child spans) per operation; an operation of ``serve``
#: is one request.  A layer a workload does not use reads 0.
PER_LAYER = {
    "attribution.coverage": "ratio",
    "tracing.slowdown": "ratio",
    "io.read_log.s": "s/op",
    "core.records.build.s": "s/op",
    "core.records.s": "s/op",
    "core.kernels.s": "s/op",
    "core.report.s": "s/op",
    "viz.s": "s/op",
    "serve.app.s": "s/op",
    "store.append.s": "s/op",
    "store.views.s": "s/op",
    "store.fsync.calls": "1/op",
    "store.fsync.s": "s/op",
    "store.open.s": "s/op",
    "store.compact.s": "s/op",
    "store.bytes_per_row": "B/row",
    "sim.events_per_s": "1/s",
    "sim.engine.events": "1/op",
    "sim.engine.self_s": "s/op",
    "sim.faults.self_s": "s/op",
    "sim.repair.self_s": "s/op",
    "sim.cluster.self_s": "s/op",
    "sim.cluster.available_nodes.calls": "1/op",
    "sim.cluster.nodes_scanned": "1/op",
    "sim.scheduler.self_s": "s/op",
    "sim.jobs.self_s": "s/op",
    "sim.simulator.self_s": "s/op",
    "sim.montecarlo.driver_s": "s/op",
    "train.gang.self_s": "s/op",
    "train.gang.start_attempts": "1/op",
    "train.gang.start_success_ratio": "ratio",
    "train.montecarlo.driver_s": "s/op",
    "trace.recorder.s": "s/op",
    "trace.format.s": "s/op",
    "trace.bytes": "B/op",
    "trace.replay.self_s": "s/op",
    "serve.app.dispatch.s": "s/op",
    "serve.http.s": "s/op",
    "serve.cache.hit_ratio": "ratio",
    "serve.coalesce.executions_per_request": "ratio",
    "serve.coalesce.batch_size": "count",
    "serve.coalesce.batch_wait_s": "s",
    "serve.admission.rejected": "count",
    "serve.registry.upload.s": "s/op",
    "parallel.pool.task_s": "s/op",
    "serve.loadgen.lag_p99_ms": "ms",
    "serve.p50_ms.low": "ms",
    "serve.p99_ms.low": "ms",
    "serve.p50_ms.high": "ms",
    "serve.p99_ms.high": "ms",
    "serve.slo_miss_rate.high": "ratio",
    "serve.achieved_rps.high": "1/s",
}

#: Layers whose self time is reported as ``<layer>.s`` and
#: ``<layer>.self_s``; the split follows the names the metrics were
#: first given.
_DOT_S = ("io.read_log", "core.records.build", "core.records",
          "core.kernels", "core.report", "viz", "serve.app",
          "store.append", "store.views", "store.fsync", "store.open",
          "store.compact", "trace.recorder", "trace.format")
_SELF_S = ("sim.engine", "sim.faults", "sim.repair", "sim.cluster",
           "sim.scheduler", "sim.jobs", "sim.simulator", "train.gang",
           "trace.replay")


@dataclass
class OpRun:
    #: Wall seconds of each operation that succeeded.
    durations: list[float] = field(default_factory=list)
    #: The same, corrected to the reference host speed.
    scaled: list[float] = field(default_factory=list)
    #: Probe seconds, one before the first operation and one after each.
    probes: list[float] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    last: Any = None


def run_ops(wl, seconds: float, limit: int | None = None, op=None) -> OpRun:
    """Operations 0, 1, ... until ``seconds`` pass (at least one), with
    a host-speed probe between each two."""
    op = op or wl.op
    run = OpRun()
    deadline = time.perf_counter() + seconds
    before = probe()
    run.probes.append(before)
    index = 0
    while (limit is None or index < limit) and (
        index == 0 or time.perf_counter() < deadline
    ):
        wl.before(index)
        start = time.perf_counter()
        try:
            result = op(index)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            elapsed = None
            run.failures.append(
                f"{wl.name}: op {index}: {type(exc).__name__}: {exc}"
            )
            run.digests.append(None)
        else:
            elapsed = time.perf_counter() - start
        after = probe()
        run.probes.append(after)
        if elapsed is not None:
            run.durations.append(elapsed)
            run.scaled.append(scaled(elapsed, before, after))
            run.digests.append(wl.digest(result))
            run.failures += wl.verify(index, result)
            run.last = result
        before = after
        index += 1
    return run


def warm_up(wl) -> None:
    """One untimed operation, so lazy set-up finishes before timing."""
    wl.before(0)
    wl.op(0)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples above it."""
    return int(100 - 1000 / samples) if samples > 10 else 0


def op_notes(name: str, run: OpRun) -> list[str]:
    """Informational lines: sample count, raw wall times, host speed
    and the highest percentile the sample count supports."""
    n = len(run.durations)
    notes = [
        f"{name} op_samples {n} count",
        f"{name} host_slowdown "
        f"{statistics.median(run.probes) / REFERENCE_PROBE_S:.6g} ratio",
    ]
    if n:
        notes += [
            f"{name} op_p50_wall_ms "
            f"{statistics.median(run.durations) * 1e3:.6g} ms",
            f"{name} ops_per_s_wall {n / sum(run.durations):.6g} 1/s",
        ]
    q = tail_percentile(n)
    if q > 50:
        notes.append(f"{name} op_p{q}_ms "
                     f"{percentile(run.scaled, q / 100) * 1e3:.6g} ms")
    return notes


def measure(wl, seconds: float):
    """End-to-end metrics of one untraced run of a batch workload."""
    warm_up(wl)
    run = run_ops(wl, seconds)
    # Read before the checks, which hold more data than the user path.
    metrics = {"ops_per_s": 0.0, "op_p50_ms": 0.0,
               "peak_rss_mb": peak_rss_mb()}
    failures = run.failures + wl.check(run.digests, run.last)
    if run.scaled:
        metrics["ops_per_s"] = len(run.scaled) / sum(run.scaled)
        metrics["op_p50_ms"] = statistics.median(run.scaled) * 1e3
    return metrics, len(run.digests), failures, op_notes(wl.name, run)


def layer_metrics(tracer, ops: int, wl) -> dict[str, float]:
    """Per-operation layer metrics from a tracer's aggregates."""
    layers = tracer.layers()

    def self_s(layer: str) -> float:
        return layers.get(layer, (0, 0.0, 0.0))[1] / ops

    def calls(layer: str, name: str) -> float:
        return tracer.calls(layer, name) / ops

    events = sum(
        count for (_, name), (count, _, _) in tracer.functions.items()
        if name == "event"
    )
    attempts = tracer.calls("train.gang", "_try_start")
    metrics = {f"{layer}.s": self_s(layer) for layer in _DOT_S}
    metrics.update({f"{layer}.self_s": self_s(layer) for layer in _SELF_S})
    metrics.update({
        "sim.montecarlo.driver_s": self_s("sim.montecarlo"),
        "train.montecarlo.driver_s": self_s("train.montecarlo"),
        "store.fsync.calls": calls("store.fsync", "fsync"),
        "sim.engine.events": events / ops,
        "sim.cluster.available_nodes.calls":
            calls("sim.cluster", "available_nodes"),
        "sim.cluster.nodes_scanned":
            calls("sim.cluster", "available_nodes") * wl.fleet_nodes,
        "train.gang.start_attempts": attempts / ops,
        "train.gang.start_success_ratio": (
            tracer.counters["train.gang.restarts"] / attempts
            if attempts else 0.0
        ),
        "trace.bytes": tracer.counters["trace.bytes"] / ops,
    })
    return metrics


def layer_table(tracer, name: str, op_wall: float) -> list[str]:
    """The traced-run report: each layer's calls, self time and share
    of the operations' wall time, busiest first."""
    rows = sorted(tracer.layers().items(), key=lambda item: -item[1][1])
    lines = [f"# {name}: layer calls self_s share_of_op_wall"]
    for layer, (count, self_s, _) in rows:
        if count:
            label = "(unattributed)" if layer == "op" else layer
            lines.append(
                f"# {name}: {label:<22} {count:>10} {self_s:10.4f} "
                f"{self_s / op_wall:7.1%}"
            )
    return lines


def measure_traced(wl, seconds: float):
    """Per-layer metrics: half untraced, then the same ops traced."""
    import spans

    warm_up(wl)
    plain = run_ops(wl, seconds / 2)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced = run_ops(wl, seconds / 2, limit=len(plain.digests),
                         op=tracer.wrap("op", "op", wl.op))
    finally:
        tracer.uninstall()
    failures = plain.failures + traced.failures
    failures += [
        f"{wl.name}: op {i} traced output differs from untraced"
        for i, (a, b) in enumerate(zip(plain.digests, traced.digests))
        if a != b
    ]
    failures += wl.check(plain.digests, plain.last)
    ops = len(traced.durations)
    op_wall = tracer.functions[("op", "op")][2]
    coverage = tracer.coverage()
    if coverage < COVERAGE_FLOOR:
        failures.append(
            f"{wl.name}: named layers cover {coverage:.1%} of op wall "
            f"time, below {COVERAGE_FLOOR:.0%}"
        )
    metrics = layer_metrics(tracer, ops, wl)
    # Span times are raw wall time; put them on the reference host speed.
    speed = sum(traced.scaled) / sum(traced.durations)
    for metric, unit in PER_LAYER.items():
        if unit in ("s", "s/op") and metric in metrics:
            metrics[metric] *= speed
    metrics.update(wl.layer_facts())
    untraced_op_s = statistics.fmean(plain.scaled)
    metrics["attribution.coverage"] = coverage
    metrics["tracing.slowdown"] = (
        statistics.fmean(traced.scaled)
        / statistics.fmean(plain.scaled[:ops])
    )
    metrics["sim.events_per_s"] = metrics["sim.engine.events"] / untraced_op_s
    tracer.dump(OUT / f"spans-{wl.name}.json", workload=wl.name, ops=ops,
                op_wall_s=op_wall)
    notes = layer_table(tracer, wl.name, op_wall) + [
        f"# {wl.name}: coverage {coverage:.1%} of op wall time (floor "
        f"{COVERAGE_FLOOR:.0%}); traced ops_per_s is "
        f"{1 / metrics['tracing.slowdown']:.1%} of untraced",
    ]
    return metrics, len(plain.digests) + len(traced.digests), failures, notes


def make_workload(name: str, workdir: Path, seed: int):
    if name == "serve":
        from serve_workload import Serve

        return Serve(workdir, seed)
    from workloads import BATCH

    return BATCH[name](workdir, seed)


def timed_setups(name: str, seed: int, workdir: Path) -> list[float]:
    """Corrected time of each set-up, in a fresh interpreter so imports
    count."""
    times = []
    for _ in range(SETUP_REPEATS):
        reset_dir(workdir)
        before = probe()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(seed), "--setup-only", str(workdir)],
            check=True,
        )
        elapsed = time.perf_counter() - start
        times.append(scaled(elapsed, before, probe()))
    return times


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        setups = [] if trace else timed_setups(name, seed, workdir)
        reset_dir(workdir)
        wl = make_workload(name, workdir, seed)
        try:
            if name == "serve":
                run = wl.measure_traced if trace else wl.measure
                metrics, attempted, failures, notes = run(seconds)
            else:
                run = measure_traced if trace else measure
                metrics, attempted, failures, notes = run(wl, seconds)
        finally:
            wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics = {**dict.fromkeys(PER_LAYER, 0.0), **metrics}
        units = PER_LAYER
    else:
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END
    for failure in failures:
        print(failure, file=sys.stderr)
    for note in notes:
        print(note)
    for metric, unit in units.items():
        if metrics[metric] or not trace:  # layers the workload never uses
            print(f"{name} {metric} {metrics[metric]:.6g} {unit}")
    print(f"{name} error_rate {len(failures) / max(1, attempted):.6g} "
          f"failed/attempted")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }))
    return 1 if failures else 0


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own child process, so memory and warm
    caches never leak from one workload into the next."""
    results = {}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0,
                             "metrics": {}}
        status = status or proc.returncode
    print(json.dumps(results))
    return 1 if status else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with per-layer attribution."
    )
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError:
        repro = None
    # Measure this checkout's source, never an installed copy.
    if repro is None or src not in Path(repro.__file__).resolve().parents:
        print(f"run.py: no repro package under {src}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    # One CPU for this process and every child (serve's server included),
    # so the probes time the CPU the measured code runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_only:
        make_workload(args.workload[0], Path(args.setup_only),
                      args.seed).close()
        return 0
    if len(args.workload) > 1:
        return run_all(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    return run_one(args.workload[0], args.seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
