#!/usr/bin/env python3
"""Trace benchmark: recording overhead, replay speed, codec throughput.

Three sections, written to ``BENCH_trace.json`` at the repo root:

* ``recording`` — the headline claim: attaching a
  :class:`repro.trace.TraceRecorder` to a full workload simulation
  (scheduler + checkpointing, ~6k events per run at 1x) costs <= 10%
  wall-clock overhead on the simulation hot path.  Plain and traced
  runs are interleaved rep for rep and the *minimum* wall time per
  mode is compared — minima discard scheduler jitter, which at these
  run lengths is larger than the overhead being measured.
* ``replay`` — re-executing the recorded trace through the production
  components, verified bit-exact before any number is reported.
* ``codec`` — serializing (``dumps``) and parsing (``parse_trace``)
  the recorded trace, as lines/second, with the round trip asserted
  byte-identical, and ``compare_traces`` of the recorded trace
  against its bit-exact replay (``compare_s``).  Its frozen
  ``before_codec`` block holds the same numbers as last measured when
  every comparison formatted both traces' lines and every line went
  through ``json.loads``.

Run::

    PYTHONPATH=src python benchmarks/perf_trace.py

``REPRO_BENCH_TRACE_REPS`` sets repetitions per mode (default 7).  This
script asserts replay bit-exactness and the codec round trip, not the
<=10% overhead floor: ``benchmarks/test_bench_perf_trace.py`` asserts
that, and only at >= 5 reps (``floors_asserted``) — fewer reps just
record their numbers.  ``REPRO_BENCH_TRACE_HORIZON`` resizes the
simulated horizon (default 1000 hours).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.sim import (
    CheckpointPolicy,
    ClusterSimulator,
    WorkloadConfig,
)
from repro.trace import TraceRecorder, compare_traces, parse_trace, replay

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT_PATH = REPO_ROOT / "BENCH_trace.json"

BENCH_SEED = 42
BENCH_MACHINE = "tsubame3"
OVERHEAD_FLOOR_PCT = 10.0

#: The ``codec`` section as last measured with ``compare_traces``
#: formatting every event line of both traces and ``parse_trace``
#: decoding each line with ``json.loads``.
CODEC_BEFORE = {
    "note": (
        "format-everything compare_traces and json.loads parse_trace: "
        "this section of the current perf_trace.py run on the previous "
        "trace codec, per-field medians of seven runs alternating with "
        "the current codec's, pinned to one CPU of a shared 2-CPU host "
        "(Python 3.11.7, NumPy 2.4.6); not re-measured"
    ),
    "horizon_hours": 1000.0,
    "lines": 6086,
    "dumps_s": 0.022411009998904774,
    "parse_s": 0.03498197299995809,
    "compare_s": 0.05112610900323489,
    "dumps_lines_per_s": 271562.950545175,
    "parse_lines_per_s": 173975.3215179513,
}


def _reps() -> int:
    raw = os.environ.get("REPRO_BENCH_TRACE_REPS", "").strip()
    return int(raw) if raw else 7


def _horizon() -> float:
    raw = os.environ.get("REPRO_BENCH_TRACE_HORIZON", "").strip()
    return float(raw) if raw else 1000.0


def _build_sim(seed: int) -> ClusterSimulator:
    # The densest configuration the simulator offers: workload
    # scheduling and checkpointing multiply the event count ~40x over
    # a headless run, so recording overhead is measured against the
    # busiest realistic bus traffic.
    return ClusterSimulator(
        BENCH_MACHINE,
        seed=seed,
        intensity=2.0,
        workload=WorkloadConfig(),
        checkpoint_policy=CheckpointPolicy(6.0, 0.2),
        keep_injected_log=False,
    )


def _bench_recording(reps: int, horizon: float) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    events = 0
    _build_sim(BENCH_SEED).run(horizon)  # warmup
    for rep in range(reps):
        # Interleaved so slow drift (thermal, page cache) hits both
        # modes equally.
        sim = _build_sim(BENCH_SEED + rep)
        start = time.perf_counter()
        sim.run(horizon)
        plain.append(time.perf_counter() - start)

        sim = _build_sim(BENCH_SEED + rep)
        recorder = TraceRecorder.attach(sim)
        start = time.perf_counter()
        report = sim.run(horizon)
        traced.append(time.perf_counter() - start)
        events = recorder.event_count
        recorder.finalize(report, horizon)
    plain_s = min(plain)
    traced_s = min(traced)
    return {
        "reps": reps,
        "horizon_hours": horizon,
        "events_per_run": events,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "plain_events_per_s": events / plain_s,
        "traced_events_per_s": events / traced_s,
        "overhead_pct": 100.0 * (traced_s - plain_s) / plain_s,
    }


def _record_reference(horizon: float):
    sim = _build_sim(BENCH_SEED)
    recorder = TraceRecorder.attach(sim)
    report = sim.run(horizon)
    return recorder.finalize(report, horizon)


def _bench_replay(reps: int, horizon: float) -> dict:
    trace = _record_reference(horizon)
    times: list[float] = []
    for _ in range(max(3, reps // 2)):
        start = time.perf_counter()
        result = replay(trace)  # raises on any divergence
        times.append(time.perf_counter() - start)
        assert result.bit_exact
    replay_s = min(times)
    return {
        "events": len(trace.events),
        "replay_s": replay_s,
        "events_per_s": len(trace.events) / replay_s,
        "bit_exact": True,
    }


def _bench_codec(reps: int, horizon: float) -> dict:
    trace = _record_reference(horizon)
    lines = len(trace.lines())
    replayed = replay(trace).trace

    dumps_times: list[float] = []
    parse_times: list[float] = []
    compare_times: list[float] = []
    for _ in range(max(3, reps // 2)):
        start = time.perf_counter()
        text = trace.dumps()
        dumps_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        parsed, quarantined = parse_trace(text)
        parse_times.append(time.perf_counter() - start)
        assert not quarantined
        start = time.perf_counter()
        divergence = compare_traces(trace, replayed)
        compare_times.append(time.perf_counter() - start)
        assert divergence is None
    assert parsed.dumps() == text  # byte-identical round trip
    dumps_s = min(dumps_times)
    parse_s = min(parse_times)
    return {
        "lines": lines,
        "bytes": len(text),
        "dumps_s": dumps_s,
        "parse_s": parse_s,
        "compare_s": min(compare_times),
        "dumps_lines_per_s": lines / dumps_s,
        "parse_lines_per_s": lines / parse_s,
        "round_trip_ok": True,
        "before_codec": CODEC_BEFORE,
    }


def run_benchmark() -> dict:
    reps = _reps()
    horizon = _horizon()
    return {
        "schema": 1,
        "seed": BENCH_SEED,
        "machine": BENCH_MACHINE,
        "reps": reps,
        "horizon_hours": horizon,
        "floors_asserted": reps >= 5,
        "overhead_floor_pct": OVERHEAD_FLOOR_PCT,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "recording": _bench_recording(reps, horizon),
        "replay": _bench_replay(reps, horizon),
        "codec": _bench_codec(reps, horizon),
    }


def write_report(results: dict, path: Path = REPORT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def main() -> None:
    results = run_benchmark()
    rec = results["recording"]
    print(
        f"recording: {rec['events_per_run']} events, plain "
        f"{1e3 * rec['plain_s']:.0f} ms vs traced "
        f"{1e3 * rec['traced_s']:.0f} ms "
        f"({rec['overhead_pct']:+.1f}% overhead)"
    )
    rep = results["replay"]
    print(
        f"replay: {rep['events']} events in "
        f"{1e3 * rep['replay_s']:.0f} ms "
        f"({rep['events_per_s']:.0f} events/s, bit-exact)"
    )
    codec = results["codec"]
    before = codec["before_codec"]
    print(
        f"codec: dumps {codec['dumps_lines_per_s']:.0f} lines/s, "
        f"parse {codec['parse_lines_per_s']:.0f} lines/s "
        f"({codec['bytes'] / 1024:.0f} KiB round-tripped), compare "
        f"{1e3 * codec['compare_s']:.1f} ms; before: parse "
        f"{before['parse_lines_per_s']:.0f} lines/s, compare "
        f"{1e3 * before['compare_s']:.1f} ms"
    )
    write_report(results)
    print(f"wrote {REPORT_PATH}")


if __name__ == "__main__":
    main()
