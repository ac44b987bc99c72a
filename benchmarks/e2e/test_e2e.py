"""Tests of the end-to-end benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import compare
import hostspeed
import run
import spans
from loadgen import Outcome, open_loop
from workloads import BATCH

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# -- spans ---------------------------------------------------------------------

@pytest.fixture
def clock(monkeypatch):
    """A fake ``perf_counter`` that advances only when work is done."""
    now = [0.0]
    monkeypatch.setattr(spans, "_perf", lambda: now[0])

    def work(seconds: float) -> None:
        now[0] += seconds

    return work


def test_self_time_subtracts_children_and_sums_to_wall(clock):
    tracer = spans.Tracer()
    leaf = tracer.wrap("b", "leaf", lambda: clock(2.0))

    def middle():
        clock(1.0)
        leaf()
        clock(1.0)

    mid = tracer.wrap("a", "mid", middle)

    def operation():
        clock(0.5)
        mid()
        mid()
        clock(0.5)

    tracer.wrap("op", "op", operation)()
    layers = tracer.layers()
    assert layers["b"] == [2, 4.0, 4.0]
    assert layers["a"] == [2, 4.0, 8.0]
    assert layers["op"] == [1, 1.0, 9.0]
    assert sum(self_s for _, self_s, _ in layers.values()) == 9.0
    assert tracer.coverage() == pytest.approx(8.0 / 9.0)
    by_id = {span[0]: span for span in tracer.spans}
    for span_id, parent, layer, _, _, _ in tracer.spans:
        expected = {"b": "a", "a": "op", "op": None}[layer]
        assert (by_id[parent][2] if parent else None) == expected


def test_same_layer_nesting_is_not_counted_twice(clock):
    tracer = spans.Tracer()
    inner = tracer.wrap("x", "inner", lambda: clock(3.0))

    def outer():
        clock(1.0)
        inner()

    tracer.wrap("op", "op", tracer.wrap("x", "outer", outer))()
    assert tracer.layers()["x"] == [2, 4.0, 7.0]
    assert tracer.coverage() == 1.0


def test_host_speed_correction_scales_by_the_surrounding_probes():
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.scaled(0.3, ref, ref) == pytest.approx(0.3)
    # A host running at half speed doubles both the probes and the op.
    assert hostspeed.scaled(0.6, 2 * ref, 2 * ref) == pytest.approx(0.3)
    assert hostspeed.scaled(0.6, ref, 3 * ref) == pytest.approx(0.3)
    assert hostspeed.probe() > 0


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(400) == 97
    assert run.tail_percentile(25) == 60
    assert run.tail_percentile(10) == 0


def test_install_wraps_layers_and_uninstall_restores():
    from repro.io import formats
    from repro.sim.engine import SimulationEngine

    originals = (SimulationEngine.run_until, formats.read_log, os.fsync)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert SimulationEngine.run_until is not originals[0]
        assert formats.read_log is not originals[1]
        assert os.fsync is not originals[2]
    finally:
        tracer.uninstall()
    assert (SimulationEngine.run_until, formats.read_log, os.fsync) == originals


def test_traced_operation_matches_untraced(tmp_path):
    workload = BATCH["train"](tmp_path, seed=5)
    untraced = workload.digest(workload.op(0))
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced = workload.digest(tracer.wrap("op", "op", workload.op)(0))
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.coverage() >= run.COVERAGE_FLOOR
    assert tracer.calls("sim.cluster", "available_nodes") > 0


# -- compare -------------------------------------------------------------------

PARENT = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 101.5, 100.0, 98.5, 100.0]


def test_compare_win():
    change = [p - 10 for p in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1) == "improved"


def test_compare_tie():
    assert compare.verdict(PARENT, list(PARENT), "lower", 0.1) == "unchanged"


def test_compare_unresolved_when_spread_exceeds_bound():
    parent = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0,
              100.0]
    change = list(reversed(parent))
    assert compare.verdict(parent, change, "higher", 0.1) == "unresolved"


def test_compare_win_needs_nine_of_ten_pairs():
    change = [p - 10 for p in PARENT[:8]] + PARENT[8:]
    assert compare.verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_compare_bound_breach():
    change = [p * 1.15 for p in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1) == "regressed"
    assert compare.verdict(PARENT, change, "lower", 0.2) == "unchanged"


def test_compare_flags_growing_failed_share(tmp_path):
    def write(directory: Path, failed: int) -> None:
        directory.mkdir()
        runs = [{"correct": not failed, "attempted": 10, "failed": failed,
                 "metrics": {"ops_per_s": {"value": v, "unit": "1/s"}}}
                for v in PARENT]
        (directory / "simulate.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in runs))

    write(tmp_path / "parent", 0)
    write(tmp_path / "change", 1)
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher",
                            "bound": 0.1}]}
    rows = compare.compare(tmp_path / "parent", tmp_path / "change", spec)
    assert [row[-1] for row in rows] == ["unchanged", "regressed"]
    assert rows[1][1] == "failed_share"


# -- open-loop generator --------------------------------------------------------

class SlowHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    DELAY = 0.05

    def do_GET(self):
        time.sleep(self.DELAY)
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"ok")

    def log_message(self, *args):
        pass


@pytest.fixture
def slow_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), SlowHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def get(conn, path):
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def test_open_loop_times_requests_from_their_due_time(slow_server):
    # Six requests due at once on two connections: the k-th pair waits
    # for k earlier round trips, and that wait is part of its latency.
    outcomes = open_loop(slow_server, [(0.0, "/")] * 6, get, connections=2)
    assert [o.status for o in outcomes] == [200] * 6
    latencies = sorted(o.latency for o in outcomes)
    delay = SlowHandler.DELAY
    for rank, latency in enumerate(latencies):
        assert latency >= (rank // 2 + 1) * delay * 0.9
    assert max(o.lag for o in outcomes) >= 2 * delay * 0.9
    assert all(o.done - o.sent < 4 * delay for o in outcomes)


def test_open_loop_sends_on_schedule(slow_server):
    # Requests due after the previous reply leave at their due time.
    schedule = [(0.0, "/"), (0.2, "/"), (0.4, "/")]
    outcomes = open_loop(slow_server, schedule, get, connections=1)
    assert [o.status for o in outcomes] == [200] * 3
    for outcome, (due, _) in zip(outcomes, schedule):
        assert outcome.sent >= due
        assert outcome.lag < 0.05


def test_serve_phase_summary():
    import serve_workload as sw

    def outcome(due, done, status=200):
        return Outcome(sw.Request("analyze", "/"), due, due, done, status,
                       b"")

    # A burst lasts until its last reply; open-loop segments at least
    # their scheduled length.
    burst = sw.Segment("peak", [outcome(0.0, 0.25), outcome(0.0, 0.5)], 0.5)
    assert burst.seconds == 0.5
    # Open-loop latencies are reported as measured, from the due time.
    low = sw.Segment("low", [outcome(0.1, 0.12), outcome(0.2, 0.3, 503)],
                     0.5)
    high = sw.Segment("high", [outcome(0.0, 0.01)], 0.5)
    summary = sw.summarize([low, high, burst])
    assert summary["low"]["slo_miss_rate"] == 0.5  # the 503 misses
    assert summary["low"]["achieved_rps"] == pytest.approx(1 / sw.OPEN_S)
    assert summary["high"]["p50_ms"] == pytest.approx(10.0)


# -- workloads --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BATCH))
def test_one_operation_passes_its_check(name, tmp_path):
    workload = BATCH[name](tmp_path, seed=3)
    try:
        workload.before(0)
        result = workload.op(0)
        assert workload.verify(0, result) == []
        assert workload.check([workload.digest(result)], result) == []
    finally:
        workload.close()


# -- BENCHMARK.json and the command line ---------------------------------------

def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
