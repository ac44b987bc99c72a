"""Replay: bit-exact reproduction, divergence diagnosis, sinks."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReplayDivergenceError, TraceError
from repro.sim import (
    CheckpointPolicy,
    ClusterSimulator,
    WorkloadConfig,
    young_daly_policy,
)
from repro.store import open_store
from repro.train import TrainingJobConfig
from repro.trace import (
    ReplaySimulator,
    compare_traces,
    record_run,
    replay,
    report_to_dict,
    write_trace,
)

from tests.trace.conftest import copy_trace

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestBitExactReplay:
    def test_headless(self, headless_trace):
        result = replay(headless_trace)
        assert result.bit_exact
        assert result.divergence is None
        assert report_to_dict(result.report) == headless_trace.report

    def test_workload(self, workload_trace):
        result = replay(workload_trace)
        assert result.bit_exact
        assert report_to_dict(result.report) == workload_trace.report

    def test_replayed_trace_is_byte_identical(self, headless_trace):
        result = replay(headless_trace)
        assert (
            result.trace.event_lines() == headless_trace.event_lines()
        )

    def test_int_horizon_regression(self):
        # Regression (determinism sweep): record_run(sim, 600) with an
        # int horizon leaked "600" into the recorded report while the
        # replayed run, driven by the parsed (float) header, reported
        # 600.0 — every replay flagged a phantom report divergence.
        sim = ClusterSimulator("tsubame2", seed=0)
        _, trace = record_run(sim, 300)
        assert '"horizon_hours":300.0' in trace.lines()[0]
        assert replay(trace).bit_exact


class TestDivergenceDiagnosis:
    def test_tampered_event_diagnosed_at_index(self, headless_trace):
        tampered = copy_trace(headless_trace)
        victim = next(
            i for i, e in enumerate(tampered.events) if e["t"] == "fail"
        )
        tampered.events[victim]["node"] += 1
        result = replay(tampered, verify=False)
        assert not result.bit_exact
        # The mismatch may surface just *before* the tampered fail
        # line: the rstart for a failure is recorded first (repair
        # submission precedes the failure record on the bus), and it
        # carries the original node id.
        assert result.divergence.kind == "event"
        assert result.divergence.index <= victim
        assert result.divergence.expected != result.divergence.actual
        assert "diverged at event" in result.divergence.describe()

    def test_verify_raises_with_divergence_payload(self, headless_trace):
        tampered = copy_trace(headless_trace)
        tampered.events[0]["time"] += 0.125
        with pytest.raises(ReplayDivergenceError) as excinfo:
            replay(tampered)
        assert excinfo.value.divergence.kind == "event"

    def test_extra_recorded_events_diagnosed_as_count(
        self, headless_trace
    ):
        tampered = copy_trace(headless_trace)
        # Append a phantom repair completion: the replayed repair
        # service never produces it, so the recording has one extra
        # line.  (A duplicated *fail* would be re-injected and match.)
        rdone = next(
            e for e in tampered.events if e["t"] == "rdone"
        )
        tampered.events.append(dict(rdone))
        result = replay(tampered, verify=False)
        assert result.divergence.kind == "event_count"
        assert "different number of events" in (
            result.divergence.describe()
        )

    def test_tampered_report_diagnosed(self, headless_trace):
        tampered = copy_trace(headless_trace)
        tampered.report["spares_consumed"] += 1
        result = replay(tampered, verify=False)
        assert result.divergence.kind == "report"
        assert "final report differs" in result.divergence.describe()

    def test_compare_traces_identical_is_none(self, headless_trace):
        assert compare_traces(headless_trace, headless_trace) is None


class TestReplaySimulator:
    def test_run_is_one_shot(self, headless_trace):
        sim = ReplaySimulator(headless_trace)
        sim.run()
        with pytest.raises(TraceError, match="already ran"):
            sim.run()

    def test_headless_trace_gets_no_scheduler(self, headless_trace):
        assert ReplaySimulator(headless_trace).scheduler is None

    def test_workload_trace_gets_scheduler(self, workload_trace):
        assert ReplaySimulator(workload_trace).scheduler is not None

    def test_injected_log_matches_original(self, headless_trace):
        sim = ClusterSimulator("tsubame2", seed=7)
        report = sim.run(400)
        original = sim.injected_log()
        result = replay(headless_trace)
        replayed = result.simulator.injected_log()
        assert len(replayed) == len(original)
        for a, b in zip(original.records, replayed.records):
            assert (a.node_id, a.category, a.ttr_hours) == (
                b.node_id,
                b.category,
                b.ttr_hours,
            )

    def test_to_store_persists_replayed_failures(
        self, tmp_path, headless_trace
    ):
        result = replay(headless_trace)
        summary = result.simulator.to_store(tmp_path / "store")
        assert summary["rows"] == len(headless_trace.failures)
        store = open_store(tmp_path / "store")
        assert len(store.log()) == len(headless_trace.failures)


class TestNoReferenceCycles:
    """``record_run`` and ``replay`` free their simulators by
    reference counting: both runs close their engine once their report
    is built, so nothing is left for the cyclic collector."""

    @pytest.mark.parametrize(
        "make_sim, horizon",
        [
            (
                lambda: ClusterSimulator(
                    "tsubame3",
                    seed=11,
                    intensity=3.0,
                    health_test_effectiveness=0.5,
                    workload=WorkloadConfig(),
                    checkpoint_policy=CheckpointPolicy(6.0, 0.2),
                ),
                300.0,
            ),
            (
                lambda: ClusterSimulator(
                    "a100",
                    seed=7,
                    checkpoint_policy=young_daly_policy(0.1, 24.0),
                    train=TrainingJobConfig(num_nodes=64),
                ),
                240.0,
            ),
        ],
        ids=["tsubame3-workload", "a100-train-gang"],
    )
    def test_record_and_replay_leave_no_garbage(self, make_sim, horizon):
        # A first pass fills the per-machine caches, whose construction
        # may leave garbage once.
        replay(record_run(make_sim(), horizon)[1])
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _, trace = record_run(make_sim(), horizon)
            result = replay(trace)
            unreachable = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert result.bit_exact
        assert trace.events
        assert unreachable == 0


class TestCrossProcessDeterminism:
    def test_replay_is_hash_seed_independent(self, tmp_path):
        # Record under one PYTHONHASHSEED, replay under another: any
        # dict/set iteration-order dependence in the sim or the codec
        # shows up as a divergence.  (CI repeats this across Python
        # versions; here we cross processes only.)
        trace_path = tmp_path / "run.jsonl"
        env = {
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PYTHONHASHSEED": "1",
        }
        record = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "trace", "record",
                "--machine", "tsubame2", "--seed", "5",
                "--horizon", "300", "--out", str(trace_path),
            ],
            env=env, capture_output=True, text=True,
        )
        assert record.returncode == 0, record.stderr
        env["PYTHONHASHSEED"] = "2"
        verify = subprocess.run(
            [
                sys.executable, "-m", "repro.cli",
                "trace", "replay", str(trace_path),
            ],
            env=env, capture_output=True, text=True,
        )
        assert verify.returncode == 0, (
            verify.stdout + verify.stderr
        )
        assert "bit-exact" in verify.stdout
