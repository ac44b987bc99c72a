"""Tests for the Monte-Carlo replication engine."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, ValidationError
from repro.sim import montecarlo
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.jobs import WorkloadConfig
from repro.sim.montecarlo import (
    EnsembleReport,
    run_replications,
    spawn_seeds,
)
from repro.sim.simulator import ClusterSimulator
from repro.train.config import TrainingJobConfig
from repro.train.montecarlo import run_train_replications


def _sim_ensemble(**kwargs):
    return run_replications("tsubame2", horizon_hours=300.0, **kwargs)


def _train_ensemble(**kwargs):
    return run_train_replications(
        "tsubame3",
        horizon_hours=300.0,
        checkpoint_policy=CheckpointPolicy(
            interval_hours=2.0, cost_hours=0.1, restart_cost_hours=0.5
        ),
        train=TrainingJobConfig(num_nodes=32),
        **kwargs,
    )


#: Both public entry points run the same ensemble core.
ENTRY_POINTS = pytest.mark.parametrize(
    "ensemble",
    [_sim_ensemble, _train_ensemble],
    ids=["run_replications", "run_train_replications"],
)


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(7, 10) == spawn_seeds(7, 10)

    def test_prefix_stable(self):
        assert spawn_seeds(7, 100)[:10] == spawn_seeds(7, 10)

    def test_distinct_within_ensemble(self):
        seeds = spawn_seeds(0, 1000)
        assert len(set(seeds)) == 1000

    def test_master_seed_matters(self):
        assert spawn_seeds(1, 5) != spawn_seeds(2, 5)

    def test_rejects_non_positive(self):
        with pytest.raises(ValidationError):
            spawn_seeds(0, 0)


class TestEnsemble:
    def test_basic_report(self):
        report = run_replications(
            "tsubame2", replications=8, horizon_hours=500.0, seed=3
        )
        assert isinstance(report, EnsembleReport)
        assert report.machine == "tsubame2"
        assert report.replications == 8
        assert report.failed_replications == 0
        assert set(report.metrics) == {
            "failures_injected",
            "repairs_completed",
            "effective_mttr_hours",
            "mean_waiting_hours",
            "availability",
            "spare_stockouts",
            "spares_consumed",
        }
        availability = report.availability
        assert 0.0 < availability.mean <= 1.0
        assert availability.ci_lower <= availability.mean
        assert availability.mean <= availability.ci_upper
        assert availability.stderr <= availability.std or (
            availability.std == 0.0
        )

    def test_matches_independent_simulator_runs(self):
        # The ensemble mean must be exactly the mean of R independent
        # ClusterSimulator runs with the spawned seeds — the engine
        # adds statistics, never different dynamics.
        seeds = spawn_seeds(11, 6)
        reports = [
            ClusterSimulator(
                "tsubame2", seed=s, keep_injected_log=False
            ).run(400.0)
            for s in seeds
        ]
        ensemble = run_replications(
            "tsubame2", replications=6, horizon_hours=400.0, seed=11
        )
        expected = sum(r.availability for r in reports) / len(reports)
        assert ensemble.availability.mean == pytest.approx(
            expected, rel=1e-12
        )
        expected_failures = sum(
            r.failures_injected for r in reports
        ) / len(reports)
        assert ensemble.metrics["failures_injected"].mean == (
            pytest.approx(expected_failures, rel=1e-12)
        )

    def test_serial_parallel_parity(self):
        serial = run_replications(
            "tsubame2", replications=6, horizon_hours=300.0, seed=5
        )
        parallel = run_replications(
            "tsubame2",
            replications=6,
            horizon_hours=300.0,
            seed=5,
            max_workers=2,
        )
        assert serial == parallel

    @settings(max_examples=5, deadline=None)
    @given(
        replications=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_parity_property(self, replications, seed):
        serial = run_replications(
            "tsubame3",
            replications=replications,
            horizon_hours=200.0,
            seed=seed,
        )
        parallel = run_replications(
            "tsubame3",
            replications=replications,
            horizon_hours=200.0,
            seed=seed,
            max_workers=3,
        )
        assert serial == parallel

    def test_summary_text(self):
        report = run_replications(
            "tsubame3", replications=3, horizon_hours=300.0, seed=1
        )
        text = report.summary()
        assert "3 replications" in text
        assert "availability" in text

    def test_policy_overrides_change_outcomes(self):
        generous = run_replications(
            "tsubame2",
            replications=5,
            horizon_hours=800.0,
            seed=9,
            intensity=5.0,
            num_technicians=16,
            spare_lead_time_hours=1.0,
        )
        starved = run_replications(
            "tsubame2",
            replications=5,
            horizon_hours=800.0,
            seed=9,
            intensity=5.0,
            num_technicians=1,
            spare_lead_time_hours=500.0,
        )
        assert (
            generous.metrics["mean_waiting_hours"].mean
            < starved.metrics["mean_waiting_hours"].mean
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_replications("tsubame2", 0, 100.0)
        with pytest.raises(ValidationError):
            run_replications("tsubame2", 2, 100.0, ci=1.0)
        with pytest.raises(ValidationError):
            run_replications(
                "tsubame2", 2, 100.0, spare_lead_time_hours=24.0
            )

    def test_all_failed_raises(self):
        with pytest.raises(SimulationError, match="replications failed"):
            run_replications("tsubame2", 2, horizon_hours=-1.0)

    @ENTRY_POINTS
    def test_failed_replications_attributed(self, ensemble, monkeypatch):
        # Poison exactly one replication: the fold must skip it,
        # attribute it by index, and summarise the survivors exactly
        # as an ensemble over the remaining seeds would.
        seeds = spawn_seeds(11, 4)
        poisoned = seeds[2]
        real_worker = montecarlo._run_replication

        def flaky_worker(task):
            if task.seed == poisoned:
                raise RuntimeError("poisoned replication")
            return real_worker(task)

        monkeypatch.setattr(montecarlo, "_run_replication", flaky_worker)
        report = ensemble(replications=4, seed=11, max_workers=1)
        assert report.failed_replications == 1
        assert report.replications == 3
        assert report.errors == (
            (2, "RuntimeError: poisoned replication"),
        )
        assert "1 replication(s) failed" in report.summary()

        survivors = [s for s in seeds if s != poisoned]
        monkeypatch.setattr(montecarlo, "_run_replication", real_worker)
        monkeypatch.setattr(
            montecarlo, "spawn_seeds", lambda seed, n: survivors
        )
        expected = ensemble(replications=3, seed=11, max_workers=1)
        assert expected.failed_replications == 0
        assert report.metrics == expected.metrics


@ENTRY_POINTS
@pytest.mark.parametrize(
    "ci, label", [(0.29, "29%"), (0.57, "57%"), (0.95, "95%")]
)
def test_summary_labels_confidence_level(ensemble, ci, label):
    # Regression: the label used to truncate (0.29 printed "28%").
    text = ensemble(replications=2, seed=1, ci=ci).summary()
    assert f"({label} percentile intervals)" in text


class TestReplicationsLeaveNoCycles:
    """A finished replication is freed by reference counting alone: the
    cyclic collector finds nothing left of it."""

    @pytest.mark.parametrize(
        "machine, kwargs",
        [
            ("a100", {}),
            (
                "tsubame3",
                {
                    "workload": WorkloadConfig(),
                    "checkpoint_policy": CheckpointPolicy(6.0, 0.2),
                },
            ),
            (
                "a100",
                {
                    "train": TrainingJobConfig(num_nodes=512),
                    "checkpoint_policy": CheckpointPolicy(2.0, 0.25),
                },
            ),
        ],
        ids=["a100", "tsubame3-workload", "a100-train-gang"],
    )
    def test_collector_finds_no_garbage(self, machine, kwargs):
        task = montecarlo._ReplicationTask(
            machine=machine,
            seed=3,
            horizon_hours=1000.0,
            simulator_kwargs=tuple(sorted(kwargs.items())),
        )
        # A first run fills the per-machine caches (topology, Weibull
        # calibration), whose construction may leave garbage once.
        montecarlo._run_replication(task)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            report = montecarlo._run_replication(task)
            unreachable = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert report.failures_injected > 0
        assert report.repairs_completed > 0
        assert unreachable == 0
