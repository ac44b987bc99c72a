"""Tests for prediction-driven proactive maintenance."""

import pytest

from repro.errors import SimulationError, ValidationError
from repro.machines.specs import TSUBAME3
from repro.predict import RateBasedPredictor, TemporalLocalityPredictor
from repro.sim import (
    Cluster,
    ClusterSimulator,
    ProactiveMaintainer,
    RepairPolicy,
    RepairService,
    SimulationEngine,
    SparePool,
)
from tests.conftest import make_record


def _maintainer(predictor=None, **kwargs):
    engine = SimulationEngine()
    cluster = Cluster(TSUBAME3)
    pool = SparePool({"GPU": 0})
    service = RepairService(
        engine,
        cluster,
        RepairPolicy(hardware_categories=frozenset({"GPU"})),
        pool,
    )
    maintainer = ProactiveMaintainer(
        engine,
        service,
        predictor or TemporalLocalityPredictor(),
        **kwargs,
    )
    return maintainer, pool


class TestProactiveMaintainer:
    def test_prestages_on_alarm(self):
        maintainer, pool = _maintainer()
        maintainer.on_failure(
            make_record(0, hours=0, category="GPU", gpus_involved=(0, 1)),
            0.0,
        )
        assert maintainer.prestaged == 1
        assert pool.level("GPU") == 1

    def test_no_alarm_no_prestage(self):
        maintainer, pool = _maintainer()
        maintainer.on_failure(
            make_record(0, hours=0, category="GPU", gpus_involved=(0,)),
            0.0,
        )
        assert maintainer.prestaged == 0
        assert pool.level("GPU") == 0

    def test_budget_cap(self):
        maintainer, _ = _maintainer(max_prestages=2, cooldown_hours=0.0)
        for index in range(5):
            maintainer.on_failure(
                make_record(index, hours=float(index), category="GPU",
                            gpus_involved=(0, 1)),
                float(index) * 100.0,
            )
        assert maintainer.prestaged == 2

    def test_cooldown_limits_burst_staging(self):
        maintainer, _ = _maintainer(cooldown_hours=50.0)
        for index, time in enumerate((0.0, 10.0, 100.0)):
            maintainer.on_failure(
                make_record(index, hours=time, category="GPU",
                            gpus_involved=(0, 1)),
                time,
            )
        # The t=10 alarm falls inside the cooldown; t=100 stages again.
        assert maintainer.prestaged == 2

    def test_time_runs_forward(self):
        maintainer, _ = _maintainer(cooldown_hours=0.0)
        maintainer.on_failure(
            make_record(0, hours=10, category="GPU", gpus_involved=(0, 1)),
            10.0,
        )
        with pytest.raises(SimulationError):
            maintainer.on_failure(
                make_record(1, hours=5, category="GPU",
                            gpus_involved=(0, 1)),
                5.0,
            )

    def test_alarm_counter(self):
        maintainer, _ = _maintainer(predictor=RateBasedPredictor(
            window_hours=1000.0, threshold=2))
        maintainer.on_failure(make_record(0, hours=0, node_id=4), 0.0)
        maintainer.on_failure(make_record(1, hours=1, node_id=4), 1.0)
        assert maintainer.alarms_seen == 1

    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            _maintainer(max_prestages=0)
        with pytest.raises(ValidationError):
            _maintainer(cooldown_hours=-1.0)


class TestProactiveEndToEnd:
    def test_prestaging_cuts_waiting_under_scarce_spares(self):
        def run(proactive: bool):
            simulator = ClusterSimulator(
                "tsubame2",
                seed=5,
                initial_spares={"GPU": 0},
                intensity=2.0,
            )
            if proactive:
                maintainer = ProactiveMaintainer(
                    simulator.engine,
                    simulator.repair,
                    TemporalLocalityPredictor(),
                    max_prestages=50,
                    cooldown_hours=0.0,
                )
                simulator.engine.subscribe(
                    "failure", maintainer.on_failure
                )
            report = simulator.run(1500.0)
            return report

        reactive = run(proactive=False)
        proactive = run(proactive=True)
        # Tsubame-2 multi-GPU failures are frequent, so prestaging
        # fires often and GPU repairs stop waiting on procurement.
        assert proactive.spare_stockouts <= reactive.spare_stockouts
        assert (proactive.mean_waiting_hours
                < reactive.mean_waiting_hours)
