"""Tests for the fault injector and the simulation facade."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    CheckpointPolicy,
    ClusterSimulator,
    RepairPolicy,
    WorkloadConfig,
    hardware_categories,
)


class TestHardwareCategories:
    def test_t2_hardware_set(self):
        hardware = hardware_categories("tsubame2")
        assert "GPU" in hardware
        assert "SSD" in hardware
        assert "PBS" not in hardware

    def test_t3_hardware_set(self):
        hardware = hardware_categories("tsubame3")
        assert "Power-Board" in hardware
        assert "Software" not in hardware
        assert "Unknown" not in hardware


class TestClusterSimulator:
    def test_deterministic_runs(self):
        a = ClusterSimulator("tsubame2", seed=9).run(1000.0)
        b = ClusterSimulator("tsubame2", seed=9).run(1000.0)
        assert a.failures_injected == b.failures_injected
        assert a.effective_mttr_hours == b.effective_mttr_hours

    def test_run_is_one_shot(self):
        simulator = ClusterSimulator("tsubame2", seed=1)
        first = simulator.run(1000.0)
        with pytest.raises(SimulationError, match="already run"):
            simulator.run(2000.0)
        # The refused call left the first run's state alone.
        assert simulator.injector.injected_count == first.failures_injected
        assert simulator.engine.now == 1000.0

    def test_rejected_horizon_does_not_use_up_the_run(self):
        simulator = ClusterSimulator("tsubame2", seed=1)
        with pytest.raises(SimulationError, match="horizon"):
            simulator.run(0.0)
        fresh = ClusterSimulator("tsubame2", seed=1).run(2000.0)
        assert simulator.run(2000.0) == fresh

    def test_failure_rate_near_profile(self):
        report = ClusterSimulator("tsubame2", seed=0).run(3000.0)
        # ~15.3 h MTBF => ~196 failures over 3000 h.
        assert 130 <= report.failures_injected <= 270

    def test_intensity_scales_failures(self):
        base = ClusterSimulator("tsubame2", seed=0).run(1500.0)
        double = ClusterSimulator("tsubame2", seed=0,
                                  intensity=2.0).run(1500.0)
        assert double.failures_injected > 1.5 * base.failures_injected

    def test_more_technicians_cut_waiting(self):
        lean = ClusterSimulator(
            "tsubame2", seed=1,
            repair_policy=RepairPolicy(num_technicians=1),
        ).run(1500.0)
        staffed = ClusterSimulator(
            "tsubame2", seed=1,
            repair_policy=RepairPolicy(num_technicians=12),
        ).run(1500.0)
        assert staffed.mean_waiting_hours < lean.mean_waiting_hours
        assert (staffed.effective_mttr_hours
                < lean.effective_mttr_hours)

    def test_more_spares_cut_stockouts(self):
        scarce = ClusterSimulator(
            "tsubame2", seed=2, initial_spares={"GPU": 0},
        ).run(1500.0)
        plentiful = ClusterSimulator(
            "tsubame2", seed=2, initial_spares={"GPU": 50},
        ).run(1500.0)
        assert plentiful.spare_stockouts < scarce.spare_stockouts

    def test_injected_log_is_analyzable(self):
        simulator = ClusterSimulator("tsubame3", seed=3)
        simulator.run(4000.0)
        log = simulator.injected_log()
        assert log.machine == "tsubame3"
        assert len(log) == simulator.injector.injected_count
        from repro.core.breakdown import category_breakdown

        result = category_breakdown(log)
        assert result.total == len(log)

    def test_injected_log_before_run_rejected(self):
        simulator = ClusterSimulator("tsubame3", seed=3)
        with pytest.raises(SimulationError):
            simulator.injected_log()

    def test_workload_report_includes_scheduler_stats(self):
        simulator = ClusterSimulator(
            "tsubame3",
            seed=4,
            workload=WorkloadConfig(mean_interarrival_hours=1.0),
            checkpoint_policy=CheckpointPolicy(interval_hours=6.0,
                                               cost_hours=0.25),
        )
        report = simulator.run(500.0)
        assert report.scheduler is not None
        assert report.scheduler.jobs_submitted > 100
        assert report.scheduler.jobs_completed > 0

    def test_report_without_workload_has_no_scheduler(self):
        report = ClusterSimulator("tsubame2", seed=0).run(200.0)
        assert report.scheduler is None

    def test_invalid_horizon_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSimulator("tsubame2", seed=0).run(0.0)

    def test_invalid_intensity_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSimulator("tsubame2", seed=0, intensity=0.0)

    def test_waiting_share_bounded(self):
        report = ClusterSimulator("tsubame2", seed=5).run(1000.0)
        assert 0.0 <= report.waiting_share_of_mttr <= 1.0

    def test_availability_high_at_historical_rates(self):
        report = ClusterSimulator("tsubame2", seed=6).run(2000.0)
        # 1408 nodes, ~130 failures x ~100 h downtime => > 99%.
        assert report.availability > 0.98


class TestHealthTests:
    def test_effectiveness_contains_multi_gpu_failures(self):
        from repro.core.multigpu import multi_gpu_involvement

        def multi_share(effectiveness):
            simulator = ClusterSimulator(
                "tsubame2", seed=8,
                health_test_effectiveness=effectiveness,
            )
            simulator.run(20000.0)
            log = simulator.injected_log()
            return multi_gpu_involvement(log, 3).multi_gpu_share

        untested = multi_share(0.0)
        tested = multi_share(0.9)
        # Tsubame-2's historical ~70% multi-GPU share collapses under
        # aggressive health testing — the RQ3 mechanism, simulated.
        assert untested > 0.5
        assert tested < 0.3

    def test_contained_counter(self):
        simulator = ClusterSimulator(
            "tsubame2", seed=8, health_test_effectiveness=1.0,
        )
        simulator.run(10000.0)
        assert simulator.injector.contained_multi_gpu > 0
        log = simulator.injected_log()
        assert all(r.num_gpus_involved <= 1 for r in log)

    def test_zero_effectiveness_contains_nothing(self):
        simulator = ClusterSimulator("tsubame2", seed=8)
        simulator.run(5000.0)
        assert simulator.injector.contained_multi_gpu == 0

    def test_invalid_effectiveness_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSimulator("tsubame2",
                             health_test_effectiveness=1.5)


class TestInjectorOffTheGraph:
    def test_multi_gpu_picks_never_walk_the_topology(self, monkeypatch):
        from repro.machines.topology import NodeTopology

        simulator = ClusterSimulator("a100", seed=0)

        def walk(self, gpu_slot):
            raise AssertionError("topology graph walked during a run")

        monkeypatch.setattr(NodeTopology, "gpus_sharing_switch", walk)
        simulator.run(2000.0)
        partial = [
            record
            for record in simulator.injected_log()
            if 1 < record.num_gpus_involved < 8
        ]
        assert partial
