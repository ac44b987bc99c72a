"""Counterfactual replay: same failures, different operations."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.sim import CheckpointPolicy, ClusterSimulator
from repro.train import TrainingJobConfig
from repro.trace import WhatIf, record_run, run_whatif

from tests.trace.conftest import copy_trace


class TestWhatIf:
    def test_empty_overrides_rejected(self, headless_trace):
        assert WhatIf().empty
        with pytest.raises(TraceError, match="overrides are empty"):
            run_whatif(headless_trace, WhatIf())

    def test_fewer_technicians_slows_repair(self, headless_trace):
        result = run_whatif(
            headless_trace, WhatIf(num_technicians=1)
        )
        diff = result.diff
        assert diff["effective_mttr_hours"].delta > 0
        assert diff["mean_waiting_hours"].delta > 0
        assert diff["repairs_completed"].delta <= 0
        # The failure history itself is held fixed.
        assert diff["failures_injected"].delta == 0

    def test_infinite_spares_remove_stockouts(self, headless_trace):
        categories = {e["cat"] for e in headless_trace.failures}
        result = run_whatif(
            headless_trace,
            WhatIf(initial_spares={c: 10_000 for c in categories}),
        )
        assert result.counterfactual.spare_stockouts == 0
        assert result.baseline["spare_stockouts"] > 0

    def test_checkpoint_interval_override(self, workload_trace):
        result = run_whatif(
            workload_trace, WhatIf(checkpoint_interval_hours=48.0)
        )
        # Less checkpoint overhead, more exposure to lost work; the
        # scheduler outcome must move one way or the other.
        assert any(
            f.field.startswith("scheduler.") for f in result.diff.changed
        )

    def test_checkpoint_interval_on_a_training_trace(self):
        simulator = ClusterSimulator(
            "a100",
            seed=1,
            checkpoint_policy=CheckpointPolicy(2.0, 0.25),
            train=TrainingJobConfig(num_nodes=64),
        )
        _, trace = record_run(simulator, 200.0)
        diff = run_whatif(
            trace, WhatIf(checkpoint_interval_hours=6.0)
        ).diff
        changed = {f.field: f for f in diff.changed}
        # The training statistics diff field by field, with deltas,
        # not as one "train" field holding a dict on each side.
        assert "train" not in changed
        assert changed["train.checkpoint_overhead_hours"].delta < 0
        assert changed["train.lost_work_hours"].delta > 0
        assert any(
            name.startswith("train.lost_work_by_category.")
            for name in changed
        )
        assert all(f.delta is not None for f in changed.values())
        text = diff.format_text()
        assert "{" not in text and "train.lost_work_hours" in text

    def test_checkpoint_policy_wins_over_interval(self, workload_trace):
        overrides = WhatIf(
            checkpoint_interval_hours=48.0,
            checkpoint_policy=CheckpointPolicy(12.0, 0.4),
        )
        sim = overrides.build_simulator(workload_trace)
        assert sim.config.checkpoint_policy.interval_hours == 12.0
        assert sim.config.checkpoint_policy.cost_hours == 0.4

    def test_interval_only_inherits_recorded_costs(self, workload_trace):
        sim = WhatIf(checkpoint_interval_hours=48.0).build_simulator(
            workload_trace
        )
        recorded = workload_trace.config.checkpoint_policy
        assert sim.config.checkpoint_policy.interval_hours == 48.0
        assert (
            sim.config.checkpoint_policy.cost_hours
            == recorded.cost_hours
        )

    def test_baseline_rederived_when_report_missing(self, headless_trace):
        stripped = copy_trace(headless_trace)
        stripped.report = None
        result = run_whatif(stripped, WhatIf(num_technicians=1))
        assert result.baseline == headless_trace.report

    def test_lead_time_override_keeps_staffing(self, headless_trace):
        sim = WhatIf(spare_lead_time_hours=24.0).build_simulator(
            headless_trace
        )
        base = headless_trace.config.repair_policy
        assert sim.config.repair_policy.spare_lead_time_hours == 24.0
        assert (
            sim.config.repair_policy.num_technicians
            == base.num_technicians
        )
