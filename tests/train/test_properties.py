"""Property-based invariants of the training model.

Two acceptance properties from the issue:

* however failures land, an interruption can never destroy more than
  one checkpoint interval of work plus the in-flight step — so total
  lost work is bounded by interrupts x (interval + step);
* ensembles are bit-deterministic: the same master seed produces the
  same statistics serially and re-run.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machines.specs import get_machine
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster
from repro.sim.engine import SimulationEngine
from repro.train.config import TrainingJobConfig
from repro.train.gang import GangTrainingRun
from repro.train.montecarlo import (
    TRAIN_METRICS,
    run_train_replications,
)

_TOL = 1e-6
# The conservation check compares a sum of accounted components with the
# engine clock, which reaches the same instant through a different sum;
# the two may differ in the last few bits.
_FLOAT_SLACK = 1e-9

_policies = st.tuples(
    st.floats(min_value=0.5, max_value=5.0),    # interval
    st.floats(min_value=0.05, max_value=0.3),   # cost
    st.floats(min_value=0.0, max_value=1.0),    # restart
)
_steps = st.floats(min_value=0.01, max_value=0.4)
_failure_times = st.lists(
    st.floats(min_value=0.1, max_value=90.0),
    min_size=0,
    max_size=12,
    unique=True,
)


class TestLostWorkBound:
    @settings(max_examples=40, deadline=None)
    @given(
        policy=_policies,
        step=_steps,
        times=_failure_times,
        total_work=st.one_of(
            st.none(), st.floats(min_value=5.0, max_value=80.0)
        ),
    )
    # A clean finite run whose checkpoint costs sum to a float two ulps
    # above the completion time the engine schedules.
    @example(
        policy=(2.0, 0.2511856897386393, 0.0),
        step=0.25,
        times=[],
        total_work=11.0,
    )
    def test_lost_work_bounded_by_interval_plus_step(
        self, policy, step, times, total_work
    ):
        interval, cost, restart = policy
        engine = SimulationEngine()
        cluster = Cluster(get_machine("tsubame3"))
        config = TrainingJobConfig(
            num_nodes=8,
            step_time_hours=step,
            detection_delay_hours=0.05,
            total_work_hours=total_work,
        )
        gang = GangTrainingRun(
            engine,
            cluster,
            config,
            CheckpointPolicy(
                interval_hours=interval,
                cost_hours=cost,
                restart_cost_hours=restart,
            ),
        )
        gang.start()

        def fail_if_running():
            if not gang.running:
                return
            node_id = min(gang.members)
            cluster.fail(node_id, "GPU", engine.now, ())
            gang.handle_node_failure(node_id, "GPU")

        for when in sorted(times):
            engine.schedule_at(when, fail_if_running)
        horizon = 100.0
        engine.run_until(horizon)
        stats = gang.finalize(horizon)

        per_interrupt_bound = interval + step + _TOL
        assert stats.lost_work_hours <= (
            stats.interrupts * per_interrupt_bound
        )
        assert stats.lost_work_hours == pytest.approx(
            sum(stats.lost_work_by_category.values()), abs=1e-9
        )
        # Conservation: committed + lost + overheads never exceed the
        # wall clock that actually elapsed.
        assert (
            stats.work_committed_hours
            + stats.lost_work_hours
            + stats.checkpoint_overhead_hours
            + stats.restart_overhead_hours
            + stats.stall_hours
        ) <= (
            stats.elapsed_hours + len(times) * per_interrupt_bound
            + _FLOAT_SLACK
        )
        assert 0.0 <= stats.ettr <= 1.0 + _TOL
        if total_work is not None:
            assert stats.work_committed_hours <= total_work + _TOL


class TestEnsembleDeterminism:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_serial_rerun_is_bit_identical(self, seed):
        kwargs = dict(
            machine="tsubame3",
            replications=2,
            horizon_hours=150.0,
            checkpoint_policy=CheckpointPolicy(
                interval_hours=2.0, cost_hours=0.1,
                restart_cost_hours=0.5,
            ),
            train=TrainingJobConfig(num_nodes=16),
            seed=seed,
            max_workers=1,
        )
        first = run_train_replications(**kwargs)
        second = run_train_replications(**kwargs)
        for name in TRAIN_METRICS:
            a, b = first.metrics[name], second.metrics[name]
            assert (a.mean, a.std, a.stderr, a.ci_lower, a.ci_upper) \
                == (b.mean, b.std, b.stderr, b.ci_lower, b.ci_upper)
