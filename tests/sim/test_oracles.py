"""The workload draw and the scheduler's node pick against their oracles.

``WorkloadGenerator.jobs_until`` draws each job size with numpy's own
``choice(p=)`` algorithm written out (one uniform, one CDF search), and
``Scheduler`` picks nodes from a sorted free list that its failure and
repair hooks keep in step with the cluster.  Both must reproduce the
older formulations in ``tests/sim/oracles.py`` exactly: the same jobs,
the same generator state afterwards, the same job starts on the same
nodes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.machines.specs import TSUBAME3
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster, NodeState
from repro.sim.engine import SimulationEngine
from repro.sim.jobs import Job, WorkloadConfig, WorkloadGenerator
from repro.sim.scheduler import Scheduler
from tests.sim.oracles import (
    FullFreeListScheduler,
    jobs_until_choice,
    mask_free_nodes,
)

CONFIGS = {
    "default": WorkloadConfig(),
    "zero_weights": WorkloadConfig(
        size_choices=(1, 2, 4, 8, 16),
        size_weights=(0.0, 3.0, 0.0, 0.0, 1.0),
    ),
    "zero_edges": WorkloadConfig(
        size_choices=(3, 5, 7), size_weights=(0.0, 1.0, 0.0)
    ),
    "single_size": WorkloadConfig(size_choices=(6,), size_weights=(2.5,)),
    "no_sigma": WorkloadConfig(duration_sigma=0.0),
    "tight_max": WorkloadConfig(max_duration_hours=0.5, duration_sigma=2.0),
    "max_below_floor": WorkloadConfig(max_duration_hours=0.05),
    "integer_max": WorkloadConfig(max_duration_hours=3),
}


def assert_same_draws(
    config: WorkloadConfig, seed: int, horizons: tuple[float, ...]
) -> None:
    generator = WorkloadGenerator(config, seed=seed)
    oracle_rng = np.random.default_rng(seed)
    next_id = 0
    for horizon in horizons:
        jobs = generator.jobs_until(horizon)
        expected = jobs_until_choice(oracle_rng, config, horizon, next_id)
        next_id += len(expected)
        assert jobs == expected
        for job in jobs:
            assert type(job.num_nodes) is int
            assert type(job.duration_hours) is float
    assert generator._rng.random() == oracle_rng.random()


class TestJobDrawOracle:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2021])
    def test_matches_choice_and_clip(self, name, seed):
        assert_same_draws(CONFIGS[name], seed, (300.0, 40.0))

    def test_durations_bounded_like_clip(self):
        generator = WorkloadGenerator(CONFIGS["max_below_floor"], seed=3)
        jobs = generator.jobs_until(50.0)
        # np.clip with a floor above the cap returns the cap.
        assert jobs and {job.duration_hours for job in jobs} == {0.05}

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        sizes=st.lists(st.integers(1, 64), min_size=1, max_size=6),
        sigma=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
        max_duration=st.floats(0.05, 200.0),
        interarrival=st.floats(0.05, 5.0),
        mean_duration=st.floats(0.1, 50.0),
        seed=st.integers(0, 2**32 - 1),
        horizon=st.floats(0.5, 150.0),
    )
    def test_random_configs(
        self,
        data,
        sizes,
        sigma,
        max_duration,
        interarrival,
        mean_duration,
        seed,
        horizon,
    ):
        weights = data.draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
                min_size=len(sizes),
                max_size=len(sizes),
            ).filter(lambda w: sum(w) > 0)
        )
        config = WorkloadConfig(
            mean_interarrival_hours=interarrival,
            mean_duration_hours=mean_duration,
            duration_sigma=sigma,
            size_choices=tuple(sizes),
            size_weights=tuple(weights),
            max_duration_hours=max_duration,
        )
        assert_same_draws(config, seed, (horizon, horizon / 3))


# -- scheduler pick ----------------------------------------------------------

SMALL = replace(TSUBAME3, num_nodes=12)

submit_op = st.tuples(
    st.just("submit"),
    # Mostly narrow jobs that queue up together, some wide ones and a
    # few that never fit.
    st.one_of(st.integers(1, 4), st.integers(1, SMALL.num_nodes + 2)),
    st.floats(0.1, 12.0),
)
fail_op = st.tuples(
    st.just("fail"), st.integers(0, SMALL.num_nodes - 1), st.just(0.0)
)
repair_op = st.tuples(
    st.just("repair"), st.integers(0, SMALL.num_nodes - 1), st.just(0.0)
)
timed_ops = st.lists(
    st.tuples(
        # Zero gaps land bursts of submits at one instant, so the
        # queue builds up behind a full cluster.
        st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
        st.one_of(submit_op, submit_op, submit_op, fail_op, repair_op),
    ),
    min_size=10,
    max_size=50,
)


def run_schedule(
    scheduler_cls,
    ops,
    backfill_depth: int,
    maintenance: tuple[float, float] | None,
    checkpoint: bool,
) -> tuple[list, tuple]:
    """Replay one op sequence; return the job starts and final stats."""
    engine = SimulationEngine()
    cluster = Cluster(SMALL)
    scheduler = scheduler_cls(
        engine,
        cluster,
        checkpoint_policy=CheckpointPolicy(2.0, 0.1) if checkpoint else None,
        backfill_depth=backfill_depth,
    )
    if maintenance is not None:
        scheduler.schedule_maintenance(*maintenance)
    starts: list[tuple[float, int, tuple[int, ...]]] = []
    engine.subscribe(
        "job_start",
        lambda job_id, nodes, time_hours: starts.append(
            (time_hours, job_id, tuple(nodes))
        ),
    )

    def fail(node: int) -> None:
        # Like the injectors, notify even when the hit is absorbed by
        # an ongoing outage.
        cluster.fail(node, "GPU", engine.now)
        scheduler.handle_node_failure(node)

    def repair(node: int) -> None:
        if cluster.node(node).state is NodeState.FAILED:
            cluster.start_repair(node, engine.now)
            cluster.complete_repair(node, engine.now)
            scheduler.handle_node_repair(node)

    clock = 0.0
    for job_id, (gap, (kind, arg, hours)) in enumerate(ops):
        clock += gap
        if kind == "submit":
            job = Job(
                job_id=job_id,
                num_nodes=arg,
                duration_hours=hours,
                submit_time=clock,
            )
            engine.schedule_at(clock, lambda j=job: scheduler.submit(j))
        elif kind == "fail":
            engine.schedule_at(clock, lambda n=arg: fail(n))
        else:
            engine.schedule_at(clock, lambda n=arg: repair(n))
    engine.run_until(clock + 100.0)
    stats = scheduler.stats
    return starts, (
        stats.jobs_completed,
        stats.jobs_killed_by_failures,
        stats.useful_node_hours,
        stats.lost_node_hours,
        scheduler.queue_length,
    )


class TestSchedulerPickOracle:
    # A pass that frees room for two or more queued jobs at once, the
    # case a wrong limit gets wrong, is rare per example; hence the
    # example count.
    @settings(max_examples=300, deadline=None)
    @given(
        ops=timed_ops,
        backfill_depth=st.integers(0, 3),
        maintenance=st.one_of(
            st.none(),
            st.tuples(st.floats(2.0, 10.0), st.floats(0.1, 0.9)).map(
                lambda pd: (pd[0], pd[0] * pd[1])
            ),
        ),
        checkpoint=st.booleans(),
    )
    def test_same_starts_as_full_free_list(
        self, ops, backfill_depth, maintenance, checkpoint
    ):
        args = (ops, backfill_depth, maintenance, checkpoint)
        assert run_schedule(Scheduler, *args) == run_schedule(
            FullFreeListScheduler, *args
        )

    def test_deep_queue_with_failures_matches(self):
        # A queue far longer than the backfill depth, with capacity
        # changing under it, starts the same jobs on the same nodes.
        ops = [
            (0.0, ("submit", 1 + (i * 5) % 9, 1.0 + i % 4))
            for i in range(30)
        ]
        ops += [(0.5, ("fail", n, 0.0)) for n in (0, 3, 7)]
        ops += [(1.0, ("repair", n, 0.0)) for n in (3, 0)]
        args = (ops, 2, (6.0, 1.5), True)
        starts, _ = run_schedule(Scheduler, *args)
        assert len(starts) > 20
        assert run_schedule(Scheduler, *args) == run_schedule(
            FullFreeListScheduler, *args
        )

    def test_free_node_failures_and_absorbed_hits_match(self):
        # One running job on nodes 0-1; node 5 fails while free, is hit
        # again while down (absorbed), and comes back later.  Until
        # then the queue must never be handed node 5.
        ops = [
            (0.0, ("submit", 2, 8.0)),
            (0.5, ("fail", 5, 0.0)),
            (0.5, ("fail", 5, 0.0)),
            (0.0, ("submit", 9, 2.0)),
            (0.0, ("submit", 4, 1.0)),
            (0.5, ("fail", 0, 0.0)),
            (3.0, ("repair", 5, 0.0)),
            (0.0, ("submit", 10, 1.0)),
        ]
        args = (ops, 1, None, False)
        starts, _ = run_schedule(Scheduler, *args)
        before_repair = [nodes for time, _, nodes in starts if time < 4.5]
        assert before_repair and all(5 not in n for n in before_repair)
        assert any(5 in nodes for _, _, nodes in starts)
        assert starts == run_schedule(FullFreeListScheduler, *args)[0]

    def test_scheduling_pass_makes_no_cluster_pick(self, monkeypatch):
        engine = SimulationEngine()
        cluster = Cluster(TSUBAME3)
        scheduler = Scheduler(engine, cluster)
        calls: list[int | None] = []
        pick = cluster.available_nodes

        def spy(limit=None):
            calls.append(limit)
            return pick(limit=limit)

        monkeypatch.setattr(cluster, "available_nodes", spy)
        jobs = [
            Job(job_id=i, num_nodes=1 + i, duration_hours=1.0,
                submit_time=0.0)
            for i in range(3)
        ]
        for job in jobs:
            scheduler.submit(job)

        def fail_and_repair(node: int) -> None:
            cluster.fail(node, "GPU", engine.now)
            scheduler.handle_node_failure(node)
            cluster.start_repair(node, engine.now)
            cluster.complete_repair(node, engine.now)
            scheduler.handle_node_repair(node)

        engine.schedule_at(0.5, lambda: fail_and_repair(0))
        engine.schedule_at(0.5, lambda: fail_and_repair(9))
        engine.run_until(3.0)
        assert calls == []
        # Job 0 restarted on the lowest free node while 0 was down.
        assert [job.assigned_nodes for job in jobs] == [
            (6,), (1, 2), (3, 4, 5)
        ]
        assert jobs[0].restarts == 1
        assert scheduler.stats.jobs_completed == 3


# -- mask pick ------------------------------------------------------------

_NODE_IDS = st.sampled_from([0, 1, 2, 3, 5, 8, TSUBAME3.num_nodes - 1])


class TestMaskFreeNodes:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["fail", "start", "complete"]), _NODE_IDS
            ),
            max_size=40,
        ),
        busy_seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scan(self, steps, busy_seed):
        cluster = Cluster(TSUBAME3)
        busy = np.random.default_rng(busy_seed).random(cluster.num_nodes) < 0.5
        for time, (action, node_id) in enumerate(steps):
            try:
                if action == "fail":
                    cluster.fail(node_id, "GPU", time=float(time))
                elif action == "start":
                    cluster.start_repair(node_id, time=float(time))
                else:
                    cluster.complete_repair(node_id, time=float(time))
            except SimulationError:
                pass  # a repair step on a node in the wrong state
            assert mask_free_nodes(cluster, busy) == [
                i for i in range(cluster.num_nodes)
                if cluster.node(i).state is NodeState.HEALTHY
                and not busy[i]
            ]
