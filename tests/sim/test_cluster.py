"""Tests for the cluster state machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.machines.specs import TSUBAME3
from repro.sim.cluster import Cluster, NodeState
from tests.sim.oracles import NodeObjectCluster


@pytest.fixture()
def cluster():
    return Cluster(TSUBAME3)


class TestFailRepairCycle:
    def test_initial_state_all_healthy(self, cluster):
        assert cluster.num_available() == TSUBAME3.num_nodes
        assert cluster.node(0).state is NodeState.HEALTHY

    def test_fail_marks_node(self, cluster):
        cluster.fail(3, "GPU", time=10.0, gpus_involved=(0, 1))
        node = cluster.node(3)
        assert node.state is NodeState.FAILED
        assert node.failed_gpus == {0, 1}
        assert cluster.num_available() == TSUBAME3.num_nodes - 1

    def test_full_cycle_records_interval(self, cluster):
        cluster.fail(3, "GPU", time=10.0)
        cluster.start_repair(3, time=15.0)
        interval = cluster.complete_repair(3, time=40.0)
        assert interval.waiting_hours == pytest.approx(5.0)
        assert interval.repair_hours == pytest.approx(25.0)
        assert interval.total_hours == pytest.approx(30.0)
        assert interval.category == "GPU"
        assert cluster.node(3).state is NodeState.HEALTHY
        assert cluster.node(3).failed_gpus == set()

    def test_repeated_failure_absorbed_into_outage(self, cluster):
        cluster.fail(3, "GPU", time=10.0)
        cluster.fail(3, "Memory", time=12.0)  # during the outage
        assert cluster.node(3).current_category == "GPU"
        assert cluster.node(3).failed_at == 10.0

    def test_absorbed_failure_still_accumulates_gpus(self, cluster):
        cluster.fail(3, "GPU", time=10.0, gpus_involved=(0,))
        cluster.fail(3, "GPU", time=11.0, gpus_involved=(2,))
        assert cluster.node(3).failed_gpus == {0, 2}

    def test_start_repair_requires_failed(self, cluster):
        with pytest.raises(SimulationError):
            cluster.start_repair(0, time=1.0)

    def test_complete_repair_requires_repairing(self, cluster):
        cluster.fail(0, "GPU", time=1.0)
        with pytest.raises(SimulationError):
            cluster.complete_repair(0, time=2.0)

    def test_invalid_gpu_slot_rejected(self, cluster):
        with pytest.raises(SimulationError):
            cluster.fail(0, "GPU", time=1.0, gpus_involved=(9,))

    def test_invalid_gpu_slot_leaves_node_unchanged(self, cluster):
        # Slot 0 is valid, slot 99 is not: nothing may be applied.
        with pytest.raises(SimulationError):
            cluster.fail(3, "GPU", time=1.0, gpus_involved=(0, 99))
        node = cluster.node(3)
        assert node.state is NodeState.HEALTHY
        assert node.failed_gpus == set()
        assert cluster.num_available() == TSUBAME3.num_nodes

    def test_fail_reports_new_outage(self, cluster):
        assert cluster.fail(3, "GPU", time=1.0) is True
        assert cluster.fail(3, "Memory", time=2.0) is False
        cluster.start_repair(3, time=3.0)
        assert cluster.fail(3, "GPU", time=4.0, gpus_involved=(1,)) is False
        cluster.complete_repair(3, time=5.0)
        assert cluster.fail(3, "GPU", time=6.0) is True

    def test_out_of_range_node_rejected(self, cluster):
        with pytest.raises(SimulationError):
            cluster.node(100000)


class TestAggregates:
    def test_downtime_and_availability(self, cluster):
        cluster.fail(1, "GPU", time=0.0)
        cluster.start_repair(1, time=0.0)
        cluster.complete_repair(1, time=54.0)
        assert cluster.total_downtime_hours() == pytest.approx(54.0)
        expected = 1.0 - 54.0 / (TSUBAME3.num_nodes * 1000.0)
        assert cluster.availability(1000.0) == pytest.approx(expected)

    def test_effective_mttr(self, cluster):
        for node, (fail, start, done) in enumerate(
            [(0.0, 1.0, 11.0), (5.0, 5.0, 45.0)]
        ):
            cluster.fail(node, "GPU", time=fail)
            cluster.start_repair(node, time=start)
            cluster.complete_repair(node, time=done)
        assert cluster.effective_mttr_hours() == pytest.approx(
            (11.0 + 40.0) / 2
        )
        assert cluster.mean_waiting_hours() == pytest.approx(0.5)

    def test_metrics_require_history(self, cluster):
        with pytest.raises(SimulationError):
            cluster.effective_mttr_hours()
        with pytest.raises(SimulationError):
            cluster.mean_waiting_hours()

    def test_availability_requires_positive_horizon(self, cluster):
        with pytest.raises(SimulationError):
            cluster.availability(0.0)

    def test_available_nodes_list(self, cluster):
        cluster.fail(7, "GPU", time=1.0)
        available = cluster.available_nodes()
        assert 7 not in available
        assert len(available) == TSUBAME3.num_nodes - 1


class TestAvailabilityIndex:
    def test_available_at_covers_all_healthy_nodes(self, cluster):
        cluster.fail(7, "GPU", time=1.0)
        cluster.fail(0, "Memory", time=2.0)
        ids = {
            cluster.available_at(i)
            for i in range(cluster.num_available())
        }
        assert ids == set(cluster.available_nodes())
        assert 7 not in ids and 0 not in ids

    def test_available_at_out_of_range(self, cluster):
        with pytest.raises(SimulationError):
            cluster.available_at(cluster.num_available())
        with pytest.raises(SimulationError):
            cluster.available_at(-1)

    def test_index_survives_fail_repair_cycles(self, cluster):
        for node_id in (3, 5, 9):
            cluster.fail(node_id, "GPU", time=1.0)
        cluster.start_repair(5, time=2.0)
        cluster.complete_repair(5, time=3.0)
        assert cluster.num_available() == TSUBAME3.num_nodes - 2
        ids = {
            cluster.available_at(i)
            for i in range(cluster.num_available())
        }
        assert 5 in ids
        assert ids == set(cluster.available_nodes())

    def test_absorbed_refailure_does_not_corrupt_index(self, cluster):
        cluster.fail(4, "GPU", time=1.0)
        cluster.fail(4, "Memory", time=2.0)  # absorbed
        assert cluster.num_available() == TSUBAME3.num_nodes - 1
        cluster.start_repair(4, time=3.0)
        cluster.complete_repair(4, time=4.0)
        assert cluster.num_available() == TSUBAME3.num_nodes


def scan_available(cluster):
    """Oracle: healthy node ids by a per-node scan, ascending."""
    return [
        i for i in range(cluster.num_nodes)
        if cluster.node(i).state is NodeState.HEALTHY
    ]


# A handful of node ids, so re-failures and repairs of the same node
# are common; the last id checks the far end of the mask.
_NODE_IDS = st.sampled_from([0, 1, 2, 3, 5, 8, TSUBAME3.num_nodes - 1])
_STEPS = st.lists(
    st.tuples(st.sampled_from(["fail", "start", "complete"]), _NODE_IDS),
    max_size=40,
)


class TestOrderedHealthMask:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=_STEPS,
        limit=st.one_of(st.integers(0, 12), st.just(TSUBAME3.num_nodes)),
    )
    def test_available_nodes_matches_scan(self, steps, limit):
        cluster = Cluster(TSUBAME3)
        for time, (action, node_id) in enumerate(steps):
            state = cluster.node(node_id).state
            if action == "fail":
                # Absorbed when the node is already down.
                cluster.fail(node_id, "GPU", time=float(time))
            elif action == "start":
                if state is NodeState.FAILED:
                    cluster.start_repair(node_id, time=float(time))
                else:
                    with pytest.raises(SimulationError):
                        cluster.start_repair(node_id, time=float(time))
            elif state is NodeState.REPAIRING:
                cluster.complete_repair(node_id, time=float(time))
            else:
                with pytest.raises(SimulationError):
                    cluster.complete_repair(node_id, time=float(time))
            expected = scan_available(cluster)
            assert cluster.available_nodes() == expected
            assert cluster.available_nodes(limit=limit) == expected[:limit]
            assert [
                i for i in range(cluster.num_nodes)
                if cluster.is_available(i)
            ] == expected
            assert cluster.num_available() == len(expected)


def _outcome(call, *args):
    """The return value, or the exception's type and message."""
    try:
        return call(*args)
    except SimulationError as error:
        return (type(error), str(error))


def _aggregates(cluster, horizon):
    return (
        cluster.history,
        cluster.repairs_completed,
        cluster.num_available(),
        cluster.available_nodes(),
        [cluster.available_at(i) for i in range(cluster.num_available())],
        cluster.total_downtime_hours(),
        _outcome(cluster.availability, horizon),
        _outcome(cluster.effective_mttr_hours),
        _outcome(cluster.mean_waiting_hours),
    )


# In- and out-of-range node ids and GPU slots (TSUBAME3: 4 GPUs).
_ANY_NODE = st.sampled_from(
    [-1, 0, 1, 2, 7, TSUBAME3.num_nodes - 1, TSUBAME3.num_nodes]
)
_SLOTS = st.lists(st.integers(-1, TSUBAME3.gpus_per_node), max_size=3)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("fail"), _ANY_NODE, st.sampled_from(["GPU", "Memory"]),
            _SLOTS.map(tuple),
        ),
        st.tuples(st.just("start"), _ANY_NODE),
        st.tuples(st.just("complete"), _ANY_NODE),
        st.tuples(st.just("available_at"), st.integers(-2, 12)),
        st.tuples(
            st.just("random_node"), st.floats(0.0, 1.0, exclude_max=True)
        ),
        st.tuples(st.just("node"), _ANY_NODE),
    ),
    max_size=50,
)


class TestMatchesNodeObjectCluster:
    """The columnar cluster against the object-per-node oracle."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, horizon=st.sampled_from([0.0, 1.0, 500.0]))
    def test_same_results_errors_and_state(self, ops, horizon):
        fast, slow = Cluster(TSUBAME3), NodeObjectCluster(TSUBAME3)
        touched = {0}
        for step, (action, *args) in enumerate(ops):
            time = float(step)
            if action == "fail":
                node_id, category, gpus = args
                name, call_args = "fail", (node_id, category, time, gpus)
            elif action == "start":
                name, call_args = "start_repair", (args[0], time)
            elif action == "complete":
                name, call_args = "complete_repair", (args[0], time)
            else:
                name, call_args = action, (args[0],)
            assert _outcome(getattr(fast, name), *call_args) == _outcome(
                getattr(slow, name), *call_args
            )
            if action in ("fail", "start", "complete", "node") and (
                0 <= args[0] < fast.num_nodes
            ):
                touched.add(args[0])
            for node_id in touched:
                assert fast.node(node_id) == slow.node(node_id)
                assert fast.is_available(node_id) == slow.is_available(
                    node_id
                )
            assert _aggregates(fast, horizon) == _aggregates(slow, horizon)

    def test_random_node_covers_healthy_then_whole_fleet(self, cluster):
        cluster.fail(0, "GPU", time=1.0)
        healthy = cluster.available_nodes()
        draws = [(i + 0.5) / len(healthy) for i in range(len(healthy))]
        assert sorted(map(cluster.random_node, draws)) == healthy
        for node_id in healthy:
            cluster.fail(node_id, "GPU", time=2.0)
        assert cluster.num_available() == 0
        assert cluster.random_node(0.0) == 0
        assert cluster.random_node(0.9999) == cluster.num_nodes - 1

    def test_node_returns_a_snapshot(self, cluster):
        before = cluster.node(3)
        cluster.fail(3, "GPU", time=1.0, gpus_involved=(1,))
        assert before.state is NodeState.HEALTHY
        assert before.failed_gpus == set()
        after = cluster.node(3)
        after.failed_gpus.add(2)
        assert cluster.node(3).failed_gpus == {1}

    def test_repairs_completed_counts_history(self, cluster):
        assert cluster.repairs_completed == 0
        cluster.fail(3, "GPU", time=1.0)
        cluster.start_repair(3, time=2.0)
        cluster.complete_repair(3, time=3.0)
        assert cluster.repairs_completed == len(cluster.history) == 1

    def test_out_of_range_transitions_rejected_unchanged(self, cluster):
        for bad in (-1, cluster.num_nodes):
            with pytest.raises(SimulationError, match="out of range"):
                cluster.fail(bad, "GPU", time=1.0)
            with pytest.raises(SimulationError, match="out of range"):
                cluster.start_repair(bad, time=1.0)
            with pytest.raises(SimulationError, match="out of range"):
                cluster.complete_repair(bad, time=1.0)
        assert cluster.num_available() == cluster.num_nodes
