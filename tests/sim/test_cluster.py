"""Tests for the cluster state machine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.machines.specs import TSUBAME3
from repro.sim.cluster import Cluster, NodeState


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
        busy_seed=st.integers(0, 2**32 - 1),
    )
    def test_available_nodes_matches_scan(self, steps, limit, busy_seed):
        cluster = Cluster(TSUBAME3)
        busy = np.random.default_rng(busy_seed).random(cluster.num_nodes) < 0.5
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
            assert cluster.available_nodes(busy=busy) == [
                i for i in expected if not busy[i]
            ]
            assert cluster.num_available() == len(expected)
