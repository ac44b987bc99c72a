"""Simulation invariants: whole-run consistency checks across seeds.

These are failure-injection integration tests: run the full simulator
and assert structural invariants that must hold regardless of the
random stream.
"""

import numpy as np
import pytest

from repro.core.breakdown import category_breakdown
from repro.sim import ClusterSimulator, NodeState, RepairPolicy


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("machine", ["tsubame2", "tsubame3"])
def test_run_invariants(machine, seed):
    simulator = ClusterSimulator(
        machine,
        seed=seed,
        repair_policy=RepairPolicy(num_technicians=3,
                                   spare_lead_time_hours=72.0),
        intensity=3.0,  # stress the repair pipeline
    )
    horizon = 1200.0
    report = simulator.run(horizon)

    # Every completed outage is internally consistent.
    for interval in simulator.cluster.history:
        assert 0 <= interval.node_id < simulator.cluster.num_nodes
        assert interval.waiting_hours >= 0.0
        assert interval.repair_hours > 0.0
        assert interval.failed_at >= 0.0
        assert interval.repaired_at <= horizon + 1e-9

    # Conservation: injected = repaired + still open (failed or
    # repairing) + hits absorbed into ongoing outages.
    open_nodes = [
        node for node in range(simulator.cluster.num_nodes)
        if simulator.cluster.node(node).state is not NodeState.HEALTHY
    ]
    assert report.repairs_completed + len(open_nodes) <= (
        report.failures_injected
    )
    assert report.repairs_completed == len(simulator.cluster.history)

    # Report metrics stay in their domains.
    assert 0.0 <= report.availability <= 1.0
    assert report.spare_stockouts >= 0
    assert report.spares_consumed >= 0
    if report.repairs_completed:
        assert report.effective_mttr_hours > 0.0
        assert (report.mean_waiting_hours
                <= report.effective_mttr_hours)

    # The injected log validates and matches the machine taxonomy.
    log = simulator.injected_log()
    assert len(log) == report.failures_injected
    breakdown = category_breakdown(log)
    assert breakdown.total == len(log)


@pytest.mark.parametrize("seed", [0, 1])
def test_scheduler_invariants(seed):
    from repro.sim import CheckpointPolicy, WorkloadConfig

    simulator = ClusterSimulator(
        "tsubame3",
        seed=seed,
        workload=WorkloadConfig(mean_interarrival_hours=0.5,
                                mean_duration_hours=12.0),
        checkpoint_policy=CheckpointPolicy(interval_hours=4.0,
                                           cost_hours=0.2),
        intensity=4.0,
    )
    scheduler = simulator.scheduler
    cluster = simulator.cluster
    probes: list[float] = []

    def check_free_list() -> None:
        # The free list is strictly ascending and holds exactly the
        # healthy nodes no running job is assigned to.
        free = scheduler._free
        assert all(a < b for a, b in zip(free, free[1:]))
        healthy = {
            node for node in range(cluster.num_nodes)
            if cluster.node(node).is_available
        }
        assert set(free) == healthy - set(scheduler._node_to_job)
        probes.append(simulator.engine.now)

    for time in np.arange(2.5, 800.0, 5.0):
        simulator.engine.schedule_at(float(time), check_free_list)
    report = simulator.run(800.0)
    assert len(probes) == 160
    check_free_list()
    stats = report.scheduler
    assert stats is not None
    # Accounting identities.
    assert stats.jobs_completed <= stats.jobs_submitted
    assert stats.useful_node_hours >= 0.0
    assert stats.lost_node_hours >= 0.0
    assert 0.0 <= stats.goodput_fraction <= 1.0
    # No node is double-booked at the end of the run: the running
    # jobs' node sets are pairwise disjoint, and together they are
    # exactly the scheduler's node map.
    node_sets = [entry.nodes for entry in scheduler._running.values()]
    assigned = set().union(*node_sets)
    assert sum(len(nodes) for nodes in node_sets) == len(assigned)
    assert assigned == set(scheduler._node_to_job)
    # Running jobs occupy only healthy nodes or nodes that failed
    # this instant (the failure handler runs synchronously, so by the
    # end of the run every running job's nodes are healthy).
    for job_id, entry in scheduler._running.items():
        for node in entry.nodes:
            assert cluster.node(node).is_available
