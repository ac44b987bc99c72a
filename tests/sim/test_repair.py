"""Tests for the repair service (technicians + spares)."""

import math

import pytest

from repro.errors import SimulationError, ValidationError
from repro.machines.specs import TSUBAME3
from repro.sim.cluster import Cluster, NodeState
from repro.sim.engine import SimulationEngine
from repro.sim.repair import RepairPolicy, RepairService, SparePool


def _service(
    technicians=2,
    lead_time=100.0,
    hardware=("GPU",),
    spares=None,
):
    engine = SimulationEngine()
    cluster = Cluster(TSUBAME3)
    policy = RepairPolicy(
        num_technicians=technicians,
        spare_lead_time_hours=lead_time,
        hardware_categories=frozenset(hardware),
    )
    pool = SparePool(spares if spares is not None else {"GPU": 1})
    return engine, cluster, RepairService(engine, cluster, policy, pool), pool


class TestSparePool:
    def test_take_and_restock(self):
        pool = SparePool({"GPU": 1})
        assert pool.try_take("GPU")
        assert pool.level("GPU") == 0
        assert not pool.try_take("GPU")
        assert pool.stockouts == 1
        pool.restock("GPU", 2)
        assert pool.level("GPU") == 2
        assert pool.consumed == 1

    def test_untracked_category_is_stockout(self):
        pool = SparePool({})
        assert not pool.try_take("SSD")
        assert pool.stockouts == 1

    def test_negative_initial_rejected(self):
        with pytest.raises(ValidationError):
            SparePool({"GPU": -1})

    def test_restock_count_validated(self):
        with pytest.raises(ValidationError):
            SparePool({}).restock("GPU", 0)


class TestRepairPolicy:
    def test_invalid_technicians_rejected(self):
        with pytest.raises(ValidationError):
            RepairPolicy(num_technicians=0)

    def test_invalid_lead_time_rejected(self):
        with pytest.raises(ValidationError):
            RepairPolicy(spare_lead_time_hours=-1.0)

    @pytest.mark.parametrize("lead_time", [math.nan, math.inf])
    def test_non_finite_lead_time_rejected(self, lead_time):
        with pytest.raises(ValidationError, match="finite"):
            RepairPolicy(spare_lead_time_hours=lead_time)


class TestRepairFlow:
    def test_software_repair_needs_no_spare(self):
        engine, cluster, service, pool = _service()
        cluster.fail(0, "Software", time=0.0)
        service.submit(0, "Software", duration_hours=10.0)
        engine.run_until(20.0)
        assert service.completed == 1
        assert pool.consumed == 0
        assert cluster.node(0).state is NodeState.HEALTHY

    def test_hardware_repair_consumes_spare(self):
        engine, cluster, service, pool = _service()
        cluster.fail(0, "GPU", time=0.0)
        service.submit(0, "GPU", duration_hours=10.0)
        engine.run_until(20.0)
        assert pool.consumed == 1
        assert service.completed == 1

    def test_stockout_delays_repair_by_lead_time(self):
        engine, cluster, service, pool = _service(spares={"GPU": 0},
                                                  lead_time=50.0)
        cluster.fail(0, "GPU", time=0.0)
        service.submit(0, "GPU", duration_hours=10.0)
        engine.run_until(49.0)
        assert service.completed == 0
        assert service.waiting_for_spares == 1
        engine.run_until(70.0)
        assert service.completed == 1
        interval = cluster.history[0]
        assert interval.waiting_hours == pytest.approx(50.0)

    def test_technician_limit_queues_work(self):
        engine, cluster, service, _ = _service(
            technicians=1, spares={"GPU": 10}
        )
        for node in (0, 1):
            cluster.fail(node, "GPU", time=0.0)
            service.submit(node, "GPU", duration_hours=10.0)
        engine.run_until(5.0)
        assert service.queue_length == 1
        engine.run_until(25.0)
        assert service.completed == 2
        waits = sorted(i.waiting_hours for i in cluster.history)
        assert waits == pytest.approx([0.0, 10.0])

    @pytest.mark.parametrize("lead_time", [0.0, 30.0])
    def test_back_orders_are_repaired_in_submit_order(self, lead_time):
        engine, cluster, service, pool = _service(
            technicians=1, spares={"GPU": 0}, lead_time=lead_time
        )
        for step, node in enumerate((5, 2, 9, 1)):
            engine.run_until(float(step))
            cluster.fail(node, "GPU", time=engine.now)
            service.submit(node, "GPU", duration_hours=3.0)
        assert service.waiting_for_spares == (4 if lead_time else 1)
        engine.run_until(lead_time + 100.0)
        assert [i.node_id for i in cluster.history] == [5, 2, 9, 1]
        assert [i.repair_started_at for i in cluster.history] == (
            pytest.approx([lead_time + 3.0 * k for k in range(4)])
        )
        assert service.waiting_for_spares == 0
        assert pool.stockouts == 4

    def test_consumed_spare_replenishes_after_lead_time(self):
        engine, cluster, service, pool = _service(
            spares={"GPU": 1}, lead_time=30.0
        )
        cluster.fail(0, "GPU", time=0.0)
        service.submit(0, "GPU", duration_hours=5.0)
        engine.run_until(29.0)
        assert pool.level("GPU") == 0
        engine.run_until(31.0)
        assert pool.level("GPU") == 1

    def test_prestage_spare_avoids_stockout(self):
        engine, cluster, service, pool = _service(spares={"GPU": 0})
        service.prestage_spare("GPU")
        cluster.fail(0, "GPU", time=0.0)
        service.submit(0, "GPU", duration_hours=5.0)
        engine.run_until(10.0)
        assert service.completed == 1
        assert pool.stockouts == 0

    def test_completion_listener_fires(self):
        engine, cluster, service, _ = _service()
        repaired = []
        engine.subscribe("node_repaired", repaired.append)
        cluster.fail(2, "Software", time=0.0)
        service.submit(2, "Software", duration_hours=1.0)
        engine.run_until(5.0)
        assert repaired == [2]

    def test_non_positive_duration_rejected(self):
        _, cluster, service, _ = _service()
        cluster.fail(0, "GPU", time=0.0)
        with pytest.raises(SimulationError):
            service.submit(0, "GPU", duration_hours=0.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    @pytest.mark.parametrize("category", ["GPU", "Software"])
    def test_non_finite_duration_rejected_before_any_change(
        self, duration, category
    ):
        engine, cluster, service, pool = _service(
            technicians=1, spares={"GPU": 1}
        )
        cluster.fail(0, category, time=0.0)
        with pytest.raises(SimulationError, match="finite"):
            service.submit(0, category, duration_hours=duration)
        assert cluster.node(0).state is NodeState.FAILED
        assert service.queue_length == 0
        assert service.waiting_for_spares == 0
        assert pool.consumed == 0 and pool.level("GPU") == 1
        assert engine.pending == 0
        # The only technician is still free: the node can be repaired.
        service.submit(0, category, duration_hours=2.0)
        engine.run_until(5.0)
        assert service.completed == 1
        assert cluster.node(0).state is NodeState.HEALTHY
