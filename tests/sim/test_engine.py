"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.machines.specs import TSUBAME3
from repro.sim import faults
from repro.sim.cluster import Cluster
from repro.sim.engine import TOPICS, SimulationEngine
from repro.sim.repair import RepairPolicy, RepairService, SparePool
from repro.sim.simulator import ClusterSimulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append("b"))
        engine.schedule_at(1.0, lambda: fired.append("a"))
        engine.schedule_at(9.0, lambda: fired.append("c"))
        engine.run_until(10.0)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(3.0, lambda: fired.append("first"))
        engine.schedule_at(3.0, lambda: fired.append("second"))
        engine.run_until(5.0)
        assert fired == ["first", "second"]

    def test_schedule_in_relative(self):
        engine = SimulationEngine()
        times = []
        engine.schedule_in(2.0, lambda: times.append(engine.now))
        engine.run_until(5.0)
        assert times == [2.0]

    def test_events_can_schedule_events(self):
        engine = SimulationEngine()
        fired = []

        def first():
            fired.append(engine.now)
            engine.schedule_in(3.0, lambda: fired.append(engine.now))

        engine.schedule_at(1.0, first)
        engine.run_until(10.0)
        assert fired == [1.0, 4.0]

    def test_past_scheduling_rejected(self):
        engine = SimulationEngine()
        engine.schedule_at(5.0, lambda: None)
        engine.run_until(6.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(3.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule_in(-1.0, lambda: None)


class TestNonFiniteTimes:
    """Regression: a NaN schedule used to pass the ``time < now``
    guard (NaN compares False to everything), sit at the heap root,
    and silently starve every later event."""

    def test_nan_schedule_at_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule_at(float("nan"), lambda: None)

    def test_inf_schedule_at_rejected(self):
        for sign in (float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                SimulationEngine().schedule_at(sign, lambda: None)

    def test_nan_schedule_in_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule_in(float("nan"), lambda: None)

    def test_inf_schedule_in_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule_in(float("inf"), lambda: None)

    @pytest.mark.parametrize(
        ("delay", "message"),
        [
            (float("nan"), "delay must be finite, got nan"),
            (float("inf"), "delay must be finite, got inf"),
            (float("-inf"), "delay must be finite, got -inf"),
            (-1.0, "delay must be >= 0, got -1.0"),
        ],
    )
    def test_schedule_in_names_the_failed_check(self, delay, message):
        engine = SimulationEngine()
        with pytest.raises(SimulationError) as caught:
            engine.schedule_in(delay, lambda: None)
        assert str(caught.value) == message
        assert engine.pending == 0

    def test_nan_horizon_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().run_until(float("nan"))

    def test_inf_horizon_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().run_until(float("inf"))

    def test_events_still_fire_after_rejected_nan(self):
        """The starvation scenario: a rejected NaN schedule must leave
        the engine fully functional."""
        engine = SimulationEngine()
        fired = []
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), lambda: fired.append("x"))
        engine.schedule_at(1.0, lambda: fired.append("a"))
        engine.run_until(2.0)
        assert fired == ["a"]
        assert engine.processed == 1
        assert engine.pending == 0


class TestRunning:
    def test_run_until_advances_clock_to_horizon(self):
        engine = SimulationEngine()
        engine.run_until(42.0)
        assert engine.now == 42.0

    def test_events_beyond_horizon_stay_pending(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append(1))
        engine.schedule_at(15.0, lambda: fired.append(2))
        engine.run_until(10.0)
        assert fired == [1]
        assert engine.pending == 1

    def test_close_drops_pending_events_and_subscribers(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(5.0, lambda: fired.append("event"))
        engine.subscribe("repair", lambda *args: fired.append("repair"))
        repair_subscribers = engine.subscribers("repair")
        engine.close()
        assert engine.pending == 0
        assert repair_subscribers == []
        assert all(not engine.subscribers(t) for t in TOPICS)
        engine.run_until(10.0)
        assert fired == []
        assert engine.now == 10.0

    def test_event_exactly_at_horizon_fires(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(10.0, lambda: fired.append(1))
        engine.run_until(10.0)
        assert fired == [1]

    def test_backwards_horizon_rejected(self):
        engine = SimulationEngine()
        engine.run_until(10.0)
        with pytest.raises(SimulationError):
            engine.run_until(5.0)

    def test_processed_counter(self):
        engine = SimulationEngine()
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda: None)
        engine.run_until(2.5)
        assert engine.processed == 2

    def test_run_all_drains_queue(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(100.0, lambda: fired.append(1))
        engine.run_all()
        assert fired == [1]
        assert engine.pending == 0

    def test_run_all_runaway_guard(self):
        engine = SimulationEngine()

        def reschedule():
            engine.schedule_in(1.0, reschedule)

        engine.schedule_in(1.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run_all(max_events=100)

    def test_run_all_guard_trips_before_excess_event_executes(self):
        """Regression: the guard used to trip only *after* the
        (max_events + 1)-th callback had already run."""
        engine = SimulationEngine()
        fired = []

        def reschedule():
            fired.append(engine.now)
            engine.schedule_in(1.0, reschedule)

        engine.schedule_in(1.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run_all(max_events=5)
        assert len(fired) == 5

    def test_run_all_exactly_max_events_succeeds(self):
        engine = SimulationEngine()
        fired = []
        for t in range(1, 6):
            engine.schedule_at(float(t), lambda: fired.append(1))
        engine.run_all(max_events=5)
        assert len(fired) == 5


class TestBus:
    def test_delivers_positionally_in_subscription_order(self):
        engine = SimulationEngine()
        seen = []
        engine.subscribe("repair", lambda *args: seen.append(("a", args)))
        engine.subscribe("repair", lambda *args: seen.append(("b", args)))
        for callback in engine.subscribers("repair"):
            callback(3, "GPU", 1.5)
        assert seen == [("a", (3, "GPU", 1.5)), ("b", (3, "GPU", 1.5))]

    def test_late_subscriber_sees_events_of_an_earlier_publisher(self):
        engine = SimulationEngine()
        cluster = Cluster(TSUBAME3)
        service = RepairService(
            engine, cluster, RepairPolicy(), SparePool({})
        )
        repaired = []
        engine.subscribe("node_repaired", repaired.append)
        cluster.fail(2, "Software", time=0.0)
        service.submit(2, "Software", duration_hours=1.0)
        engine.run_until(5.0)
        assert repaired == [2]

    def test_topic_without_subscribers_costs_no_callback(self, monkeypatch):
        # A headless run keeps no records, so with nobody on "failure"
        # the injector never builds the record it would publish.
        def no_record(**fields):
            raise AssertionError("built a record nobody listens to")

        monkeypatch.setattr(faults, "FailureRecord", no_record)
        simulator = ClusterSimulator(
            "tsubame3", seed=1, keep_injected_log=False
        )
        assert all(not simulator.engine.subscribers(t) for t in TOPICS)
        report = simulator.run(500.0)
        assert report.failures_injected > 0
        assert report.repairs_completed > 0

    def test_unknown_topic_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError, match="failures"):
            engine.subscribe("failures", lambda record, time_hours: None)
        with pytest.raises(SimulationError):
            engine.subscribers("")
