"""Replay a recorded trace through the real simulation components.

Replay is *RNG-free*: the failure history drives the run directly, so
it reproduces across Python/NumPy versions that would consume a seed's
bit stream differently.  Only the fault injector is substituted — the
engine, cluster, repair service, and scheduler are the production
classes — so replay doubles as a determinism detector: any
order-dependent decision in those components shows up as a divergence
between the recorded and replayed event streams.

The :class:`ReplayInjector` *chains* its scheduling (failure *i*
schedules failure *i+1* from inside its own callback), exactly as
:class:`repro.sim.faults.FaultInjector` does.  This is load-bearing:
the engine breaks time ties by insertion sequence, so scheduling all
failures upfront would give them different heap positions than the
original run and perturb tie ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta

from repro.core.records import FailureLog, FailureRecord
from repro.errors import ReplayDivergenceError, SimulationError, TraceError
from repro.machines.specs import get_machine
from repro.sim.cluster import Cluster
from repro.sim.engine import SimulationEngine
from repro.sim.jobs import Job
from repro.sim.repair import RepairPolicy, RepairService, SparePool
from repro.sim.scheduler import Scheduler
from repro.sim.simulator import (
    SimulationConfig,
    SimulationReport,
    run_wired,
)
from repro.trace.format import Trace, canonical_line, is_plain_event
from repro.trace.recorder import TraceRecorder

__all__ = [
    "ReplayInjector",
    "ReplaySimulator",
    "TraceDivergence",
    "ReplayResult",
    "compare_traces",
    "replay",
]

#: Distinguishes "no checkpoint override" from "override to None".
_UNSET = object()


class ReplayInjector:
    """Feeds a recorded failure history into a live simulation.

    Drop-in for :class:`repro.sim.faults.FaultInjector` as far as the
    rest of the simulation is concerned: the same bus topics, the same
    ``start()``/``injected_count``/``injected_log()`` surface, and —
    critically — the same internal order of operations per failure
    (fail the node, submit the repair if the node was healthy, publish
    ``failure`` then ``node_failed``, schedule the next failure last).
    ``was_healthy`` is re-evaluated against the *replayed* cluster
    state rather than recorded, which is what lets a counterfactual
    replay absorb a failure on a node a slower repair policy has not
    yet returned to service.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: Cluster,
        repair: RepairService,
        machine: str,
        failures: list[dict],
    ) -> None:
        self._engine = engine
        self._cluster = cluster
        self._repair = repair
        self._spec = get_machine(machine)
        self._failures = failures
        self._index = 0
        self._injected: list[FailureRecord] = []
        self._next_record_id = 0
        self._on_failure = engine.subscribers("failure")
        self._on_node_failed = engine.subscribers("node_failed")

    @property
    def injected_count(self) -> int:
        """Failures replayed so far."""
        return self._next_record_id

    def start(self) -> None:
        """Schedule the first recorded failure at its recorded time."""
        self._schedule_next()

    def injected_log(self) -> FailureLog:
        """The replayed failures as a validated log.

        Raises:
            SimulationError: If nothing has been replayed yet.
        """
        if not self._injected:
            raise SimulationError("no failures replayed yet")
        start = self._spec.log_start
        end = start + timedelta(hours=self._engine.now + 1.0)
        return FailureLog(
            machine=self._spec.name,
            records=tuple(self._injected),
            window_start=start,
            window_end=end,
        )

    # -- internals -----------------------------------------------------------

    def _schedule_next(self) -> None:
        if self._index >= len(self._failures):
            return
        event = self._failures[self._index]
        try:
            when = event["time"]
        except (TypeError, KeyError) as exc:
            raise TraceError(
                f"fail event {self._index} has no time"
            ) from exc
        self._engine.schedule_at(when, self._fire)

    def _fire(self) -> None:
        event = self._failures[self._index]
        self._index += 1
        node_id = event["node"]
        category = event["cat"]
        duration = event["ttr"]
        gpus = tuple(event["gpus"])
        if self._cluster.fail(node_id, category, self._engine.now, gpus):
            self._repair.submit(node_id, category, duration)
        self._record(node_id, category, duration, gpus)
        for callback in self._on_node_failed:
            callback(node_id, category)
        self._schedule_next()

    def _record(
        self,
        node_id: int,
        category: str,
        duration: float,
        gpus: tuple[int, ...],
    ) -> None:
        now = self._engine.now
        record = FailureRecord(
            record_id=self._next_record_id,
            timestamp=self._spec.log_start + timedelta(hours=now),
            node_id=node_id,
            category=category,
            ttr_hours=duration,
            gpus_involved=gpus,
        )
        self._next_record_id += 1
        self._injected.append(record)
        for callback in self._on_failure:
            callback(record, now)


class ReplaySimulator:
    """Re-executes a trace; mirrors :class:`ClusterSimulator` wiring.

    Without overrides, the replayed run is the recorded run —
    bit-exactly.  The keyword overrides are the counterfactual levers
    (see :mod:`repro.trace.whatif`): they change the *response* to the
    recorded failure history without touching the history itself.
    """

    def __init__(
        self,
        trace: Trace,
        *,
        repair_policy: RepairPolicy | None = None,
        initial_spares: dict[str, int] | None = None,
        checkpoint_policy=_UNSET,
        backfill_depth: int | None = None,
    ) -> None:
        base = trace.config
        if repair_policy is None:
            repair_policy = base.repair_policy
        elif not repair_policy.hardware_categories:
            repair_policy = RepairPolicy(
                num_technicians=repair_policy.num_technicians,
                spare_lead_time_hours=repair_policy.spare_lead_time_hours,
                hardware_categories=base.repair_policy.hardware_categories,
            )
        if initial_spares is None:
            initial_spares = base.initial_spares
        if checkpoint_policy is _UNSET:
            checkpoint_policy = base.checkpoint_policy
        self.config = SimulationConfig(
            machine=base.machine,
            seed=base.seed,
            intensity=base.intensity,
            health_test_effectiveness=base.health_test_effectiveness,
            repair_policy=repair_policy,
            initial_spares=dict(initial_spares),
            checkpoint_policy=checkpoint_policy,
            workload=base.workload,
            train=base.train,
        )
        self._trace = trace
        self._spec = get_machine(base.machine)
        self._ran = False

        self.engine = SimulationEngine()
        self.cluster = Cluster(self._spec)
        self.spares = SparePool(dict(initial_spares))
        self.repair = RepairService(
            self.engine, self.cluster, repair_policy, self.spares
        )
        self.injector = ReplayInjector(
            self.engine,
            self.cluster,
            self.repair,
            base.machine,
            trace.failures,
        )
        self.training = None
        if base.train is not None:
            if checkpoint_policy is None:
                raise TraceError(
                    "training traces need a checkpoint policy; "
                    "refusing the checkpoint_policy=None override"
                )
            from repro.train.gang import GangTrainingRun

            self.training = GangTrainingRun(
                self.engine, self.cluster, base.train, checkpoint_policy
            )
        self.scheduler: Scheduler | None = None
        job_events = trace.jobs
        # A training trace carries the gang's own job events; they are
        # re-emitted by the replayed gang, not a batch scheduler.
        if base.train is None and (
            base.workload is not None or job_events
        ):
            self.scheduler = Scheduler(
                self.engine,
                self.cluster,
                checkpoint_policy,
                **(
                    {}
                    if backfill_depth is None
                    else {"backfill_depth": backfill_depth}
                ),
            )
            self._jobs = [
                Job(
                    job_id=event["job"],
                    num_nodes=event["width"],
                    duration_hours=event["hours"],
                    submit_time=event["time"],
                )
                for event in job_events
            ]
        else:
            self._jobs = []

    def run(self) -> SimulationReport:
        """Replay the recorded horizon and summarise the outcome.

        Raises:
            TraceError: If called twice — engine state is consumed.
        """
        if self._ran:
            raise TraceError(
                "this ReplaySimulator already ran; build a fresh one "
                "per replay"
            )
        self._ran = True
        return run_wired(self, self._trace.horizon_hours, self._jobs)

    def injected_log(self) -> FailureLog:
        """Failures replayed during the run, as an analyzable log."""
        return self.injector.injected_log()

    def to_store(self, path, *, reindex: bool = True):
        """Persist the replayed failures to the store at ``path``.

        Same contract as :meth:`ClusterSimulator.to_store`: a missing
        store is created, records renumber by default, and the append
        summary is returned.
        """
        from repro.store import ingest_log

        return ingest_log(path, self.injected_log(), reindex=reindex)


@dataclass(frozen=True)
class TraceDivergence:
    """First point where a replay departed from its recording."""

    kind: str  # "event", "event_count", "report"
    index: int | None
    expected: str | None
    actual: str | None

    def describe(self) -> str:
        """Human-readable one-paragraph diagnosis."""
        if self.kind == "event":
            return (
                f"replay diverged at event {self.index}:\n"
                f"  recorded: {self.expected}\n"
                f"  replayed: {self.actual}"
            )
        if self.kind == "event_count":
            return (
                f"replay produced a different number of events "
                f"(first unmatched at index {self.index}):\n"
                f"  recorded: {self.expected}\n"
                f"  replayed: {self.actual}"
            )
        return (
            f"replay reproduced every event but the final report "
            f"differs:\n"
            f"  recorded: {self.expected}\n"
            f"  replayed: {self.actual}"
        )


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one verified replay."""

    report: SimulationReport
    trace: Trace
    divergence: TraceDivergence | None
    simulator: ReplaySimulator

    @property
    def bit_exact(self) -> bool:
        """True when the replay reproduced the recording exactly."""
        return self.divergence is None


def compare_traces(
    recorded: Trace, replayed: Trace
) -> TraceDivergence | None:
    """Compare two traces event-by-event, then report-by-report.

    Returns the first divergence, or None when the replay is
    bit-exact.  The ``end`` line (wall-clock timing) is deliberately
    outside the comparison.

    Values are compared before any event line is formatted.  When
    every event of both traces is plain (:func:`is_plain_event`) and
    the two event lists are equal, their lines are equal too, so none
    is formatted.  :func:`event_line` writes a plain event with its
    kind's template from its values alone, and equal values of one
    exact type print alike: equal ints by ``int.__repr__`` (inside
    +-2**63, so always printable), equal strs by the same quoting,
    equal int lists item by item, and equal finite floats by
    ``float.__repr__``, because equal doubles are one double except
    ``0.0 == -0.0``, and zero is not plain.  Lists of equal length
    compare pair by pair, and equal dicts have equal values key by
    key, so each pair shares a kind and its values.  Plainness is
    tested first, so ``==`` only ever meets those types.

    Anything else (``1`` against ``1.0``, ``True`` against ``1``, a
    NumPy scalar, a NaN object on both sides, an extra key, a zero
    time, unequal events) formats every event of both traces and
    compares the lines, so the divergence returned and any
    :class:`TraceError` raised are the ones the lines give.
    """
    if not (
        all(map(is_plain_event, recorded.events))
        and all(map(is_plain_event, replayed.events))
        and recorded.events == replayed.events
    ):
        divergence = _event_line_divergence(recorded, replayed)
        if divergence is not None:
            return divergence
    if recorded.report is not None:
        expected = canonical_line(recorded.report)
        actual = (
            canonical_line(replayed.report)
            if replayed.report is not None
            else None
        )
        if expected != actual:
            return TraceDivergence(
                kind="report",
                index=None,
                expected=expected,
                actual=actual,
            )
    return None


def _event_line_divergence(
    recorded: Trace, replayed: Trace
) -> TraceDivergence | None:
    """The first event whose canonical lines differ, formatting every
    event of both traces first."""
    recorded_lines = recorded.event_lines()
    replayed_lines = replayed.event_lines()
    for index, (expected, actual) in enumerate(
        zip(recorded_lines, replayed_lines)
    ):
        if expected != actual:
            return TraceDivergence(
                kind="event",
                index=index,
                expected=expected,
                actual=actual,
            )
    if len(recorded_lines) != len(replayed_lines):
        index = min(len(recorded_lines), len(replayed_lines))
        return TraceDivergence(
            kind="event_count",
            index=index,
            expected=(
                recorded_lines[index]
                if index < len(recorded_lines)
                else None
            ),
            actual=(
                replayed_lines[index]
                if index < len(replayed_lines)
                else None
            ),
        )
    return None


def replay(trace: Trace, *, verify: bool = True) -> ReplayResult:
    """Re-execute a trace and check it reproduces bit-exactly.

    Args:
        trace: A parsed trace (see :func:`repro.trace.read_trace`).
        verify: Raise on divergence (default).  ``False`` returns the
            result with ``divergence`` populated instead, for callers
            that want to render the diagnosis themselves.

    Returns:
        A :class:`ReplayResult` with the replayed report, the re-
        recorded trace, and the first divergence (None when exact).

    Raises:
        ReplayDivergenceError: When ``verify`` and the replay did not
            reproduce the recording; carries the
            :class:`TraceDivergence`.
    """
    sim = ReplaySimulator(trace)
    recorder = TraceRecorder.attach(sim)
    report = sim.run()
    replayed = recorder.finalize(report, trace.horizon_hours)
    divergence = compare_traces(trace, replayed)
    if divergence is not None and verify:
        raise ReplayDivergenceError(
            divergence.describe(), divergence=divergence
        )
    return ReplayResult(
        report=report,
        trace=replayed,
        divergence=divergence,
        simulator=sim,
    )
