"""Event-stream sources.

Five ways events reach a :class:`~repro.stream.monitor.FailureMonitor`:

* :class:`ReplaySource` — replay a finished
  :class:`~repro.core.records.FailureLog` (batch → stream bridge).
* :class:`FileSource` — replay a log file (CSV or JSON Lines, format
  inferred from the extension via :func:`repro.io.infer_format`).
* :class:`SyntheticSource` — generate a calibrated synthetic trace and
  replay it (the :mod:`repro.synth` stream adapter).
* :class:`SimulationSource` — run a
  :class:`~repro.sim.simulator.ClusterSimulator` while recording the
  failure/repair events its engine publishes on the live bus, then
  yield them.  For *in-loop* consumption (react to events while the
  simulation is still running) attach the monitor directly with
  :meth:`FailureMonitor.attach` before calling ``run``.
* :class:`TraceSource` — replay a recorded simulation trace file
  (see :mod:`repro.trace`) without re-running the simulation; repair
  events carry the trace's *actual* completion times (queueing
  included), unlike the ``failure + ttr`` approximation of
  ``include_repairs`` replays.

All sources are iterables of monotonic
:class:`~repro.stream.events.StreamEvent`s, so ``monitor.consume(source)``
works uniformly.
"""

from __future__ import annotations

from collections.abc import Iterator
from datetime import timedelta
from pathlib import Path

from repro.core.records import FailureLog, FailureRecord
from repro.errors import StreamError
from repro.stream.events import StreamEvent, events_from_log, subscribe_events

__all__ = [
    "ReplaySource",
    "FileSource",
    "SyntheticSource",
    "SimulationSource",
    "TraceSource",
]


class ReplaySource:
    """Replay a finished failure log as a stream.

    Args:
        log: The log to replay.
        include_repairs: Also emit REPAIR events at each failure's
            recovery completion.
    """

    def __init__(
        self, log: FailureLog, include_repairs: bool = False
    ) -> None:
        self._log = log
        self._include_repairs = include_repairs

    @property
    def log(self) -> FailureLog:
        return self._log

    @property
    def machine(self) -> str:
        return self._log.machine

    @property
    def span_hours(self) -> float:
        """Observation span, for :meth:`FailureMonitor.finalize`."""
        return self._log.span_hours

    def __iter__(self) -> Iterator[StreamEvent]:
        return events_from_log(
            self._log, include_repairs=self._include_repairs
        )


class FileSource(ReplaySource):
    """Replay a log file as a stream.

    Args:
        path: ``.csv`` or ``.jsonl`` log file.
        format: Explicit format override (``"csv"`` / ``"jsonl"``).
        include_repairs: Also emit REPAIR events.
        on_error: Ingest policy for malformed rows (``"raise"`` /
            ``"skip"`` / ``"collect"``, see
            :func:`repro.io.read_log`).  With ``"collect"`` the
            quarantine diagnostics are kept on :attr:`read_report`.
    """

    def __init__(
        self,
        path: Path | str,
        format: str | None = None,
        include_repairs: bool = False,
        on_error: str = "raise",
    ) -> None:
        from repro.io import read_log
        from repro.io.tolerant import LogReadReport

        loaded = read_log(path, format=format, on_error=on_error)
        report: LogReadReport | None = None
        if isinstance(loaded, LogReadReport):
            report = loaded
            loaded = loaded.log
        super().__init__(loaded, include_repairs=include_repairs)
        self._path = Path(path)
        self._read_report = report

    @property
    def path(self) -> Path:
        return self._path

    @property
    def read_report(self):
        """The :class:`~repro.io.tolerant.LogReadReport` from a
        lenient (``on_error="collect"``) load, else None."""
        return self._read_report


class SyntheticSource(ReplaySource):
    """Generate a calibrated synthetic trace and replay it.

    Args:
        machine: ``"tsubame2"`` or ``"tsubame3"``.
        seed: Generator seed.
        config: Full :class:`~repro.synth.GeneratorConfig` (overrides
            ``seed``).
        include_repairs: Also emit REPAIR events.
    """

    def __init__(
        self,
        machine: str,
        seed: int = 0,
        config=None,
        include_repairs: bool = False,
    ) -> None:
        from repro.synth import generate_log

        super().__init__(
            generate_log(machine, seed=seed, config=config),
            include_repairs=include_repairs,
        )


class SimulationSource:
    """Run a cluster simulation and yield the events it published.

    The source subscribes to the simulator engine's event bus, runs
    the horizon on first iteration, and yields the recorded
    failure/repair events.  Iterating twice replays the recording; it
    does not re-run the simulation.

    Args:
        simulator: A :class:`~repro.sim.simulator.ClusterSimulator`
            that has not been run yet.
        horizon_hours: Simulated hours to run.
    """

    def __init__(self, simulator, horizon_hours: float) -> None:
        if horizon_hours <= 0:
            raise StreamError(
                f"horizon_hours must be positive, got {horizon_hours}"
            )
        self._simulator = simulator
        self._horizon = horizon_hours
        self._recorded: list[StreamEvent] | None = None
        self._report = None

    @property
    def report(self):
        """The simulation report (available after iteration)."""
        return self._report

    @property
    def horizon_hours(self) -> float:
        return self._horizon

    def _run(self) -> list[StreamEvent]:
        recorded: list[StreamEvent] = []
        subscribe_events(self._simulator.engine, recorded.append)
        self._report = self._simulator.run(self._horizon)
        return recorded

    def __iter__(self) -> Iterator[StreamEvent]:
        if self._recorded is None:
            self._recorded = self._run()
        return iter(self._recorded)


class TraceSource:
    """Replay a recorded simulation trace file as a stream.

    Reads a :mod:`repro.trace` JSONL trace and yields its failure
    (and, optionally, repair-completion) events in recorded order —
    no simulation is re-run.  The ``rdone`` events in a trace are the
    moments repairs actually completed, so with ``include_repairs``
    the stream reflects technician/spare queueing faithfully.

    Args:
        path: Trace file recorded by ``repro-failures trace record``
            or :func:`repro.trace.record_run` + ``write_trace``.
        include_repairs: Also emit REPAIR events (from ``rdone``).
        on_error: ``"raise"`` (default) aborts on a malformed trace
            line; ``"quarantine"`` sets bad lines aside (available on
            :attr:`quarantined`) and streams the rest — the
            chaos-tolerant mode for truncated or corrupt traces.
    """

    def __init__(
        self,
        path: Path | str,
        include_repairs: bool = False,
        on_error: str = "raise",
    ) -> None:
        from repro.machines.specs import get_machine
        from repro.trace import read_trace

        self._path = Path(path)
        self._trace, self._quarantined = read_trace(
            path, on_error=on_error
        )
        self._include_repairs = include_repairs
        self._log_start = get_machine(self.machine).log_start

    @property
    def path(self) -> Path:
        return self._path

    @property
    def trace(self):
        """The parsed :class:`repro.trace.Trace`."""
        return self._trace

    @property
    def quarantined(self):
        """Malformed lines set aside by ``on_error="quarantine"``."""
        return self._quarantined

    @property
    def machine(self) -> str:
        return self._trace.config.machine

    @property
    def span_hours(self) -> float:
        """The recorded horizon, for :meth:`FailureMonitor.finalize`."""
        return self._trace.horizon_hours

    def __iter__(self) -> Iterator[StreamEvent]:
        record_id = 0
        for row in self._trace.event_rows():
            kind = row[0]
            if kind == "fail":
                _, time, node, category, ttr, gpus = row
                record = FailureRecord(
                    record_id=record_id,
                    timestamp=self._log_start + timedelta(hours=time),
                    node_id=node,
                    category=category,
                    ttr_hours=ttr,
                    gpus_involved=tuple(gpus),
                )
                record_id += 1
                yield StreamEvent.failure(time, record)
            elif kind == "rdone" and self._include_repairs:
                _, time, node, category = row
                yield StreamEvent.repair(time, node, category)
