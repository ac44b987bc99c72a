"""Trace recording: subscribe to the sim bus, buffer, serialize late.

The recorder rides the engine's pub/sub bus, so attaching it needs no
changes to the components being observed.  To keep recording off the
simulation's critical path (the benchmark floor is ≤10% overhead on
the events/s hot path), callbacks append compact tuples ("rows") to an
in-memory list.  :meth:`TraceRecorder.finalize` hands those rows to the
:class:`Trace` as they are: lines are formatted only when the trace is
written or compared, and event dicts only when a caller asks for
:attr:`Trace.events`.
"""

from __future__ import annotations

import time as _time

from repro.errors import TraceError
from repro.sim.engine import SimulationEngine
from repro.sim.simulator import SimulationConfig, SimulationReport
from repro.trace.format import Trace, report_to_dict

__all__ = ["TraceRecorder", "record_run"]


class TraceRecorder:
    """Records one simulation run as an in-memory event buffer.

    Works against anything exposing ``engine`` (a
    :class:`SimulationEngine`) and ``config`` (a
    :class:`SimulationConfig`) — both :class:`ClusterSimulator` and
    :class:`repro.trace.replay.ReplaySimulator` qualify; use
    :meth:`attach`.  Attach *before* ``run()`` so no event is missed.
    """

    def __init__(
        self, engine: SimulationEngine, config: SimulationConfig
    ) -> None:
        self._config = config
        self._rows: list[tuple] = []
        self._finalized = False
        self._started = _time.perf_counter()
        append = self._rows.append
        # One tiny closure per topic; each buffers one row in the
        # layout of repro.trace.format._ROW_SCHEMA.
        engine.subscribe(
            "failure",
            lambda record, time_hours: append(
                (
                    "fail",
                    time_hours,
                    record.node_id,
                    record.category,
                    record.ttr_hours,
                    list(record.gpus_involved),
                )
            ),
        )
        engine.subscribe(
            "repair_start",
            lambda node_id, category, time_hours: append(
                ("rstart", time_hours, node_id, category)
            ),
        )
        engine.subscribe(
            "repair",
            lambda node_id, category, time_hours: append(
                ("rdone", time_hours, node_id, category)
            ),
        )
        engine.subscribe(
            "job_submit",
            lambda job_id, num_nodes, duration_hours, time_hours: append(
                ("jsub", time_hours, job_id, num_nodes, duration_hours)
            ),
        )
        engine.subscribe(
            "job_start",
            lambda job_id, nodes, time_hours: append(
                ("jstart", time_hours, job_id, nodes)
            ),
        )
        engine.subscribe(
            "job_complete",
            lambda job_id, time_hours: append(
                ("jdone", time_hours, job_id)
            ),
        )
        engine.subscribe(
            "job_killed",
            lambda job_id, node_id, time_hours: append(
                ("jkill", time_hours, job_id, node_id)
            ),
        )

    @classmethod
    def attach(cls, sim) -> TraceRecorder:
        """Attach to a simulator exposing ``engine`` and ``config``."""
        return cls(sim.engine, sim.config)

    @property
    def event_count(self) -> int:
        """Events buffered so far."""
        return len(self._rows)

    def finalize(
        self,
        report: SimulationReport,
        horizon_hours: float,
    ) -> Trace:
        """Turn the buffer into a :class:`Trace` (one-shot).

        Raises:
            TraceError: If called twice — the buffer represents one
                run; recording a second horizon into it would splice
                two histories.
        """
        if self._finalized:
            raise TraceError(
                "recorder already finalized; attach a fresh "
                "TraceRecorder per run"
            )
        self._finalized = True
        # A copy, so the trace stays as it is if the engine runs on:
        # the bus callbacks append to the buffer.
        rows = list(self._rows)
        wall = _time.perf_counter() - self._started
        return Trace(
            config=self._config,
            horizon_hours=horizon_hours,
            rows=rows,
            report=report_to_dict(report),
            end={"events": len(rows), "wall_s": wall},
        )


def record_run(sim, horizon_hours: float) -> tuple[SimulationReport, Trace]:
    """Run a simulator for one horizon and record it.

    Args:
        sim: An un-run simulator exposing ``engine``, ``config`` and
            ``run(horizon)`` (e.g. a fresh :class:`ClusterSimulator`).
        horizon_hours: The horizon to simulate.

    Returns:
        ``(report, trace)``.
    """
    recorder = TraceRecorder.attach(sim)
    report = sim.run(horizon_hours)
    return report, recorder.finalize(report, horizon_hours)
