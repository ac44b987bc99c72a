"""Stream event model.

The batch analyses in :mod:`repro.core` consume a finished
:class:`~repro.core.records.FailureLog`; operators consume the same
information as a *live stream*.  This module defines the stream's unit
of currency — :class:`StreamEvent` — and the normalization from a
finished log into a monotonic event sequence.

Time in a stream is measured in hours since the stream origin (for a
replayed log, the log's ``window_start``; for a live simulation, the
engine's time zero), matching the rest of the library.  Failure events
carry the full :class:`~repro.core.records.FailureRecord`; repair
events mark the moment the same record's recovery completed.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from repro.core.records import FailureLog, FailureRecord
from repro.errors import StreamError

__all__ = [
    "EventKind",
    "StreamEvent",
    "events_from_log",
    "ensure_monotonic",
    "subscribe_events",
]


class EventKind(Enum):
    """What happened at a stream event."""

    FAILURE = "failure"
    REPAIR = "repair"


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """One observation on the wire.

    Attributes:
        kind: Failure occurrence or repair completion.
        time_hours: Hours since the stream origin.  Streams must be
            monotonic non-decreasing in this field.
        node_id: Node the event concerns.
        category: Failure category of the underlying record.
        record: The full failure record.  Always present for FAILURE
            events; present on REPAIR events when the completing
            failure is known (replay), absent for anonymous live
            repair notifications.
    """

    kind: EventKind
    time_hours: float
    node_id: int
    category: str
    record: FailureRecord | None = None

    def __post_init__(self) -> None:
        if not (self.time_hours >= 0.0):  # also rejects NaN
            raise StreamError(
                f"event time must be a non-negative number of hours, "
                f"got {self.time_hours!r}"
            )
        if self.kind is EventKind.FAILURE and self.record is None:
            raise StreamError("FAILURE events must carry their record")

    @property
    def is_failure(self) -> bool:
        return self.kind is EventKind.FAILURE

    @property
    def is_repair(self) -> bool:
        return self.kind is EventKind.REPAIR

    @classmethod
    def failure(
        cls, time_hours: float, record: FailureRecord
    ) -> "StreamEvent":
        """Build a failure event from a record."""
        return cls(
            kind=EventKind.FAILURE,
            time_hours=time_hours,
            node_id=record.node_id,
            category=record.category,
            record=record,
        )

    @classmethod
    def repair(
        cls,
        time_hours: float,
        node_id: int,
        category: str,
        record: FailureRecord | None = None,
    ) -> "StreamEvent":
        """Build a repair-completion event."""
        return cls(
            kind=EventKind.REPAIR,
            time_hours=time_hours,
            node_id=node_id,
            category=category,
            record=record,
        )


def subscribe_events(engine, sink: Callable[[StreamEvent], None]) -> None:
    """Feed a simulation engine's ``failure`` and ``repair`` bus
    topics into ``sink`` as stream events, as the simulation runs."""
    engine.subscribe(
        "failure",
        lambda record, time_hours: sink(
            StreamEvent.failure(time_hours, record)
        ),
    )
    engine.subscribe(
        "repair",
        lambda node_id, category, time_hours: sink(
            StreamEvent.repair(time_hours, node_id, category)
        ),
    )


def events_from_log(
    log: FailureLog, include_repairs: bool = False
) -> Iterator[StreamEvent]:
    """Normalize a finished log into a monotonic event stream.

    Failures are emitted at their offset from ``window_start``.  With
    ``include_repairs``, a REPAIR event is interleaved at
    ``failure_time + ttr`` for every record (repairs that complete
    after ``window_end`` are still emitted; their times simply exceed
    the log span).  The merged sequence is sorted by time, with
    repairs ordered before failures at exact ties so a node's state
    transition resolves before the next incident.

    The per-record work is O(log n) (a heap of pending repairs), so
    arbitrarily long logs replay in streaming fashion.
    """
    if not include_repairs:
        for record in log:
            yield StreamEvent.failure(log.hours_since_start(record), record)
        return

    # (time, tiebreak, event): repairs get tiebreak 0, failures 1.
    pending: list[tuple[float, int, int, StreamEvent]] = []
    sequence = 0
    for record in log:
        failed_at = log.hours_since_start(record)
        while pending and pending[0][0] <= failed_at:
            yield heapq.heappop(pending)[3]
        yield StreamEvent.failure(failed_at, record)
        sequence += 1
        heapq.heappush(
            pending,
            (
                failed_at + record.ttr_hours,
                0,
                sequence,
                StreamEvent.repair(
                    failed_at + record.ttr_hours,
                    record.node_id,
                    record.category,
                    record,
                ),
            ),
        )
    while pending:
        yield heapq.heappop(pending)[3]


def ensure_monotonic(
    events: Iterable[StreamEvent],
) -> Iterator[StreamEvent]:
    """Pass events through, raising on any time regression.

    This is the strict end of the configurable disorder policies —
    see :func:`repro.stream.tolerance.tolerant_stream` for the
    ``drop`` and bounded-``buffer`` alternatives.

    Raises:
        StreamError: If an event's time precedes its predecessor's.
    """
    from repro.stream.tolerance import tolerant_stream

    return tolerant_stream(events, on_disorder="raise")
