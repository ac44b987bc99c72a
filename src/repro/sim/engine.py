"""Discrete-event simulation engine.

A minimal, deterministic event loop: events are (time, sequence,
callback) triples on a binary heap; ties in time break by insertion
order, so a seeded simulation replays identically.  Time is in hours,
matching the rest of the library.

The engine also carries the simulation's one publish/subscribe bus:
components announce domain events (a failure fired, a repair
completed) to whoever listens — the scheduler and training gang, a
live :class:`repro.stream.monitor.FailureMonitor`, the trace recorder
— without knowing who that is.  The topic set is fixed, and each
topic's callbacks receive these positional arguments:

- ``failure(record, time_hours)`` then ``node_failed(node_id,
  category)``: the fault (or replay) injector, once per failure;
- ``repair_start(node_id, category, time_hours)``: the repair service,
  when hands-on work begins;
- ``node_repaired(node_id)`` then ``repair(node_id, category,
  time_hours)``: the repair service, once per completed repair;
- ``job_submit(job_id, num_nodes, duration_hours, time_hours)``,
  ``job_start(job_id, nodes, time_hours)``, ``job_complete(job_id,
  time_hours)`` and ``job_killed(job_id, node_id, time_hours)``: the
  batch scheduler and the training gang, over a job's lifecycle.

Subscribers run synchronously, in subscription order, at the
simulation time of the publish.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from repro.errors import SimulationError

__all__ = ["SimulationEngine", "TOPICS"]

#: The bus's topics; the module docstring lists each one's arguments.
TOPICS = (
    "failure", "node_failed", "repair_start", "node_repaired", "repair",
    "job_submit", "job_start", "job_complete", "job_killed",
)


class SimulationEngine:
    """Event-driven simulation clock and queue."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self._now = 0.0
        self._processed = 0
        self._subscribers: dict[str, list[Callable[..., None]]] = {
            topic: [] for topic in TOPICS
        }

    # -- event bus ---------------------------------------------------------

    def subscribe(
        self, topic: str, callback: Callable[..., None]
    ) -> None:
        """Register ``callback`` to run on each event of ``topic``.

        It receives the topic's positional arguments (module docstring).

        Raises:
            SimulationError: On an unknown topic.
        """
        self.subscribers(topic).append(callback)

    def subscribers(self, topic: str) -> list[Callable[..., None]]:
        """The live callback list of a topic.

        A publisher fetches it once, at construction, and calls each
        entry per event; empty means nobody listens.  Callbacks
        subscribed later land in the same list.

        Raises:
            SimulationError: On an unknown topic.
        """
        try:
            return self._subscribers[topic]
        except KeyError:
            raise SimulationError(
                f"unknown topic {topic!r}; known topics: "
                f"{', '.join(TOPICS)}"
            ) from None

    def close(self) -> None:
        """Drop every pending event and subscriber, once a run's
        results are read.

        The components that scheduled or subscribed callbacks hold this
        engine, so until then a finished run is a reference cycle that
        only the cyclic collector frees.  Afterwards no scheduled event
        fires and no subscriber hears anything.
        """
        self._queue.clear()
        for callbacks in self._subscribers.values():
            callbacks.clear()

    @property
    def now(self) -> float:
        """Current simulation time in hours."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled events not yet processed."""
        return len(self._queue)

    @property
    def processed(self) -> int:
        """Number of events processed so far."""
        return self._processed

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> None:
        """Schedule a callback at an absolute time.

        Times must be finite: a NaN would compare False against every
        ordering check and silently corrupt the heap (every later event
        starves behind it), and an infinity would pin the clock at the
        end of time.

        Raises:
            SimulationError: If the time is NaN/infinite or lies in the
                past.
        """
        if not math.isfinite(time):
            raise SimulationError(
                f"event time must be finite, got {time!r}"
            )
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} h; the clock is already at "
                f"{self._now} h"
            )
        self._sequence += 1
        heapq.heappush(self._queue, (time, self._sequence, callback))

    def schedule_in(
        self, delay: float, callback: Callable[[], None]
    ) -> None:
        """Schedule a callback ``delay`` hours from now.

        Raises:
            SimulationError: If the delay is negative or non-finite
                (see :meth:`schedule_at` for why NaN/inf are rejected).
        """
        if not 0.0 <= delay < math.inf:
            # One chained comparison on the hot path (NaN fails it
            # too); name the failed check only on the way out.
            if not math.isfinite(delay):
                raise SimulationError(
                    f"delay must be finite, got {delay!r}"
                )
            raise SimulationError(f"delay must be >= 0, got {delay}")
        # Inlined schedule_at: now and delay are finite and delay >= 0,
        # so the absolute time passes both of its checks by
        # construction.  (finite + finite can only overflow to inf for
        # times ~1e308 hours, far past any meaningful horizon.)
        self._sequence += 1
        heapq.heappush(
            self._queue, (self._now + delay, self._sequence, callback)
        )

    def run_until(self, horizon: float) -> None:
        """Process events in order until the horizon.

        Events scheduled exactly at the horizon still run; the clock
        finishes at ``horizon``.

        Raises:
            SimulationError: If the horizon is NaN/infinite or lies in
                the past.  (A NaN horizon would end the comparison loop
                immediately yet rewind the clock to NaN; an infinite
                one would leave the clock pinned at the end of time.)
        """
        if not math.isfinite(horizon):
            raise SimulationError(
                f"horizon must be finite, got {horizon!r}"
            )
        if horizon < self._now:
            raise SimulationError(
                f"horizon {horizon} h is before the current time "
                f"{self._now} h"
            )
        # Hot loop: bind the heap and heappop once.  Entries are
        # indexed rather than unpacked so the unused sequence number
        # never hits a local, and ``_processed`` stays current per
        # event (callbacks may read it).
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= horizon:
            entry = pop(queue)
            self._now = entry[0]
            self._processed += 1
            entry[2]()
        self._now = horizon

    def run_all(self, max_events: int = 1_000_000) -> None:
        """Process every pending event (with a runaway guard).

        Raises:
            SimulationError: If more than ``max_events`` fire, which
                almost always means an event keeps rescheduling itself.
        """
        fired = 0
        while self._queue:
            # Guard *before* executing: the (max_events + 1)-th event
            # must not fire at all, or a runaway callback gets one
            # extra side-effecting execution past the stated budget.
            if fired >= max_events:
                raise SimulationError(
                    f"more than {max_events} events processed; "
                    f"likely a self-rescheduling loop"
                )
            time, _, callback = heapq.heappop(self._queue)
            self._now = time
            self._processed += 1
            callback()
            fired += 1
