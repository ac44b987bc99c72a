"""Repair service: technicians and spare parts.

The paper's RQ5 discussion argues MTTR is governed by operational
choices — "one can significantly reduce the MTTR by overly proactive
measures such as keeping an excessive number of spare components
on-site or more staff devoted to failure monitoring, but this comes at
an increased operational cost."  This module makes that trade-off a
simulated quantity: a failed node waits for (a) a free technician and
(b) a spare part for its category; spares replenish after a
procurement lead time.  Prediction-driven *pre-staging* (see
:mod:`repro.predict`) can place a spare before the failure arrives,
cutting the waiting component of the effective MTTR.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial

from repro.errors import SimulationError, ValidationError
from repro.sim.cluster import Cluster
from repro.sim.engine import SimulationEngine

__all__ = ["RepairPolicy", "SparePool", "RepairService"]


@dataclass(frozen=True)
class RepairPolicy:
    """Operational parameters of the repair organisation.

    Attributes:
        num_technicians: Concurrent repairs possible.
        spare_lead_time_hours: Procurement delay to replenish one
            consumed spare.
        hardware_categories: Categories that consume a spare part;
            software repairs need a technician only.
    """

    num_technicians: int = 4
    spare_lead_time_hours: float = 168.0
    hardware_categories: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.num_technicians < 1:
            raise ValidationError(
                f"num_technicians must be >= 1, got {self.num_technicians}"
            )
        if not 0 <= self.spare_lead_time_hours < math.inf:
            raise ValidationError(
                f"spare_lead_time_hours must be finite and >= 0, got "
                f"{self.spare_lead_time_hours}"
            )


class SparePool:
    """Per-category spare-part inventory with replenishment."""

    def __init__(self, initial: dict[str, int]) -> None:
        for category, count in initial.items():
            if count < 0:
                raise ValidationError(
                    f"spare count for {category!r} must be >= 0, "
                    f"got {count}"
                )
        self._stock = dict(initial)
        self._consumed = 0
        self._stockouts = 0

    @property
    def consumed(self) -> int:
        """Total spares consumed."""
        return self._consumed

    @property
    def stockouts(self) -> int:
        """Times a repair had to wait because no spare was on hand."""
        return self._stockouts

    def level(self, category: str) -> int:
        """Current stock for one category (0 when untracked)."""
        return self._stock.get(category, 0)

    def try_take(self, category: str) -> bool:
        """Consume one spare if available; record a stockout if not."""
        if self._stock.get(category, 0) > 0:
            self._stock[category] -= 1
            self._consumed += 1
            return True
        self._stockouts += 1
        return False

    def restock(self, category: str, count: int = 1) -> None:
        """Add spares back to the pool (replenishment arrival)."""
        if count < 1:
            raise ValidationError(f"count must be >= 1, got {count}")
        self._stock[category] = self._stock.get(category, 0) + count


class _Event(partial):
    """A scheduled repair-service callback: a ``functools.partial``
    whose ``__module__`` is this module's, so per-module profilers
    count it as repair time (a plain partial's reads ``functools``)."""

    __slots__ = ()


class RepairService:
    """Dispatches technicians and spares to failed nodes.

    Wire-up: the fault injector calls :meth:`submit` when a node
    fails; the service starts the repair once a technician and (for
    hardware) a spare are available, and completes it after the
    failure's hands-on duration.  Both steps are published on the
    engine bus (``repair_start``; ``node_repaired`` then ``repair``).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: Cluster,
        policy: RepairPolicy,
        spares: SparePool,
    ) -> None:
        self._engine = engine
        self._cluster = cluster
        self._spares = spares
        self._num_technicians = policy.num_technicians
        self._lead_time = policy.spare_lead_time_hours
        self._hardware = policy.hardware_categories
        self._busy_technicians = 0
        # A repair is a (node_id, category, hands-on hours) tuple.
        self._queue: deque[tuple[int, str, float]] = deque()
        # Back-orders, oldest first.  Every part takes the same lead
        # time and the clock never runs back, so parts arrive in the
        # order they were ordered.
        self._waiting_for_spare: deque[tuple[int, str, float]] = deque()
        self._completed = 0
        self._on_repair_start = engine.subscribers("repair_start")
        self._on_node_repaired = engine.subscribers("node_repaired")
        self._on_repair = engine.subscribers("repair")

    @property
    def completed(self) -> int:
        """Repairs completed so far."""
        return self._completed

    @property
    def queue_length(self) -> int:
        """Repairs waiting for a technician."""
        return len(self._queue)

    @property
    def waiting_for_spares(self) -> int:
        """Repairs waiting for a part."""
        return len(self._waiting_for_spare)

    def submit(
        self, node_id: int, category: str, duration_hours: float
    ) -> None:
        """Enqueue a repair for a node that just failed.

        Raises:
            SimulationError: On a non-positive or non-finite duration;
                nothing is taken or queued.
        """
        if not 0 < duration_hours < math.inf:
            if duration_hours <= 0:
                raise SimulationError(
                    f"repair duration must be positive, got "
                    f"{duration_hours}"
                )
            raise SimulationError(
                f"repair duration must be finite, got {duration_hours!r}"
            )
        pending = (node_id, category, duration_hours)
        if category in self._hardware:
            if self._spares.try_take(category):
                # Order the replacement for the part just taken.
                self._engine.schedule_in(
                    self._lead_time, _Event(self._spares.restock, category)
                )
            else:
                # Back-order: part arrives after the lead time, then
                # the repair joins the technician queue.
                self._waiting_for_spare.append(pending)
                self._engine.schedule_in(
                    self._lead_time, _Event(self._spare_arrived, pending)
                )
                return
        # Whenever a technician is idle the queue is empty, so the
        # repair starts at once or waits its turn.
        if self._busy_technicians < self._num_technicians:
            self._start(*pending)
        else:
            self._queue.append(pending)

    def prestage_spare(self, category: str, count: int = 1) -> None:
        """Proactively add spares (prediction-driven provisioning)."""
        self._spares.restock(category, count)

    # -- internals -----------------------------------------------------------

    def _spare_arrived(self, pending: tuple[int, str, float]) -> None:
        if self._waiting_for_spare.popleft() is not pending:
            raise SimulationError("spare parts arrived out of order")
        if self._busy_technicians < self._num_technicians:
            self._start(*pending)
        else:
            self._queue.append(pending)

    def _start(
        self, node_id: int, category: str, duration_hours: float
    ) -> None:
        self._busy_technicians += 1
        now = self._engine.now
        self._cluster.start_repair(node_id, now)
        for callback in self._on_repair_start:
            callback(node_id, category, now)
        self._engine.schedule_in(
            duration_hours, _Event(self._complete, node_id, category)
        )

    def _complete(self, node_id: int, category: str) -> None:
        now = self._engine.now
        self._cluster.complete_repair(node_id, now)
        self._busy_technicians -= 1
        self._completed += 1
        if self._queue:
            self._start(*self._queue.popleft())
        for callback in self._on_node_repaired:
            callback(node_id)
        for callback in self._on_repair:
            callback(node_id, category, now)
