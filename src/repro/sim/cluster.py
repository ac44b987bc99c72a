"""Cluster state: node and GPU health over simulated time.

Each node is a small state machine (HEALTHY -> FAILED -> REPAIRING ->
HEALTHY) with per-GPU-slot health for GPU-incident failures.  The
cluster records every downtime interval so availability and effective
repair times can be computed after a run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.errors import SimulationError
from repro.machines.specs import MachineSpec

__all__ = ["NodeState", "DowntimeInterval", "Node", "Cluster"]


class NodeState(enum.Enum):
    """Health states of a compute node."""

    HEALTHY = "healthy"
    FAILED = "failed"
    REPAIRING = "repairing"


# Module-level aliases: an enum member lookup costs ~0.1 µs, paid on
# every state check of the per-failure transitions.
_HEALTHY = NodeState.HEALTHY
_FAILED = NodeState.FAILED
_REPAIRING = NodeState.REPAIRING


class DowntimeInterval(NamedTuple):
    """One completed outage of a node.

    A ``typing.NamedTuple``: immutable, compared and hashed as a plain
    tuple of its fields, and built once per completed repair.

    ``waiting_hours`` is time between failure and repair start (queue
    for a technician / spare part); ``repair_hours`` is hands-on time.
    """

    node_id: int
    category: str
    failed_at: float
    repair_started_at: float
    repaired_at: float

    @property
    def waiting_hours(self) -> float:
        return self.repair_started_at - self.failed_at

    @property
    def repair_hours(self) -> float:
        return self.repaired_at - self.repair_started_at

    @property
    def total_hours(self) -> float:
        """Effective time to recovery as a job scheduler sees it."""
        return self.repaired_at - self.failed_at


#: ``DowntimeInterval._make`` without its Python frame.
_interval = partial(tuple.__new__, DowntimeInterval)


@dataclass
class Node:
    """Health of one node, as :meth:`Cluster.node` reports it."""

    node_id: int
    num_gpus: int
    state: NodeState = NodeState.HEALTHY
    failed_gpus: set[int] = field(default_factory=set)
    current_category: str | None = None
    failed_at: float | None = None
    repair_started_at: float | None = None

    @property
    def is_available(self) -> bool:
        return self.state is NodeState.HEALTHY


class Cluster:
    """The fleet of nodes plus the outage history.

    Node state lives in columns indexed by node id (state, outage
    category, failure and repair-start times), plus the failed GPU
    slots of only the nodes that have some, so a replication builds no
    per-node object.
    """

    def __init__(self, spec: MachineSpec) -> None:
        self._spec = spec
        num_nodes = spec.num_nodes
        self._num_nodes = num_nodes
        self._num_gpus = spec.gpus_per_node
        self._state: list[NodeState] = [_HEALTHY] * num_nodes
        self._category: list[str | None] = [None] * num_nodes
        self._failed_at: list[float | None] = [None] * num_nodes
        self._repair_started_at: list[float | None] = [None] * num_nodes
        self._failed_gpus: dict[int, set[int]] = {}
        # Outages as plain field tuples of DowntimeInterval: the cyclic
        # collector untracks plain tuples of atoms, never NamedTuples.
        self._history: list[tuple[int, str, float, float, float]] = []
        # Swap-remove index of healthy node ids: O(1) membership
        # updates on fail/repair and O(1) uniform sampling, so the
        # fault injector never scans the fleet per event.  The list
        # order is arbitrary but evolves deterministically with the
        # event history.
        self._available: list[int] = list(range(num_nodes))
        self._available_slot: list[int] = list(range(num_nodes))
        # The same health set as a mask in node-id order, so picking
        # the lowest-numbered healthy nodes is one scan in C.
        self._up = np.ones(num_nodes, dtype=bool)

    @property
    def spec(self) -> MachineSpec:
        return self._spec

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def history(self) -> tuple[DowntimeInterval, ...]:
        """Completed outages, in completion order."""
        return tuple(map(_interval, self._history))

    @property
    def repairs_completed(self) -> int:
        """Count of completed outages (the length of :attr:`history`)."""
        return len(self._history)

    def _bad_node(self, node_id: int) -> SimulationError:
        return SimulationError(
            f"node id {node_id} out of range [0, {self._num_nodes})"
        )

    def node(self, node_id: int) -> Node:
        """Return a snapshot of one node's state.

        The :class:`Node` is built on each call from the cluster's
        columns: it does not follow later transitions, and changing it
        does not change the cluster.

        Raises:
            SimulationError: On an out-of-range id.
        """
        if not 0 <= node_id < self._num_nodes:
            raise self._bad_node(node_id)
        return Node(
            node_id=node_id,
            num_gpus=self._num_gpus,
            state=self._state[node_id],
            failed_gpus=set(self._failed_gpus.get(node_id, ())),
            current_category=self._category[node_id],
            failed_at=self._failed_at[node_id],
            repair_started_at=self._repair_started_at[node_id],
        )

    def available_nodes(self, limit: int | None = None) -> list[int]:
        """Ids of nodes currently healthy, in ascending order.

        Args:
            limit: Return only the ``limit`` lowest-numbered ids.
        """
        return np.flatnonzero(self._up)[:limit].tolist()

    def is_available(self, node_id: int) -> bool:
        """True if the node is healthy (an in-range id is assumed)."""
        return self._available_slot[node_id] >= 0

    def num_available(self) -> int:
        """Count of healthy nodes."""
        return len(self._available)

    def available_at(self, index: int) -> int:
        """Return one healthy node id by positional index in O(1).

        The ordering is an implementation detail (swap-remove order,
        not ascending); it is deterministic for a given event history,
        which is all uniform sampling (:meth:`random_node`) needs.

        Raises:
            SimulationError: If the index is out of range (including
                when no node is healthy).
        """
        if not 0 <= index < len(self._available):
            raise SimulationError(
                f"available index {index} out of range "
                f"[0, {len(self._available)})"
            )
        return self._available[index]

    def random_node(self, uniform: float) -> int:
        """The node a draw ``uniform`` in [0, 1) picks, in O(1).

        Uniform over the healthy nodes in :meth:`available_at` order,
        or over the whole fleet when no node is healthy (the failure
        is then absorbed by an ongoing outage).
        """
        available = self._available
        if available:
            return available[int(uniform * len(available))]
        return int(uniform * self._num_nodes)

    # -- state transitions -------------------------------------------------

    def fail(
        self,
        node_id: int,
        category: str,
        time: float,
        gpus_involved: tuple[int, ...] = (),
    ) -> bool:
        """Mark a node failed at ``time``.

        A failure on an already-failed node is absorbed into the
        ongoing outage (field logs show repeated hits during repair);
        it does not reset the failure clock.

        Returns:
            True if the node went from healthy to failed (a new outage
            that needs a repair), False if the failure was absorbed.

        Raises:
            SimulationError: On an out-of-range id or invalid GPU
                slots; the node is left unchanged.
        """
        if not 0 <= node_id < self._num_nodes:
            raise self._bad_node(node_id)
        if gpus_involved:
            num_gpus = self._num_gpus
            for slot in gpus_involved:
                if not 0 <= slot < num_gpus:
                    raise SimulationError(
                        f"GPU slot {slot} out of range on node {node_id}"
                    )
            failed_gpus = self._failed_gpus.get(node_id)
            if failed_gpus is None:
                self._failed_gpus[node_id] = set(gpus_involved)
            else:
                failed_gpus.update(gpus_involved)
        if self._state[node_id] is not _HEALTHY:
            return False
        self._state[node_id] = _FAILED
        self._category[node_id] = category
        self._failed_at[node_id] = time
        # Swap-remove the node from the healthy index.
        available = self._available
        available_slot = self._available_slot
        slot = available_slot[node_id]
        last = available.pop()
        if last != node_id:
            available[slot] = last
            available_slot[last] = slot
        available_slot[node_id] = -1
        self._up[node_id] = False
        return True

    def start_repair(self, node_id: int, time: float) -> None:
        """Mark a technician as having started on a failed node.

        Raises:
            SimulationError: On an out-of-range id, or if the node is
                not in the FAILED state.
        """
        if not 0 <= node_id < self._num_nodes:
            raise self._bad_node(node_id)
        state = self._state[node_id]
        if state is not _FAILED:
            raise SimulationError(
                f"cannot start repair on node {node_id} in state "
                f"{state.value}"
            )
        self._state[node_id] = _REPAIRING
        self._repair_started_at[node_id] = time

    def complete_repair(self, node_id: int, time: float) -> DowntimeInterval:
        """Return a repaired node to service and log the outage.

        Raises:
            SimulationError: On an out-of-range id, or if the node is
                not being repaired.
        """
        if not 0 <= node_id < self._num_nodes:
            raise self._bad_node(node_id)
        state = self._state[node_id]
        if state is not _REPAIRING:
            raise SimulationError(
                f"cannot complete repair on node {node_id} in state "
                f"{state.value}"
            )
        failed_at = self._failed_at[node_id]
        repair_started_at = self._repair_started_at[node_id]
        if failed_at is None or repair_started_at is None:
            raise SimulationError(
                f"node {node_id} has inconsistent repair bookkeeping"
            )
        fields = (
            node_id,
            self._category[node_id] or "unknown",
            failed_at,
            repair_started_at,
            time,
        )
        self._history.append(fields)
        self._state[node_id] = _HEALTHY
        self._failed_gpus.pop(node_id, None)
        self._category[node_id] = None
        self._failed_at[node_id] = None
        self._repair_started_at[node_id] = None
        self._available_slot[node_id] = len(self._available)
        self._available.append(node_id)
        self._up[node_id] = True
        return _interval(fields)

    # -- aggregate metrics ---------------------------------------------------

    def total_downtime_hours(self) -> float:
        """Sum of completed outage durations."""
        return sum(i[4] - i[2] for i in self._history)

    def availability(self, horizon_hours: float) -> float:
        """Fleet availability over a run of ``horizon_hours``.

        Only completed outages count; a run should finish repairs (or
        accept a small optimistic bias) before reading this.
        """
        if horizon_hours <= 0:
            raise SimulationError(
                f"horizon must be positive, got {horizon_hours}"
            )
        capacity = self.num_nodes * horizon_hours
        return max(0.0, 1.0 - self.total_downtime_hours() / capacity)

    def effective_mttr_hours(self) -> float:
        """Mean effective recovery time (waiting + repair).

        Raises:
            SimulationError: If no outage has completed yet.
        """
        if not self._history:
            raise SimulationError("no completed repairs yet")
        return self.total_downtime_hours() / len(self._history)

    def mean_waiting_hours(self) -> float:
        """Mean time failures spend waiting for repair to begin.

        Raises:
            SimulationError: If no outage has completed yet.
        """
        if not self._history:
            raise SimulationError("no completed repairs yet")
        return sum(i[3] - i[2] for i in self._history) / len(
            self._history
        )
