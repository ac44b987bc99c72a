"""Cluster state: node and GPU health over simulated time.

Each node is a small state machine (HEALTHY -> FAILED -> REPAIRING ->
HEALTHY) with per-GPU-slot health for GPU-incident failures.  The
cluster records every downtime interval so availability and effective
repair times can be computed after a run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.machines.specs import MachineSpec

__all__ = ["NodeState", "DowntimeInterval", "Node", "Cluster"]


class NodeState(enum.Enum):
    """Health states of a compute node."""

    HEALTHY = "healthy"
    FAILED = "failed"
    REPAIRING = "repairing"


@dataclass(frozen=True)
class DowntimeInterval:
    """One completed outage of a node.

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


@dataclass
class Node:
    """Mutable health of one node."""

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
    """The fleet of nodes plus the outage history."""

    def __init__(self, spec: MachineSpec) -> None:
        self._spec = spec
        self._nodes = [
            Node(node_id=index, num_gpus=spec.gpus_per_node)
            for index in range(spec.num_nodes)
        ]
        self._history: list[DowntimeInterval] = []
        # Swap-remove index of healthy node ids: O(1) membership
        # updates on fail/repair and O(1) uniform sampling, so the
        # fault injector never scans the fleet per event.  The list
        # order is arbitrary but evolves deterministically with the
        # event history.
        self._available: list[int] = list(range(spec.num_nodes))
        self._available_slot: list[int] = list(range(spec.num_nodes))
        # The same health set as a mask in node-id order, so picking
        # the lowest-numbered healthy nodes is one scan in C.
        self._up = np.ones(spec.num_nodes, dtype=bool)

    @property
    def spec(self) -> MachineSpec:
        return self._spec

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def history(self) -> tuple[DowntimeInterval, ...]:
        """Completed outages, in completion order."""
        return tuple(self._history)

    def node(self, node_id: int) -> Node:
        """Return one node's state.

        Raises:
            SimulationError: On an out-of-range id.
        """
        if not 0 <= node_id < len(self._nodes):
            raise SimulationError(
                f"node id {node_id} out of range [0, {len(self._nodes)})"
            )
        return self._nodes[node_id]

    def available_nodes(
        self, limit: int | None = None, busy: np.ndarray | None = None
    ) -> list[int]:
        """Ids of nodes currently healthy, in ascending order.

        Args:
            limit: Return only the ``limit`` lowest-numbered ids.
            busy: Bool mask indexed by node id; nodes set in it are
                left out (a scheduler's already-assigned nodes).
        """
        free = self._up if busy is None else self._up & ~busy
        return np.flatnonzero(free)[:limit].tolist()

    def num_available(self) -> int:
        """Count of healthy nodes."""
        return len(self._available)

    def available_at(self, index: int) -> int:
        """Return one healthy node id by positional index in O(1).

        The ordering is an implementation detail (swap-remove order,
        not ascending); it is deterministic for a given event history,
        which is all uniform sampling needs — pair with
        :meth:`num_available` to draw a random healthy node without
        materialising the fleet-sized list of
        :meth:`available_nodes`.

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

    def _mark_unavailable(self, node_id: int) -> None:
        slot = self._available_slot[node_id]
        last = self._available[-1]
        self._available[slot] = last
        self._available_slot[last] = slot
        self._available.pop()
        self._available_slot[node_id] = -1
        self._up[node_id] = False

    def _mark_available(self, node_id: int) -> None:
        self._available_slot[node_id] = len(self._available)
        self._available.append(node_id)
        self._up[node_id] = True

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
            SimulationError: On invalid GPU slots; the node is left
                unchanged.
        """
        node = self.node(node_id)
        for slot in gpus_involved:
            if not 0 <= slot < node.num_gpus:
                raise SimulationError(
                    f"GPU slot {slot} out of range on node {node_id}"
                )
        node.failed_gpus.update(gpus_involved)
        if node.state is not NodeState.HEALTHY:
            return False
        node.state = NodeState.FAILED
        node.current_category = category
        node.failed_at = time
        node.repair_started_at = None
        self._mark_unavailable(node_id)
        return True

    def start_repair(self, node_id: int, time: float) -> None:
        """Mark a technician as having started on a failed node.

        Raises:
            SimulationError: If the node is not in the FAILED state.
        """
        node = self.node(node_id)
        if node.state is not NodeState.FAILED:
            raise SimulationError(
                f"cannot start repair on node {node_id} in state "
                f"{node.state.value}"
            )
        node.state = NodeState.REPAIRING
        node.repair_started_at = time

    def complete_repair(self, node_id: int, time: float) -> DowntimeInterval:
        """Return a repaired node to service and log the outage.

        Raises:
            SimulationError: If the node is not being repaired.
        """
        node = self.node(node_id)
        if node.state is not NodeState.REPAIRING:
            raise SimulationError(
                f"cannot complete repair on node {node_id} in state "
                f"{node.state.value}"
            )
        if node.failed_at is None or node.repair_started_at is None:
            raise SimulationError(
                f"node {node_id} has inconsistent repair bookkeeping"
            )
        interval = DowntimeInterval(
            node_id=node_id,
            category=node.current_category or "unknown",
            failed_at=node.failed_at,
            repair_started_at=node.repair_started_at,
            repaired_at=time,
        )
        self._history.append(interval)
        node.state = NodeState.HEALTHY
        node.failed_gpus.clear()
        node.current_category = None
        node.failed_at = None
        node.repair_started_at = None
        self._mark_available(node_id)
        return interval

    # -- aggregate metrics ---------------------------------------------------

    def total_downtime_hours(self) -> float:
        """Sum of completed outage durations."""
        return sum(i.total_hours for i in self._history)

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
        return sum(i.total_hours for i in self._history) / len(self._history)

    def mean_waiting_hours(self) -> float:
        """Mean time failures spend waiting for repair to begin.

        Raises:
            SimulationError: If no outage has completed yet.
        """
        if not self._history:
            raise SimulationError("no completed repairs yet")
        return sum(i.waiting_hours for i in self._history) / len(
            self._history
        )
