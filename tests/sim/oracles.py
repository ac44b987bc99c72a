"""Reference implementations the optimised sim code is checked against.

These are test oracles, not shipped code: each keeps an older, slower
formulation whose outputs the package must still reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.machines.specs import MachineSpec
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster, DowntimeInterval, Node, NodeState
from repro.sim.engine import SimulationEngine
from repro.sim.jobs import Job, JobState, WorkloadConfig
from repro.sim.scheduler import SchedulerStats


def jobs_until_choice(
    rng: np.random.Generator,
    config: WorkloadConfig,
    horizon_hours: float,
    first_id: int = 0,
) -> list[Job]:
    """:meth:`repro.sim.jobs.WorkloadGenerator.jobs_until` drawing each
    size with ``rng.choice(p=)`` and bounding each duration with a
    scalar ``np.clip``.  Arguments are assumed valid."""
    weights = np.asarray(config.size_weights, dtype=float)
    probabilities = weights / weights.sum()
    mu = float(
        np.log(config.mean_duration_hours) - 0.5 * config.duration_sigma**2
    )
    jobs: list[Job] = []
    clock = 0.0
    next_id = first_id
    while True:
        clock += float(rng.exponential(config.mean_interarrival_hours))
        if clock >= horizon_hours:
            break
        duration = float(
            np.clip(
                rng.lognormal(mu, config.duration_sigma),
                0.1,
                config.max_duration_hours,
            )
        )
        size = int(rng.choice(config.size_choices, p=probabilities))
        jobs.append(
            Job(
                job_id=next_id,
                num_nodes=size,
                duration_hours=duration,
                submit_time=clock,
            )
        )
        next_id += 1
    return jobs


def mask_free_nodes(cluster: Cluster, busy: np.ndarray) -> list[int]:
    """Healthy ids not set in the bool mask ``busy``, ascending: the
    pick ``Cluster.available_nodes(busy=)`` used to make in C."""
    up = np.zeros(cluster.num_nodes, dtype=bool)
    up[cluster.available_nodes()] = True
    return np.flatnonzero(up & ~busy).tolist()


class FullFreeListScheduler:
    """:class:`repro.sim.scheduler.Scheduler` as it was with a busy
    mask: each scheduling pass asks the cluster for every healthy node
    and drops the assigned ones, instead of keeping a free list in step
    with the failure and repair hooks.

    Same constructor, hooks, maintenance windows, ``job_start`` events
    and :class:`SchedulerStats`; the other job events are not
    published.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: Cluster,
        checkpoint_policy: CheckpointPolicy | None = None,
        backfill_depth: int = 16,
    ) -> None:
        self._engine = engine
        self._cluster = cluster
        self._policy = checkpoint_policy
        self._backfill_depth = backfill_depth
        self._pending: list[Job] = []
        # job id -> (job, nodes, started_at, epoch)
        self._running: dict[int, tuple[Job, tuple[int, ...], float, int]] = {}
        self._busy = np.zeros(cluster.num_nodes, dtype=bool)
        self._node_to_job: dict[int, int] = {}
        self._epochs: dict[int, int] = {}
        self._in_maintenance = False
        self.stats = SchedulerStats()

    @property
    def queue_length(self) -> int:
        return len(self._pending)

    def schedule_maintenance(
        self, period_hours: float, duration_hours: float
    ) -> None:
        def open_window() -> None:
            self._in_maintenance = True
            self._engine.schedule_in(duration_hours, close_window)

        def close_window() -> None:
            self._in_maintenance = False
            self._try_schedule()
            self._engine.schedule_in(
                period_hours - duration_hours, open_window
            )

        self._engine.schedule_in(period_hours, open_window)

    def submit(self, job: Job) -> None:
        job.state = JobState.PENDING
        self._pending.append(job)
        self.stats.jobs_submitted += 1
        self._try_schedule()

    def handle_node_failure(self, node_id: int) -> None:
        job_id = self._node_to_job.get(node_id)
        if job_id is None:
            return
        job, nodes, started_at, _ = self._running.pop(job_id)
        self._release(nodes)
        elapsed = self._engine.now - started_at
        committed = self._committed_work(elapsed)
        lost = max(0.0, elapsed - committed)
        job.work_done_hours = min(
            job.duration_hours, job.work_done_hours + committed
        )
        job.restarts += 1
        self.stats.jobs_killed_by_failures += 1
        self.stats.useful_node_hours += committed * job.num_nodes
        self.stats.lost_node_hours += lost * job.num_nodes
        if job.remaining_hours <= 0:
            self._finish(job)
        else:
            job.state = JobState.PENDING
            self._pending.insert(0, job)
        self._try_schedule()

    def handle_node_repair(self, node_id: int) -> None:
        self._try_schedule()

    def _committed_work(self, elapsed: float) -> float:
        if self._policy is None:
            return 0.0
        intervals = int(elapsed // self._policy.interval_hours)
        return intervals * self._policy.committed_per_interval_hours

    def _wall_time_for(self, work_hours: float) -> float:
        if self._policy is None:
            return work_hours
        return work_hours * (
            self._policy.interval_hours
            / self._policy.committed_per_interval_hours
        )

    def _release(self, nodes: tuple[int, ...]) -> None:
        for node in nodes:
            self._node_to_job.pop(node, None)
        self._busy[list(nodes)] = False

    def _try_schedule(self) -> None:
        if self._in_maintenance or not self._pending:
            return
        free = mask_free_nodes(self._cluster, self._busy)
        scheduled_any = True
        while scheduled_any and self._pending:
            scheduled_any = False
            for index, job in enumerate(self._pending):
                if index > self._backfill_depth:
                    break
                if job.num_nodes <= len(free):
                    self._pending.pop(index)
                    nodes = tuple(free[: job.num_nodes])
                    free = free[job.num_nodes:]
                    self._start(job, nodes)
                    scheduled_any = True
                    break

    def _start(self, job: Job, nodes: tuple[int, ...]) -> None:
        now = self._engine.now
        job.state = JobState.RUNNING
        if job.start_time is None:
            job.start_time = now
        job.assigned_nodes = nodes
        epoch = self._epochs.get(job.job_id, 0) + 1
        self._epochs[job.job_id] = epoch
        self._running[job.job_id] = (job, nodes, now, epoch)
        for node in nodes:
            self._node_to_job[node] = job.job_id
        self._busy[list(nodes)] = True
        for callback in self._engine.subscribers("job_start"):
            callback(job.job_id, list(nodes), now)
        self._engine.schedule_in(
            self._wall_time_for(job.remaining_hours),
            lambda j=job, e=epoch: self._complete(j, e),
        )

    def _complete(self, job: Job, epoch: int) -> None:
        entry = self._running.get(job.job_id)
        if entry is None or entry[3] != epoch:
            return
        self._running.pop(job.job_id)
        self._release(entry[1])
        self.stats.useful_node_hours += job.remaining_hours * job.num_nodes
        job.work_done_hours = job.duration_hours
        self._finish(job)
        self._try_schedule()

    def _finish(self, job: Job) -> None:
        job.state = JobState.COMPLETED
        job.end_time = self._engine.now
        self.stats.jobs_completed += 1
        if job.start_time is not None:
            self.stats.total_wait_hours += job.waited_hours


class NodeObjectCluster:
    """:class:`repro.sim.cluster.Cluster` as it was with one mutable
    :class:`Node` per node, kept up to date in place, and a NumPy bool
    mask of healthy nodes.

    Same constructor, transitions, checks and their order, healthy-node
    index, history and aggregates; ``node()`` returns the live node
    object rather than a snapshot.
    """

    def __init__(self, spec: MachineSpec) -> None:
        self._spec = spec
        self._nodes = [
            Node(node_id=index, num_gpus=spec.gpus_per_node)
            for index in range(spec.num_nodes)
        ]
        self._history: list[DowntimeInterval] = []
        self._available: list[int] = list(range(spec.num_nodes))
        self._available_slot: list[int] = list(range(spec.num_nodes))
        self._up = np.ones(spec.num_nodes, dtype=bool)

    @property
    def spec(self) -> MachineSpec:
        return self._spec

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def history(self) -> tuple[DowntimeInterval, ...]:
        return tuple(self._history)

    @property
    def repairs_completed(self) -> int:
        return len(self._history)

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self._nodes):
            raise SimulationError(
                f"node id {node_id} out of range [0, {len(self._nodes)})"
            )
        return self._nodes[node_id]

    def available_nodes(self, limit: int | None = None) -> list[int]:
        return np.flatnonzero(self._up)[:limit].tolist()

    def is_available(self, node_id: int) -> bool:
        return self._available_slot[node_id] >= 0

    def num_available(self) -> int:
        return len(self._available)

    def available_at(self, index: int) -> int:
        if not 0 <= index < len(self._available):
            raise SimulationError(
                f"available index {index} out of range "
                f"[0, {len(self._available)})"
            )
        return self._available[index]

    def random_node(self, uniform: float) -> int:
        count = self.num_available()
        if count:
            return self.available_at(int(uniform * count))
        return int(uniform * self.num_nodes)

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

    def fail(
        self,
        node_id: int,
        category: str,
        time: float,
        gpus_involved: tuple[int, ...] = (),
    ) -> bool:
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
        node = self.node(node_id)
        if node.state is not NodeState.FAILED:
            raise SimulationError(
                f"cannot start repair on node {node_id} in state "
                f"{node.state.value}"
            )
        node.state = NodeState.REPAIRING
        node.repair_started_at = time

    def complete_repair(self, node_id: int, time: float) -> DowntimeInterval:
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

    def total_downtime_hours(self) -> float:
        return sum(i.total_hours for i in self._history)

    def availability(self, horizon_hours: float) -> float:
        if horizon_hours <= 0:
            raise SimulationError(
                f"horizon must be positive, got {horizon_hours}"
            )
        capacity = self.num_nodes * horizon_hours
        return max(0.0, 1.0 - self.total_downtime_hours() / capacity)

    def effective_mttr_hours(self) -> float:
        if not self._history:
            raise SimulationError("no completed repairs yet")
        return sum(i.total_hours for i in self._history) / len(self._history)

    def mean_waiting_hours(self) -> float:
        if not self._history:
            raise SimulationError("no completed repairs yet")
        return sum(i.waiting_hours for i in self._history) / len(
            self._history
        )
