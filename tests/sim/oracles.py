"""Reference implementations the optimised sim code is checked against.

These are test oracles, not shipped code: each keeps an older, slower
formulation whose outputs the package must still reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster
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
