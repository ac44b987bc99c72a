"""Batch scheduler substrate: FCFS with simple backfill.

Jobs queue FCFS; when the head job does not fit the free nodes, smaller
jobs further back may backfill.  Node failures kill the jobs running on
them; with a checkpoint policy a killed job only loses the work since
its last committed checkpoint, otherwise it restarts from scratch.
This is the substrate the mitigation benchmarks run on: it turns MTBF
and MTTR into queue waits and lost node-hours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster
from repro.sim.engine import SimulationEngine
from repro.sim.jobs import Job, JobState

__all__ = ["SchedulerStats", "Scheduler"]


@dataclass
class SchedulerStats:
    """Counters the scheduler accumulates over a run."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_killed_by_failures: int = 0
    useful_node_hours: float = 0.0
    lost_node_hours: float = 0.0
    total_wait_hours: float = 0.0

    @property
    def mean_wait_hours(self) -> float:
        """Mean queue wait over completed jobs (0 when none)."""
        if self.jobs_completed == 0:
            return 0.0
        return self.total_wait_hours / self.jobs_completed

    @property
    def goodput_fraction(self) -> float:
        """useful / (useful + lost) node-hours (1.0 when idle)."""
        total = self.useful_node_hours + self.lost_node_hours
        if total <= 0:
            return 1.0
        return self.useful_node_hours / total


@dataclass
class _RunningJob:
    job: Job
    nodes: tuple[int, ...]
    started_at: float
    epoch: int


class Scheduler:
    """FCFS + backfill scheduler bound to a simulated cluster."""

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: Cluster,
        checkpoint_policy: CheckpointPolicy | None = None,
        backfill_depth: int = 16,
    ) -> None:
        if backfill_depth < 0:
            raise SimulationError(
                f"backfill_depth must be >= 0, got {backfill_depth}"
            )
        self._engine = engine
        self._cluster = cluster
        self._policy = checkpoint_policy
        self._backfill_depth = backfill_depth
        self._pending: list[Job] = []
        self._running: dict[int, _RunningJob] = {}
        self._node_to_job: dict[int, int] = {}
        # The keys of _node_to_job as a mask over node ids, which the
        # cluster's free-node pick takes.
        self._busy = np.zeros(cluster.num_nodes, dtype=bool)
        self._epochs: dict[int, int] = {}
        self._in_maintenance = False
        self._maintenance_windows = 0
        self.stats = SchedulerStats()

    # -- maintenance windows ---------------------------------------------

    @property
    def in_maintenance(self) -> bool:
        """True while a maintenance window is open (no new starts)."""
        return self._in_maintenance

    @property
    def maintenance_windows_held(self) -> int:
        """Maintenance windows completed so far."""
        return self._maintenance_windows

    def schedule_maintenance(
        self, period_hours: float, duration_hours: float
    ) -> None:
        """Hold a recurring maintenance window.

        During a window no new jobs start (running jobs drain
        naturally) — the opportunity the operations staff needs for
        the proactive actions the paper recommends (health tests, GPU
        rearrangement, spare staging).  The first window opens one
        period from now.

        Raises:
            SimulationError: On non-positive parameters or a duration
                that swallows the whole period.
        """
        if period_hours <= 0 or duration_hours <= 0:
            raise SimulationError(
                f"maintenance period and duration must be positive, got "
                f"{period_hours} / {duration_hours}"
            )
        if duration_hours >= period_hours:
            raise SimulationError(
                "maintenance duration must be shorter than the period"
            )

        def open_window() -> None:
            self._in_maintenance = True
            self._engine.schedule_in(duration_hours, close_window)

        def close_window() -> None:
            self._in_maintenance = False
            self._maintenance_windows += 1
            self._try_schedule()
            self._engine.schedule_in(
                period_hours - duration_hours, open_window
            )

        self._engine.schedule_in(period_hours, open_window)

    # -- job intake ----------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Accept a job into the queue (at the current sim time)."""
        job.state = JobState.PENDING
        self._pending.append(job)
        self.stats.jobs_submitted += 1
        if self._engine.has_subscribers("job_submit"):
            self._engine.publish(
                "job_submit",
                job_id=job.job_id,
                num_nodes=job.num_nodes,
                duration_hours=job.duration_hours,
                time_hours=self._engine.now,
            )
        self._try_schedule()

    def submit_all(self, jobs: list[Job]) -> None:
        """Schedule submission events for a pre-generated workload."""
        for job in jobs:
            self._engine.schedule_at(
                job.submit_time, lambda j=job: self.submit(j)
            )

    @property
    def queue_length(self) -> int:
        """Jobs waiting to start."""
        return len(self._pending)

    @property
    def running_count(self) -> int:
        """Jobs currently running."""
        return len(self._running)

    # -- failure / repair hooks -----------------------------------------------

    def handle_node_failure(self, node_id: int) -> None:
        """React to a node failing: kill and requeue its job."""
        job_id = self._node_to_job.get(node_id)
        if job_id is None:
            return
        entry = self._running.pop(job_id)
        self._release(entry.nodes)
        job = entry.job
        if self._engine.has_subscribers("job_killed"):
            self._engine.publish(
                "job_killed",
                job_id=job.job_id,
                node_id=node_id,
                time_hours=self._engine.now,
            )
        elapsed = self._engine.now - entry.started_at
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
            # The failure hit during the final checkpointed stretch;
            # everything was already committed.
            self._finish(job)
            self._try_schedule()
            return
        job.state = JobState.PENDING
        self._pending.insert(0, job)
        self._try_schedule()

    def handle_node_repair(self, node_id: int) -> None:
        """React to a node returning to service."""
        del node_id  # capacity change only; scheduling re-reads state
        self._try_schedule()

    # -- internals -----------------------------------------------------------

    def _committed_work(self, elapsed: float) -> float:
        if self._policy is None:
            return 0.0
        intervals = int(elapsed // self._policy.interval_hours)
        return intervals * self._policy.committed_per_interval_hours

    def _release(self, nodes: tuple[int, ...]) -> None:
        for node in nodes:
            self._node_to_job.pop(node, None)
        self._busy[list(nodes)] = False

    def _wall_time_for(self, work_hours: float) -> float:
        if self._policy is None:
            return work_hours
        stretch = self._policy.interval_hours / (
            self._policy.committed_per_interval_hours
        )
        return work_hours * stretch

    def _try_schedule(self) -> None:
        if self._in_maintenance or not self._pending:
            return
        free = self._cluster.available_nodes(busy=self._busy)
        scheduled_any = True
        while scheduled_any and self._pending:
            scheduled_any = False
            # FCFS head first, then shallow backfill.
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
        self._running[job.job_id] = _RunningJob(
            job=job, nodes=nodes, started_at=now, epoch=epoch
        )
        for node in nodes:
            self._node_to_job[node] = job.job_id
        self._busy[list(nodes)] = True
        if self._engine.has_subscribers("job_start"):
            self._engine.publish(
                "job_start",
                job_id=job.job_id,
                nodes=list(nodes),
                time_hours=now,
            )
        wall = self._wall_time_for(job.remaining_hours)
        self._engine.schedule_in(
            wall, lambda j=job, e=epoch: self._complete(j, e)
        )

    def _complete(self, job: Job, epoch: int) -> None:
        entry = self._running.get(job.job_id)
        if entry is None or entry.epoch != epoch:
            return  # stale completion: the job failed and restarted
        self._running.pop(job.job_id)
        self._release(entry.nodes)
        self.stats.useful_node_hours += (
            job.remaining_hours * job.num_nodes
        )
        job.work_done_hours = job.duration_hours
        self._finish(job)
        self._try_schedule()

    def _finish(self, job: Job) -> None:
        job.state = JobState.COMPLETED
        job.end_time = self._engine.now
        self.stats.jobs_completed += 1
        if job.start_time is not None:
            self.stats.total_wait_hours += job.waited_hours
        if self._engine.has_subscribers("job_complete"):
            self._engine.publish(
                "job_complete",
                job_id=job.job_id,
                time_hours=self._engine.now,
            )
