"""Gang-scheduled synchronous training job on the simulated cluster.

:class:`GangTrainingRun` models one LLM pre-training job that owns N
nodes for the whole run.  Steps are synchronous, so a failure on *any*
member node interrupts the whole gang: the job is torn down, waits out
a detection delay, re-queues for capacity, pays the checkpoint restart
cost, and resumes from its last committed checkpoint.  Work is
committed only at checkpoint boundaries (the existing
:class:`~repro.sim.checkpoint.CheckpointPolicy` economics), which makes
the lost-work bound exact: an interruption can never destroy more than
one checkpoint interval of work plus the in-flight step.

The run publishes the same engine-bus job topics as the batch
scheduler (``job_submit`` / ``job_start`` / ``job_killed`` /
``job_complete``), so trace recording, bit-exact replay, and the
golden corpus work on training runs with no recorder changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.cluster import Cluster
from repro.sim.engine import SimulationEngine
from repro.train.config import TrainingJobConfig

__all__ = ["TrainStats", "GangTrainingRun"]

#: Synthetic job id of the single gang job on the engine bus.
GANG_JOB_ID = 0

#: Float slack for the work/cycle arithmetic (hours).
_TOL = 1e-9


@dataclass(frozen=True)
class TrainStats:
    """Outcome of one gang-scheduled training run.

    All work quantities are in *job wall-clock hours* (multiply by the
    gang size for node-hours).  ``lost_work_by_category`` attributes
    every lost-work hour to the failure category of the interrupting
    failure — the attribution table behind the ETTF analytics.
    """

    job_nodes: int
    step_time_hours: float
    interrupts: int
    restarts: int
    steps_committed: int
    work_committed_hours: float
    lost_work_hours: float
    lost_work_by_category: dict[str, float]
    stall_hours: float
    restart_overhead_hours: float
    checkpoint_overhead_hours: float
    blast_radius_node_hours: float
    elapsed_hours: float
    completed: bool
    completed_at_hours: float | None = None

    @property
    def ettr(self) -> float:
        """Effective-training-time ratio: committed work / wall clock.

        The ETTR/goodput framing of Meta's fleet study — 1.0 means
        every wall-clock hour became committed training progress.
        """
        if self.elapsed_hours <= 0:
            return 0.0
        return self.work_committed_hours / self.elapsed_hours

    @property
    def interrupts_per_day(self) -> float:
        """Interruptions per 24 simulated hours."""
        if self.elapsed_hours <= 0:
            return 0.0
        return self.interrupts * 24.0 / self.elapsed_hours

    @property
    def mean_time_between_interrupts_hours(self) -> float:
        """Observed job MTBF (elapsed / interrupts; inf when clean)."""
        if self.interrupts == 0:
            return math.inf
        return self.elapsed_hours / self.interrupts

    @property
    def goodput_fraction(self) -> float:
        """Alias for :attr:`ettr` (the scheduler-stat name)."""
        return self.ettr


class GangTrainingRun:
    """One synchronous training job bound to a simulated cluster.

    Args:
        engine: The simulation engine (shared with injector/repair).
        cluster: The simulated cluster to claim nodes from.
        config: Gang shape and step/detection timing.
        policy: Checkpoint economics; required — a synchronous gang
            without checkpointing restarts from zero on every failure,
            which is never how these jobs run in production.

    Raises:
        SimulationError: When the gang is larger than the cluster.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        cluster: Cluster,
        config: TrainingJobConfig,
        policy: CheckpointPolicy,
    ) -> None:
        if config.num_nodes > cluster.num_nodes:
            raise SimulationError(
                f"gang of {config.num_nodes} nodes exceeds the cluster's "
                f"{cluster.num_nodes}"
            )
        self._engine = engine
        self._cluster = cluster
        self._config = config
        self._policy = policy
        # One "cycle" = the steps filling one checkpoint interval plus
        # the checkpoint itself.  Work commits at cycle boundaries.
        self._steps_per_cycle = max(
            1, math.ceil(policy.interval_hours / config.step_time_hours
                         - _TOL)
        )
        self._cycle_work = self._steps_per_cycle * config.step_time_hours
        self._cycle_wall = self._cycle_work + policy.cost_hours

        self._members: frozenset[int] = frozenset()
        self._epoch = 0
        self._started_ever = False
        self._done = False
        self._completed_at: float | None = None
        self._segment_start = 0.0
        self._pending_since: float | None = None
        self._eligible_at = 0.0

        self._interrupts = 0
        self._restarts = 0
        self._steps_committed = 0
        self._work_committed = 0.0
        self._lost_work = 0.0
        self._lost_by_category: dict[str, float] = {}
        self._stall_hours = 0.0
        self._restart_overhead = 0.0
        self._checkpoint_overhead = 0.0
        self._blast_radius_node_hours = 0.0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Submit the gang job and try to claim its nodes."""
        duration = self._config.total_work_hours
        if self._engine.has_subscribers("job_submit"):
            self._engine.publish(
                "job_submit",
                job_id=GANG_JOB_ID,
                num_nodes=self._config.num_nodes,
                duration_hours=duration if duration is not None else 0.0,
                time_hours=self._engine.now,
            )
        self._pending_since = self._engine.now
        self._eligible_at = self._engine.now
        self._try_start()

    @property
    def running(self) -> bool:
        """True while the gang holds its nodes."""
        return bool(self._members)

    @property
    def members(self) -> frozenset[int]:
        """Node ids the gang currently occupies."""
        return self._members

    # -- failure / repair hooks --------------------------------------------

    def handle_node_failure(self, node_id: int, category: str) -> None:
        """React to a node failure: interrupt the gang if it's a member."""
        if self._done or node_id not in self._members:
            return
        now = self._engine.now
        self._epoch += 1  # invalidate any scheduled completion
        self._interrupts += 1
        self._members = frozenset()
        elapsed = now - self._segment_start
        lost = 0.0
        if elapsed > _TOL:
            # Commit the checkpoint cycles this segment finished, then
            # charge whatever ran since the last checkpoint as lost.
            cycles = int((elapsed + _TOL) // self._cycle_wall)
            self._commit_cycles(cycles)
            residual = elapsed - cycles * self._cycle_wall
            lost = min(max(0.0, residual), self._cycle_work)
        if self._capped_remaining() <= _TOL:
            # The failure landed after the final useful checkpoint;
            # everything is already committed — finish, don't restart.
            lost = 0.0
            if self._engine.has_subscribers("job_killed"):
                self._engine.publish(
                    "job_killed",
                    job_id=GANG_JOB_ID,
                    node_id=node_id,
                    time_hours=now,
                )
            self._finish(now)
            return
        self._lost_work += lost
        if lost > 0.0:
            self._lost_by_category[category] = (
                self._lost_by_category.get(category, 0.0) + lost
            )
        if self._engine.has_subscribers("job_killed"):
            self._engine.publish(
                "job_killed",
                job_id=GANG_JOB_ID,
                node_id=node_id,
                time_hours=now,
            )
        self._pending_since = now
        self._eligible_at = now + self._config.detection_delay_hours
        delay = self._config.detection_delay_hours
        if delay > 0:
            self._engine.schedule_in(delay, self._try_start)
        else:
            self._try_start()

    def handle_node_repair(self, node_id: int) -> None:
        """React to capacity returning: retry the restart queue."""
        del node_id  # capacity change only; _try_start re-reads state
        self._try_start()

    # -- internals ---------------------------------------------------------

    def _capped_remaining(self) -> float:
        if self._config.total_work_hours is None:
            return math.inf
        return self._config.total_work_hours - self._work_committed

    def _commit_cycles(self, cycles: int) -> None:
        if cycles <= 0:
            return
        work = cycles * self._cycle_work
        remaining = self._capped_remaining()
        if math.isfinite(remaining):
            work = min(work, remaining)
        self._work_committed += work
        self._steps_committed += math.ceil(
            work / self._config.step_time_hours - _TOL
        )
        self._checkpoint_overhead += cycles * self._policy.cost_hours

    def _try_start(self) -> None:
        if self._done or self._members:
            return
        now = self._engine.now
        if now + _TOL < self._eligible_at:
            return  # teardown/detection still in progress
        if self._cluster.num_available() < self._config.num_nodes:
            return  # stay queued; the next repair retries
        nodes = tuple(
            self._cluster.available_nodes(limit=self._config.num_nodes)
        )
        self._members = frozenset(nodes)
        if self._pending_since is not None:
            stall = now - self._pending_since
            self._stall_hours += stall
            self._pending_since = None
        else:  # pragma: no cover - _try_start only runs while pending
            stall = 0.0
        restart_cost = (
            self._policy.restart_cost_hours if self._started_ever else 0.0
        )
        if self._started_ever:
            self._restarts += 1
            self._restart_overhead += restart_cost
        # Blast radius: every interruption idles the *whole* gang for
        # the stall plus the restore, not just the failed node.
        self._blast_radius_node_hours += (
            self._config.num_nodes * (stall + restart_cost)
        )
        self._started_ever = True
        self._segment_start = now + restart_cost
        if self._engine.has_subscribers("job_start"):
            self._engine.publish(
                "job_start",
                job_id=GANG_JOB_ID,
                nodes=list(nodes),
                time_hours=now,
            )
        remaining = self._capped_remaining()
        if math.isfinite(remaining):
            epoch = self._epoch
            self._engine.schedule_at(
                self._segment_start + self._wall_for(remaining),
                lambda e=epoch: self._complete(e),
            )

    def _wall_for(self, work: float) -> float:
        """Wall-clock time to run ``work`` hours from a fresh restore."""
        full = int((work + _TOL) // self._cycle_work)
        tail = work - full * self._cycle_work
        if tail <= _TOL:
            # The last cycle needs no trailing checkpoint: completion
            # itself commits it.
            return max(0.0, full * self._cycle_wall - self._policy.cost_hours)
        tail_steps = math.ceil(tail / self._config.step_time_hours - _TOL)
        return (full * self._cycle_wall
                + tail_steps * self._config.step_time_hours)

    def _complete(self, epoch: int) -> None:
        if self._done or epoch != self._epoch or not self._members:
            return  # stale completion: the gang was interrupted
        work = self._capped_remaining()
        full = int((work + _TOL) // self._cycle_work)
        tail = work - full * self._cycle_work
        if tail <= _TOL:
            checkpoints = max(0, full - 1)
            steps = full * self._steps_per_cycle
        else:
            checkpoints = full
            steps = (full * self._steps_per_cycle
                     + math.ceil(tail / self._config.step_time_hours - _TOL))
        self._work_committed += work
        self._steps_committed += steps
        self._checkpoint_overhead += checkpoints * self._policy.cost_hours
        self._finish(self._engine.now)

    def _finish(self, now: float) -> None:
        self._members = frozenset()
        self._done = True
        self._completed_at = now
        if self._engine.has_subscribers("job_complete"):
            self._engine.publish(
                "job_complete",
                job_id=GANG_JOB_ID,
                time_hours=now,
            )

    # -- reporting ---------------------------------------------------------

    def finalize(self, horizon_hours: float) -> TrainStats:
        """Fold the end-of-horizon state and build the stats report.

        A still-running segment commits its finished checkpoint cycles
        (in-flight work past the last checkpoint is neither committed
        nor lost — the job would resume it after the horizon); a
        still-queued gang accrues stall and blast radius up to the
        horizon.
        """
        if not self._done:
            if self._members:
                elapsed = horizon_hours - self._segment_start
                if elapsed > _TOL:
                    cycles = int((elapsed + _TOL) // self._cycle_wall)
                    self._commit_cycles(cycles)
            elif self._pending_since is not None:
                stall = max(0.0, horizon_hours - self._pending_since)
                self._stall_hours += stall
                self._blast_radius_node_hours += (
                    self._config.num_nodes * stall
                )
                self._pending_since = None
        # float() keeps the canonical-JSON encoding of the stat
        # independent of whether the caller passed an int horizon.
        elapsed_total = float(
            self._completed_at if self._completed_at is not None
            else horizon_hours
        )
        return TrainStats(
            job_nodes=self._config.num_nodes,
            step_time_hours=self._config.step_time_hours,
            interrupts=self._interrupts,
            restarts=self._restarts,
            steps_committed=self._steps_committed,
            work_committed_hours=self._work_committed,
            lost_work_hours=self._lost_work,
            lost_work_by_category=dict(sorted(
                self._lost_by_category.items()
            )),
            stall_hours=self._stall_hours,
            restart_overhead_hours=self._restart_overhead,
            checkpoint_overhead_hours=self._checkpoint_overhead,
            blast_radius_node_hours=self._blast_radius_node_hours,
            elapsed_hours=elapsed_total,
            completed=self._done,
            completed_at_hours=self._completed_at,
        )
