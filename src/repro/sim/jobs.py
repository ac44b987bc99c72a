"""Job and workload models for the scheduler substrate.

A job asks for a number of nodes for a duration; the workload generator
produces a Poisson arrival stream with a mix of small/medium/large jobs,
loosely shaped like an HPC centre's queue (many small jobs, a few
node-hungry ones).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError

__all__ = ["JobState", "Job", "WorkloadConfig", "WorkloadGenerator"]


class JobState(enum.Enum):
    """Lifecycle of a simulated job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass
class Job:
    """One batch job.

    ``work_done_hours`` tracks progress committed by checkpoints, so a
    failure loses only the work since the last checkpoint.
    """

    job_id: int
    num_nodes: int
    duration_hours: float
    submit_time: float
    state: JobState = JobState.PENDING
    assigned_nodes: tuple[int, ...] = ()
    start_time: float | None = None
    end_time: float | None = None
    work_done_hours: float = 0.0
    restarts: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValidationError(
                f"job {self.job_id} needs >= 1 node, got {self.num_nodes}"
            )
        if self.duration_hours <= 0:
            raise ValidationError(
                f"job {self.job_id} duration must be positive, got "
                f"{self.duration_hours}"
            )
        if self.submit_time < 0:
            raise ValidationError(
                f"job {self.job_id} submit time must be >= 0"
            )

    @property
    def remaining_hours(self) -> float:
        """Work left after the last committed checkpoint."""
        return max(0.0, self.duration_hours - self.work_done_hours)

    @property
    def node_hours(self) -> float:
        """Total useful node-hours the job represents."""
        return self.num_nodes * self.duration_hours

    @property
    def waited_hours(self) -> float:
        """Queue wait (nan while still pending)."""
        if self.start_time is None:
            return float("nan")
        return self.start_time - self.submit_time


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the synthetic workload.

    Defaults give a moderately loaded machine: exponential inter-
    arrivals, lognormal durations, and a small/medium/large node-count
    mix.
    """

    mean_interarrival_hours: float = 0.5
    mean_duration_hours: float = 8.0
    duration_sigma: float = 1.0
    size_choices: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    size_weights: tuple[float, ...] = (0.35, 0.25, 0.18, 0.12, 0.07, 0.03)
    max_duration_hours: float = 168.0

    def __post_init__(self) -> None:
        if self.mean_interarrival_hours <= 0:
            raise ValidationError("mean_interarrival_hours must be positive")
        if self.mean_duration_hours <= 0:
            raise ValidationError("mean_duration_hours must be positive")
        if self.duration_sigma < 0:
            raise ValidationError("duration_sigma must be >= 0")
        if len(self.size_choices) != len(self.size_weights):
            raise ValidationError(
                "size_choices and size_weights must have equal length"
            )
        if any(size < 1 for size in self.size_choices):
            raise ValidationError("size_choices must be >= 1")
        if any(weight < 0 for weight in self.size_weights):
            raise ValidationError("size_weights must be non-negative")
        if sum(self.size_weights) <= 0:
            raise ValidationError("size_weights must have a positive sum")
        if self.max_duration_hours <= 0:
            raise ValidationError("max_duration_hours must be positive")


class WorkloadGenerator:
    """Generates a job arrival stream."""

    def __init__(self, config: WorkloadConfig, seed: int = 0) -> None:
        self._config = config
        self._rng = np.random.default_rng(seed)
        self._next_id = 0

    def jobs_until(self, horizon_hours: float) -> list[Job]:
        """Generate all jobs submitted before the horizon.

        Raises:
            ValidationError: On a non-positive horizon.
        """
        if horizon_hours <= 0:
            raise ValidationError(
                f"horizon must be positive, got {horizon_hours}"
            )
        config = self._config
        rng = self._rng
        weights = np.asarray(config.size_weights, dtype=float)
        # numpy's own ``choice(p=)`` draw, unrolled: the normalized
        # CDF is built once per call, and each size costs one uniform
        # and one binary search, the same draw the library makes.
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        sizes = [int(size) for size in config.size_choices]
        max_duration = config.max_duration_hours
        mu = float(
            np.log(config.mean_duration_hours)
            - 0.5 * config.duration_sigma**2
        )
        jobs: list[Job] = []
        clock = 0.0
        while True:
            clock += float(rng.exponential(config.mean_interarrival_hours))
            if clock >= horizon_hours:
                break
            duration = float(
                min(
                    max(rng.lognormal(mu, config.duration_sigma), 0.1),
                    max_duration,
                )
            )
            size = sizes[int(cdf.searchsorted(rng.random(), side="right"))]
            jobs.append(
                Job(
                    job_id=self._next_id,
                    num_nodes=size,
                    duration_hours=duration,
                    submit_time=clock,
                )
            )
            self._next_id += 1
        return jobs
