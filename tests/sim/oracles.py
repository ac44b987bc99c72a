"""Reference implementations the optimised sim code is checked against.

These are test oracles, not shipped code: each keeps an older, slower
formulation whose outputs the package must still reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from repro.sim.jobs import Job, WorkloadConfig
from repro.sim.scheduler import Scheduler


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


class FullFreeListScheduler(Scheduler):
    """:class:`repro.sim.scheduler.Scheduler` asking the cluster for
    every free node id on each scheduling pass, instead of only as
    many as the queue could take."""

    def _try_schedule(self) -> None:
        if self._in_maintenance or not self._pending:
            return
        free = self._cluster.available_nodes(busy=self._busy)
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
