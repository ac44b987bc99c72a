"""Monte-Carlo replication engine.

One simulated horizon is a single draw from the model's distribution
over operational outcomes; the paper's RQ5-style claims ("4
technicians keep availability above X") are claims about that
*distribution*.  This module runs R independently-seeded replications
of :class:`~repro.sim.simulator.ClusterSimulator` and folds their
:class:`~repro.sim.simulator.SimulationReport`s into ensemble
statistics — mean, standard error, and percentile confidence
intervals — using the constant-memory estimators from
:mod:`repro.stream.online`, so R can be large without holding R
reports.  The same ensemble core also drives the training vertical's
:func:`repro.train.montecarlo.run_train_replications`.

Determinism contract: an ensemble with a given ``(machine, seed,
replications, ...)`` returns bit-identical results whether the
replications run serially or across worker processes.
Per-replication seeds come from :func:`spawn_seeds` (NumPy
``SeedSequence`` spawning, prefix-stable in ``n``), replications are
dispatched through the fault-tolerant
:func:`repro.parallel.sweep_iter` machinery — riding the process-wide
warm worker pool, so consecutive ensembles stop paying a pool spawn
each — which yields outcomes in input order, and the fold itself is a
sequential loop — so worker scheduling can never touch the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import SimulationError, ValidationError
from repro.parallel import SweepOutcome, sweep_iter
from repro.sim.repair import RepairPolicy
from repro.sim.simulator import ClusterSimulator, SimulationReport
from repro.stream.online import GKQuantileSketch, Welford

__all__ = [
    "spawn_seeds",
    "MetricStats",
    "EnsembleReport",
    "run_replications",
]

#: SimulationReport fields summarised per ensemble, in report order.
_METRICS = (
    "failures_injected",
    "repairs_completed",
    "effective_mttr_hours",
    "mean_waiting_hours",
    "availability",
    "spare_stockouts",
    "spares_consumed",
)


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive ``n`` independent replication seeds from a master seed.

    Uses ``np.random.SeedSequence(seed).generate_state``, which is
    *prefix-stable*: the first k seeds of ``spawn_seeds(seed, n)`` are
    identical for every n >= k, so growing an ensemble from 100 to
    1000 replications reuses (never re-randomises) the first 100.

    Raises:
        ValidationError: If ``n`` is not positive.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    state = np.random.SeedSequence(seed).generate_state(n, np.uint32)
    return [int(s) for s in state]


@dataclass(frozen=True)
class MetricStats:
    """Ensemble statistics of one scalar report metric.

    ``ci_lower``/``ci_upper`` are *percentile* bounds of the
    replication distribution (e.g. the 2.5th and 97.5th percentiles at
    ``ci=0.95``) estimated by a Greenwald-Khanna sketch — they
    describe run-to-run spread, not the standard error of the mean
    (use :attr:`stderr` for that).
    """

    name: str
    mean: float
    std: float
    stderr: float
    ci_lower: float
    ci_upper: float

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.mean:.4g} ± {self.stderr:.2g} "
            f"[{self.ci_lower:.4g}, {self.ci_upper:.4g}]"
        )


def _ensemble_summary(head: str, report) -> str:
    """Multi-line summary shared by both ensemble report types."""
    lines = [
        f"{head}{report.replications} replications x "
        f"{report.horizon_hours:g} h "
        f"({report.ci * 100:g}% percentile intervals)"
    ]
    if report.failed_replications:
        lines.append(
            f"  {report.failed_replications} replication(s) failed"
        )
    lines.extend(f"  {stats}" for stats in report.metrics.values())
    return "\n".join(lines)


@dataclass(frozen=True)
class EnsembleReport:
    """Summary of a Monte-Carlo replication ensemble.

    Attributes:
        machine: Simulated machine.
        horizon_hours: Horizon of every replication.
        replications: Replications whose reports were folded in.
        failed_replications: Replications that raised (their errors
            are attributed in ``errors``; the fold simply skips them).
        ci: Confidence level of the percentile intervals.
        metrics: Per-metric ensemble statistics, keyed by the
            :class:`~repro.sim.simulator.SimulationReport` field name.
        errors: ``(replication_index, message)`` for each failure.
    """

    machine: str
    horizon_hours: float
    replications: int
    failed_replications: int
    ci: float
    metrics: dict[str, MetricStats]
    errors: tuple[tuple[int, str], ...] = ()

    @property
    def availability(self) -> MetricStats:
        """Shortcut for the headline metric."""
        return self.metrics["availability"]

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        return _ensemble_summary(f"{self.machine}: ", self)


@dataclass(frozen=True)
class _ReplicationTask:
    """Picklable spec of one replication (travels to worker processes).

    ``simulator_kwargs`` are the :class:`ClusterSimulator` keyword
    arguments shared by every replication, frozen as sorted pairs.
    """

    machine: str
    seed: int
    horizon_hours: float
    simulator_kwargs: tuple[tuple[str, Any], ...]


def _run_replication(task: _ReplicationTask) -> SimulationReport:
    """Worker entry point: one seeded simulation, report only.

    The engine is closed afterwards, so reference counting alone frees
    the replication.
    """
    simulator = ClusterSimulator(
        task.machine,
        seed=task.seed,
        keep_injected_log=False,
        **dict(task.simulator_kwargs),
    )
    try:
        return simulator.run(task.horizon_hours)
    finally:
        simulator.engine.close()


class _MetricFold:
    """Welford moments + GK quantile sketch for one metric."""

    __slots__ = ("name", "moments", "sketch")

    def __init__(self, name: str) -> None:
        self.name = name
        self.moments = Welford()
        self.sketch = GKQuantileSketch(epsilon=0.005)

    def push(self, value: float) -> None:
        self.moments.push(value)
        self.sketch.push(value)

    def stats(self, ci: float) -> MetricStats:
        n = self.moments.n
        lower_q = (1.0 - ci) / 2.0
        return MetricStats(
            name=self.name,
            mean=self.moments.mean,
            std=self.moments.std,
            stderr=(
                self.moments.std / np.sqrt(n) if n else 0.0
            ),
            ci_lower=self.sketch.value(lower_q),
            ci_upper=self.sketch.value(1.0 - lower_q),
        )


def _run_ensemble(
    machine: str,
    replications: int,
    horizon_hours: float,
    seed: int,
    ci: float,
    max_workers: int | None,
    retries: int,
    metrics: tuple[str, ...],
    metric_value: Callable[[SimulationReport, str], float],
    **simulator_kwargs: Any,
) -> tuple[int, dict[str, MetricStats], tuple[tuple[int, str], ...]]:
    """Run and fold one ensemble; the core of both public entry points.

    Returns ``(completed, metric_stats, errors)``: the replications
    folded in, per-metric statistics keyed in ``metrics`` order, and
    ``(replication_index, "Type: message")`` for each failure.

    Raises:
        ValidationError: On invalid ``replications`` or ``ci``.
        SimulationError: If *every* replication failed (there is no
            distribution to report).
    """
    if replications < 1:
        raise ValidationError(
            f"replications must be >= 1, got {replications}"
        )
    if not 0.0 < ci < 1.0:
        raise ValidationError(f"ci must lie in (0, 1), got {ci}")
    frozen_kwargs = tuple(sorted(simulator_kwargs.items()))
    tasks = [
        _ReplicationTask(
            machine=machine,
            seed=replication_seed,
            horizon_hours=horizon_hours,
            simulator_kwargs=frozen_kwargs,
        )
        for replication_seed in spawn_seeds(seed, replications)
    ]
    folds = {name: _MetricFold(name) for name in metrics}
    errors: list[tuple[int, str]] = []
    outcome: SweepOutcome
    for outcome in sweep_iter(
        _run_replication,
        tasks,
        processes=max_workers,
        retries=retries,
    ):
        if not outcome.ok:
            errors.append(
                (
                    outcome.index,
                    f"{type(outcome.error).__name__}: {outcome.error}",
                )
            )
            continue
        report = outcome.result
        for name, fold in folds.items():
            fold.push(metric_value(report, name))
    completed = replications - len(errors)
    if completed == 0:
        raise SimulationError(
            f"all {replications} replications failed; first error: "
            f"{errors[0][1]}"
        )
    return (
        completed,
        {name: fold.stats(ci) for name, fold in folds.items()},
        tuple(errors),
    )


def _report_field(report: SimulationReport, name: str) -> float:
    return float(getattr(report, name))


def run_replications(
    machine: str,
    replications: int,
    horizon_hours: float,
    seed: int = 0,
    intensity: float = 1.0,
    ci: float = 0.95,
    max_workers: int | None = None,
    health_test_effectiveness: float = 0.0,
    num_technicians: int | None = None,
    spare_lead_time_hours: float | None = None,
    retries: int = 0,
) -> EnsembleReport:
    """Run a Monte-Carlo ensemble and summarise its distribution.

    Args:
        machine: ``"tsubame2"`` or ``"tsubame3"``.
        replications: Number of independently-seeded runs (>= 1).
        horizon_hours: Simulated horizon of each run.
        seed: Master seed; per-replication seeds are spawned with
            :func:`spawn_seeds`, so the ensemble is reproducible and
            prefix-stable in ``replications``.
        intensity: Failure-rate multiplier passed to every run.
        ci: Confidence level of the percentile intervals, in (0, 1).
        max_workers: ``None`` or ``1`` runs serially in-process;
            ``N > 1`` fans replications across the process-wide warm
            worker pool (spawned once, reused by every ensemble in
            the process) with work-stealing chunking, so uneven
            replication lengths do not leave workers idle.  The
            result is bit-identical at any worker count.
        health_test_effectiveness: See
            :class:`~repro.sim.faults.FaultInjector`.
        num_technicians: Override the repair policy's staffing.
        spare_lead_time_hours: Override the spare procurement lead
            time (requires ``num_technicians``).
        retries: Re-run a replication that raised up to this many
            extra times before recording it as failed.

    Returns:
        An :class:`EnsembleReport`.  Replications that fail (after
        retries) are skipped by the fold and attributed in
        ``errors`` — one poisoned seed does not discard the ensemble.

    Raises:
        ValidationError: On invalid ensemble parameters.
        SimulationError: If *every* replication failed (there is no
            distribution to report).
    """
    if spare_lead_time_hours is not None and num_technicians is None:
        raise ValidationError(
            "spare_lead_time_hours requires num_technicians "
            "(both override the same repair policy)"
        )
    policy = None
    if num_technicians is not None:
        policy = RepairPolicy(
            num_technicians=num_technicians,
            spare_lead_time_hours=(
                spare_lead_time_hours
                if spare_lead_time_hours is not None
                else RepairPolicy.spare_lead_time_hours
            ),
        )
    completed, metrics, errors = _run_ensemble(
        machine,
        replications,
        horizon_hours,
        seed,
        ci,
        max_workers,
        retries,
        _METRICS,
        _report_field,
        repair_policy=policy,
        intensity=intensity,
        health_test_effectiveness=health_test_effectiveness,
    )
    return EnsembleReport(
        machine=machine,
        horizon_hours=horizon_hours,
        replications=completed,
        failed_replications=len(errors),
        ci=ci,
        metrics=metrics,
        errors=errors,
    )
