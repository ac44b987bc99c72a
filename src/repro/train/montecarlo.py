"""Monte-Carlo ensembles of gang-training runs.

The training vertical's entry point to the ensemble core in
:mod:`repro.sim.montecarlo`: R independently-seeded
:class:`~repro.sim.simulator.ClusterSimulator` runs with a gang job,
folded into constant-memory ensemble statistics over the ETTF metrics.
The same determinism contract holds, so serial and parallel ensembles
are bit-identical for a fixed master seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.montecarlo import MetricStats, _ensemble_summary, _run_ensemble
from repro.sim.simulator import SimulationReport
from repro.train.config import TrainingJobConfig

__all__ = [
    "TRAIN_METRICS",
    "TrainEnsembleReport",
    "run_train_replications",
    "train_ensemble_payload",
]

#: Per-replication training metrics summarised by the ensemble.
#: ``availability`` comes from the cluster; everything else from the
#: run's :class:`~repro.train.gang.TrainStats`.
TRAIN_METRICS = (
    "ettr",
    "interrupts",
    "restarts",
    "interrupts_per_day",
    "work_committed_hours",
    "lost_work_hours",
    "stall_hours",
    "restart_overhead_hours",
    "checkpoint_overhead_hours",
    "blast_radius_node_hours",
    "availability",
)


def _metric_value(report: SimulationReport, name: str) -> float:
    if name == "availability":
        return float(report.availability)
    return float(getattr(report.train, name))


@dataclass(frozen=True)
class TrainEnsembleReport:
    """Summary of a training-run replication ensemble."""

    machine: str
    horizon_hours: float
    gang_nodes: int
    replications: int
    failed_replications: int
    ci: float
    metrics: dict[str, MetricStats]
    errors: tuple[tuple[int, str], ...] = ()

    @property
    def ettr(self) -> MetricStats:
        """Shortcut for the headline metric."""
        return self.metrics["ettr"]

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        return _ensemble_summary(
            f"{self.machine}: gang of {self.gang_nodes} nodes, ", self
        )


def run_train_replications(
    machine: str,
    replications: int,
    horizon_hours: float,
    checkpoint_policy: CheckpointPolicy,
    train: TrainingJobConfig | None = None,
    seed: int = 0,
    intensity: float = 1.0,
    ci: float = 0.95,
    max_workers: int | None = None,
    retries: int = 0,
) -> TrainEnsembleReport:
    """Run a Monte-Carlo ensemble of gang-training runs.

    Args:
        machine: Any registered machine name.
        replications: Independently-seeded runs (>= 1).
        horizon_hours: Simulated horizon of each run.
        checkpoint_policy: Checkpoint economics shared by every run.
        train: Gang shape; defaults to :class:`TrainingJobConfig`'s
            64-node gang.
        seed: Master seed (prefix-stable per-replication spawning).
        intensity: Failure-rate multiplier.
        ci: Confidence level of the percentile intervals, in (0, 1).
        max_workers: ``None``/``1`` serial; ``N > 1`` fans out over the
            warm worker pool.  Bit-identical at any worker count.
        retries: Per-replication retry budget before recording failure.

    Returns:
        A :class:`TrainEnsembleReport`; failed replications are skipped
        by the fold and attributed in ``errors``.

    Raises:
        ValidationError: On invalid ensemble parameters.
        SimulationError: If every replication failed.
    """
    if train is None:
        train = TrainingJobConfig()
    completed, metrics, errors = _run_ensemble(
        machine,
        replications,
        horizon_hours,
        seed,
        ci,
        max_workers,
        retries,
        TRAIN_METRICS,
        _metric_value,
        intensity=intensity,
        checkpoint_policy=checkpoint_policy,
        train=train,
    )
    return TrainEnsembleReport(
        machine=machine,
        horizon_hours=horizon_hours,
        gang_nodes=train.num_nodes,
        replications=completed,
        failed_replications=len(errors),
        ci=ci,
        metrics=metrics,
        errors=errors,
    )


def train_ensemble_payload(
    ensemble: TrainEnsembleReport,
) -> dict[str, Any]:
    """JSON-friendly view of a training ensemble (CLI/serve)."""
    return {
        "machine": ensemble.machine,
        "horizon_hours": ensemble.horizon_hours,
        "gang_nodes": ensemble.gang_nodes,
        "replications": ensemble.replications,
        "failed_replications": ensemble.failed_replications,
        "ci": ensemble.ci,
        "metrics": {
            name: {
                "mean": stats.mean,
                "std": stats.std,
                "stderr": stats.stderr,
                "ci_lower": stats.ci_lower,
                "ci_upper": stats.ci_upper,
            }
            for name, stats in ensemble.metrics.items()
        },
        "errors": [list(item) for item in ensemble.errors],
    }
