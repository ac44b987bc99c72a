"""Predictor hyperparameter sweeps.

A predictor is only operationally useful at the right point on its
precision/recall trade-off: too many alarms waste staging budget, too
few miss the failures.  :func:`sweep_rate_predictor` maps that frontier
for the rate-based predictor by sweeping window/threshold pairs over a
log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.records import FailureLog
from repro.errors import AnalysisError
from repro.parallel import sweep
from repro.predict.evaluation import PredictionOutcome, evaluate_predictor
from repro.predict.rate import RateBasedPredictor

__all__ = ["SweepPoint", "sweep_rate_predictor", "best_by_f1"]


@dataclass(frozen=True)
class SweepPoint:
    """One configuration's scores."""

    window_hours: float
    threshold: int
    outcome: PredictionOutcome

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (0 when both are 0)."""
        precision = self.outcome.precision
        recall = self.outcome.recall
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)


def _evaluate_pair(
    task: tuple[float, int], log: FailureLog
) -> SweepPoint:
    """Score one (window, threshold) pair — module-level so the
    parallel sweep can ship it to worker processes.  The log arrives
    as the sweep's ``shared=`` payload, which each worker unpickles
    once per sweep instead of once per task."""
    window, threshold = task
    predictor = RateBasedPredictor(
        window_hours=window,
        threshold=threshold,
        horizon_hours=window,
    )
    return SweepPoint(
        window_hours=window,
        threshold=threshold,
        outcome=evaluate_predictor(predictor, log),
    )


def sweep_rate_predictor(
    log: FailureLog,
    window_grid: tuple[float, ...] = (336.0, 1000.0, 3000.0, 8000.0),
    threshold_grid: tuple[int, ...] = (2, 3, 4),
    processes: int | None = None,
) -> list[SweepPoint]:
    """Evaluate every (window, threshold) pair on ``log``.

    The alarm horizon is tied to the window (a node hot over the last
    W hours is flagged for the next W hours).

    ``processes > 1`` spreads the grid over the warm worker pool via
    :func:`repro.parallel.sweep` with ``shared=log``: the log is
    pickled once and each worker unpickles it once, rather than once
    per task; results are identical to the serial run, in the same
    (window-major) order.

    Raises:
        AnalysisError: On empty grids or an empty log.
    """
    if not window_grid or not threshold_grid:
        raise AnalysisError("sweep grids must be non-empty")
    if len(log) == 0:
        raise AnalysisError("cannot sweep on an empty log")
    tasks = [
        (window, threshold)
        for window in window_grid
        for threshold in threshold_grid
    ]
    return sweep(_evaluate_pair, tasks, processes=processes, shared=log)


def best_by_f1(points: list[SweepPoint]) -> SweepPoint:
    """Return the sweep point with the highest F1 score.

    Ties break toward fewer alarms (cheaper operationally).

    Raises:
        AnalysisError: On an empty sweep.
    """
    if not points:
        raise AnalysisError("best_by_f1 needs at least one sweep point")
    return max(
        points,
        key=lambda point: (point.f1, -point.outcome.total_alarms),
    )
