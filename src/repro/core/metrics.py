"""Reliability metrics: TBF, MTBF, TTR, MTTR, availability, and the
paper's *performance-error-proportionality*.

Definitions (Section III of the paper):

* **Time between failures (TBF)** — elapsed wall-clock time between two
  consecutive failure occurrences anywhere on the system.
* **Mean time between failures (MTBF)** — we report two estimators:
  the mean of the TBF series (``mtbf``) and the observation span
  divided by the failure count (``mtbf_span``).  They agree when
  failures cover the window evenly; both are exposed because field
  studies are often ambiguous about which was used.
* **Time to recovery (TTR)** — per-failure repair duration as logged.
* **Performance-error-proportionality** — "useful work done per
  failure-free period", operationalised as Rpeak × MTBF, i.e. the
  maximum FLOP attainable between interruptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.records import FailureLog
from repro.errors import AnalysisError
from repro.machines.specs import MachineSpec

__all__ = [
    "tbf_series_hours",
    "ttr_series_hours",
    "mtbf",
    "mtbf_span",
    "mttr",
    "availability",
    "downtime_hours",
    "fleet_availability",
    "PerformanceErrorProportionality",
    "performance_error_proportionality",
    "job_interruption_probability",
]

_PFLOPS_TO_FLOPS = 1e15
_SECONDS_PER_HOUR = 3600.0


def tbf_series_hours(log: FailureLog) -> list[float]:
    """Return the time-between-failures series of a log, in hours.

    The series has ``len(log) - 1`` entries; simultaneous failures
    contribute zero-length gaps (they are real in field logs — e.g.
    correlated reboots — and the CDFs must keep them).

    Raises:
        AnalysisError: If the log has fewer than two failures.
    """
    if len(log) < 2:
        raise AnalysisError(
            f"TBF needs at least 2 failures, log has {len(log)}"
        )
    return np.diff(log.columns.ts_hours).tolist()


def ttr_series_hours(log: FailureLog) -> list[float]:
    """Return the per-failure time-to-recovery series, in hours."""
    return log.columns.ttr_hours.tolist()


def mtbf(log: FailureLog) -> float:
    """Mean of the TBF series, in hours."""
    return float(np.mean(tbf_series_hours(log)))


def mtbf_span(log: FailureLog) -> float:
    """Observation span divided by failure count, in hours.

    This estimator is defined for any non-empty log and is the one we
    use for per-component-class MTBF (GPU/CPU MTBF comparisons in RQ4),
    where the filtered series can be short.

    Raises:
        AnalysisError: If the log is empty.
    """
    if len(log) == 0:
        raise AnalysisError("MTBF of an empty log is undefined")
    return log.span_hours / len(log)


def mttr(log: FailureLog) -> float:
    """Mean time to recovery, in hours.

    Raises:
        AnalysisError: If the log is empty.
    """
    if len(log) == 0:
        raise AnalysisError("MTTR of an empty log is undefined")
    return float(np.mean(ttr_series_hours(log)))


def availability(log: FailureLog, num_nodes: int) -> float:
    """Fleet-level availability estimate in [0, 1].

    Approximates each failure as taking one node out of service for its
    recovery time: availability = 1 - sum(TTR) / (num_nodes * span).

    Raises:
        AnalysisError: If ``num_nodes`` is not positive.
    """
    if num_nodes <= 0:
        raise AnalysisError(f"num_nodes must be positive, got {num_nodes}")
    return fleet_availability(downtime_hours(log), num_nodes, log.span_hours)


def downtime_hours(log: FailureLog) -> float:
    """Total node-hours out of service: the sum of the TTR series."""
    return float(np.sum(ttr_series_hours(log)))


def fleet_availability(
    downtime_node_hours: float, num_nodes: int, span_hours: float
) -> float:
    """1 - downtime / (num_nodes * span), floored at 0."""
    return max(0.0, 1.0 - downtime_node_hours / (num_nodes * span_hours))


@dataclass(frozen=True)
class PerformanceErrorProportionality:
    """The paper's proposed benchmarking metric (RQ4).

    Attributes:
        machine: Machine name.
        rpeak_pflops: Theoretical peak performance.
        mtbf_hours: System MTBF used in the computation.
        flop_per_failure_free_period: Rpeak x MTBF, in FLOP — the
            maximum useful computation between two interruptions.
    """

    machine: str
    rpeak_pflops: float
    mtbf_hours: float
    flop_per_failure_free_period: float

    def ratio_to(
        self, other: "PerformanceErrorProportionality"
    ) -> float:
        """How many times more useful work per failure-free period this
        machine achieves relative to ``other``."""
        if other.flop_per_failure_free_period <= 0:
            raise AnalysisError(
                "cannot form a ratio against a non-positive metric"
            )
        return (
            self.flop_per_failure_free_period
            / other.flop_per_failure_free_period
        )


def performance_error_proportionality(
    log: FailureLog, spec: MachineSpec
) -> PerformanceErrorProportionality:
    """Compute FLOP per failure-free period for one machine.

    Raises:
        AnalysisError: If the log's machine does not match the spec.
    """
    if log.machine != spec.name:
        raise AnalysisError(
            f"log is for {log.machine!r} but spec is for {spec.name!r}"
        )
    mtbf_hours = mtbf(log)
    flop = (
        spec.rpeak_pflops
        * _PFLOPS_TO_FLOPS
        * mtbf_hours
        * _SECONDS_PER_HOUR
    )
    return PerformanceErrorProportionality(
        machine=spec.name,
        rpeak_pflops=spec.rpeak_pflops,
        mtbf_hours=mtbf_hours,
        flop_per_failure_free_period=flop,
    )


def job_interruption_probability(
    system_mtbf_hours: float,
    num_system_nodes: int,
    job_nodes: int,
    job_hours: float,
) -> float:
    """Probability a job sees at least one failure on its nodes.

    Models failures as a Poisson process at the system rate
    1 / MTBF, spread uniformly over nodes, so a job holding
    ``job_nodes`` of ``num_system_nodes`` nodes for ``job_hours``
    accumulates rate x time x share expected hits:
    P = 1 - exp(-(job_hours / MTBF) x (job_nodes / N)).

    This is the user-facing translation of the MTBF numbers: the paper
    urges HPC centres to help users reason about failure exposure.

    Raises:
        AnalysisError: On non-positive inputs or a job larger than the
            system.
    """
    if system_mtbf_hours <= 0:
        raise AnalysisError(
            f"MTBF must be positive, got {system_mtbf_hours}"
        )
    if num_system_nodes < 1:
        raise AnalysisError(
            f"num_system_nodes must be >= 1, got {num_system_nodes}"
        )
    if not 1 <= job_nodes <= num_system_nodes:
        raise AnalysisError(
            f"job_nodes must be in [1, {num_system_nodes}], "
            f"got {job_nodes}"
        )
    if job_hours <= 0:
        raise AnalysisError(f"job_hours must be positive, got {job_hours}")
    expected_hits = (
        (job_hours / system_mtbf_hours)
        * (job_nodes / num_system_nodes)
    )
    return 1.0 - float(np.exp(-expected_hits))
