"""RQ4 — time between failures (Figures 6 and 7, component MTBF).

Covers the system-level TBF distribution (Figure 6), the per-category
TBF distributions (Figure 7, boxplots sorted by mean), and the
per-component-class MTBF comparison the paper uses to argue GPU
hardware reliability improved ~10x across generations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import metrics
from repro.core.columns import group_rows
from repro.core.records import FailureLog
from repro.errors import AnalysisError
from repro.stats.ecdf import ECDF
from repro.stats.summary import FiveNumberSummary, five_number_summaries

__all__ = [
    "TbfDistribution",
    "tbf_distribution",
    "CategoryTbf",
    "tbf_by_category",
    "ComponentClassMtbf",
    "component_class_mtbf",
]


@dataclass(frozen=True)
class TbfDistribution:
    """Figure 6 for one machine: the TBF ECDF plus headline numbers."""

    machine: str
    ecdf: ECDF
    mtbf_hours: float
    mtbf_span_hours: float

    def p75_hours(self) -> float:
        """The paper's headline percentile: 75% of failures occur
        within this many hours of the previous failure (20 h on
        Tsubame-2, 93 h on Tsubame-3)."""
        return self.ecdf.quantile(0.75)

    def fraction_within(self, hours: float) -> float:
        """Fraction of gaps no longer than ``hours``."""
        return self.ecdf(hours)


def tbf_distribution(log: FailureLog) -> TbfDistribution:
    """Compute the Figure 6 TBF distribution of a log.

    Raises:
        AnalysisError: If the log has fewer than two failures.
    """
    series = metrics.tbf_series_hours(log)
    return TbfDistribution(
        machine=log.machine,
        ecdf=ECDF(series),
        mtbf_hours=metrics.mtbf(log),
        mtbf_span_hours=metrics.mtbf_span(log),
    )


@dataclass(frozen=True)
class CategoryTbf:
    """One box of Figure 7: TBF summary for a single failure category.

    The TBF series of a category is computed over the sub-log of that
    category only (gaps between consecutive failures *of that type*).
    """

    category: str
    summary: FiveNumberSummary

    @property
    def mean_hours(self) -> float:
        return self.summary.mean

    @property
    def median_hours(self) -> float:
        return self.summary.median

    @property
    def spread_hours(self) -> float:
        """The paper's "spread": p75 - p25."""
        return self.summary.iqr


def tbf_by_category(
    log: FailureLog, min_failures: int = 3
) -> list[CategoryTbf]:
    """Compute Figure 7: per-category TBF summaries sorted by mean.

    Categories with fewer than ``min_failures`` records are skipped —
    a TBF distribution over one or two gaps is noise, and the paper's
    boxplots visibly omit the rarest categories.

    Raises:
        AnalysisError: If no category clears the threshold.
    """
    if min_failures < 2:
        raise AnalysisError(
            f"min_failures must be >= 2 to define any TBF, "
            f"got {min_failures}"
        )
    cols = log.columns
    order, bounds = group_rows(cols.category_codes, len(cols.category_names))
    kept = np.flatnonzero(np.diff(bounds) >= min_failures)
    # Category c's gaps are gaps[bounds[c]:bounds[c + 1] - 1], the
    # differences within its rows.
    gaps = np.diff(cols.ts_hours[order])
    results = [
        CategoryTbf(category=cols.category_names[code], summary=summary)
        for code, summary in zip(
            kept.tolist(),
            five_number_summaries(gaps, bounds[kept], bounds[kept + 1] - 1),
        )
    ]
    if not results:
        raise AnalysisError(
            f"no category has at least {min_failures} failures"
        )
    results.sort(key=lambda entry: entry.mean_hours)
    return results


@dataclass(frozen=True)
class ComponentClassMtbf:
    """Per-component-class MTBF for the RQ4 cross-generation argument.

    Uses the span estimator (span / count) because filtered logs can be
    short; see :func:`repro.core.metrics.mtbf_span`.
    """

    machine: str
    gpu_mtbf_hours: float
    cpu_mtbf_hours: float
    gpu_failures: int
    cpu_failures: int

    def gpu_improvement_over(self, older: "ComponentClassMtbf") -> float:
        """GPU MTBF ratio of this (newer) machine over an older one."""
        if older.gpu_mtbf_hours <= 0:
            raise AnalysisError("older GPU MTBF must be positive")
        return self.gpu_mtbf_hours / older.gpu_mtbf_hours

    def cpu_improvement_over(self, older: "ComponentClassMtbf") -> float:
        """CPU MTBF ratio of this (newer) machine over an older one."""
        if older.cpu_mtbf_hours <= 0:
            raise AnalysisError("older CPU MTBF must be positive")
        return self.cpu_mtbf_hours / older.cpu_mtbf_hours


def component_class_mtbf(
    log: FailureLog,
    gpu_category: str = "GPU",
    cpu_category: str = "CPU",
) -> ComponentClassMtbf:
    """Compute GPU and CPU MTBF for one machine's log.

    Raises:
        AnalysisError: If the log has no GPU or no CPU failures.
    """
    cols = log.columns
    gpu_failures, cpu_failures = (
        int(np.count_nonzero(cols.category_codes == cols.code_of(name)))
        for name in (gpu_category, cpu_category)
    )
    if gpu_failures == 0:
        raise AnalysisError(f"log has no {gpu_category!r} failures")
    if cpu_failures == 0:
        raise AnalysisError(f"log has no {cpu_category!r} failures")
    # mtbf_span of each category's sub-log, which keeps the window.
    return ComponentClassMtbf(
        machine=log.machine,
        gpu_mtbf_hours=log.span_hours / gpu_failures,
        cpu_mtbf_hours=log.span_hours / cpu_failures,
        gpu_failures=gpu_failures,
        cpu_failures=cpu_failures,
    )
