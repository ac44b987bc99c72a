"""RQ5 — time to recovery (Figures 9 and 10).

Covers the system-level TTR distribution (Figure 9; MTTR ~55 h on both
machines despite very different MTBFs) and the per-category TTR
distributions (Figure 10; hardware categories show higher spread, and
infrequent categories can carry extreme recovery tails — SSD ~290 h on
Tsubame-2, power board ~230 h on Tsubame-3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import metrics, taxonomy
from repro.core.columns import group_rows
from repro.core.records import FailureLog
from repro.core.taxonomy import FailureClass
from repro.errors import AnalysisError
from repro.stats.ecdf import ECDF
from repro.stats.summary import FiveNumberSummary, five_number_summaries

__all__ = [
    "TtrDistribution",
    "ttr_distribution",
    "CategoryTtr",
    "ttr_by_category",
    "class_spread_comparison",
]


@dataclass(frozen=True)
class TtrDistribution:
    """Figure 9 for one machine: the TTR ECDF plus the MTTR."""

    machine: str
    ecdf: ECDF
    mttr_hours: float

    def fraction_within(self, hours: float) -> float:
        """Fraction of failures repaired within ``hours``."""
        return self.ecdf(hours)

    def quantile(self, q: float) -> float:
        """TTR quantile in hours."""
        return self.ecdf.quantile(q)


def ttr_distribution(log: FailureLog) -> TtrDistribution:
    """Compute the Figure 9 TTR distribution of a log.

    Raises:
        AnalysisError: If the log is empty.
    """
    if len(log) == 0:
        raise AnalysisError("TTR distribution of an empty log is undefined")
    series = metrics.ttr_series_hours(log)
    return TtrDistribution(
        machine=log.machine,
        ecdf=ECDF(series),
        mttr_hours=metrics.mttr(log),
    )


@dataclass(frozen=True)
class CategoryTtr:
    """One box of Figure 10: TTR summary for a single category."""

    category: str
    failure_class: FailureClass
    summary: FiveNumberSummary
    share_of_failures: float

    @property
    def mean_hours(self) -> float:
        return self.summary.mean

    @property
    def max_hours(self) -> float:
        """Worst-case recovery, the paper's SSD/power-board anecdotes."""
        return self.summary.maximum

    @property
    def spread_hours(self) -> float:
        """p75 - p25 of the recovery time."""
        return self.summary.iqr

    @property
    def impact_hours(self) -> float:
        """share x mean TTR — the paper's point that *impact*, not just
        frequency, should guide operator attention."""
        return self.share_of_failures * self.summary.mean


def ttr_by_category(
    log: FailureLog, min_failures: int = 2
) -> list[CategoryTtr]:
    """Compute Figure 10: per-category TTR summaries sorted by mean.

    Raises:
        AnalysisError: If the log is empty or no category clears the
            threshold.
    """
    if len(log) == 0:
        raise AnalysisError("TTR by category of an empty log is undefined")
    if min_failures < 1:
        raise AnalysisError(
            f"min_failures must be >= 1, got {min_failures}"
        )
    total = len(log)
    cols = log.columns
    order, bounds = group_rows(cols.category_codes, len(cols.category_names))
    kept = np.flatnonzero(np.diff(bounds) >= min_failures)
    starts, ends = bounds[kept], bounds[kept + 1]
    summaries = five_number_summaries(cols.ttr_hours[order], starts, ends)
    results = [
        CategoryTtr(
            category=name,
            failure_class=taxonomy.failure_class(log.machine, name),
            summary=summary,
            share_of_failures=count / total,
        )
        for name, summary, count in zip(
            [cols.category_names[code] for code in kept.tolist()],
            summaries,
            (ends - starts).tolist(),
        )
    ]
    if not results:
        raise AnalysisError(
            f"no category has at least {min_failures} failures"
        )
    results.sort(key=lambda entry: entry.mean_hours)
    return results


def class_spread_comparison(
    log: FailureLog, min_failures: int = 2
) -> dict[FailureClass, float]:
    """Mean TTR spread (IQR) per hardware/software class.

    Quantifies the paper's observation that hardware-related failures
    "tend to have a higher spread in the recovery time compared to
    software failures".  Classes with no qualifying category are
    omitted from the result.
    """
    by_category = ttr_by_category(log, min_failures=min_failures)
    spreads: dict[FailureClass, list[float]] = {}
    for entry in by_category:
        spreads.setdefault(entry.failure_class, []).append(
            entry.spread_hours
        )
    return {
        cls: sum(values) / len(values)
        for cls, values in spreads.items()
    }
