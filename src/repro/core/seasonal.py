"""RQ5 (seasonality) — monthly recovery time and failure density
(Figures 11 and 12).

Does the time to recovery become worse in certain months, and does it
track the monthly failure count?  The paper groups both quantities by
calendar month (January..December, pooled across years) and concludes
that no clear seasonal effect or density correlation exists.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass

import numpy as np

from repro.core.columns import ColumnarView, group_rows
from repro.core.records import FailureLog
from repro.errors import AnalysisError
from repro.stats.correlation import CorrelationResult, pearson, spearman
from repro.stats.summary import FiveNumberSummary, five_number_summaries

__all__ = [
    "MonthlyTtr",
    "monthly_ttr",
    "MonthlyFailureCounts",
    "month_counts",
    "monthly_failure_counts",
    "SeasonalCorrelation",
    "ttr_density_correlation",
    "WeekdayProfile",
    "weekday_profile",
    "HourOfDayProfile",
    "hour_of_day_profile",
]

MONTHS = tuple(range(1, 13))


@dataclass(frozen=True)
class MonthlyTtr:
    """Figure 11: TTR distribution per calendar month.

    Attributes:
        machine: Machine name.
        summaries: month (1..12) -> TTR five-number summary; months
            with no failures are absent.
    """

    machine: str
    summaries: dict[int, FiveNumberSummary]

    def mean_for(self, month: int) -> float:
        """Mean TTR of one month (nan when the month has no failures)."""
        summary = self.summaries.get(month)
        return summary.mean if summary else float("nan")

    def means(self) -> list[float]:
        """Mean TTR for each month 1..12 (nan for empty months)."""
        return [self.mean_for(month) for month in MONTHS]

    def half_year_means(self) -> tuple[float, float]:
        """Mean of monthly mean TTR over Jan-Jun and Jul-Dec.

        The paper notes Tsubame-2's recovery times look higher in the
        second half of the year while Tsubame-3's do not.
        """
        first = [
            self.summaries[m].mean for m in range(1, 7)
            if m in self.summaries
        ]
        second = [
            self.summaries[m].mean for m in range(7, 13)
            if m in self.summaries
        ]
        first_mean = sum(first) / len(first) if first else float("nan")
        second_mean = sum(second) / len(second) if second else float("nan")
        return first_mean, second_mean


def monthly_ttr(log: FailureLog) -> MonthlyTtr:
    """Compute the Figure 11 monthly TTR distributions.

    Raises:
        AnalysisError: If the log is empty.
    """
    if len(log) == 0:
        raise AnalysisError("monthly TTR of an empty log is undefined")
    cols = log.columns
    order, bounds = group_rows(cols.months, len(MONTHS) + 1)
    counts = np.diff(bounds)
    months = np.array([month for month in MONTHS if counts[month]])
    summaries = dict(
        zip(
            months.tolist(),
            five_number_summaries(
                cols.ttr_hours[order], bounds[months], bounds[months + 1]
            ),
        )
    )
    return MonthlyTtr(machine=log.machine, summaries=summaries)


@dataclass(frozen=True)
class MonthlyFailureCounts:
    """Figure 12: failure counts per calendar month."""

    machine: str
    counts: dict[int, int]

    @classmethod
    def from_counts(
        cls, machine: str, counts: dict[int, int]
    ) -> "MonthlyFailureCounts":
        """Figure 12 from month (1..12) -> failure count.

        Raises:
            AnalysisError: If no month has a failure.
        """
        if not counts:
            raise AnalysisError(
                "monthly failure counts of an empty log are undefined"
            )
        return cls(machine=machine, counts=dict(counts))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def count_for(self, month: int) -> int:
        """Failure count of one month (0 when absent)."""
        return self.counts.get(month, 0)

    def series(self) -> list[int]:
        """Counts for each month 1..12."""
        return [self.count_for(month) for month in MONTHS]

    def rows(self) -> list[tuple[str, int]]:
        """(month name, count) rows in calendar order."""
        return [
            (calendar.month_abbr[month], self.count_for(month))
            for month in MONTHS
        ]

    def peak_month(self) -> int:
        """Month with the most failures (lowest month wins ties)."""
        return max(MONTHS, key=lambda m: (self.count_for(m), -m))


def month_counts(cols: ColumnarView) -> dict[int, int]:
    """Calendar month (1..12) -> failure count, over months with any."""
    months, tallies = np.unique(cols.months, return_counts=True)
    return dict(zip(months.tolist(), tallies.tolist()))


def monthly_failure_counts(log: FailureLog) -> MonthlyFailureCounts:
    """Compute the Figure 12 monthly failure counts.

    Raises:
        AnalysisError: If the log is empty.
    """
    return MonthlyFailureCounts.from_counts(
        log.machine, month_counts(log.columns)
    )


@dataclass(frozen=True)
class SeasonalCorrelation:
    """Correlation between monthly failure density and monthly TTR.

    The paper's claim is that this correlation "does not exist": months
    with many failures are not the months with long recoveries, because
    the cost of fixing each failure type is different.
    """

    machine: str
    pearson: CorrelationResult
    spearman: CorrelationResult
    months_used: int

    @property
    def supports_no_correlation(self) -> bool:
        """True when neither test finds a significant positive
        correlation — the paper's conclusion."""
        for result in (self.pearson, self.spearman):
            if result.is_significant and result.coefficient > 0:
                return False
        return True


def ttr_density_correlation(log: FailureLog) -> SeasonalCorrelation:
    """Correlate monthly failure counts with monthly mean TTR.

    Only months with at least one failure enter the correlation.

    Raises:
        AnalysisError: If fewer than three months have failures.
    """
    ttr = monthly_ttr(log)
    counts = monthly_failure_counts(log)
    months = sorted(ttr.summaries)
    if len(months) < 3:
        raise AnalysisError(
            f"seasonal correlation needs failures in at least 3 months, "
            f"got {len(months)}"
        )
    density = [float(counts.count_for(month)) for month in months]
    mean_ttr = [ttr.summaries[month].mean for month in months]
    return SeasonalCorrelation(
        machine=log.machine,
        pearson=pearson(density, mean_ttr),
        spearman=spearman(density, mean_ttr),
        months_used=len(months),
    )


@dataclass(frozen=True)
class WeekdayProfile:
    """Failure counts by day of week (0 = Monday .. 6 = Sunday).

    The paper stops at monthly granularity; weekday/hour views are the
    natural next question for real operator logs ("do failures surface
    when the day shift starts testing?").  On the synthetic logs these
    are flat by construction, which the validation suite asserts.
    """

    machine: str
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def share_of(self, weekday: int) -> float:
        """Share of failures on one weekday.

        Raises:
            AnalysisError: On an out-of-range weekday.
        """
        if not 0 <= weekday <= 6:
            raise AnalysisError(
                f"weekday must be in [0, 6], got {weekday}"
            )
        if self.total == 0:
            return 0.0
        return self.counts[weekday] / self.total

    def weekend_share(self) -> float:
        """Share of failures surfacing on Saturday/Sunday."""
        if self.total == 0:
            return 0.0
        return (self.counts[5] + self.counts[6]) / self.total

    def max_min_ratio(self) -> float:
        """Busiest/quietest weekday ratio (inf when a day is empty)."""
        low = min(self.counts)
        if low == 0:
            return float("inf") if max(self.counts) > 0 else 1.0
        return max(self.counts) / low


def weekday_profile(log: FailureLog) -> WeekdayProfile:
    """Count failures per day of week.

    Raises:
        AnalysisError: On an empty log.
    """
    if len(log) == 0:
        raise AnalysisError("weekday profile of an empty log is undefined")
    counts = np.bincount(log.columns.weekdays, minlength=7)
    return WeekdayProfile(machine=log.machine, counts=tuple(counts.tolist()))


@dataclass(frozen=True)
class HourOfDayProfile:
    """Failure counts by hour of day (0..23)."""

    machine: str
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def share_of(self, hour: int) -> float:
        """Share of failures surfacing in one hour of the day.

        Raises:
            AnalysisError: On an out-of-range hour.
        """
        if not 0 <= hour <= 23:
            raise AnalysisError(f"hour must be in [0, 23], got {hour}")
        if self.total == 0:
            return 0.0
        return self.counts[hour] / self.total

    def business_hours_share(
        self, start: int = 9, end: int = 18
    ) -> float:
        """Share of failures surfacing during [start, end) hours.

        Raises:
            AnalysisError: On an invalid hour range.
        """
        if not 0 <= start < end <= 24:
            raise AnalysisError(
                f"need 0 <= start < end <= 24, got {start}..{end}"
            )
        if self.total == 0:
            return 0.0
        return sum(self.counts[start:end]) / self.total


def hour_of_day_profile(log: FailureLog) -> HourOfDayProfile:
    """Count failures per hour of day.

    Raises:
        AnalysisError: On an empty log.
    """
    if len(log) == 0:
        raise AnalysisError(
            "hour-of-day profile of an empty log is undefined"
        )
    counts = np.bincount(log.columns.hours_of_day, minlength=24)
    return HourOfDayProfile(
        machine=log.machine, counts=tuple(counts.tolist())
    )
