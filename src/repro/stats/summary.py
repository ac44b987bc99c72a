"""Descriptive summaries used for the paper's boxplot figures.

Figures 7, 10 and 11 are boxplots: per-category time between failures,
per-category time to recovery, and monthly time to recovery.  A
:class:`FiveNumberSummary` captures exactly what a boxplot draws —
minimum, first quartile, median, third quartile, maximum — plus the
mean (the paper sorts its boxplots by mean) and the interquartile
"spread" the paper repeatedly discusses.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "FiveNumberSummary",
    "five_number_summary",
    "five_number_summaries",
    "describe",
]


@dataclass(frozen=True)
class FiveNumberSummary:
    """Boxplot statistics of a one-dimensional sample."""

    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @property
    def iqr(self) -> float:
        """Interquartile range — the paper's "spread" (p75 - p25)."""
        return self.q3 - self.q1

    @property
    def relative_spread(self) -> float:
        """IQR normalised by the median (0 when the median is 0)."""
        if self.median == 0.0:
            return 0.0
        return self.iqr / self.median

    def as_row(self) -> dict[str, float]:
        """Return the summary as a flat dict, for report rendering."""
        return {
            "n": self.n,
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "mean": self.mean,
            "iqr": self.iqr,
        }


def five_number_summary(sample: Sequence[float]) -> FiveNumberSummary:
    """Compute boxplot statistics of ``sample``.

    Quartiles use linear interpolation (numpy's default), matching what
    standard plotting libraries draw.

    Raises:
        ValidationError: If the sample is empty or non-finite.
    """
    values = np.asarray(sample, dtype=float)
    if values.size == 0:
        raise ValidationError("five_number_summary requires a non-empty sample")
    if not np.all(np.isfinite(values)):
        raise ValidationError("five_number_summary sample must be finite")
    q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    return FiveNumberSummary(
        n=int(values.size),
        minimum=float(values.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(values.max()),
        mean=float(values.mean()),
    )


#: The quartiles as ``np.percentile`` holds them: ``q / 100``.
_QUARTILES = np.true_divide([25.0, 50.0, 75.0], 100)


def five_number_summaries(
    values: np.ndarray, starts: Sequence[int], ends: Sequence[int]
) -> list[FiveNumberSummary]:
    """``five_number_summary(values[start:end])`` of each slice, equal
    bit for bit.

    Each slice is sorted once and all the quartiles are interpolated
    together, the way ``np.percentile``'s ``linear`` method does: the
    virtual index ``(n - 1) * q``, its floor and the next index (both
    the last value at or past the end) and numpy's ``_lerp``, whose
    ``t >= 0.5`` branch interpolates back from the upper value.  Sorted
    and partitioned slices agree at every order statistic except
    between ``0.0`` and ``-0.0``, so a slice holding ``-0.0`` goes to
    ``five_number_summary`` itself, as do empty and non-finite slices,
    which raise its errors in slice order.  The minimum, maximum and
    mean are the slice's own reductions.

    Raises:
        ValidationError: If a slice is empty or non-finite.
    """
    values = np.asarray(values, dtype=float)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    # Running count of the values a sort cannot handle as percentile
    # does: non-finite ones and negative zeros.
    awkward = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(
        ~np.isfinite(values) | ((values == 0.0) & np.signbit(values)),
        out=awkward[1:],
    )
    counts = ends - starts
    plain = (counts > 0) & (awkward[ends] == awkward[starts])
    sizes = counts[plain]
    first = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=first[1:])
    ordered = np.concatenate(
        [np.sort(values[start:end])
         for start, end in zip(starts[plain].tolist(), ends[plain].tolist())]
        or [values[:0]]
    )
    virtual = (sizes[:, None] - 1) * _QUARTILES
    floor = np.floor(virtual)
    gamma = virtual - floor
    # At or past the end numpy reads the slice's last value (index -1)
    # for both neighbours; equal neighbours make gamma irrelevant.
    last = virtual >= sizes[:, None] - 1
    lower = first[:, None] + np.where(last, sizes[:, None] - 1, floor).astype(
        np.int64
    )
    below, above = ordered[lower], ordered[lower + ~last]
    step = above - below
    quartiles = np.where(
        gamma >= 0.5, above - step * (1 - gamma), below + step * gamma
    ).tolist()
    summaries = []
    rows = iter(quartiles)
    for start, end, is_plain in zip(
        starts.tolist(), ends.tolist(), plain.tolist()
    ):
        part = values[start:end]
        if not is_plain:
            summaries.append(five_number_summary(part))
            continue
        q1, median, q3 = next(rows)
        summaries.append(
            FiveNumberSummary(
                n=end - start,
                minimum=float(part.min()),
                q1=q1,
                median=median,
                q3=q3,
                maximum=float(part.max()),
                mean=float(part.mean()),
            )
        )
    return summaries


def describe(sample: Sequence[float]) -> dict[str, float]:
    """Return an extended description of ``sample``.

    Adds standard deviation, coefficient of variation, and the 90th /
    95th / 99th percentiles to the five-number summary — the tail
    percentiles matter for the paper's long-recovery observations
    (SSD ~290 h on Tsubame-2, power board ~230 h on Tsubame-3).
    """
    summary = five_number_summary(sample)
    values = np.asarray(sample, dtype=float)
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    p90, p95, p99 = np.percentile(values, [90.0, 95.0, 99.0])
    row = summary.as_row()
    row.update(
        {
            "std": std,
            "cv": std / summary.mean if summary.mean else 0.0,
            "p90": float(p90),
            "p95": float(p95),
            "p99": float(p99),
        }
    )
    return row
