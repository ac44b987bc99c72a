"""ASCII chart rendering.

Pure functions from data to a multi-line string; no terminal control
codes, so output is stable in CI logs and the EXPERIMENTS.md appendix.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.stats.ecdf import ECDF
from repro.stats.summary import FiveNumberSummary

__all__ = [
    "bar_chart",
    "cdf_chart",
    "boxplot_table",
    "histogram",
    "sparkline",
    "timeline",
    "render_table",
]

_FULL_BLOCK = "#"


def bar_chart(
    rows: Sequence[tuple[str, float]],
    width: int = 40,
    value_format: str = "{:.1f}",
    title: str = "",
) -> str:
    """Render labelled values as a horizontal bar chart.

    Args:
        rows: (label, value) pairs, rendered top to bottom.
        width: Width in characters of the longest bar.
        value_format: Format spec applied to each value.
        title: Optional heading line.

    Raises:
        ValidationError: On empty rows, non-positive width, or negative
            values.
    """
    if not rows:
        raise ValidationError("bar_chart needs at least one row")
    if width < 1:
        raise ValidationError(f"width must be positive, got {width}")
    if any(value < 0 for _, value in rows):
        raise ValidationError("bar_chart values must be non-negative")
    label_width = max(len(label) for label, _ in rows)
    peak = max(value for _, value in rows)
    lines = [title] if title else []
    for label, value in rows:
        length = int(round(width * value / peak)) if peak > 0 else 0
        bar = _FULL_BLOCK * length
        rendered = value_format.format(value)
        lines.append(f"{label:<{label_width}} |{bar:<{width}}| {rendered}")
    return "\n".join(lines)


def cdf_chart(
    curves: dict[str, ECDF],
    num_points: int = 20,
    width: int = 40,
    unit: str = "h",
    title: str = "",
) -> str:
    """Render one or more ECDFs as rows of (x, F(x)) with a bar for F.

    All curves share one x-grid spanning the union of supports, so two
    machines' distributions line up visually — the Figure 6/9 layout.
    """
    if not curves:
        raise ValidationError("cdf_chart needs at least one curve")
    if num_points < 2:
        raise ValidationError(
            f"num_points must be at least 2, got {num_points}"
        )
    low = min(curve.support[0] for curve in curves.values())
    high = max(curve.support[1] for curve in curves.values())
    if high <= low:
        high = low + 1.0
    step = (high - low) / (num_points - 1)
    lines = [title] if title else []
    name_width = max(len(name) for name in curves)
    for name, curve in curves.items():
        lines.append(f"-- {name} --")
        for index in range(num_points):
            x = low + index * step
            fraction = curve(x)
            bar = _FULL_BLOCK * int(round(width * fraction))
            lines.append(
                f"{name:<{name_width}} {x:>10.1f}{unit} "
                f"|{bar:<{width}}| {fraction:6.1%}"
            )
    return "\n".join(lines)


def boxplot_table(
    rows: Sequence[tuple[str, FiveNumberSummary]],
    unit: str = "h",
    title: str = "",
) -> str:
    """Render five-number summaries as a table (the boxplot figures)."""
    if not rows:
        raise ValidationError("boxplot_table needs at least one row")
    header = (
        f"{'label':<20} {'n':>5} {'min':>9} {'q1':>9} {'median':>9} "
        f"{'q3':>9} {'max':>9} {'mean':>9}"
    )
    lines = [title, header, "-" * len(header)] if title else [
        header, "-" * len(header)
    ]
    for label, summary in rows:
        lines.append(
            f"{label:<20} {summary.n:>5} "
            f"{summary.minimum:>8.1f}{unit} {summary.q1:>8.1f}{unit} "
            f"{summary.median:>8.1f}{unit} {summary.q3:>8.1f}{unit} "
            f"{summary.maximum:>8.1f}{unit} {summary.mean:>8.1f}{unit}"
        )
    return "\n".join(lines)


def timeline(
    events: Sequence[tuple[float, int]],
    span: float,
    width: int = 72,
    title: str = "",
) -> str:
    """Render (time, magnitude) events on a single-line timeline.

    Events at the same character cell keep the largest magnitude; cells
    render '.' for magnitude 1 and the digit for 2-9.  This is the
    Figure 8 view: multi-GPU failures (digits >= 2) visibly clump.
    """
    if span <= 0:
        raise ValidationError(f"span must be positive, got {span}")
    if width < 10:
        raise ValidationError(f"width must be at least 10, got {width}")
    times = np.array([time for time, _ in events], dtype=float)
    magnitudes = np.array([magnitude for _, magnitude in events])
    in_span = (times >= 0) & (times <= span)  # False for NaN too
    bad = ~in_span | (magnitudes < 1)
    if bad.any():
        # The first offending event; its time is checked first.
        first = int(np.argmax(bad))
        time, magnitude = events[first]
        if not in_span[first]:
            raise ValidationError(f"event time {time} outside [0, {span}]")
        raise ValidationError(
            f"event magnitude must be >= 1, got {magnitude}"
        )
    index = np.minimum(width - 1, (width * times / span).astype(np.int64))
    cells = np.zeros(width, dtype=magnitudes.dtype)
    # fmax, like max(), keeps the cell's value over a NaN magnitude.
    np.fmax.at(cells, index, magnitudes)
    body = "".join(
        " " if cell == 0 else ("." if cell == 1 else str(min(cell, 9)))
        for cell in cells.tolist()
    )
    lines = [title] if title else []
    lines.append(f"|{body}|")
    lines.append(f"0{'h':<1}{' ' * (width - 12)}{span:>9.0f}h")
    return "\n".join(lines)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    title: str = "",
) -> str:
    """Render a simple aligned text table.

    Raises:
        ValidationError: If any row length differs from the header.
    """
    if not headers:
        raise ValidationError("render_table needs headers")
    for row in rows:
        if len(row) != len(headers):
            raise ValidationError(
                f"row {row!r} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(
            f"{str(cell):<{widths[i]}}" for i, cell in enumerate(cells)
        ).rstrip()

    lines = [title] if title else []
    lines.append(fmt(headers))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int | None = None) -> str:
    """Render a numeric series as a one-line bar sparkline.

    Uses eight ASCII-safe levels (space, ., :, -, =, +, *, #) scaled
    between the series minimum and maximum.

    Raises:
        ValidationError: On empty or non-finite input.
    """
    if len(values) == 0:
        raise ValidationError("sparkline needs at least one value")
    levels = " .:-=+*#"
    floats = [float(v) for v in values]
    if any(v != v or v in (float("inf"), float("-inf")) for v in floats):
        raise ValidationError("sparkline values must be finite")
    if width is not None:
        if width < 1:
            raise ValidationError(f"width must be >= 1, got {width}")
        # Downsample by averaging equal chunks.
        if len(floats) > width:
            chunk = len(floats) / width
            floats = [
                sum(floats[int(i * chunk):int((i + 1) * chunk) or None])
                / max(1, len(floats[int(i * chunk):int((i + 1) * chunk)
                                    or None]))
                for i in range(width)
            ]
    low = min(floats)
    high = max(floats)
    if high == low:
        return levels[4] * len(floats)
    scale = (len(levels) - 1) / (high - low)
    return "".join(
        levels[int(round((v - low) * scale))] for v in floats
    )


def histogram(
    sample: Sequence[float],
    num_bins: int = 10,
    width: int = 40,
    value_format: str = "{:.1f}",
    title: str = "",
) -> str:
    """Render a sample as a binned horizontal-bar histogram.

    Raises:
        ValidationError: On empty/non-finite input or bad parameters.
    """
    values = [float(v) for v in sample]
    if not values:
        raise ValidationError("histogram needs a non-empty sample")
    if any(v != v or v in (float("inf"), float("-inf")) for v in values):
        raise ValidationError("histogram sample must be finite")
    if num_bins < 1:
        raise ValidationError(f"num_bins must be >= 1, got {num_bins}")
    low, high = min(values), max(values)
    if high == low:
        high = low + 1.0
    bin_width = (high - low) / num_bins
    counts = [0] * num_bins
    for v in values:
        index = min(int((v - low) / bin_width), num_bins - 1)
        counts[index] += 1
    rows = []
    for index, count in enumerate(counts):
        left = low + index * bin_width
        right = left + bin_width
        label = (f"[{value_format.format(left)}, "
                 f"{value_format.format(right)})")
        rows.append((label, float(count)))
    return bar_chart(rows, width=width, value_format="{:.0f}",
                     title=title)
