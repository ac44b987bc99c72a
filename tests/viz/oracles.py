"""Per-event chart loops, kept as oracles for the vectorised renderers.

``timeline`` is the loop :func:`repro.viz.ascii.timeline` ran before it
binned events with ``np.fmax.at``: one validation and one cell update
per event, so the first offending event is the one it raises on.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import ValidationError


def timeline(
    events: Sequence[tuple[float, int]],
    span: float,
    width: int = 72,
    title: str = "",
) -> str:
    """Render (time, magnitude) events on a single-line timeline."""
    if span <= 0:
        raise ValidationError(f"span must be positive, got {span}")
    if width < 10:
        raise ValidationError(f"width must be at least 10, got {width}")
    cells = [0] * width
    for time, magnitude in events:
        if not 0 <= time <= span:
            raise ValidationError(
                f"event time {time} outside [0, {span}]"
            )
        if magnitude < 1:
            raise ValidationError(
                f"event magnitude must be >= 1, got {magnitude}"
            )
        index = min(width - 1, int(width * time / span))
        cells[index] = max(cells[index], magnitude)
    body = "".join(
        " " if cell == 0 else ("." if cell == 1 else str(min(cell, 9)))
        for cell in cells
    )
    lines = [title] if title else []
    lines.append(f"|{body}|")
    lines.append(f"0{'h':<1}{' ' * (width - 12)}{span:>9.0f}h")
    return "\n".join(lines)
