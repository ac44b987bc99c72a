"""Structured diffs between simulation outcome reports.

A counterfactual replay answers "what would this recorded month have
looked like under policy B?"  The answer is a field-by-field diff of
the two :class:`SimulationReport` outcomes — numeric deltas where the
fields are numeric, nested under ``scheduler.`` for the workload
counters and ``train.`` for a training run's statistics — rather than
two reports the reader must eyeball.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.simulator import SimulationReport
from repro.trace.format import report_to_dict

__all__ = ["FieldDiff", "ReportDiff", "diff_reports"]


@dataclass(frozen=True)
class FieldDiff:
    """One report field under the two policies."""

    field: str
    baseline: object
    counterfactual: object
    delta: float | None

    @property
    def changed(self) -> bool:
        """True when the two values differ."""
        return self.baseline != self.counterfactual


@dataclass(frozen=True)
class ReportDiff:
    """Field-wise comparison of two simulation reports."""

    fields: tuple[FieldDiff, ...]

    @property
    def changed(self) -> tuple[FieldDiff, ...]:
        """Only the fields whose values differ."""
        return tuple(f for f in self.fields if f.changed)

    def __getitem__(self, field: str) -> FieldDiff:
        for entry in self.fields:
            if entry.field == field:
                return entry
        raise KeyError(field)

    def to_dict(self) -> dict:
        """JSON-ready representation (stable field order)."""
        return {
            entry.field: {
                "baseline": entry.baseline,
                "counterfactual": entry.counterfactual,
                "delta": entry.delta,
            }
            for entry in self.fields
        }

    def format_text(self, *, changed_only: bool = True) -> str:
        """Aligned plain-text rendering for the CLI."""
        rows = self.changed if changed_only else self.fields
        if not rows:
            return "no outcome differences"
        width = max(len(r.field) for r in rows)
        lines = []
        for entry in rows:
            delta = ""
            if entry.delta is not None:
                delta = f"  ({entry.delta:+g})"
            lines.append(
                f"{entry.field.ljust(width)}  "
                f"{entry.baseline!r} -> {entry.counterfactual!r}{delta}"
            )
        return "\n".join(lines)


def _flatten(report: dict, prefix: str = "") -> dict:
    """Nested blocks (``scheduler``, ``train`` and its
    ``lost_work_by_category``) as dotted fields; an absent block
    (``None``) stays one field."""
    flat: dict = {}
    for key, value in report.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def diff_reports(
    baseline: SimulationReport | dict,
    counterfactual: SimulationReport | dict,
) -> ReportDiff:
    """Diff two reports (objects or their trace-dict form).

    Fields present in only one report appear with ``None`` on the
    other side (e.g. ``scheduler.*`` when only one run had a
    workload, or a ``train.lost_work_by_category.*`` category only
    one run lost work to).  Deltas are ``counterfactual - baseline``
    and only computed for numeric pairs.
    """
    if isinstance(baseline, SimulationReport):
        baseline = report_to_dict(baseline)
    if isinstance(counterfactual, SimulationReport):
        counterfactual = report_to_dict(counterfactual)
    left = _flatten(baseline)
    right = _flatten(counterfactual)
    fields = []
    for key in [*left, *(k for k in right if k not in left)]:
        a = left.get(key)
        b = right.get(key)
        delta = None
        if (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and not isinstance(a, bool)
            and not isinstance(b, bool)
        ):
            delta = b - a
        fields.append(
            FieldDiff(
                field=key, baseline=a, counterfactual=b, delta=delta
            )
        )
    return ReportDiff(fields=tuple(fields))
