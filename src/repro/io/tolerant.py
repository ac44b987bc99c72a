"""Tolerant-ingest machinery: quarantine instead of abort.

Field exports are messy: a truncated last line, a NaN timestamp, a
duplicated record, a category typo.  The strict readers abort on the
first such row, which is the right default for pipelines — but an
operator triaging a 50k-row export wants the 49k good rows *and* a
precise account of the bad ones.

Every reader in :mod:`repro.io` therefore takes
``on_error="raise"|"skip"|"collect"``:

* ``"raise"`` (default) — abort on the first malformed row, exactly
  the pre-existing strict behaviour.
* ``"skip"`` — drop malformed rows silently and return the log built
  from the rest.
* ``"collect"`` — return a :class:`LogReadReport` carrying the log
  *plus* one :class:`QuarantinedRow` per malformed row (line number,
  offending field when known, reason).

Structural problems (missing header, unreadable file, malformed
metadata) always raise: there is no per-row recovery from not knowing
the machine or the observation window.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Any, Callable

from repro.core.records import FailureLog, FailureRecord
from repro.core.taxonomy import categories_for
from repro.errors import SerializationError

__all__ = [
    "ON_ERROR_MODES",
    "QuarantinedRow",
    "LogReadReport",
    "RowQuarantine",
    "check_on_error",
    "sift_records",
]

#: Accepted values of the readers' ``on_error`` argument.
ON_ERROR_MODES = ("raise", "skip", "collect")

_RAW_PREVIEW_CHARS = 120


def check_on_error(on_error: str) -> str:
    """Validate an ``on_error`` mode (misconfiguration always raises).

    Raises:
        SerializationError: On an unknown mode.
    """
    if on_error not in ON_ERROR_MODES:
        raise SerializationError(
            f"unknown on_error mode {on_error!r} (known: "
            f"{', '.join(ON_ERROR_MODES)})"
        )
    return on_error


@dataclass(frozen=True)
class QuarantinedRow:
    """Diagnostics for one malformed input row.

    Attributes:
        line_number: 1-based physical line in the source file (or
            record index for non-file sources).
        reason: Human-readable parse/validation failure.
        field: Offending column/key when it could be pinned down,
            else None (e.g. a row that is not parseable at all).
        raw: Truncated preview of the raw row text, for triage.
    """

    line_number: int
    reason: str
    field: str | None = None
    raw: str | None = None

    def format_line(self) -> str:
        """Render as one aligned diagnostic line."""
        where = f"line {self.line_number}"
        field_text = f" [{self.field}]" if self.field else ""
        return f"  {where}{field_text}: {self.reason}"


@dataclass(frozen=True)
class LogReadReport:
    """Outcome of a lenient (``on_error="collect"``) log read.

    Attributes:
        log: The log built from every parseable row.
        quarantined: One entry per malformed row, in file order.
        path: Source path (as given by the caller).
        format: Source format (``"csv"``, ``"jsonl"``, ``"raw-csv"``).
    """

    log: FailureLog
    quarantined: tuple[QuarantinedRow, ...] = ()
    path: str = ""
    format: str = ""

    @property
    def num_read(self) -> int:
        """Rows that made it into the log."""
        return len(self.log)

    @property
    def num_quarantined(self) -> int:
        return len(self.quarantined)

    @property
    def ok(self) -> bool:
        """True when nothing was quarantined."""
        return not self.quarantined

    def raise_if_any(self) -> "LogReadReport":
        """Escalate to strict semantics after the fact.

        Raises:
            SerializationError: If any row was quarantined, naming the
                first one.
        """
        if self.quarantined:
            first = self.quarantined[0]
            raise SerializationError(
                f"{self.path or 'log'} quarantined "
                f"{self.num_quarantined} row(s); first: "
                f"line {first.line_number}: {first.reason}"
            )
        return self

    def summary_lines(self, limit: int = 10) -> list[str]:
        """Render the quarantine summary for terminal output."""
        source = self.path or "log"
        if self.ok:
            return [
                f"lenient read: {source}: {self.num_read} rows, "
                f"0 quarantined"
            ]
        lines = [
            f"lenient read: {source}: {self.num_read} rows kept, "
            f"{self.num_quarantined} quarantined:"
        ]
        for entry in self.quarantined[:limit]:
            lines.append(entry.format_line())
        hidden = self.num_quarantined - limit
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        return lines


class RowQuarantine:
    """Collects per-row failures according to an ``on_error`` mode.

    The readers call :meth:`add` for every malformed row; in
    ``"raise"`` mode the original exception is re-raised (with the
    file/line context prepended), otherwise the row is recorded (or
    silently dropped in ``"skip"`` mode — it is still *counted* so the
    skip path can assert "something parseable remained").
    """

    def __init__(self, on_error: str, path: str = "") -> None:
        self.on_error = check_on_error(on_error)
        self.path = path
        self.rows: list[QuarantinedRow] = []
        self.dropped = 0

    @property
    def lenient(self) -> bool:
        return self.on_error != "raise"

    def add(
        self,
        line_number: int,
        reason: str,
        field: str | None = None,
        raw: str | None = None,
        cause: BaseException | None = None,
    ) -> None:
        """Record one malformed row (or abort, in strict mode).

        Raises:
            SerializationError: In ``"raise"`` mode, wrapping
                ``cause`` with file/line context.
        """
        if not self.lenient:
            raise SerializationError(
                f"{self.path}:{line_number}: {reason}"
            ) from cause
        self.dropped += 1
        if self.on_error == "collect":
            preview = None
            if raw is not None:
                text = raw.rstrip("\n")
                if len(text) > _RAW_PREVIEW_CHARS:
                    text = text[:_RAW_PREVIEW_CHARS] + "..."
                preview = text
            self.rows.append(
                QuarantinedRow(
                    line_number=line_number,
                    reason=reason,
                    field=field,
                    raw=preview,
                )
            )

    def report(self, log: FailureLog, format: str) -> LogReadReport:
        """Wrap the final log into a :class:`LogReadReport`."""
        return LogReadReport(
            log=log,
            quarantined=tuple(self.rows),
            path=self.path,
            format=format,
        )


def sift_records(
    machine: str,
    window_start: datetime,
    window_end: datetime,
    rows: list[tuple[int, Any, FailureRecord]],
    quarantine: RowQuarantine,
    preview: Callable[[Any], str | None] = lambda raw: raw,
) -> list[FailureRecord]:
    """Apply the log-level invariants row by row, quarantining violators.

    :class:`~repro.core.records.FailureLog` enforces unique record ids,
    in-window timestamps, and taxonomy membership — but raises for the
    whole log.  This re-checks the same invariants per row (in file
    order, so e.g. the *second* occurrence of a duplicated id is the
    one quarantined) and returns the survivors, which are then
    guaranteed to construct a valid log.

    ``rows`` holds ``(line_number, raw, record)`` triples;
    ``preview(raw)`` renders the raw text of a quarantined row, so
    readers pay for it only on the rows that are quarantined.
    """
    valid_names = {cat.name for cat in categories_for(machine)}
    seen_ids: set[int] = set()
    kept: list[FailureRecord] = []
    for line_number, raw, record in rows:
        if record.record_id in seen_ids:
            quarantine.add(
                line_number,
                f"duplicate record_id {record.record_id}",
                field="record_id",
                raw=preview(raw),
            )
            continue
        if not (window_start <= record.timestamp <= window_end):
            quarantine.add(
                line_number,
                f"timestamp {record.timestamp.isoformat()} outside the "
                f"observation window [{window_start.isoformat()}, "
                f"{window_end.isoformat()}]",
                field="timestamp",
                raw=preview(raw),
            )
            continue
        if record.category not in valid_names:
            quarantine.add(
                line_number,
                f"category {record.category!r} is not in the "
                f"{machine} taxonomy",
                field="category",
                raw=preview(raw),
            )
            continue
        seen_ids.add(record.record_id)
        kept.append(record)
    return kept
