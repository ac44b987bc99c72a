"""Reference implementations the trace codec is checked against.

These are test oracles, not shipped code: each keeps an older, slower
formulation whose outputs the package must still reproduce exactly.
"""

from __future__ import annotations

import json

from repro.errors import TraceError
from repro.trace.format import (
    _EVENT_KEYS,
    EVENT_KINDS,
    SCHEMA_VERSION,
    QuarantinedLine,
    Trace,
    canonical_line,
    config_from_dict,
)
from repro.trace.replay import TraceDivergence


def compare_traces_by_lines(
    recorded: Trace, replayed: Trace
) -> TraceDivergence | None:
    """:func:`repro.trace.compare_traces` formatting every event line
    of both traces before comparing them."""
    recorded_lines = recorded.event_lines()
    replayed_lines = replayed.event_lines()
    for index, (expected, actual) in enumerate(
        zip(recorded_lines, replayed_lines)
    ):
        if expected != actual:
            return TraceDivergence(
                kind="event",
                index=index,
                expected=expected,
                actual=actual,
            )
    if len(recorded_lines) != len(replayed_lines):
        index = min(len(recorded_lines), len(replayed_lines))
        return TraceDivergence(
            kind="event_count",
            index=index,
            expected=(
                recorded_lines[index]
                if index < len(recorded_lines)
                else None
            ),
            actual=(
                replayed_lines[index]
                if index < len(replayed_lines)
                else None
            ),
        )
    if recorded.report is not None:
        expected = canonical_line(recorded.report)
        actual = (
            canonical_line(replayed.report)
            if replayed.report is not None
            else None
        )
        if expected != actual:
            return TraceDivergence(
                kind="report",
                index=None,
                expected=expected,
                actual=actual,
            )
    return None


def parse_trace_json_loads(
    text: str, *, on_error: str = "raise"
) -> tuple[Trace, list[QuarantinedLine]]:
    """:func:`repro.trace.parse_trace` decoding each line with
    ``json.loads``, which accepts ``NaN``, ``Infinity`` and
    ``-Infinity``, and accepting any int or float horizon (``true``
    included)."""
    if on_error not in ("raise", "quarantine"):
        raise TraceError(
            f"on_error must be 'raise' or 'quarantine', got {on_error!r}"
        )
    header: dict | None = None
    events: list[dict] = []
    report: dict | None = None
    end: dict | None = None
    quarantined: list[QuarantinedLine] = []

    def bad(number: int, raw: str, reason: str) -> None:
        if on_error == "raise":
            raise TraceError(f"trace line {number}: {reason}")
        quarantined.append(
            QuarantinedLine(line_number=number, raw=raw, reason=reason)
        )

    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if header is None:
                raise TraceError(
                    f"trace line {number}: header is not valid JSON "
                    f"({exc.msg})"
                ) from exc
            bad(number, raw, f"not valid JSON ({exc.msg})")
            continue
        if not isinstance(obj, dict) or "t" not in obj:
            if header is None:
                raise TraceError(
                    f"trace line {number}: expected a header object "
                    f"with a 't' key"
                )
            bad(number, raw, "not an object with a 't' key")
            continue
        kind = obj["t"]
        if header is None:
            if kind != "header":
                raise TraceError(
                    f"trace line {number}: first line must be the "
                    f"header, got {kind!r}"
                )
            schema = obj.get("schema")
            if schema != SCHEMA_VERSION:
                raise TraceError(
                    f"unsupported trace schema {schema!r} "
                    f"(this reader supports {SCHEMA_VERSION})"
                )
            if not isinstance(obj.get("config"), dict):
                raise TraceError(
                    f"trace line {number}: header has no config object"
                )
            if not isinstance(
                obj.get("horizon_hours"), (int, float)
            ):
                raise TraceError(
                    f"trace line {number}: header has no numeric "
                    f"horizon_hours"
                )
            header = obj
            continue
        if kind == "header":
            bad(number, raw, "duplicate header")
        elif kind == "report":
            report = {k: v for k, v in obj.items() if k != "t"}
        elif kind == "end":
            end = {k: v for k, v in obj.items() if k != "t"}
        elif kind in EVENT_KINDS:
            missing = _EVENT_KEYS[kind] - obj.keys()
            if missing:
                bad(
                    number,
                    raw,
                    f"{kind} event missing keys "
                    f"{sorted(missing)}",
                )
            else:
                events.append(obj)
        else:
            bad(number, raw, f"unknown event type {kind!r}")

    if header is None:
        raise TraceError("trace has no header line")
    trace = Trace(
        config=config_from_dict(header["config"]),
        horizon_hours=float(header["horizon_hours"]),
        events=events,
        report=report,
        end=end,
    )
    return trace, quarantined
