"""Trace file format: canonical JSONL codec.

One trace = one JSONL file.  The first line is a header carrying the
schema version and the normalized :class:`SimulationConfig`; every
subsequent line is a typed event (key ``"t"``), ending with the final
simulation report and an ``end`` summary line:

``header``
    ``{"t":"header","schema":1,"config":{...},"horizon_hours":H}``
``fail``
    ``{"t":"fail","time":h,"node":n,"cat":c,"ttr":d,"gpus":[...]}``
``rstart`` / ``rdone``
    ``{"t":"rstart","time":h,"node":n,"cat":c}`` — hands-on repair
    work beginning / completing.
``jsub`` / ``jstart`` / ``jdone`` / ``jkill``
    Job lifecycle: submission (``job``, ``width``, ``hours``), start
    (``nodes``), completion, and kill-by-node-failure (``node``).
``report``
    The final :class:`SimulationReport` as a dict.
``end``
    Run summary (event count, wall seconds); excluded from bit-exact
    comparison because wall time is not deterministic.

Every line is canonical JSON — sorted keys, no whitespace, ``NaN``
and the infinities rejected by the writer and the reader — so byte
equality of two traces is equivalent to semantic equality, and Python
float repr round-trips bit-exactly through the codec.

In memory, a recorded or parsed :class:`Trace` keeps its events as the
recorder's tuples ("rows", laid out as :data:`_ROW_SCHEMA` says) and
builds event dicts only when :attr:`Trace.events` is read.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from repro.errors import TraceError
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.jobs import WorkloadConfig
from repro.sim.repair import RepairPolicy
from repro.sim.simulator import SimulationConfig, SimulationReport

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_KINDS",
    "QuarantinedLine",
    "Trace",
    "canonical_line",
    "event_line",
    "is_plain_event",
    "plain_rows",
    "config_to_dict",
    "config_from_dict",
    "report_to_dict",
    "parse_trace",
    "read_trace",
    "write_trace",
]

#: Current trace schema.  Readers reject traces from a newer schema
#: rather than silently misinterpreting them.
SCHEMA_VERSION = 1

#: Event line types (``"t"`` values) other than header/report/end.
EVENT_KINDS = frozenset(
    {"fail", "rstart", "rdone", "jsub", "jstart", "jdone", "jkill"}
)

#: Event kind -> the fields of its row after the kind, in row order,
#: each with the one type the recorder buffers for it.  A row is the
#: tuple the recorder appends, ``(kind, time, ...)``.  Every other
#: per-kind table derives from this one.
_ROW_SCHEMA: dict[str, tuple[tuple[str, type], ...]] = {
    "fail": (
        ("time", float), ("node", int), ("cat", str), ("ttr", float),
        ("gpus", list),
    ),
    "rstart": (("time", float), ("node", int), ("cat", str)),
    "rdone": (("time", float), ("node", int), ("cat", str)),
    "jsub": (
        ("time", float), ("job", int), ("width", int), ("hours", float),
    ),
    "jstart": (("time", float), ("job", int), ("nodes", list)),
    "jdone": (("time", float), ("job", int)),
    "jkill": (("time", float), ("job", int), ("node", int)),
}

#: Event kind -> its keys beyond ``"t"``, sorted, each with the one
#: type a plain event holds for it.
_EVENT_SCHEMA: dict[str, tuple[tuple[str, type], ...]] = {
    kind: tuple(sorted(fields)) for kind, fields in _ROW_SCHEMA.items()
}

#: Required keys per event kind (beyond ``"t"``).
_EVENT_KEYS: dict[str, frozenset[str]] = {
    kind: frozenset(key for key, _ in schema)
    for kind, schema in _EVENT_SCHEMA.items()
}

#: Event kind -> every key of its line, ``"t"`` included, in the
#: sorted order a canonical line writes them.
_LINE_KEYS: dict[str, tuple[str, ...]] = {
    kind: tuple(sorted([*keys, "t"])) for kind, keys in _EVENT_KEYS.items()
}

#: Event kind -> the key of its list value, for the kinds that have one.
_LIST_KEYS: dict[str, str] = {
    kind: key
    for kind, fields in _ROW_SCHEMA.items()
    for key, value_type in fields
    if value_type is list
}

#: Event kind -> the row of an event dict holding the kind's keys.
_EVENT_ROWS = {
    kind: itemgetter("t", *(key for key, _ in fields))
    for kind, fields in _ROW_SCHEMA.items()
}

#: Plain ints lie strictly inside +-2**63, far below the shortest
#: int -> str digit limit Python allows (640 digits), so they always
#: print.
_INT_BOUND = 2**63


#: One shared encoder: ``json.dumps`` with non-default options builds a
#: new ``JSONEncoder`` per call, which is measurable at a few thousand
#: lines per trace.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def canonical_line(obj: dict) -> str:
    """Serialize one trace line as canonical JSON (no newline).

    Raises:
        TraceError: If the object contains NaN/Infinity or values JSON
            cannot represent — traces must stay machine-comparable, so
            nothing is ever silently coerced.
    """
    try:
        return _CANONICAL_ENCODER.encode(obj)
    except (TypeError, ValueError) as exc:
        raise TraceError(f"trace line is not canonical JSON: {exc}") from exc


_quote = json.encoder.encode_basestring_ascii

#: Event kind -> the canonical line of a plain row (see
#: :func:`_rows_are_plain`).  Each template spells out the kind's keys
#: in sorted order, as ``canonical_line`` would, and prints exact ints
#: with ``format``, finite floats with ``repr`` and strings with the
#: encoder's own quoting, which is what ``canonical_line`` writes for
#: those types.
_ROW_LINES = {
    "fail": lambda r: (
        f'{{"cat":{_quote(r[3])},'
        f'"gpus":[{",".join(map(int.__repr__, r[5]))}],"node":{r[2]},'
        f'"t":"fail","time":{r[1]!r},"ttr":{r[4]!r}}}'
    ),
    "rstart": lambda r: (
        f'{{"cat":{_quote(r[3])},"node":{r[2]},"t":"rstart",'
        f'"time":{r[1]!r}}}'
    ),
    "rdone": lambda r: (
        f'{{"cat":{_quote(r[3])},"node":{r[2]},"t":"rdone",'
        f'"time":{r[1]!r}}}'
    ),
    "jsub": lambda r: (
        f'{{"hours":{r[4]!r},"job":{r[2]},"t":"jsub","time":{r[1]!r},'
        f'"width":{r[3]}}}'
    ),
    "jstart": lambda r: (
        f'{{"job":{r[2]},"nodes":[{",".join(map(int.__repr__, r[3]))}],'
        f'"t":"jstart","time":{r[1]!r}}}'
    ),
    "jdone": lambda r: f'{{"job":{r[2]},"t":"jdone","time":{r[1]!r}}}',
    "jkill": lambda r: (
        f'{{"job":{r[2]},"node":{r[3]},"t":"jkill","time":{r[1]!r}}}'
    ),
}


def _event_from_row(row) -> dict:
    """The event dict of one row: its keys in line order, each list a
    new list."""
    kind = row[0]
    fields = _ROW_SCHEMA[kind]
    if len(row) != len(fields) + 1:
        raise ValueError(f"a {kind} row has {len(fields) + 1} items")
    values = {"t": kind}
    for (key, value_type), value in zip(fields, row[1:]):
        values[key] = list(value) if value_type is list else value
    return {key: values[key] for key in _LINE_KEYS[kind]}


def _events_from_rows(rows) -> list[dict]:
    try:
        return list(map(_event_from_row, rows))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise TraceError(f"trace event rows are malformed: {exc!r}") from exc


def _rows_from_events(events) -> list[tuple]:
    try:
        return [_EVENT_ROWS[event["t"]](event) for event in events]
    except (KeyError, TypeError) as exc:
        raise TraceError(
            f"trace events do not all hold their kind's keys: {exc!r}"
        ) from exc


def _rows_are_plain(rows) -> bool:
    """Whether every row is a row exactly as the recorder buffers it.

    Plain means: an exact ``tuple`` of a known kind and its length,
    every value of the one type :data:`_ROW_SCHEMA` names for its
    column (no subclasses, so no ``bool`` and no NumPy scalars), every
    float finite and nonzero, and every int, alone or in a list,
    inside +-2**63.  The rows are grouped by kind once, and each
    column is then checked whole.
    """
    groups: dict[str, list] = {kind: [] for kind in _ROW_SCHEMA}
    try:
        for row in rows:
            groups[row[0]].append(row)
    except (KeyError, TypeError, IndexError):
        return False
    for kind, group in groups.items():
        if not group:
            continue
        fields = _ROW_SCHEMA[kind]
        if set(map(type, group)) != {tuple} or set(map(len, group)) != {
            len(fields) + 1
        }:
            return False
        columns = zip(*group)
        if set(map(type, next(columns))) != {str}:
            return False
        for (_, expected), column in zip(fields, columns):
            if set(map(type, column)) != {expected}:
                return False
            if expected is float:
                # Finite and nonzero: a NaN or an infinity makes the
                # sum non-finite, and -0.0 == 0.0 while the two print
                # differently.  A finite sum that overflows only sends
                # the rows down the general path.
                if not math.isfinite(sum(column)) or 0.0 in column:
                    return False
            elif expected is not str:
                if expected is list:
                    column = list(chain.from_iterable(column))
                    if set(map(type, column)) - {int}:
                        return False
                if column and not (
                    -_INT_BOUND < min(column) and max(column) < _INT_BOUND
                ):
                    return False
    return True


def event_line(event: dict) -> str:
    """:func:`canonical_line` of one event.

    A plain event (:func:`is_plain_event`) is formatted by its kind's
    row template; anything else goes to :func:`canonical_line`, so the
    output (and any :class:`TraceError`) is always that function's.
    """
    if is_plain_event(event):
        kind = event["t"]
        return _ROW_LINES[kind](_EVENT_ROWS[kind](event))
    return canonical_line(event)


def is_plain_event(event) -> bool:
    """Whether ``event`` is an event exactly as the recorder writes it.

    Plain means: an exact ``dict`` holding ``"t"`` and exactly its
    kind's keys, each value of the one type the schema names for it
    (no subclasses, so no ``bool`` and no NumPy scalars), every float
    finite and nonzero, every int inside +-2**63, and every list made
    of such ints only.  Its row is then plain too
    (:func:`_rows_are_plain`), and :func:`event_line` formats it with
    its kind's template, from these values alone.
    """
    if type(event) is not dict:
        return False
    kind = event.get("t")
    schema = _EVENT_SCHEMA.get(kind) if type(kind) is str else None
    if schema is None or len(event) != len(schema) + 1:
        return False
    for key, expected in schema:
        value = event.get(key)
        if type(value) is not expected:
            return False
        if expected is float:
            # Finite and nonzero: NaN and inf - inf fail the first
            # test, and -0.0 == 0.0 while the two print differently.
            if value - value != 0.0 or value == 0.0:
                return False
        elif expected is int:
            if not -_INT_BOUND < value < _INT_BOUND:
                return False
        elif expected is list:
            for item in value:
                if type(item) is not int or not (
                    -_INT_BOUND < item < _INT_BOUND
                ):
                    return False
    return True


def plain_rows(trace: Trace) -> list[tuple] | None:
    """The trace's events as rows when every one is plain, else None.

    A trace holding rows checks them column by column
    (:func:`_rows_are_plain`) and returns its own list, which the
    caller must not change; a trace holding dicts checks each
    (:func:`is_plain_event`) and builds the rows.  Two plain row lists
    that are equal print alike: equal values of one exact type print
    alike (equal doubles are one double except ``0.0 == -0.0``, and
    zero is not plain), so equal rows, which share a kind, share a
    line.
    """
    rows = trace._rows
    if rows is not None:
        return rows if _rows_are_plain(rows) else None
    events = trace._events
    if all(map(is_plain_event, events)):
        return _rows_from_events(events)
    return None


def config_to_dict(config: SimulationConfig) -> dict:
    """Serialize a normalized simulation config for the trace header."""
    checkpoint = config.checkpoint_policy
    workload = config.workload
    return {
        "machine": config.machine,
        "seed": config.seed,
        "intensity": config.intensity,
        "health_test_effectiveness": config.health_test_effectiveness,
        # Legacy key: the injector has one draw path, so the value is
        # fixed; it stays in the header so traces remain byte-stable.
        "presample": True,
        "repair": {
            "num_technicians": config.repair_policy.num_technicians,
            "spare_lead_time_hours": (
                config.repair_policy.spare_lead_time_hours
            ),
            "hardware_categories": sorted(
                config.repair_policy.hardware_categories
            ),
        },
        "spares": {
            name: config.initial_spares[name]
            for name in sorted(config.initial_spares)
        },
        "checkpoint": (
            None
            if checkpoint is None
            else {
                "interval_hours": checkpoint.interval_hours,
                "cost_hours": checkpoint.cost_hours,
                "restart_cost_hours": checkpoint.restart_cost_hours,
            }
        ),
        "workload": (
            None
            if workload is None
            else {
                "mean_interarrival_hours": (
                    workload.mean_interarrival_hours
                ),
                "mean_duration_hours": workload.mean_duration_hours,
                "duration_sigma": workload.duration_sigma,
                "size_choices": list(workload.size_choices),
                "size_weights": list(workload.size_weights),
                "max_duration_hours": workload.max_duration_hours,
            }
        ),
        # The "train" key is emitted only when a training config is
        # present so pre-existing traces stay byte-identical.
        **(
            {"train": config.train.to_dict()}
            if config.train is not None else {}
        ),
    }


def _training_config_from_dict(data: dict):
    # Lazy import: repro.train sits above repro.sim/trace in the
    # package layering, so the codec only pulls it in for traces that
    # actually carry a training config.
    from repro.train.config import TrainingJobConfig

    return TrainingJobConfig.from_dict(data)


def config_from_dict(data: dict) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from a trace header.

    The legacy ``presample`` key must be present and a bool but is
    otherwise ignored: replay feeds recorded failures and never draws.

    Raises:
        TraceError: On missing or malformed keys.
    """
    try:
        if not isinstance(data["presample"], bool):
            raise TypeError(
                f"presample must be a bool, got {data['presample']!r}"
            )
        repair = data["repair"]
        checkpoint = data["checkpoint"]
        workload = data["workload"]
        return SimulationConfig(
            machine=data["machine"],
            seed=data["seed"],
            intensity=data["intensity"],
            health_test_effectiveness=data["health_test_effectiveness"],
            repair_policy=RepairPolicy(
                num_technicians=repair["num_technicians"],
                spare_lead_time_hours=repair["spare_lead_time_hours"],
                hardware_categories=frozenset(
                    repair["hardware_categories"]
                ),
            ),
            initial_spares=dict(data["spares"]),
            checkpoint_policy=(
                None
                if checkpoint is None
                else CheckpointPolicy(
                    interval_hours=checkpoint["interval_hours"],
                    cost_hours=checkpoint["cost_hours"],
                    restart_cost_hours=checkpoint["restart_cost_hours"],
                )
            ),
            workload=(
                None
                if workload is None
                else WorkloadConfig(
                    mean_interarrival_hours=workload[
                        "mean_interarrival_hours"
                    ],
                    mean_duration_hours=workload["mean_duration_hours"],
                    duration_sigma=workload["duration_sigma"],
                    size_choices=tuple(workload["size_choices"]),
                    size_weights=tuple(workload["size_weights"]),
                    max_duration_hours=workload["max_duration_hours"],
                )
            ),
            train=(
                None
                if data.get("train") is None
                else _training_config_from_dict(data["train"])
            ),
        )
    except (KeyError, TypeError) as exc:
        raise TraceError(
            f"trace header config is malformed: {exc!r}"
        ) from exc


def report_to_dict(report: SimulationReport) -> dict:
    """Serialize a simulation report for the trace ``report`` line."""
    scheduler = report.scheduler
    return {
        "machine": report.machine,
        # float() for the same reason as Trace.horizon_hours: an int
        # horizon from the caller must not break byte comparison with
        # a replay driven by the (always-float) parsed header.
        "horizon_hours": float(report.horizon_hours),
        "failures_injected": report.failures_injected,
        "repairs_completed": report.repairs_completed,
        "effective_mttr_hours": report.effective_mttr_hours,
        "mean_waiting_hours": report.mean_waiting_hours,
        "availability": report.availability,
        "spare_stockouts": report.spare_stockouts,
        "spares_consumed": report.spares_consumed,
        "scheduler": (
            None
            if scheduler is None
            else {
                "jobs_submitted": scheduler.jobs_submitted,
                "jobs_completed": scheduler.jobs_completed,
                "jobs_killed_by_failures": (
                    scheduler.jobs_killed_by_failures
                ),
                "useful_node_hours": scheduler.useful_node_hours,
                "lost_node_hours": scheduler.lost_node_hours,
                "total_wait_hours": scheduler.total_wait_hours,
            }
        ),
        # Emitted only for training runs (pre-existing traces stay
        # byte-identical).
        **(
            {
                "train": {
                    "job_nodes": report.train.job_nodes,
                    "step_time_hours": report.train.step_time_hours,
                    "interrupts": report.train.interrupts,
                    "restarts": report.train.restarts,
                    "steps_committed": report.train.steps_committed,
                    "work_committed_hours": (
                        report.train.work_committed_hours
                    ),
                    "lost_work_hours": report.train.lost_work_hours,
                    "lost_work_by_category": {
                        name: report.train.lost_work_by_category[name]
                        for name in sorted(
                            report.train.lost_work_by_category
                        )
                    },
                    "stall_hours": report.train.stall_hours,
                    "restart_overhead_hours": (
                        report.train.restart_overhead_hours
                    ),
                    "checkpoint_overhead_hours": (
                        report.train.checkpoint_overhead_hours
                    ),
                    "blast_radius_node_hours": (
                        report.train.blast_radius_node_hours
                    ),
                    "elapsed_hours": report.train.elapsed_hours,
                    "completed": report.train.completed,
                    "completed_at_hours": report.train.completed_at_hours,
                }
            }
            if report.train is not None else {}
        ),
    }


@dataclass(frozen=True)
class QuarantinedLine:
    """One trace line that failed to parse and was set aside."""

    line_number: int
    raw: str
    reason: str


class Trace:
    """A parsed (or freshly recorded) execution trace.

    The events are held in one of two forms.  A recorded or parsed
    trace holds *rows*: tuples ``(kind, time, ...)`` laid out as
    :data:`_ROW_SCHEMA` says, as the recorder buffers them (pass
    ``rows=``; the trace keeps the list).  :attr:`events` builds the
    public ``list[dict]`` form on first access, and from then on those
    dicts are the trace's events, so callers may edit them.  Every
    line, comparison and error is the same in either form.
    """

    def __init__(
        self,
        config: SimulationConfig,
        horizon_hours: float,
        events: list[dict] | None = None,
        report: dict | None = None,
        end: dict | None = None,
        *,
        rows: list[tuple] | None = None,
    ) -> None:
        if events is not None and rows is not None:
            raise TraceError("a trace holds events or rows, not both")
        self.config = config
        # Canonical form is float: an int horizon would serialize as
        # "600" but parse back as 600.0 and re-emit as "600.0",
        # breaking byte-identical codec round-trips.
        self.horizon_hours = float(horizon_hours)
        self._rows = rows
        self._events = (
            None if rows is not None else [] if events is None else events
        )
        self.report = report
        self.end = end

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.config == other.config
            and self.horizon_hours == other.horizon_hours
            and self._event_dicts() == other._event_dicts()
            and self.report == other.report
            and self.end == other.end
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Trace(machine={self.config.machine!r}, "
            f"horizon_hours={self.horizon_hours!r}, "
            f"events={self.event_count})"
        )

    @property
    def events(self) -> list[dict]:
        """The events as dicts, in order (built on first access)."""
        if self._rows is not None:
            self._events = _events_from_rows(self._rows)
            self._rows = None
        return self._events

    @events.setter
    def events(self, events: list[dict]) -> None:
        self._events = events
        self._rows = None

    @property
    def event_count(self) -> int:
        """The number of events, without building any dict."""
        return len(self._rows if self._rows is not None else self._events)

    @property
    def failures(self) -> list[dict]:
        """The ``fail`` events, in firing order."""
        return [e for e in self.events if e["t"] == "fail"]

    @property
    def jobs(self) -> list[dict]:
        """The ``jsub`` events, in submission order."""
        return [e for e in self.events if e["t"] == "jsub"]

    def _event_dicts(self) -> list[dict]:
        """The events as dicts, leaving a trace that holds rows as it
        is."""
        if self._rows is not None:
            return _events_from_rows(self._rows)
        return self._events

    def event_rows(self) -> list[tuple]:
        """The events as rows, in order, in a new list.

        Raises:
            TraceError: If the trace holds dicts and one of them lacks
                a key of its kind.
        """
        if self._rows is not None:
            return list(self._rows)
        return _rows_from_events(self._events)

    def header_dict(self) -> dict:
        """The header line as a dict (including ``"t"``)."""
        return {
            "t": "header",
            "schema": SCHEMA_VERSION,
            "config": config_to_dict(self.config),
            "horizon_hours": self.horizon_hours,
        }

    def lines(self) -> list[str]:
        """Every line of the trace in canonical form, in order."""
        out = [canonical_line(self.header_dict())]
        out.extend(self.event_lines())
        if self.report is not None:
            out.append(canonical_line({"t": "report", **self.report}))
        if self.end is not None:
            out.append(canonical_line({"t": "end", **self.end}))
        return out

    def event_lines(self) -> list[str]:
        """Canonical lines of the events only (the bit-exact body).

        Plain rows go through their kinds' templates; any other trace
        formats its event dicts with :func:`event_line`.
        """
        rows = self._rows
        if rows is not None and _rows_are_plain(rows):
            return [_ROW_LINES[row[0]](row) for row in rows]
        return list(map(event_line, self._event_dicts()))

    def dumps(self) -> str:
        """The whole trace as JSONL text (trailing newline included)."""
        return "\n".join(self.lines()) + "\n"


def _reject_constant(name: str):
    raise json.JSONDecodeError(f"{name} is not allowed", name, 0)


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isfinite(value):
        return value
    raise json.JSONDecodeError(f"{text} is out of range", text, 0)


#: The one decoder traces are read with: the default one, except that
#: ``NaN``, ``Infinity``, ``-Infinity`` and number literals that
#: overflow to an infinity (``1e999``) are errors, as they are for the
#: canonical encoder.
_DECODER = json.JSONDecoder(
    parse_constant=_reject_constant, parse_float=_finite_float
)
_scan_once = _DECODER.scan_once


def _decode_line(line: str):
    """Decode one stripped, nonblank trace line.

    The C scanner's ``scan_once(line, 0)`` result is kept when the
    scan consumed the whole line.  Any other outcome goes through
    ``json.loads``'s checks (a BOM, leading and trailing JSON
    whitespace, extra data) on the same decoder, so every error
    reads as ``json.loads`` would put it.

    Raises:
        json.JSONDecodeError: For text ``json.loads`` rejects, and for
            ``NaN`` / ``Infinity`` / ``-Infinity``.
    """
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, ValueError):
        end = None
    if end == len(line):
        return obj
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError(
            "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
        )
    return _DECODER.decode(line)


def parse_trace(
    text: str, *, on_error: str = "raise"
) -> tuple[Trace, list[QuarantinedLine]]:
    """Parse JSONL trace text.

    Args:
        text: The trace file contents.
        on_error: ``"raise"`` (default) aborts on the first malformed
            line; ``"quarantine"`` sets malformed lines aside and
            returns them alongside the trace — the chaos-tolerant mode
            stream sources use on truncated or corrupt files.

    Returns:
        ``(trace, quarantined)``; ``quarantined`` is empty under
        ``"raise"``.

    Raises:
        TraceError: On a malformed line (``"raise"`` mode), a missing
            or invalid header, or an unsupported schema version.  A
            bad *header* always raises — without it nothing else in
            the file is interpretable.  A line holding ``NaN``,
            ``Infinity``, ``-Infinity`` or a number that overflows to
            an infinity is malformed, as is one whose ``"t"`` is not a
            string naming a line type, and the header's
            ``horizon_hours`` must be a finite number that is not a
            bool.
    """
    if on_error not in ("raise", "quarantine"):
        raise TraceError(
            f"on_error must be 'raise' or 'quarantine', got {on_error!r}"
        )
    header: dict | None = None
    # Event lines become rows while every one of them has exactly its
    # kind's keys, in line order, and a list where its kind has one;
    # the first that does not turns the rows so far into dicts, which
    # hold the rest.
    rows: list[tuple] | None = []
    events: list[dict] | None = None
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
            obj = _decode_line(line)
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
            horizon = obj.get("horizon_hours")
            if not isinstance(horizon, (int, float)):
                raise TraceError(
                    f"trace line {number}: header has no numeric "
                    f"horizon_hours"
                )
            if type(horizon) is bool or not math.isfinite(horizon):
                raise TraceError(
                    f"trace line {number}: header horizon_hours must "
                    f"be a finite number, got {horizon!r}"
                )
            header = obj
            continue
        if isinstance(kind, str) and kind in EVENT_KINDS:
            list_key = _LIST_KEYS.get(kind)
            if (
                rows is not None
                and tuple(obj) == _LINE_KEYS[kind]
                and (list_key is None or type(obj[list_key]) is list)
            ):
                rows.append(_EVENT_ROWS[kind](obj))
                continue
            required = _EVENT_KEYS[kind]
            if obj.keys() >= required:
                if rows is not None:
                    events = _events_from_rows(rows)
                    rows = None
                events.append(obj)
            else:
                bad(
                    number,
                    raw,
                    f"{kind} event missing keys "
                    f"{sorted(required - obj.keys())}",
                )
        elif kind == "header":
            bad(number, raw, "duplicate header")
        elif kind == "report":
            report = {k: v for k, v in obj.items() if k != "t"}
        elif kind == "end":
            end = {k: v for k, v in obj.items() if k != "t"}
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
        rows=rows,
    )
    return trace, quarantined


def read_trace(
    path: str | os.PathLike, *, on_error: str = "raise"
) -> tuple[Trace, list[QuarantinedLine]]:
    """Read and parse a trace file (see :func:`parse_trace`).

    Raises:
        TraceError: If the file cannot be read or (in ``"raise"``
            mode) contains a malformed line.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    return parse_trace(text, on_error=on_error)


def write_trace(trace: Trace, path: str | os.PathLike) -> None:
    """Write a trace to disk as canonical JSONL.

    The text is built before the file is opened, so a trace that is
    not canonical JSON leaves an existing file as it was.

    Raises:
        TraceError: If the trace is not canonical JSON or the file
            cannot be written.
    """
    text = trace.dumps()
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise TraceError(f"cannot write trace {path}: {exc}") from exc
