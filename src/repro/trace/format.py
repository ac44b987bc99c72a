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
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

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

#: Event kind -> its keys beyond ``"t"``, sorted, each with the one
#: type the recorder writes for it.  The plain-event check reads the
#: types; :data:`_EVENT_KEYS` and the formatters' key counts derive
#: from the keys.
_EVENT_SCHEMA: dict[str, tuple[tuple[str, type], ...]] = {
    "fail": (
        ("cat", str), ("gpus", list), ("node", int), ("time", float),
        ("ttr", float),
    ),
    "rstart": (("cat", str), ("node", int), ("time", float)),
    "rdone": (("cat", str), ("node", int), ("time", float)),
    "jsub": (
        ("hours", float), ("job", int), ("time", float), ("width", int),
    ),
    "jstart": (("job", int), ("nodes", list), ("time", float)),
    "jdone": (("job", int), ("time", float)),
    "jkill": (("job", int), ("node", int), ("time", float)),
}

#: Required keys per event kind (beyond ``"t"``).
_EVENT_KEYS: dict[str, frozenset[str]] = {
    kind: frozenset(key for key, _ in schema)
    for kind, schema in _EVENT_SCHEMA.items()
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


def _value(value) -> str:
    """One event value as canonical JSON, for the types events hold.

    Raises:
        TypeError: For any other type (including ``bool`` and NumPy
            scalars) or a non-finite float, so the caller falls back
            to the general encoder.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if value - value == 0.0:  # finite: inf - inf and NaN are NaN
            return float.__repr__(value)
    elif kind is str:
        return _quote(value)
    elif kind is list:
        for item in value:
            if type(item) is not int:
                break
        else:
            return f"[{','.join(map(int.__repr__, value))}]"
    raise TypeError(f"no fast form for {kind.__name__}")


#: Event kind -> formatter.  Each template spells out the kind's keys
#: in sorted order, as ``canonical_line`` would.
_EVENT_TEMPLATES = {
    "fail": lambda e: (
        f'{{"cat":{_value(e["cat"])},"gpus":{_value(e["gpus"])},'
        f'"node":{_value(e["node"])},"t":"fail",'
        f'"time":{_value(e["time"])},"ttr":{_value(e["ttr"])}}}'
    ),
    "rstart": lambda e: (
        f'{{"cat":{_value(e["cat"])},"node":{_value(e["node"])},'
        f'"t":"rstart","time":{_value(e["time"])}}}'
    ),
    "rdone": lambda e: (
        f'{{"cat":{_value(e["cat"])},"node":{_value(e["node"])},'
        f'"t":"rdone","time":{_value(e["time"])}}}'
    ),
    "jsub": lambda e: (
        f'{{"hours":{_value(e["hours"])},"job":{_value(e["job"])},'
        f'"t":"jsub","time":{_value(e["time"])},'
        f'"width":{_value(e["width"])}}}'
    ),
    "jstart": lambda e: (
        f'{{"job":{_value(e["job"])},"nodes":{_value(e["nodes"])},'
        f'"t":"jstart","time":{_value(e["time"])}}}'
    ),
    "jdone": lambda e: (
        f'{{"job":{_value(e["job"])},"t":"jdone",'
        f'"time":{_value(e["time"])}}}'
    ),
    "jkill": lambda e: (
        f'{{"job":{_value(e["job"])},"node":{_value(e["node"])},'
        f'"t":"jkill","time":{_value(e["time"])}}}'
    ),
}

#: Event kind -> (key count including ``"t"``, formatter).
_EVENT_FORMATS = {
    kind: (len(_EVENT_KEYS[kind]) + 1, template)
    for kind, template in _EVENT_TEMPLATES.items()
}


def event_line(event: dict) -> str:
    """:func:`canonical_line` of one event, formatted per kind.

    An event with exactly its kind's keys, holding only ints, finite
    floats, strings and lists of ints, goes through a fixed template;
    anything else goes to :func:`canonical_line`, so the output (and
    any :class:`TraceError`) is always the same as that function's.
    """
    try:
        size, fmt = _EVENT_FORMATS[event["t"]]
        if type(event) is dict and len(event) == size:
            return fmt(event)
    except (KeyError, TypeError, ValueError):
        pass
    return canonical_line(event)


def is_plain_event(event) -> bool:
    """Whether ``event`` is an event exactly as the recorder writes it.

    Plain means: an exact ``dict`` holding ``"t"`` and exactly its
    kind's keys, each value of the one type the schema names for it
    (no subclasses, so no ``bool`` and no NumPy scalars), every float
    finite and nonzero, every int inside +-2**63, and every list made
    of such ints only.  :func:`event_line` formats a plain event with
    its kind's template, from these values alone, and never falls
    back to :func:`canonical_line`.
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


@dataclass
class Trace:
    """A parsed (or freshly recorded) execution trace."""

    config: SimulationConfig
    horizon_hours: float
    events: list[dict] = field(default_factory=list)
    report: dict | None = None
    end: dict | None = None

    def __post_init__(self) -> None:
        # Canonical form is float: an int horizon would serialize as
        # "600" but parse back as 600.0 and re-emit as "600.0",
        # breaking byte-identical codec round-trips.
        self.horizon_hours = float(self.horizon_hours)

    @property
    def failures(self) -> list[dict]:
        """The ``fail`` events, in firing order."""
        return [e for e in self.events if e["t"] == "fail"]

    @property
    def jobs(self) -> list[dict]:
        """The ``jsub`` events, in submission order."""
        return [e for e in self.events if e["t"] == "jsub"]

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
        out.extend(map(event_line, self.events))
        if self.report is not None:
            out.append(canonical_line({"t": "report", **self.report}))
        if self.end is not None:
            out.append(canonical_line({"t": "end", **self.end}))
        return out

    def event_lines(self) -> list[str]:
        """Canonical lines of the events only (the bit-exact body)."""
        return list(map(event_line, self.events))

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
        if kind == "header":
            bad(number, raw, "duplicate header")
        elif kind == "report":
            report = {k: v for k, v in obj.items() if k != "t"}
        elif kind == "end":
            end = {k: v for k, v in obj.items() if k != "t"}
        elif isinstance(kind, str) and kind in EVENT_KINDS:
            required = _EVENT_KEYS[kind]
            if obj.keys() >= required:
                events.append(obj)
            else:
                bad(
                    number,
                    raw,
                    f"{kind} event missing keys "
                    f"{sorted(required - obj.keys())}",
                )
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
