"""The trace codec's fast paths against the formulations they replace.

``compare_traces`` compares event values before it formats any line,
``parse_trace`` decodes each line with the C scanner, and a recorded or
parsed trace keeps the recorder's rows until a caller asks for its
event dicts.  All must give what the oracles in
``tests/trace/oracles.py`` give: the same lines, the same divergence
or :class:`TraceError`, and the same trace, quarantine list and
error.  The one documented difference is reading: ``NaN``,
``Infinity`` and ``-Infinity`` and a bool or non-finite horizon are
rejected (``tests/trace/test_format.py::TestNonFiniteRejectedOnRead``).
Both read a number literal that overflows to an infinity as malformed
JSON and a line whose ``"t"`` is not a string as an unknown type
(``tests/trace/test_format.py::TestMalformedEventValuesRejectedOnRead``).
"""

from __future__ import annotations

import importlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import TraceError
from repro.sim import RepairPolicy, SimulationConfig
from repro.stream import TraceSource
from repro.trace import (
    Trace,
    canonical_line,
    compare_traces,
    parse_trace,
    replay,
    write_trace,
)
from repro.trace.format import event_line, is_plain_event

from tests.trace.conftest import copy_trace
from tests.trace.oracles import (
    compare_traces_by_lines,
    events_from_rows,
    parse_trace_json_loads,
)
from tests.trace.test_properties import (
    _fail,
    _jdone,
    _jkill,
    _jstart,
    _jsub,
    _odd_events,
    _repair,
)

# ``repro.trace.replay`` the module, not the function of that name.
replay_module = importlib.import_module("repro.trace.replay")

CONFIG = SimulationConfig(
    machine="tsubame2",
    seed=1,
    intensity=1.0,
    health_test_effectiveness=0.0,
    repair_policy=RepairPolicy(hardware_categories=frozenset({"GPU"})),
    initial_spares={"GPU": 1},
    checkpoint_policy=None,
    workload=None,
)

_recorded = st.one_of(_fail, _repair, _jsub, _jstart, _jdone, _jkill)

#: One NaN object: placed on both sides, it makes the two events equal
#: (``==`` on containers tries identity first) without being plain.
_NAN = float("nan")


class _EventDict(dict):
    """Equal to the plain dict it copies, but not an exact dict."""


def _swap_number(value):
    if type(value) is int and abs(value) < 2**1000:
        return float(value)
    if type(value) is float and value.is_integer():
        return int(value)
    return value


def _as_numpy(value):
    if type(value) is float:
        return np.float64(value)
    if type(value) is int and -(2**63) <= value < 2**63:
        return np.int64(value)
    return value


_VALUE_CHANGES = {
    "int_float": _swap_number,
    "zero": lambda value: 0.0,
    "negative_zero": lambda value: -0.0,
    "bool": lambda value: value == 1 if type(value) is int else True,
    "numpy": _as_numpy,
    "tuple": lambda value: tuple(value) if type(value) is list else value,
    "inf": lambda value: math.inf,
    "negative_inf": lambda value: -math.inf,
    "nan": lambda value: _NAN,
    "int_bound": lambda value: 2**63,
    "huge_int": lambda value: 10**4400,
    "bool_list": lambda value: [True, 1],
}
_CHANGES = sorted(_VALUE_CHANGES) + ["subclass", "extra", "missing"]


def _twins(value) -> list[tuple]:
    """Pairs of equal values shaped like ``value`` that may print
    differently, or not at all."""
    if type(value) is float:
        twins = [(0.0, -0.0), (-0.0, -0.0), (value, np.float64(value))]
        if math.isfinite(value):
            twins.append((float(int(value)), int(value)))
        return twins + [(_NAN, _NAN), (math.inf, math.inf)]
    if type(value) is int:
        twins = [(1, True), (0, False), (2**63, 2**63)]
        if abs(value) < 2**63:
            twins += [(value, np.int64(value)), (value, float(value))]
        return twins + [(10**4400, 10**4400)]
    if type(value) is list:
        return [
            ([1, 0, *value], [True, False, *value]),
            (value, tuple(value)),
        ]
    return [(value, value)]


def _copy(event: dict) -> dict:
    """A copy sharing every value but lists, as a replay's twin would."""
    return {
        key: list(value) if type(value) is list else value
        for key, value in event.items()
    }


def _change(draw, event: dict) -> dict:
    change = draw(st.sampled_from(_CHANGES))
    if change == "subclass":
        return _EventDict(event)
    if change == "extra":
        return {**event, draw(st.sampled_from(["x", "node", "t2"])): 1}
    if not event:
        return event
    key = draw(st.sampled_from(sorted(event, key=repr)))
    changed = dict(event)
    if change == "missing":
        del changed[key]
    else:
        changed[key] = _VALUE_CHANGES[change](changed[key])
    return changed


@st.composite
def _event_pairs(draw):
    """A recorded event and its replayed twin: equal, or perturbed on
    one side, on both alike, on each differently, or set to twins."""
    event = draw(st.one_of(_recorded, _recorded, _odd_events()))
    left, right = _copy(event), _copy(event)
    how = draw(
        st.sampled_from(
            ["same", "same", "left", "right", "both", "each", "twins"]
        )
    )
    if how == "twins" and event:
        key = draw(st.sampled_from(sorted(event, key=repr)))
        left[key], right[key] = draw(st.sampled_from(_twins(event[key])))
    elif how == "left":
        left = _change(draw, left)
    elif how == "right":
        right = _change(draw, right)
    elif how == "both":
        left = _change(draw, left)
        right = _copy(left) if type(left) is dict else _EventDict(left)
    elif how == "each":
        left, right = _change(draw, left), _change(draw, right)
    return left, right


_REPORTS = [
    (None, None),
    ({"a": 1.5}, {"a": 1.5}),
    ({"a": 1.5}, {"a": 2.5}),
    ({"a": 1.5}, None),
    (None, {"a": 1.5}),
    ({"a": 0.0}, {"a": -0.0}),
    ({"a": _NAN}, {"a": _NAN}),
]


@st.composite
def _trace_pairs(draw):
    pairs = draw(st.lists(_event_pairs(), max_size=8))
    recorded = [left for left, _ in pairs]
    replayed = [right for _, right in pairs]
    cut = draw(st.sampled_from(["none", "none", "recorded", "replayed"]))
    if cut == "recorded" and recorded:
        recorded.pop(draw(st.integers(0, len(recorded) - 1)))
    elif cut == "replayed" and replayed:
        replayed.pop(draw(st.integers(0, len(replayed) - 1)))
    left_report, right_report = draw(st.sampled_from(_REPORTS))
    return (
        Trace(CONFIG, 10.0, recorded, report=left_report),
        Trace(CONFIG, 10.0, replayed, report=right_report),
    )


def _compare_outcome(compare, recorded, replayed):
    try:
        return compare(recorded, replayed)
    except TraceError as exc:
        return ("TraceError", str(exc))


class TestCompareTracesMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(traces=_trace_pairs())
    def test_same_divergence_or_error(self, traces):
        recorded, replayed = traces
        assert _compare_outcome(
            compare_traces, recorded, replayed
        ) == _compare_outcome(compare_traces_by_lines, recorded, replayed)

    @settings(max_examples=400, deadline=None)
    @given(pair=_event_pairs())
    def test_one_event_pair(self, pair):
        recorded = Trace(CONFIG, 10.0, [pair[0]])
        replayed = Trace(CONFIG, 10.0, [pair[1]])
        assert _compare_outcome(
            compare_traces, recorded, replayed
        ) == _compare_outcome(compare_traces_by_lines, recorded, replayed)

    @settings(max_examples=100, deadline=None)
    @given(event=_recorded)
    def test_every_twin_of_every_value(self, event):
        for key in event:
            for twin in _twins(event[key]):
                for left, right in (twin, twin[::-1]):
                    recorded = Trace(CONFIG, 10.0, [{**event, key: left}])
                    replayed = Trace(CONFIG, 10.0, [{**event, key: right}])
                    assert _compare_outcome(
                        compare_traces, recorded, replayed
                    ) == _compare_outcome(
                        compare_traces_by_lines, recorded, replayed
                    )

    @settings(max_examples=400, deadline=None)
    @given(traces=_trace_pairs())
    def test_fast_path_equal_means_equal_lines(self, traces):
        recorded, replayed = traces
        with mock.patch.object(
            replay_module,
            "_event_line_divergence",
            wraps=replay_module._event_line_divergence,
        ) as slow:
            _compare_outcome(compare_traces, recorded, replayed)
        if not slow.called:
            assert recorded.event_lines() == replayed.event_lines()

    @settings(max_examples=300, deadline=None)
    @given(pair=_event_pairs())
    def test_equal_plain_events_print_alike(self, pair):
        left, right = pair
        if is_plain_event(left) and is_plain_event(right) and left == right:
            assert event_line(left) == event_line(right)

    @pytest.mark.parametrize(
        "left, right",
        [
            (0.0, -0.0),
            (-0.0, -0.0),
            (1, 1.0),
            (True, 1),
            (np.float64(1.5), 1.5),
            (_NAN, _NAN),
            (math.inf, math.inf),
        ],
    )
    def test_equal_values_that_may_print_apart_are_not_plain(
        self, left, right
    ):
        recorded = {"t": "jdone", "time": left, "job": 1}
        replayed = {"t": "jdone", "time": right, "job": 1}
        assert recorded == replayed
        assert not (is_plain_event(recorded) and is_plain_event(replayed))
        traces = (Trace(CONFIG, 10.0, [recorded]),
                  Trace(CONFIG, 10.0, [replayed]))
        assert _compare_outcome(compare_traces, *traces) == (
            _compare_outcome(compare_traces_by_lines, *traces)
        )

    @pytest.mark.parametrize(
        "job",
        [2**63, -(2**63), 10**4400],
        ids=["2**63", "-2**63", "10**4400"],
    )
    def test_ints_outside_the_bound_are_not_plain(self, job):
        event = {"t": "jdone", "time": 1.5, "job": job}
        assert not is_plain_event(event)
        traces = (Trace(CONFIG, 10.0, [event]),
                  Trace(CONFIG, 10.0, [dict(event)]))
        assert _compare_outcome(compare_traces, *traces) == (
            _compare_outcome(compare_traces_by_lines, *traces)
        )

    def test_recorded_run_takes_the_fast_path(self, workload_trace):
        replayed = copy_trace(workload_trace)
        assert all(map(is_plain_event, workload_trace.events))
        with mock.patch.object(
            replay_module, "_event_line_divergence"
        ) as slow:
            assert compare_traces(workload_trace, replayed) is None
        slow.assert_not_called()


#: Event kind -> the keys of its recorder row after the kind, in row
#: order.
_ROW_KEYS = {
    "fail": ("time", "node", "cat", "ttr", "gpus"),
    "rstart": ("time", "node", "cat"),
    "rdone": ("time", "node", "cat"),
    "jsub": ("time", "job", "width", "hours"),
    "jstart": ("time", "job", "nodes"),
    "jdone": ("time", "job"),
    "jkill": ("time", "job", "node"),
}


def _row_of(event: dict) -> tuple:
    """The row the recorder buffers for ``event``."""
    kind = event["t"]
    return (kind, *(event[key] for key in _ROW_KEYS[kind]))


def _put(row: tuple, position: int, value) -> tuple:
    return row[:position] + (value,) + row[position + 1:]


_ROW_VALUE_CHANGES = {
    name: _VALUE_CHANGES[name]
    for name in (
        "int_float", "zero", "negative_zero", "bool", "numpy", "inf",
        "negative_inf", "nan", "int_bound", "huge_int",
    )
}
_ROW_VALUE_CHANGES["negative_int_bound"] = lambda value: -(2**63)
#: Changes to a GPU or node list: the other container type, or one
#: item that is not a plain int.
_ROW_LIST_CHANGES = {
    "list": list,
    "tuple": tuple,
    "bool_list": lambda value: [True, 1],
    "numpy_item": lambda value: (np.int64(1), *value),
    "float_item": lambda value: (*value, 1.0),
    "int_bound_item": lambda value: (*value, 2**63),
    "negative_int_bound_item": lambda value: [-(2**63), *value],
}


def _change_row(draw, row: tuple) -> tuple:
    position = draw(st.integers(1, len(row) - 1))
    value = row[position]
    changes = (
        _ROW_LIST_CHANGES
        if isinstance(value, (list, tuple))
        else _ROW_VALUE_CHANGES
    )
    change = changes[draw(st.sampled_from(sorted(changes)))]
    return _put(row, position, change(value))


@st.composite
def _row_pairs(draw):
    """A recorded row and its replayed twin, as :func:`_event_pairs`
    pairs events."""
    row = _row_of(draw(_recorded))
    left = right = row
    how = draw(
        st.sampled_from(
            ["same", "same", "left", "right", "both", "each", "twins"]
        )
    )
    if how == "twins":
        position = draw(st.integers(1, len(row) - 1))
        value = row[position]
        a, b = draw(st.sampled_from(_twins(value)))
        left, right = _put(row, position, a), _put(row, position, b)
    elif how == "left":
        left = _change_row(draw, row)
    elif how == "right":
        right = _change_row(draw, row)
    elif how == "both":
        left = right = _change_row(draw, row)
    elif how == "each":
        left, right = _change_row(draw, row), _change_row(draw, row)
    return left, right


@st.composite
def _row_trace_pairs(draw):
    pairs = draw(st.lists(_row_pairs(), max_size=8))
    recorded = [left for left, _ in pairs]
    replayed = [right for _, right in pairs]
    cut = draw(st.sampled_from(["none", "none", "recorded", "replayed"]))
    if cut == "recorded" and recorded:
        recorded.pop(draw(st.integers(0, len(recorded) - 1)))
    elif cut == "replayed" and replayed:
        replayed.pop(draw(st.integers(0, len(replayed) - 1)))
    return recorded, replayed, draw(st.sampled_from(_REPORTS))


def _lines_outcome(trace: Trace):
    try:
        return trace.lines(), trace.event_lines()
    except TraceError as exc:
        return ("TraceError", str(exc))


def _holds_rows(trace: Trace) -> bool:
    """Whether the trace still holds rows and no event dict."""
    return trace._rows is not None and trace._events is None


def _assert_rows_match_dicts(recorded, replayed, reports, extra=None):
    """Rows-backed and dict-backed traces of the same events give the
    same lines and, in every pairing, the oracle's comparison; neither
    builds the rows-backed traces' dicts."""
    left_report, right_report = reports
    rows = (
        Trace(CONFIG, 10.0, rows=list(recorded), report=left_report),
        Trace(CONFIG, 10.0, rows=list(replayed), report=right_report),
    )
    dicts = (
        Trace(CONFIG, 10.0, events_from_rows(recorded), report=left_report),
        Trace(
            CONFIG, 10.0, events_from_rows(replayed), report=right_report
        ),
    )
    for row_trace, dict_trace in zip(rows, dicts):
        assert _lines_outcome(row_trace) == _lines_outcome(dict_trace)
    expected = _compare_outcome(compare_traces_by_lines, *dicts)
    for pair in (rows, (rows[0], dicts[1]), (dicts[0], rows[1]), dicts):
        assert _compare_outcome(compare_traces, *pair) == expected
    if extra is not None and replayed:
        events = events_from_rows(replayed)
        events[-1] = {**events[-1], extra: 1}
        extended = Trace(CONFIG, 10.0, events, report=right_report)
        assert _compare_outcome(compare_traces, rows[0], extended) == (
            _compare_outcome(compare_traces_by_lines, dicts[0], extended)
        )
    assert all(map(_holds_rows, rows))


_ROW = ("fail", 1.5, 3, "GPU", 2.5, [0, 1])


class TestRowsMatchDicts:
    @settings(max_examples=400, deadline=None)
    @given(
        case=_row_trace_pairs(),
        extra=st.sampled_from([None, "x", "node", "t2"]),
    )
    def test_same_lines_divergence_and_error(self, case, extra):
        _assert_rows_match_dicts(*case, extra=extra)

    @pytest.mark.parametrize(
        "position, left, right",
        [
            (2, 1, True),
            (2, 3, np.int64(3)),
            (1, 1.5, np.float64(1.5)),
            (1, 0.0, -0.0),
            (1, -0.0, -0.0),
            (1, 1.0, 1),
            (5, [0, 1], (0, 1)),
            (5, (0, 1), (0, 1)),
            (5, [0, 1], [0, True]),
            (1, _NAN, _NAN),
            (1, math.inf, math.inf),
            (2, 2**63, 2**63),
            (2, -(2**63), -(2**63)),
            (5, [2**63], [2**63]),
            (5, [-(2**63)], [-(2**63)]),
            (2, 10**4400, 10**4400),
        ],
        ids=[
            "bool", "numpy-int", "numpy-float", "zero-negative-zero",
            "negative-zero", "float-int", "list-tuple", "tuple-tuple",
            "bool-item", "nan", "inf", "2**63", "-2**63", "2**63-item",
            "-2**63-item", "10**4400",
        ],
    )
    def test_values_that_may_print_apart(self, position, left, right):
        other = ("jdone", 4.5, 7)
        recorded = [other, _put(_ROW, position, left)]
        replayed = [other, _put(_ROW, position, right)]
        for extra in (None, "x"):
            _assert_rows_match_dicts(
                recorded, replayed, (None, None), extra=extra
            )

    def test_extra_key_against_rows(self):
        _assert_rows_match_dicts([_ROW], [_ROW], (None, None), extra="x")

    def test_recorded_rows_are_plain_and_compared_as_rows(
        self, workload_trace
    ):
        recorded, _ = parse_trace(workload_trace.dumps())
        replayed, _ = parse_trace(workload_trace.dumps())
        with mock.patch.object(
            replay_module, "_event_line_divergence"
        ) as slow:
            assert compare_traces(recorded, replayed) is None
        slow.assert_not_called()
        assert _holds_rows(recorded) and _holds_rows(replayed)


class TestEventDictsOnDemand:
    def test_edited_events_show_in_lines_and_compare(self, workload_trace):
        text = workload_trace.dumps()
        parsed, _ = parse_trace(text)
        untouched, _ = parse_trace(text)
        assert _holds_rows(parsed)
        assert compare_traces(parsed, untouched) is None
        parsed.events[3]["time"] += 0.5
        assert not _holds_rows(parsed)
        lines = parsed.lines()
        assert lines[4] == canonical_line(parsed.events[3])
        assert lines[4] != text.splitlines()[4]
        assert lines[:4] == text.splitlines()[:4]
        divergence = compare_traces(parsed, untouched)
        assert divergence.kind == "event"
        assert divergence.index == 3
        assert divergence.expected == lines[4]
        assert divergence.actual == text.splitlines()[4]

    def test_appended_event_shows_in_lines_and_compare(self, workload_trace):
        parsed, _ = parse_trace(workload_trace.dumps())
        untouched, _ = parse_trace(workload_trace.dumps())
        parsed.events.append({"t": "jdone", "time": 1e9, "job": 1})
        assert parsed.event_count == untouched.event_count + 1
        assert parsed.event_lines()[-1] == (
            '{"job":1,"t":"jdone","time":1000000000.0}'
        )
        assert compare_traces(parsed, untouched).kind == "event_count"

    def test_equality_does_not_depend_on_the_form(self, workload_trace):
        rows, _ = parse_trace(workload_trace.dumps())
        dicts, _ = parse_trace(workload_trace.dumps())
        dicts.events  # noqa: B018 - builds the dicts
        assert rows == dicts and dicts == rows
        assert _holds_rows(rows)
        dicts.events[0]["time"] += 1.0
        assert rows != dicts

    def test_materialised_dicts_list_their_keys_as_the_line_does(
        self, workload_trace
    ):
        parsed, _ = parse_trace(workload_trace.dumps())
        lines = parsed.event_lines()
        for event, line in zip(parsed.events, lines):
            assert list(event) == list(json.loads(line))
            assert canonical_line(event) == line

    def test_readers_leave_a_parsed_trace_unmaterialised(
        self, tmp_path, workload_trace, capsys
    ):
        path = tmp_path / "run.trace.jsonl"
        write_trace(workload_trace, path)
        with mock.patch.object(
            Trace,
            "events",
            new_callable=mock.PropertyMock,
            side_effect=AssertionError("event dicts built"),
        ):
            source = TraceSource(path, include_repairs=True)
            streamed = list(source)
            assert main(["trace", "info", str(path)]) == 0
            result = replay(source.trace)
            assert compare_traces(source.trace, result.trace) is None
            write_trace(source.trace, tmp_path / "again.jsonl")
        assert len(streamed) > 0
        assert "events:" in capsys.readouterr().out
        assert _holds_rows(source.trace) and _holds_rows(result.trace)
        assert (tmp_path / "again.jsonl").read_text() == path.read_text()


_HEADER = canonical_line(Trace(CONFIG, 100.0).header_dict())
_HEADERS = st.sampled_from(
    [
        _HEADER,
        _HEADER,
        _HEADER.replace('"horizon_hours":100.0', '"horizon_hours":100'),
        _HEADER.replace('"horizon_hours":100.0', '"horizon_hours":"x"'),
        _HEADER.replace('"schema":1', '"schema":2'),
        _HEADER.replace('"config":{', '"config":{"x":1,'),
    ]
)
_ODD_LINES = st.sampled_from(
    [
        '{"t":"report","a":1.5}',
        '{"t":"end","events":3,"wall_s":0.1}',
        '{"t":"warp_drive"}',
        '{"t":["fail"]}',
        '{"t":null}',
        '{"x":1}',
        "1",
        "[1]",
        '"s"',
        "null",
        "{}",
        '{"t":"fail","node":3}',
        '{"t":"jdone","time":1.5,"job":2,"extra":[1,2]}',
        '{"t":"jdone","time":1.5,"job":2,"job":3}',
        '{"t":"jdone","time":1e999,"job":2}',
        '{"t":"fail","cat":"GPU","gpus":[-1e999],"node":1,"time":1.5,'
        '"ttr":2.0}',
        '{"t":{"fail":1},"time":1.5}',
        '{"t":"jdone", "time":1.5 ,"job":2}',
        '{"t":"jdone","time":1.5,"job":"\\ud800"}',
        '{"t":"jdone","time":1.5,"job":2}',
        '{"cat":"GPU","gpus":"01","node":1,"t":"fail","time":1.5,'
        '"ttr":2.0}',
        '{"cat":"GPU","gpus":[0,true],"node":1,"t":"fail","time":1.5,'
        '"ttr":2.0}',
        '{"job":2,"nodes":5,"t":"jstart","time":1.5}',
        '{"job":2,"nodes":[3,1],"t":"jstart","time":0.0}',
        '{"t":"jdone","time":NaN,"job":2}',
        _HEADER,
    ]
)
_SPACES = st.text(
    alphabet=" \t\x0b\x0c\x1c\x1f\x85\xa0\u2028\u3000\u200b\ufeff",
    max_size=3,
)
_JSONISH = st.text(
    alphabet='{}[]":,0123456789.eE+-tfnrulsaxNI \\', max_size=30
)


@st.composite
def _lines(draw):
    line = draw(
        st.one_of(
            _recorded.map(event_line),
            _recorded.map(event_line),
            _ODD_LINES,
            st.text(max_size=20),
            _JSONISH,
        )
    )
    change = draw(
        st.sampled_from(
            ["none", "none", "bom", "pad", "trailing", "truncate", "insert"]
        )
    )
    if change == "bom":
        line = "\ufeff" + line
    elif change == "pad":
        line = draw(_SPACES) + line + draw(_SPACES)
    elif change == "trailing":
        line += draw(st.sampled_from([" x", "}", "{}", " 1", ",", "]", '"']))
    elif change == "truncate":
        line = line[: draw(st.integers(0, len(line)))]
    elif change == "insert":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.text(max_size=3)) + line[at:]
    return line


@st.composite
def _texts(draw):
    lines = draw(st.lists(_lines(), max_size=10))
    header = draw(st.one_of(_HEADERS, _HEADERS, _HEADERS, _lines()))
    lines.insert(draw(st.sampled_from([0, 0, 0, 1])) if lines else 0, header)
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


def _reads_differently(text: str) -> bool:
    """Whether ``json.loads`` reads a constant (``NaN``, ``Infinity``,
    ``-Infinity``) on some line, or a bool or non-finite horizon on the
    first nonblank one: inputs the oracle reads and ``parse_trace``
    rejects."""
    first = True
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        constants: list[str] = []
        try:
            obj = json.loads(
                line,
                parse_constant=lambda name: constants.append(name)
                or math.nan,
            )
        except ValueError:
            obj = None
        if constants:
            return True
        if first and isinstance(obj, dict):
            horizon = obj.get("horizon_hours")
            if type(horizon) is bool or (
                type(horizon) is float and not math.isfinite(horizon)
            ):
                return True
        first = False
    return False


def _parse_outcome(parse, text: str, on_error: str):
    try:
        trace, quarantined = parse(text, on_error=on_error)
    except Exception as exc:  # the oracle's error, whatever its type
        return type(exc), str(exc)
    # repr tells 1 from 1.0 and 0.0 from -0.0, which == does not.
    return repr(
        (
            trace.config,
            trace.horizon_hours,
            trace.events,
            trace.report,
            trace.end,
            quarantined,
        )
    )


class TestParseTraceMatchesOracle:
    @settings(max_examples=500, deadline=None)
    @given(text=_texts(), on_error=st.sampled_from(["raise", "quarantine"]))
    def test_same_trace_quarantine_and_error(self, text, on_error):
        assume(not _reads_differently(text))
        assert _parse_outcome(parse_trace, text, on_error) == (
            _parse_outcome(parse_trace_json_loads, text, on_error)
        )

    @pytest.mark.parametrize(
        "line",
        [
            "\ufeff" + _HEADER,
            _HEADER + " x",
            _HEADER + "{}",
            _HEADER[:-1],
            "\u3000" + _HEADER + "\xa0",
        ],
        ids=["bom", "trailing-word", "extra-data", "cut", "unicode-space"],
    )
    def test_header_edge_cases(self, line):
        for on_error in ("raise", "quarantine"):
            assert _parse_outcome(parse_trace, line, on_error) == (
                _parse_outcome(parse_trace_json_loads, line, on_error)
            )

    @pytest.mark.parametrize(
        "line",
        [
            '{"t":"jdone","time":1.5,"job":2}',
            '{"job":2,"t":"jdone","time":1.5,"x":1}',
            '{"job":2,"t":"jdone","time":1.5,"job":3}',
            '{"cat":"GPU","gpus":"01","node":1,"t":"fail","time":1.5,'
            '"ttr":2.0}',
            '{"cat":"GPU","gpus":[0,true],"node":1,"t":"fail","time":1.5,'
            '"ttr":2.0}',
            '{"job":2,"nodes":5,"t":"jstart","time":1.5}',
            '{"job":2,"nodes":[3,1],"t":"jstart","time":0.0}',
            '{"job":2,"t":"jdone","time":1}',
        ],
        ids=[
            "key-order", "extra-key", "duplicate-key", "gpus-string",
            "gpus-bool", "nodes-int", "zero-time", "int-time",
        ],
    )
    def test_event_lines_that_are_not_rows(self, line):
        """Lines a row cannot hold as they read, between canonical
        ones: the trace reads as the oracle reads it, lines and all."""
        plain = '{"job":1,"t":"jdone","time":0.5}'
        text = "\n".join([_HEADER, plain, line, plain])
        for on_error in ("raise", "quarantine"):
            assert _parse_outcome(parse_trace, text, on_error) == (
                _parse_outcome(parse_trace_json_loads, text, on_error)
            )
        parsed, _ = parse_trace(text)
        oracle, _ = parse_trace_json_loads(text)
        assert parsed.lines() == oracle.lines()

    def test_recorded_run_reads_alike(self, workload_trace):
        text = workload_trace.dumps()
        assert _parse_outcome(parse_trace, text, "raise") == (
            _parse_outcome(parse_trace_json_loads, text, "raise")
        )
