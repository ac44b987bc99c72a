"""Property-based tests (hypothesis) for the trace codec.

The determinism contract rests on the codec being a bijection between
Trace objects and their canonical JSONL text.  Hypothesis drives both
directions: emit -> parse -> emit must be byte-identical for arbitrary
schema-conforming traces, not just the ones our simulator happens to
produce.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.sim import RepairPolicy, SimulationConfig
from repro.trace import canonical_line, parse_trace, Trace
from repro.trace.format import _EVENT_KEYS, event_line

_CATEGORIES = st.sampled_from(["GPU", "CPU", "Memory", "SSD", "FAN"])
_TIMES = st.floats(
    min_value=0.0,
    max_value=1e6,
    allow_nan=False,
    allow_infinity=False,
)
_HOURS = st.floats(
    min_value=0.0,
    max_value=1e4,
    allow_nan=False,
    allow_infinity=False,
)
_NODES = st.integers(min_value=0, max_value=2000)
_JOBS = st.integers(min_value=0, max_value=10_000)

_fail = st.fixed_dictionaries(
    {
        "t": st.just("fail"),
        "time": _TIMES,
        "node": _NODES,
        "cat": _CATEGORIES,
        "ttr": _HOURS,
        "gpus": st.lists(
            st.integers(min_value=0, max_value=3), max_size=4
        ),
    }
)
_repair = st.fixed_dictionaries(
    {
        "t": st.sampled_from(["rstart", "rdone"]),
        "time": _TIMES,
        "node": _NODES,
        "cat": _CATEGORIES,
    }
)
_jsub = st.fixed_dictionaries(
    {
        "t": st.just("jsub"),
        "time": _TIMES,
        "job": _JOBS,
        "width": st.integers(min_value=1, max_value=64),
        "hours": _HOURS,
    }
)
_jstart = st.fixed_dictionaries(
    {
        "t": st.just("jstart"),
        "time": _TIMES,
        "job": _JOBS,
        "nodes": st.lists(_NODES, min_size=1, max_size=8),
    }
)
_jdone = st.fixed_dictionaries(
    {"t": st.just("jdone"), "time": _TIMES, "job": _JOBS}
)
_jkill = st.fixed_dictionaries(
    {"t": st.just("jkill"), "time": _TIMES, "job": _JOBS, "node": _NODES}
)

_events = st.lists(
    st.one_of(_fail, _repair, _jsub, _jstart, _jdone, _jkill),
    max_size=40,
)

_config = st.builds(
    SimulationConfig,
    machine=st.sampled_from(["tsubame2", "tsubame3"]),
    seed=st.integers(min_value=0, max_value=2**31),
    intensity=st.floats(
        min_value=0.01, max_value=100.0, allow_nan=False
    ),
    health_test_effectiveness=st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False
    ),
    repair_policy=st.builds(
        RepairPolicy,
        num_technicians=st.integers(min_value=1, max_value=32),
        spare_lead_time_hours=_HOURS,
        hardware_categories=st.frozensets(_CATEGORIES, min_size=1),
    ),
    initial_spares=st.dictionaries(
        _CATEGORIES, st.integers(min_value=0, max_value=100)
    ),
    checkpoint_policy=st.none(),
    workload=st.none(),
)


class TestCodecRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(config=_config, horizon=_TIMES, events=_events)
    def test_emit_parse_emit_is_byte_identical(
        self, config, horizon, events
    ):
        trace = Trace(
            config=config, horizon_hours=horizon, events=events
        )
        text = trace.dumps()
        parsed, quarantined = parse_trace(text)
        assert not quarantined
        assert parsed.dumps() == text
        # And idempotent: a second round trip changes nothing.
        again, _ = parse_trace(parsed.dumps())
        assert again.dumps() == text

    @settings(max_examples=30, deadline=None)
    @given(config=_config, horizon=_TIMES, events=_events)
    def test_parsed_trace_preserves_event_order_and_values(
        self, config, horizon, events
    ):
        trace = Trace(
            config=config, horizon_hours=horizon, events=events
        )
        parsed, _ = parse_trace(trace.dumps())
        assert parsed.events == events
        assert parsed.config == config


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestCanonicalLineMatchesDumps:
    """The shared encoder writes what ``json.dumps`` with the canonical
    options writes, for trace events and arbitrary JSON dicts alike."""

    @staticmethod
    def dumps(obj: dict) -> str:
        return json.dumps(
            obj, sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    @settings(max_examples=100, deadline=None)
    @given(event=st.one_of(_fail, _repair, _jsub, _jstart, _jdone, _jkill))
    def test_events(self, event):
        assert canonical_line(event) == self.dumps(event)

    @settings(max_examples=100, deadline=None)
    @given(obj=st.dictionaries(st.text(max_size=6), _json_values, max_size=6))
    def test_arbitrary_dicts(self, obj):
        assert canonical_line(obj) == self.dumps(obj)


_ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 2**63, -(2**64) - 1, 10**4400]),
)
_odd_floats = st.one_of(
    st.floats(),  # NaN and +-inf included
    st.sampled_from(
        [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1e308, float("inf"), -float("inf")]
    ),
)
_odd_strings = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ["GPU", 'a"b', "a\\b", "\x00", "\n\t", "\x7f", "é", "\u2028",
         "\U0001f600", "\ud800"]
    ),
)
_odd_lists = st.one_of(
    st.lists(_ints, max_size=5),
    st.lists(st.booleans(), min_size=1, max_size=3),
    st.lists(st.integers(0, 9).map(np.int64), min_size=1, max_size=3),
    st.lists(_odd_floats, min_size=1, max_size=3),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.sets(st.integers(0, 3), max_size=3),
    st.frozensets(st.integers(0, 3), min_size=1, max_size=3),
)
_odd_values = st.one_of(
    _ints,
    _odd_floats,
    _odd_strings,
    _odd_lists,
    st.none(),
    st.booleans(),
    st.integers(-5, 5).map(np.int64),
    _odd_floats.map(np.float64),
    st.floats(width=32).map(np.float32),
)


@st.composite
def _odd_events(draw):
    """An event of any kind whose values, and sometimes key set, stray
    from what the simulator records."""
    kind = draw(st.sampled_from(sorted(_EVENT_KEYS)))
    keys = draw(st.permutations(sorted(_EVENT_KEYS[kind] | {"t"})))
    event = {
        key: kind if key == "t" else draw(_odd_values) for key in keys
    }
    change = draw(st.sampled_from(["none", "none", "drop", "extra"]))
    if change == "drop":
        del event[draw(st.sampled_from(keys))]
    elif change == "extra":
        extra = draw(st.sampled_from(["x", "zz", "a", "T", "node", "hours"]))
        event[extra] = draw(_odd_values)
    return event


def _line_or_error(format_line, event):
    try:
        return format_line(event)
    except TraceError as exc:
        return ("TraceError", str(exc))


class TestEventLineMatchesCanonicalLine:
    """The per-kind formatter writes exactly what ``canonical_line``
    writes, or raises the same :class:`TraceError`."""

    @settings(max_examples=100, deadline=None)
    @given(event=st.one_of(_fail, _repair, _jsub, _jstart, _jdone, _jkill))
    def test_recorded_shapes(self, event):
        assert event_line(event) == canonical_line(event)

    @settings(max_examples=400, deadline=None)
    @given(event=_odd_events())
    def test_odd_values_and_keys(self, event):
        assert _line_or_error(event_line, event) == _line_or_error(
            canonical_line, event
        )

    @pytest.mark.parametrize(
        "event",
        [
            {"t": "jdone", "time": float("nan"), "job": 1},
            {"t": "jdone", "time": 1.0, "job": True},
            {"t": "jdone", "time": 1.0, "job": np.int64(1)},
            {"t": "jdone", "time": np.float64(1.5), "job": 1},
            {"t": "jstart", "time": 1.0, "job": 1, "nodes": (1, 2)},
            {"t": "jstart", "time": 1.0, "job": 1, "nodes": {1, 2}},
            {"t": "jstart", "time": 1.0, "job": 1, "nodes": [1, False]},
            {"t": "jkill", "time": 1.0, "job": 1, "node": 10**4400},
            {"t": "jdone", "time": 1.0},
            {"t": "jdone", "time": 1.0, "job": 1, "extra": 2},
            {"t": "rdone", "time": 1.0, "node": 3, "cat": 'G"\\\x01é'},
            {"t": "fail", "time": -0.0, "node": 0, "cat": "GPU",
             "ttr": 5e-324, "gpus": []},
            {"t": "jsub", "time": 1e16, "job": 2**70, "width": 4,
             "hours": 1e-7},
            {"t": "nope", "time": 1.0},
            {"t": ["fail"], "time": 1.0},
        ],
    )
    def test_edge_cases(self, event):
        assert _line_or_error(event_line, event) == _line_or_error(
            canonical_line, event
        )
