"""Property-based tests (hypothesis) for the trace codec.

The determinism contract rests on the codec being a bijection between
Trace objects and their canonical JSONL text.  Hypothesis drives both
directions: emit -> parse -> emit must be byte-identical for arbitrary
schema-conforming traces, not just the ones our simulator happens to
produce.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RepairPolicy, SimulationConfig
from repro.trace import parse_trace, Trace

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
