"""Trace codec: canonical lines, header round-trip, tolerant parsing."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import TraceError
from repro.sim import (
    CheckpointPolicy,
    RepairPolicy,
    SimulationConfig,
    WorkloadConfig,
)
from repro.trace import (
    SCHEMA_VERSION,
    Trace,
    canonical_line,
    config_from_dict,
    config_to_dict,
    parse_trace,
    read_trace,
    write_trace,
)

from tests.trace.conftest import copy_trace


def make_config(**overrides) -> SimulationConfig:
    defaults = dict(
        machine="tsubame2",
        seed=3,
        intensity=1.0,
        health_test_effectiveness=0.0,
        repair_policy=RepairPolicy(
            hardware_categories=frozenset({"GPU", "CPU"})
        ),
        initial_spares={"GPU": 2, "CPU": 1},
        checkpoint_policy=None,
        workload=None,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestCanonicalLine:
    def test_sorted_compact_deterministic(self):
        assert (
            canonical_line({"b": 1, "a": [1.5, "x"]})
            == '{"a":[1.5,"x"],"b":1}'
        )

    def test_nan_rejected(self):
        with pytest.raises(TraceError, match="not canonical JSON"):
            canonical_line({"time": float("nan")})

    def test_non_serializable_rejected(self):
        with pytest.raises(TraceError):
            canonical_line({"policy": object()})

    @pytest.mark.parametrize(
        "value",
        [
            float("inf"),
            float("-inf"),
            [1.0, float("inf")],
            np.int64(3),
            np.float32(1.5),
            {1, 2},
        ],
        ids=["inf", "-inf", "nested_inf", "np_int64", "np_float32", "set"],
    )
    def test_non_json_values_rejected(self, value):
        # Nothing is coerced: a numpy scalar or a set that slipped into
        # an event would otherwise change the bytes of a trace.
        with pytest.raises(TraceError, match="not canonical JSON"):
            canonical_line({"time": 1.0, "value": value})


class TestConfigRoundTrip:
    def test_minimal(self):
        config = make_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_full(self):
        config = make_config(
            checkpoint_policy=CheckpointPolicy(6.0, 0.2),
            workload=WorkloadConfig(),
            health_test_effectiveness=0.5,
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_malformed_raises(self):
        data = config_to_dict(make_config())
        del data["repair"]
        with pytest.raises(TraceError, match="malformed"):
            config_from_dict(data)

    def test_presample_key_is_a_fixed_legacy_flag(self):
        data = config_to_dict(make_config())
        assert data["presample"] is True
        data["presample"] = False
        assert config_from_dict(data) == make_config()

    @pytest.mark.parametrize("value", ["yes", 1, None])
    def test_presample_key_must_be_bool(self, value):
        data = config_to_dict(make_config())
        data["presample"] = value
        with pytest.raises(TraceError, match="malformed"):
            config_from_dict(data)

    def test_presample_key_required(self):
        data = config_to_dict(make_config())
        del data["presample"]
        with pytest.raises(TraceError, match="malformed"):
            config_from_dict(data)


class TestTrace:
    def test_horizon_canonicalized_to_float(self):
        # Regression: an int horizon used to serialize as "600" but
        # parse back as 600.0 and re-emit as "600.0", breaking every
        # byte-identical codec round-trip and bit-exact replay.
        trace = Trace(config=make_config(), horizon_hours=600)
        assert trace.horizon_hours == 600.0
        assert isinstance(trace.horizon_hours, float)
        assert '"horizon_hours":600.0' in trace.lines()[0]

    def test_failures_and_jobs_selectors(self, workload_trace):
        kinds = {event["t"] for event in workload_trace.events}
        assert "fail" in kinds and "jsub" in kinds
        assert all(e["t"] == "fail" for e in workload_trace.failures)
        assert all(e["t"] == "jsub" for e in workload_trace.jobs)

    def test_dumps_parses_byte_identical(self, headless_trace):
        text = headless_trace.dumps()
        parsed, quarantined = parse_trace(text)
        assert not quarantined
        assert parsed.dumps() == text

    def test_event_lines_exclude_header_report_end(self, headless_trace):
        for line in headless_trace.event_lines():
            assert json.loads(line)["t"] not in ("header", "report", "end")


class TestParseTrace:
    def test_empty_text_raises(self):
        with pytest.raises(TraceError, match="no header"):
            parse_trace("")

    def test_first_line_must_be_header(self):
        with pytest.raises(TraceError, match="must be the header"):
            parse_trace('{"t":"fail","time":1.0}')

    def test_header_not_json_raises_even_lenient(self):
        with pytest.raises(TraceError, match="header"):
            parse_trace("not json at all", on_error="quarantine")

    def test_unsupported_schema_rejected(self, headless_trace):
        header = headless_trace.header_dict()
        header["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(TraceError, match="unsupported trace schema"):
            parse_trace(canonical_line(header))

    def test_bad_event_raises_by_default(self, headless_trace):
        text = headless_trace.dumps() + "garbage\n"
        with pytest.raises(TraceError, match="not valid JSON"):
            parse_trace(text)

    def test_quarantine_sets_lines_aside(self, headless_trace):
        lines = headless_trace.dumps().splitlines()
        lines.insert(2, "garbage")
        lines.insert(5, '{"t":"warp_drive"}')
        lines.insert(7, '{"t":"fail","node":3}')  # missing keys
        trace, quarantined = parse_trace(
            "\n".join(lines), on_error="quarantine"
        )
        assert [q.line_number for q in quarantined] == [3, 6, 8]
        reasons = [q.reason for q in quarantined]
        assert "not valid JSON" in reasons[0]
        assert "unknown event type" in reasons[1]
        assert "missing keys" in reasons[2]
        # Everything else survived.
        assert len(trace.events) == len(headless_trace.events)

    def test_duplicate_header_quarantined(self, headless_trace):
        lines = headless_trace.dumps().splitlines()
        lines.insert(3, lines[0])
        trace, quarantined = parse_trace(
            "\n".join(lines), on_error="quarantine"
        )
        assert [q.reason for q in quarantined] == ["duplicate header"]
        assert len(trace.events) == len(headless_trace.events)

    def test_invalid_on_error_value(self):
        with pytest.raises(TraceError, match="on_error"):
            parse_trace("{}", on_error="ignore")

    def test_blank_lines_skipped(self, headless_trace):
        lines = headless_trace.dumps().splitlines()
        lines.insert(1, "")
        lines.insert(4, "   ")
        trace, quarantined = parse_trace("\n".join(lines))
        assert not quarantined
        assert trace.dumps() == headless_trace.dumps()


class TestNonFiniteRejectedOnRead:
    """``json.loads`` reads ``NaN``, ``Infinity`` and ``-Infinity``; a
    trace line holding one is malformed, and the header's horizon must
    be a finite number that is not a bool."""

    CONSTANTS = ["NaN", "Infinity", "-Infinity"]

    @staticmethod
    def with_fail_time(trace: Trace, literal: str) -> str:
        lines = trace.dumps().splitlines()
        index = next(
            i for i, line in enumerate(lines) if '"t":"fail"' in line
        )
        event = json.loads(lines[index])
        lines[index] = lines[index].replace(
            f'"time":{event["time"]!r}', f'"time":{literal}'
        )
        assert literal in lines[index]
        return "\n".join(lines), index + 1

    @pytest.mark.parametrize("literal", CONSTANTS)
    def test_event_line_raises_naming_the_line(
        self, headless_trace, literal
    ):
        text, number = self.with_fail_time(headless_trace, literal)
        with pytest.raises(
            TraceError,
            match=rf"trace line {number}: not valid JSON \({literal} is "
            rf"not allowed\)",
        ):
            parse_trace(text)

    @pytest.mark.parametrize("literal", CONSTANTS)
    def test_event_line_quarantined(self, headless_trace, literal):
        text, number = self.with_fail_time(headless_trace, literal)
        trace, quarantined = parse_trace(text, on_error="quarantine")
        assert [(q.line_number, q.reason) for q in quarantined] == [
            (number, f"not valid JSON ({literal} is not allowed)")
        ]
        assert len(trace.events) == len(headless_trace.events) - 1

    def test_report_line_quarantined(self, headless_trace):
        lines = headless_trace.dumps().splitlines()
        lines[-2] = lines[-2].replace(
            '"availability":', '"availability":NaN,"x":'
        )
        _, quarantined = parse_trace(
            "\n".join(lines), on_error="quarantine"
        )
        assert [q.line_number for q in quarantined] == [len(lines) - 1]

    @pytest.mark.parametrize("literal", CONSTANTS)
    def test_header_constant_raises_even_lenient(
        self, headless_trace, literal
    ):
        header = canonical_line(headless_trace.header_dict())
        bad = header.replace('"schema":1', f'"schema":1,"x":{literal}')
        with pytest.raises(
            TraceError,
            match=rf"trace line 1: header is not valid JSON \({literal}",
        ):
            parse_trace(bad, on_error="quarantine")

    @pytest.mark.parametrize(
        "horizon", ["true", "false", "NaN", "Infinity", "1e999", "-1e999"]
    )
    def test_horizon_must_be_finite_and_not_bool(
        self, headless_trace, horizon
    ):
        header = headless_trace.header_dict()
        header["horizon_hours"] = 0.5
        line = canonical_line(header).replace(
            '"horizon_hours":0.5', f'"horizon_hours":{horizon}'
        )
        assert horizon in line
        with pytest.raises(TraceError, match="trace line 1: header"):
            parse_trace(line, on_error="quarantine")

    @pytest.mark.parametrize("horizon", ["600", "600.0", "-1.5"])
    def test_numeric_horizons_still_read(self, headless_trace, horizon):
        header = headless_trace.header_dict()
        header["horizon_hours"] = 0.5
        line = canonical_line(header).replace(
            '"horizon_hours":0.5', f'"horizon_hours":{horizon}'
        )
        trace, _ = parse_trace(line)
        assert trace.horizon_hours == float(horizon)

    def test_reading_nan_text_raises_trace_error(
        self, tmp_path, headless_trace
    ):
        # Read without this check, the NaN time reaches the engine and
        # replay fails with SimulationError("event time must be
        # finite") instead.
        text, _ = self.with_fail_time(headless_trace, "NaN")
        path = tmp_path / "nan.jsonl"
        path.write_text(text)
        with pytest.raises(TraceError, match="NaN is not allowed"):
            read_trace(path)


class TestReadWrite:
    def test_write_then_read_byte_identical(self, tmp_path, headless_trace):
        path = tmp_path / "run.jsonl"
        write_trace(headless_trace, path)
        trace, quarantined = read_trace(path)
        assert not quarantined
        assert trace.dumps() == path.read_text()

    def test_missing_file_raises_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            read_trace(tmp_path / "absent.jsonl")

    def test_unwritable_path_raises_trace_error(
        self, tmp_path, headless_trace
    ):
        with pytest.raises(TraceError, match="cannot write"):
            write_trace(headless_trace, tmp_path / "no" / "dir.jsonl")

    def test_failed_write_keeps_the_existing_file(
        self, tmp_path, headless_trace
    ):
        path = tmp_path / "run.jsonl"
        write_trace(headless_trace, path)
        before = path.read_bytes()
        broken = copy_trace(headless_trace)
        broken.events[0]["time"] = float("nan")
        with pytest.raises(TraceError, match="not canonical JSON"):
            write_trace(broken, path)
        assert path.read_bytes() == before

    def test_tamper_survives_copy_helper(self, headless_trace):
        copied = copy_trace(headless_trace)
        copied.events[0]["node"] = -1
        assert headless_trace.events[0]["node"] != -1
