"""TraceSource: streaming a recorded trace file."""

from __future__ import annotations

import math
import re

import pytest

from repro.errors import TraceError
from repro.stream import FailureMonitor, TraceSource
from repro.trace import write_trace


@pytest.fixture()
def trace_path(tmp_path, headless_trace):
    path = tmp_path / "run.jsonl"
    write_trace(headless_trace, path)
    return path


class TestTraceSource:
    def test_yields_failures_in_recorded_order(
        self, trace_path, headless_trace
    ):
        events = list(TraceSource(trace_path))
        assert all(e.is_failure for e in events)
        assert len(events) == len(headless_trace.failures)
        times = [e.time_hours for e in events]
        assert times == sorted(times)
        assert [e.record.record_id for e in events] == list(
            range(len(events))
        )

    def test_include_repairs(self, trace_path, headless_trace):
        events = list(TraceSource(trace_path, include_repairs=True))
        repairs = [e for e in events if e.is_repair]
        rdone = [
            e for e in headless_trace.events if e["t"] == "rdone"
        ]
        assert len(repairs) == len(rdone)

    def test_metadata_properties(self, trace_path, headless_trace):
        source = TraceSource(trace_path)
        assert source.machine == "tsubame2"
        assert source.span_hours == headless_trace.horizon_hours
        assert source.quarantined == []

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            TraceSource(tmp_path / "absent.jsonl")

    def test_feeds_failure_monitor(self, trace_path, headless_trace):
        monitor = FailureMonitor()
        for event in TraceSource(trace_path):
            monitor.observe(event)
        snapshot = monitor.snapshot()
        assert snapshot.events_seen == len(headless_trace.failures)

    def test_non_finite_time_is_quarantined_not_streamed(
        self, tmp_path, headless_trace
    ):
        lines = headless_trace.dumps().splitlines()
        index = next(
            i for i, line in enumerate(lines) if '"t":"fail"' in line
        )
        lines[index] = re.sub(
            r'"time":[^,}]+', '"time":NaN', lines[index]
        )
        path = tmp_path / "nan.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="NaN is not allowed"):
            TraceSource(path)
        source = TraceSource(path, on_error="quarantine")
        assert [q.line_number for q in source.quarantined] == [index + 1]
        times = [event.time_hours for event in source]
        assert len(times) == len(headless_trace.failures) - 1
        assert all(math.isfinite(time) for time in times)

    def test_overflowing_time_is_quarantined_not_streamed(
        self, tmp_path, headless_trace
    ):
        lines = headless_trace.dumps().splitlines()
        index = next(
            i for i, line in enumerate(lines) if '"t":"fail"' in line
        )
        lines[index] = re.sub(
            r'"time":[^,}]+', '"time":1e999', lines[index]
        )
        path = tmp_path / "overflow.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="1e999 is out of range"):
            TraceSource(path)
        source = TraceSource(path, on_error="quarantine")
        assert [q.line_number for q in source.quarantined] == [index + 1]
        times = [event.time_hours for event in source]
        assert len(times) == len(headless_trace.failures) - 1
        assert all(math.isfinite(time) for time in times)
