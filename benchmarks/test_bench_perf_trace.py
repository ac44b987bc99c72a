"""Trace benchmark — the trace/replay PR's acceptance criteria, kept
green.

Runs the full :mod:`perf_trace` benchmark, writes ``BENCH_trace.json``,
and asserts the claims: recording a full workload simulation through
the pub/sub bus costs <= 10% wall-clock overhead, replay reproduces
the recording bit-exactly (asserted *inside* the benchmark before any
number is reported), the codec round trip is byte-identical, the
codec's frozen ``before_rows`` block is unchanged, and the
record -> write -> read -> replay op builds no event dict.  The
overhead floor is asserted at >= 5 interleaved repetitions (the
default 7); reduced-rep smoke runs record their numbers without
asserting a ratio that timing noise cannot honestly support.
"""

import json

import pytest

import perf_trace


@pytest.fixture(scope="module")
def results():
    res = perf_trace.run_benchmark()
    perf_trace.write_report(res)
    return res


def test_report_written_and_loads(results):
    on_disk = json.loads(perf_trace.REPORT_PATH.read_text())
    assert on_disk["schema"] == results["schema"]
    assert set(on_disk) == set(results)


def test_recording_captures_busy_run(results):
    recording = results["recording"]
    # The workload configuration must exercise every event topic; a
    # quiet run would measure nothing.
    assert recording["events_per_run"] > 1000
    assert recording["plain_events_per_s"] > 0


def test_replay_bit_exact_and_report_complete(results):
    assert results["replay"]["bit_exact"] is True
    assert results["replay"]["events"] > 1000
    assert results["codec"]["round_trip_ok"] is True


def test_codec_before_block_is_frozen(results):
    codec = results["codec"]
    before = codec["before_rows"]
    assert before == perf_trace.CODEC_BEFORE
    assert "not re-measured" in before["note"]
    if results["horizon_hours"] == before["horizon_hours"]:
        assert before["lines"] == codec["lines"]
    assert before["op"]["ops"] == results["op"]["ops"]
    assert codec["compare_s"] > 0


def test_op_builds_no_event_dicts(results):
    op = results["op"]
    # Rows go from the recorder through the file, the parser and the
    # verified replay; an event dict anywhere on that path is a
    # regression to the dict codec (which built one per event on each
    # of the three traces).
    assert op["event_dicts"] == 0
    assert len(op["gc_collections"]) == 3
    assert op["op_s"] > 0


def test_recording_overhead_floor(results):
    recording = results["recording"]
    if not results["floors_asserted"]:
        pytest.skip(
            f"reps {results['reps']} < 5; measured "
            f"{recording['overhead_pct']:+.1f}% recorded in "
            f"BENCH_trace.json"
        )
    assert recording["overhead_pct"] <= (
        results["overhead_floor_pct"]
    ), recording
