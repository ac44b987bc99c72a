"""Serving bench — the serve PR acceptance criteria, kept green.

Runs the full :mod:`perf_serve` benchmark against a live server,
writes ``BENCH_serve.json``, and asserts the invariants that must
never regress: cached repeat queries are >= 10x faster than the cold
miss (and byte-identical), and N identical concurrent requests
trigger exactly **one** backend execution.  Uploaded CSV logs stay
lazy: registering one builds no record.
"""

import json

import pytest

import perf_serve


@pytest.fixture(scope="module")
def results():
    res = perf_serve.run_benchmark()
    perf_serve.write_report(res)
    return res


def test_report_written_and_loads(results):
    on_disk = json.loads(perf_serve.REPORT_PATH.read_text())
    assert on_disk["schema"] == results["schema"]
    assert set(on_disk) == set(results)


def test_cached_repeat_at_least_10x_faster_than_cold(results):
    latency = results["latency"]
    assert latency["speedup"] >= 10.0, latency
    assert latency["byte_identical"] is True


def test_identical_concurrent_requests_execute_backend_once(results):
    coalescing = results["coalescing"]
    assert coalescing["backend_executions"] == 1, coalescing
    assert (
        coalescing["coalescing_factor"]
        == coalescing["concurrent_requests"]
    )
    assert coalescing["all_identical"] is True


def test_sustained_cached_throughput_positive(results):
    sustained = results["sustained"]
    assert sustained["requests_per_s"] > 0.0
    assert sustained["p50_ms"] <= sustained["p99_ms"]


def test_uploads_build_no_records(results):
    upload = results["upload"]
    assert upload["records_built"] == 0, upload
    assert upload["median_ms"] > 0.0


def test_upload_before_block_is_frozen(results):
    before = results["upload"]["before_columnar_fingerprint"]
    assert before == perf_serve.UPLOAD_BEFORE
    assert "not re-measured" in before["note"]
    assert before["rows_per_upload"] == (
        results["upload"]["rows_per_upload"]
    )


def test_server_survived_without_errors(results):
    totals = results["server_totals"]
    assert totals["errors_5xx"] == 0
    assert totals["shed_total"] == 0
    expected_minimum = (
        1  # cold simulate
        + results["latency"]["cached_samples"]
        + results["coalescing"]["concurrent_requests"]
        + results["sustained"]["total_requests"]
        + results["upload"]["uploads"]
    )
    assert totals["requests_total"] >= expected_minimum
