"""Store benchmark — the repro.store PR's acceptance criteria, kept
green.

Runs the full :mod:`perf_store` benchmark, writes ``BENCH_store.json``,
and asserts the claims: materialized analytics match the cold kernels
(parity is verified *inside* the benchmark before any number is
reported), warm-restart-to-first-analytics is >= 10x faster than the
cold parse-and-recompute path, and an incremental append-update beats
a full recomputation by >= 5x.  The speed floors are asserted at the
acceptance scale (100x, the default); reduced-scale smoke runs record
their numbers without asserting ratios a small input cannot honestly
support.  A deterministic counter is asserted at every scale: beyond
one call per distinct tally key, ``StoreViews.absorb`` makes fewer
calls than a calibrated batch has rows, so a per-row Python loop in
the views fails.  So is the writer's: one append of a calibrated
batch, as a record list or a lazy CSV log, builds no
``FailureRecord`` and leaves the log lazy.
"""

import json

import pytest

import perf_store


@pytest.fixture(scope="module")
def results():
    res = perf_store.run_benchmark()
    perf_store.write_report(res)
    return res


def test_report_written_and_loads(results):
    on_disk = json.loads(perf_store.REPORT_PATH.read_text())
    assert on_disk["schema"] == results["schema"]
    assert set(on_disk) == set(results)


def test_ingest_throughput_recorded(results):
    ingest = results["ingest"]
    assert ingest["rows"] == perf_store.BASE_FAILURES * results["scale"]
    assert ingest["rows_per_s"] > 0
    assert ingest["bytes_per_row"] > 0


def test_parity_verified_on_both_paths(results):
    # verify_parity raises inside the benchmark on any divergence;
    # these flags existing means both checks actually ran.
    assert results["warm_restart"]["parity_ok"] is True
    assert results["incremental"]["parity_ok"] is True
    assert len(results["warm_restart"]["analyses"]) == 5


def test_warm_restart_floor(results):
    warm = results["warm_restart"]
    if not results["floors_asserted"]:
        pytest.skip(
            f"scale {results['scale']} < 100; measured "
            f"{warm['speedup']:.1f}x recorded in BENCH_store.json"
        )
    assert warm["speedup"] >= 10.0, warm


def test_incremental_update_floor(results):
    incremental = results["incremental"]
    if not results["floors_asserted"]:
        pytest.skip(
            f"scale {results['scale']} < 100; measured "
            f"{incremental['speedup']:.1f}x recorded in BENCH_store.json"
        )
    assert incremental["speedup"] >= 5.0, incremental


def test_absorb_makes_no_call_per_row(results):
    # One call per distinct node, month, category or involvement key
    # is allowed; the rest must stay below one call per row.
    incremental = results["incremental"]
    per_key = incremental["absorb_keys"]
    assert incremental["absorb_py_calls"] - per_key < (
        incremental["absorb_rows"]
    ), incremental


def test_append_builds_no_records(results):
    # The writer checks a batch as arrays: no record is rebuilt from a
    # record list, and a lazy CSV log never builds its records.
    incremental = results["incremental"]
    assert incremental["append_records_built"] == {
        "records_reindexed": 0, "csv_log": 0,
    }, incremental
    assert incremental["csv_log_still_lazy"] is True
