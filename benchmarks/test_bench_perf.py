"""Performance bench — the PR 1 acceptance criteria, kept green.

Runs the full :mod:`perf_core` benchmark (1x/10x/100x paper scale plus
the 50-seed sweep), writes ``BENCH_core.json``, and asserts the
invariants that must never regress: the columnar chained-filter +
analysis pass stays >= 10x faster than the pure-Python reference path
at 100x scale, the fast path agrees with the reference output, the
report tier makes exactly the counted ``ColumnarView.mask`` calls at
1x and renders the same bytes as before at every scale, and the
parallel sweep returns exactly the serial results.

The >2x parallel-speedup criterion is asserted only when the machine
actually has >= 4 cores; on smaller boxes the measured numbers are
still recorded in ``BENCH_core.json`` for the trajectory.
"""

import json

import pytest

import perf_core


@pytest.fixture(scope="module")
def results():
    res = perf_core.run_benchmark()
    perf_core.write_report(res)
    return res


def test_report_written_and_loads(results):
    on_disk = json.loads(perf_core.REPORT_PATH.read_text())
    assert on_disk["schema"] == results["schema"]
    assert set(on_disk["scales"]) == {"1x", "10x", "100x"}
    assert on_disk["scales"]["100x"]["records"] == 89700


def test_analysis_chain_10x_faster_at_100x_scale(results):
    chain = results["scales"]["100x"]["analysis_chain"]
    assert chain["speedup_warm"] >= 10.0, chain


def test_fast_path_matches_reference_everywhere(results):
    for label, scale in results["scales"].items():
        assert scale["analysis_chain"]["parity_ok"], label
        assert scale["filter_chain"]["survivors_match"], label


def test_read_tier_matches_row_oracle(results):
    for label, scale in results["scales"].items():
        assert scale["read"]["logs_equal"], label
        assert scale["read"]["rows"] == scale["records"], label


#: ``ColumnarView.mask`` calls of one report plus the five payloads at
#: 1x: Figure 5 filters each of the two logs to its GPU failures.
REPORT_MASK_CALLS_1X = 2


def test_report_tier_mask_calls_at_1x(results):
    report = results["scales"]["1x"]["report"]
    assert report["mask_calls"] == REPORT_MASK_CALLS_1X, report


def test_report_tier_bytes_match_before(results):
    for label, scale in results["scales"].items():
        report = scale["report"]
        assert report["rows"] == scale["records"], label
        assert report["same_bytes_as_before"], label


def test_filter_chain_beats_revalidation_at_scale(results):
    assert results["scales"]["100x"]["filter_chain"]["speedup"] > 1.0


def test_kernels_all_timed(results):
    for label, scale in results["scales"].items():
        assert set(scale["kernels"]) == set(perf_core.KERNELS), label


def test_sweep_parallel_identical_to_serial(results):
    assert results["sweep"]["identical"]


def test_sweep_parallel_speedup(results):
    bench = results["sweep"]
    measured = bench["speedup"]
    if not bench["speedup_asserted"]:
        # Parity (identical) was asserted above on every host; the
        # JSON carries speedup_asserted=false so the single-core
        # ratio is never mistaken for a measured result.
        pytest.skip(
            f"speedup unasserted on this host; measured "
            f"{measured:.2f}x recorded in BENCH_core.json"
        )
    if perf_core.available_cpus() >= 4:
        assert measured > 2.0, bench
    else:
        assert measured > 1.0, bench
