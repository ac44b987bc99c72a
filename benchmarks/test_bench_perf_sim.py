"""Simulation bench — the Monte-Carlo PR acceptance criteria, kept
green.

Runs the full :mod:`perf_sim` benchmark (1x/10x/100x failure
intensity, the ``a100_1x`` multi-GPU tier and the replication
ensemble), writes ``BENCH_sim.json``, and asserts the invariants that
must never regress: every tier simulates events at a positive rate,
the A100 tier injects multi-GPU failures, its ``before`` block stays
frozen, and the parallel ensemble is bit-identical to the serial one.

Parity is asserted on every host.  The replication-scaling criterion
(>2x with 4 workers) is asserted only when the machine actually has
>= 4 schedulable cores; on smaller boxes the measured numbers are
still recorded in ``BENCH_sim.json`` with
``"speedup_asserted": false`` so a <1.0x ratio on a 1-core host is
never mistaken for a passing result.
"""

import json

import pytest

import perf_sim


@pytest.fixture(scope="module")
def results():
    res = perf_sim.run_benchmark()
    perf_sim.write_report(res)
    return res


def test_report_written_and_loads(results):
    on_disk = json.loads(perf_sim.REPORT_PATH.read_text())
    assert on_disk["schema"] == results["schema"]
    assert set(on_disk["scales"]) == set(results["scales"])
    assert on_disk["ensemble"]["parity_ok"] is True


def test_events_per_second_recorded(results):
    for label, scale in results["scales"].items():
        assert scale["events"] > 0 and scale["failures"] > 0, label
        assert scale["events_per_s"] > 0.0, label


def test_historical_reference_is_frozen(results):
    reference = results["historical_reference"]
    assert "not re-measured" in reference["note"]
    assert set(reference["scales"]) == set(perf_sim.SCALES)


def test_multi_gpu_tier_recorded(results):
    tier = results["a100_1x"]
    assert tier["machine"] == "a100"
    assert tier["events_per_s"] > 0.0
    assert tier["multi_gpu_failures"] > 0


def test_multi_gpu_before_block_is_frozen(results):
    before = results["a100_1x"]["before"]
    assert before == perf_sim.A100_BEFORE
    assert "not re-measured" in before["note"]


def test_ensemble_parity_serial_vs_parallel(results):
    assert results["ensemble"]["parity_ok"] is True


def test_ensemble_throughput_positive(results):
    ensemble = results["ensemble"]
    assert ensemble["serial_replications_per_s"] > 0.0
    assert ensemble["parallel_replications_per_s"] > 0.0


def test_ensemble_parallel_scaling(results):
    ensemble = results["ensemble"]
    measured = ensemble["speedup"]
    if not ensemble["speedup_asserted"]:
        # Parity was still asserted above; the JSON records the
        # timings with speedup_asserted=false so the ratio is never
        # read as a result on a host that cannot show one.
        assert results["cpu_count"] >= 1
        pytest.skip(
            f"speedup unasserted on this host; measured "
            f"{measured:.2f}x recorded in BENCH_sim.json"
        )
    if perf_sim.available_cpus() >= 4:
        assert measured > 2.0, ensemble
    else:
        # 2-3 cores: demand a real win, just not near-linear.
        assert measured > 1.0, ensemble
