"""Parallel-substrate bench — warm pool, shared payload, stealing.

Runs the full :mod:`perf_parallel` benchmark, writes
``BENCH_parallel.json``, and asserts the claims that hold on *any*
host: bit-exact serial/parallel parity, one executor spawn across
consecutive sweeps (the warm pool actually reused), at most one
unpickle of a ``shared=`` payload per worker per sweep, the frozen
``before_shm`` block, and the work-stealing wall beating the serial
sum (sleep-based, so it holds even on one core).  Wall-clock speedup of the CPU-bound ensemble is
asserted only where ``speedup_asserted`` is true — on a host with
cores to back the claim.
"""

import json

import pytest

import perf_parallel


@pytest.fixture(scope="module")
def results():
    res = perf_parallel.run_benchmark()
    perf_parallel.write_report(res)
    return res


def test_report_written_and_loads(results):
    on_disk = json.loads(perf_parallel.REPORT_PATH.read_text())
    assert on_disk["schema"] == results["schema"]
    assert set(on_disk) == set(results)


def test_warm_pool_spawns_once_across_sweeps(results):
    assert results["pool"]["spawns"] == 1
    assert results["pool"]["parity_ok"] is True


def test_ensemble_parity_bit_exact(results):
    assert results["ensemble"]["parity_ok"] is True


def test_ensemble_speedup_where_assertable(results):
    ensemble = results["ensemble"]
    measured = ensemble["speedup"]
    if not ensemble["speedup_asserted"]:
        pytest.skip(
            f"speedup unasserted on this host; measured "
            f"{measured:.2f}x recorded in BENCH_parallel.json"
        )
    if perf_parallel.available_cpus() >= 4:
        assert measured >= 3.0, ensemble
    else:
        assert measured > 1.0, ensemble


def test_shared_payload_parity_and_one_load_per_worker(results):
    shared = results["shared"]
    assert shared["parity_ok"] is True
    assert shared["max_loads_per_worker"] == 1, shared
    assert shared["grid_points"] == 16


def test_before_shm_block_is_frozen(results):
    before = results["shared"]["before_shm"]
    assert before == perf_parallel.SHARED_BEFORE
    assert "not re-measured" in before["note"]
    assert before["grid_points"] == results["shared"]["grid_points"]
    assert before["workers"] == results["shared"]["workers"]


def test_stealing_beats_serial_sum_everywhere(results):
    stealing = results["stealing"]
    assert stealing["ordered_ok"] is True
    assert (
        stealing["parallel_s"] < stealing["serial_sum_s"]
    ), stealing
