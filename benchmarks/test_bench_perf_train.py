"""Training bench — the repro.train PR acceptance criteria, kept
green.

Runs the full :mod:`perf_train` benchmark (gang-training runs on the
1024-node A100 fleet at increasing failure intensity, plus the
training replication ensemble), writes ``BENCH_train.json``, and
asserts the invariants that must never regress: the training run
sustains a healthy event rate, the gang costs at most 3x the event
rate of a plain run of the same fleet at 1x, its ETTR degrades
monotonically as failures intensify, and the parallel ensemble is
bit-identical to the serial one.

Parity is asserted on every host; the replication-scaling criterion
follows the same ``speedup_asserted`` convention as perf_sim, so a
<1.0x ratio on a 1-core host is never mistaken for a passing result.
"""

import json

import pytest

import perf_train


@pytest.fixture(scope="module")
def results():
    res = perf_train.run_benchmark()
    perf_train.write_report(res)
    return res


def test_report_written_and_loads(results):
    on_disk = json.loads(perf_train.REPORT_PATH.read_text())
    assert on_disk["schema"] == results["schema"]
    assert set(on_disk["scales"]) == set(results["scales"])
    assert on_disk["ensemble"]["parity_ok"] is True


def test_training_run_throughput_positive(results):
    for label, scale in results["scales"].items():
        assert scale["events_per_s"] > 0.0, label
        assert scale["events"] > 0, label
        assert scale["failures"] > 0, label


def test_gang_overhead_bounded(results):
    scale = results["scales"].get("1x")
    if scale is None:
        pytest.skip("the 1x tier is not selected")
    assert scale["plain_events_per_s"] > 0.0, scale
    # Looser than the recorded GANG_OVERHEAD_TARGET so host noise
    # between the interleaved runs cannot fail it, yet tight enough
    # to catch a per-start fleet scan in Python (about 7x).
    assert scale["gang_overhead_ratio"] <= 3.0, scale


def test_ettr_sane_and_degrades_with_intensity(results):
    scales = sorted(
        results["scales"].values(), key=lambda s: s["intensity"]
    )
    for scale in scales:
        # 0.0 is reachable at the harshest tiers: the fleet decays
        # below the gang size and the job starves in the queue.
        assert 0.0 <= scale["ettr"] <= 1.0, scale
    assert scales[0]["ettr"] > 0.0, scales[0]
    if len(scales) >= 2:
        assert scales[0]["ettr"] > scales[-1]["ettr"], (
            "more failures should mean less effective training time"
        )


def test_ensemble_parity_serial_vs_parallel(results):
    assert results["ensemble"]["parity_ok"] is True


def test_ensemble_throughput_positive(results):
    ensemble = results["ensemble"]
    assert ensemble["serial_replications_per_s"] > 0.0
    assert ensemble["parallel_replications_per_s"] > 0.0
    assert 0.0 < ensemble["mean_ettr"] <= 1.0


def test_ensemble_parallel_scaling(results):
    ensemble = results["ensemble"]
    measured = ensemble["speedup"]
    if not ensemble["speedup_asserted"]:
        # Parity was still asserted above; BENCH_train.json records
        # the timings with speedup_asserted=false so the ratio is
        # never read as a result on a host that cannot show one.
        assert results["cpu_count"] >= 1
        pytest.skip(
            f"speedup unasserted on this host; measured "
            f"{measured:.2f}x recorded in BENCH_train.json"
        )
    if perf_train.available_cpus() >= 4:
        assert measured > 2.0, ensemble
    else:
        # 2-3 cores: demand a real win, just not near-linear.
        assert measured > 1.0, ensemble
