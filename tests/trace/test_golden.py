"""Golden-trace regression corpus.

Each committed trace under ``golden/`` must replay bit-exactly with
the current code.  A failure here means some component made a
decision differently than when the corpus was recorded — a semantic
regression even when every unit test passes.  If the change is
*intentional* (schema bump, deliberate sim change), regenerate with::

    PYTHONPATH=src python tests/trace/golden/regen.py
"""

from __future__ import annotations

import pytest

from repro.trace import read_trace, replay

from tests.trace.conftest import GOLDEN_DIR

GOLDEN_NAMES = ("a100_train", "t2_baseline", "t2_burst", "t3_workload")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_replays_bit_exactly(name):
    trace, quarantined = read_trace(GOLDEN_DIR / f"{name}.jsonl")
    assert not quarantined
    result = replay(trace)
    assert result.bit_exact


def test_legacy_presample_false_header_replays(tmp_path):
    # Traces recorded while the injector still had a per-event draw
    # path may carry "presample": false.  Replay never draws, so the
    # key is ignored and such traces still verify bit-exactly.
    text = (GOLDEN_DIR / "t2_baseline.jsonl").read_text()
    assert text.count('"presample":true') == 1
    legacy = tmp_path / "t2_legacy.jsonl"
    legacy.write_text(
        text.replace('"presample":true', '"presample":false')
    )
    trace, quarantined = read_trace(legacy)
    assert not quarantined
    assert replay(trace).bit_exact


def test_corpus_is_complete():
    found = {p.stem for p in GOLDEN_DIR.glob("*.jsonl")}
    assert found == set(GOLDEN_NAMES)


def test_burst_scenario_contains_multi_gpu_failures():
    trace, _ = read_trace(GOLDEN_DIR / "t2_burst.jsonl")
    widths = [len(e["gpus"]) for e in trace.failures]
    assert max(widths) > 1, (
        "the burst golden must exercise correlated multi-GPU failures"
    )


def test_workload_scenario_exercises_scheduler():
    trace, _ = read_trace(GOLDEN_DIR / "t3_workload.jsonl")
    kinds = {e["t"] for e in trace.events}
    assert {"jsub", "jstart", "jdone", "jkill"} <= kinds
    assert trace.config.workload is not None
    assert trace.config.checkpoint_policy is not None


def test_training_scenario_exercises_gang():
    trace, _ = read_trace(GOLDEN_DIR / "a100_train.jsonl")
    kinds = {e["t"] for e in trace.events}
    assert {"jsub", "jstart", "jkill"} <= kinds
    assert trace.config.train is not None
    assert trace.config.train.num_nodes == 64
    assert trace.report["train"]["interrupts"] > 0


def test_goldens_are_canonical_on_disk():
    # Byte-level canonical form: re-emitting the parsed trace must
    # reproduce the committed file exactly (guards hand edits and
    # codec drift alike).
    for name in GOLDEN_NAMES:
        path = GOLDEN_DIR / f"{name}.jsonl"
        trace, _ = read_trace(path)
        assert trace.dumps() == path.read_text(), name
