"""Golden-trace regression corpus.

Each committed trace under ``golden/`` must replay bit-exactly with
the current code, and recording its scenario afresh must write the
same lines.  Replay never draws from the fault injector's RNG, so only
the second check pins the injector's draw order.  A failure here means
some component made a decision differently than when the corpus was
recorded — a semantic regression even when every unit test passes.
If the change is *intentional* (schema bump, deliberate sim change),
regenerate with::

    PYTHONPATH=src python tests/trace/golden/regen.py
"""

from __future__ import annotations

import json

import pytest

from repro.sim import ClusterSimulator
from repro.trace import read_trace, record_run, replay

from tests.trace.conftest import GOLDEN_DIR
from tests.trace.golden.regen import SCENARIOS

GOLDEN_NAMES = ("a100_train", "t2_baseline", "t2_burst", "t3_workload")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_replays_bit_exactly(name):
    trace, quarantined = read_trace(GOLDEN_DIR / f"{name}.jsonl")
    assert not quarantined
    result = replay(trace)
    assert result.bit_exact


def _without_wall_time(line: str) -> str:
    """The line, minus the ``end`` line's ``wall_s`` (a wall-clock
    measurement, different on every run)."""
    obj = json.loads(line)
    if obj.get("t") == "end":
        del obj["wall_s"]
        return json.dumps(obj, sort_keys=True)
    return line


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_records_afresh_line_for_line(name):
    scenario = SCENARIOS[name]
    simulator = ClusterSimulator(scenario["machine"], **scenario["kwargs"])
    _, trace = record_run(simulator, scenario["horizon"])
    fresh = trace.dumps().splitlines()
    golden = (GOLDEN_DIR / f"{name}.jsonl").read_text().splitlines()
    assert [_without_wall_time(line) for line in fresh] == [
        _without_wall_time(line) for line in golden
    ]
    assert sum('"t":"end"' in line for line in golden) == 1


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
    assert found == set(GOLDEN_NAMES) == set(SCENARIOS)


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
