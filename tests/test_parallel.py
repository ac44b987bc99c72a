"""Tests for the deterministic multi-seed sweep engine."""

import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.core.columns import ColumnarView
from repro.core.metrics import mtbf, mttr
from repro.core.records import FailureLog
from repro.errors import ValidationError
from repro.io import read_csv, write_csv
from repro.parallel import default_processes, sweep, sweep_iter
from repro.predict.tuning import sweep_rate_predictor
from repro.synth import profile_for, replicate_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]


def _square(seed: int) -> int:
    return seed * seed


def _seeded_tuple(seed: int) -> tuple[int, int]:
    return (seed, seed + 1)


def _square_unless_13(seed: int) -> int:
    if seed == 13:
        raise ValueError("poisoned seed")
    return seed * seed


class TestSweep:
    def test_serial_matches_comprehension(self):
        seeds = list(range(20))
        assert sweep(_square, seeds) == [s * s for s in seeds]

    def test_parallel_matches_serial_in_order(self):
        seeds = list(range(37))
        serial = sweep(_square, seeds, processes=1)
        parallel = sweep(_square, seeds, processes=2)
        assert parallel == serial == [s * s for s in seeds]

    def test_chunksize_does_not_change_results(self):
        seeds = list(range(23))
        for chunksize in (1, 2, 7, 100):
            assert sweep(
                _square, seeds, processes=2, chunksize=chunksize
            ) == [s * s for s in seeds]

    def test_empty_seeds(self):
        assert sweep(_square, []) == []

    def test_structured_results(self):
        assert sweep(_seeded_tuple, [3, 1], processes=2) == [
            (3, 4), (1, 2)
        ]

    def test_invalid_processes_rejected(self):
        with pytest.raises(ValidationError):
            sweep(_square, [1], processes=0)

    def test_invalid_chunksize_rejected(self):
        with pytest.raises(ValidationError):
            sweep(_square, [1], chunksize=0)

    def test_default_processes_positive(self):
        assert default_processes() >= 1

    def test_generator_input(self):
        assert sweep(_square, (s for s in range(5))) == [
            0, 1, 4, 9, 16
        ]


class TestPredictorSweepParallel:
    def test_parallel_grid_identical_to_serial(self, t2_log):
        grid = dict(
            window_grid=(336.0, 1000.0), threshold_grid=(2, 3)
        )
        serial = sweep_rate_predictor(t2_log, **grid)
        parallel = sweep_rate_predictor(t2_log, **grid, processes=2)
        assert parallel == serial

    def test_log_pickles_for_workers(self, t2_log):
        t2_log.columns  # populate caches; they must not travel
        payload = pickle.dumps(t2_log)
        assert pickle.loads(payload) == t2_log


class TestReplicateScenario:
    def test_seed_ordered_and_deterministic(self):
        profile = profile_for("tsubame3")
        seeds = (5, 3, 8)
        logs = replicate_scenario(profile, seeds)
        again = replicate_scenario(profile, seeds)
        assert [len(log) for log in logs] == [len(log) for log in again]
        assert logs == again

    def test_parallel_identical_to_serial(self):
        profile = profile_for("tsubame3")
        seeds = tuple(range(4))
        serial = replicate_scenario(profile, seeds, processes=1)
        parallel = replicate_scenario(profile, seeds, processes=2)
        assert parallel == serial

    def test_empty_seeds_rejected(self):
        from repro.errors import CalibrationError

        with pytest.raises(CalibrationError):
            replicate_scenario(profile_for("tsubame2"), ())


class TestSweepIter:
    def test_streams_in_input_order(self):
        seeds = list(range(25))
        outcomes = list(sweep_iter(_square, seeds))
        assert [o.index for o in outcomes] == seeds
        assert [o.result for o in outcomes] == [s * s for s in seeds]
        assert all(o.ok for o in outcomes)

    def test_matches_sweep_return_errors(self):
        seeds = list(range(20))
        streamed = list(sweep_iter(_square_unless_13, seeds, processes=2))
        materialised = sweep(
            _square_unless_13, seeds, processes=2, return_errors=True
        )
        assert [(o.index, o.item, o.result, o.ok) for o in streamed] == [
            (o.index, o.item, o.result, o.ok) for o in materialised
        ]

    def test_captures_failures_without_raising(self):
        outcomes = list(sweep_iter(_square_unless_13, [12, 13, 14]))
        assert [o.ok for o in outcomes] == [True, False, True]
        assert isinstance(outcomes[1].error, ValueError)

    def test_parallel_matches_serial(self):
        seeds = list(range(31))
        serial = list(sweep_iter(_square, seeds))
        parallel = list(sweep_iter(_square, seeds, processes=3))
        assert [(o.index, o.result) for o in parallel] == [
            (o.index, o.result) for o in serial
        ]

    def test_empty_input(self):
        assert list(sweep_iter(_square, [])) == []

    def test_invalid_args_rejected(self):
        with pytest.raises(ValidationError):
            list(sweep_iter(_square, [1], processes=0))
        with pytest.raises(ValidationError):
            list(sweep_iter(_square, [1, 2], retries=-1))

    def test_early_abandonment_shuts_down(self):
        iterator = sweep_iter(_square, list(range(40)), processes=2)
        first = next(iterator)
        assert first.index == 0
        iterator.close()  # must not hang or leak the pool


def _uses_shared(item: int, shared) -> tuple:
    """A value of ``item`` that reads the shared payload, whatever its
    kind."""
    if isinstance(shared, FailureLog):
        return item, mtbf(shared) * item, mttr(shared), len(shared)
    if isinstance(shared, ColumnarView):
        return item, float(shared.ts_hours.sum()) * item + float(
            shared.node_ids.sum()
        )
    return item, shared[0] + item


def _returns_shared(item: int, shared):
    return shared


#: Payloads seen by this process, by id, so that no payload is freed
#: and a second unpickled copy cannot reuse its address.
_held: dict[int, object] = {}


def _worker_and_payload(item: int, shared) -> tuple[int, int]:
    _held[id(shared)] = shared
    return os.getpid(), id(shared)


def _shared_payload(kind: str, log: FailureLog, tmp_path: Path):
    if kind == "eager-log":
        return log
    if kind == "lazy-log":
        write_csv(log, tmp_path / "log.csv")
        lazy = read_csv(tmp_path / "log.csv")
        assert "records" not in lazy.__dict__
        return lazy
    if kind == "view":
        return log.columns
    return (100, "base", 2.5)


def _assert_same_payload(actual, expected) -> None:
    assert type(actual) is type(expected)
    if isinstance(expected, ColumnarView):
        for field in fields(expected):
            a, e = getattr(actual, field.name), getattr(expected, field.name)
            if isinstance(e, np.ndarray):
                assert a.dtype == e.dtype
                assert np.array_equal(a, e), field.name
            else:
                assert a == e, field.name
    else:
        assert actual == expected


class TestShared:
    @pytest.mark.parametrize(
        "kind", ["eager-log", "lazy-log", "view", "tuple"]
    )
    def test_parallel_matches_serial(self, kind, t2_log, tmp_path):
        shared = _shared_payload(kind, t2_log, tmp_path)
        items = list(range(1, 8))
        serial = sweep(_uses_shared, items, shared=shared)
        assert sweep(
            _uses_shared, items, processes=2, shared=shared
        ) == serial  # bit-exact floats included
        streamed = sweep_iter(
            _uses_shared, items, processes=2, shared=shared
        )
        assert [o.result for o in streamed] == serial
        for received in sweep(
            _returns_shared, [0, 1], processes=2, shared=shared
        ):
            _assert_same_payload(received, shared)

    def test_each_worker_unpickles_once_per_sweep(self, t2_log):
        for _ in range(2):
            pairs = sweep(
                _worker_and_payload, range(16), processes=2,
                chunksize=1, shared=t2_log,
            )
            ids_by_pid: dict[int, set[int]] = {}
            for pid, ident in pairs:
                ids_by_pid.setdefault(pid, set()).add(ident)
            assert os.getpid() not in ids_by_pid
            # 16 single-item chunks over at most a few workers: some
            # worker ran several, and all of its chunks saw one object.
            assert max(Counter(pid for pid, _ in pairs).values()) > 1
            assert all(len(ids) == 1 for ids in ids_by_pid.values())

    def test_parallel_shared_sweep_leaves_stderr_clean(self):
        code = (
            "from repro.predict.tuning import sweep_rate_predictor\n"
            "from repro.synth import generate_log\n"
            "log = generate_log('tsubame3')\n"
            "grid = dict(window_grid=(336.0, 1000.0), "
            "threshold_grid=(2, 3))\n"
            "assert sweep_rate_predictor(log, **grid, processes=2) "
            "== sweep_rate_predictor(log, **grid)\n"
        )
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{existing}" if existing else src
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
