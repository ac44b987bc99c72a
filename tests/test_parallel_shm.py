"""Tests for how a sweep's shared payload reaches its workers.

A parallel sweep pickles ``shared=`` once; each worker unpickles the
bytes once per sweep token.  What a worker rebuilds must equal what
the parent passed, and a parallel sweep over it must return exactly
what the serial sweep returns.
"""

import pickle

import numpy as np
import pytest

from repro.core.metrics import mtbf, mttr
from repro.parallel import shutdown_pool, sweep
from repro.parallel.sweeps import _load_shared


@pytest.fixture(autouse=True)
def _cold_pool():
    shutdown_pool()
    yield
    shutdown_pool()


def _packed(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


class TestColumnarViewTransport:
    def test_export_attach_parity(self, t2_log):
        view = t2_log.columns
        rebuilt = _load_shared("view-parity", _packed(view))
        assert rebuilt is not view
        assert rebuilt.machine == view.machine
        assert rebuilt.category_names == view.category_names
        assert rebuilt.taxonomy_complete == view.taxonomy_complete
        np.testing.assert_array_equal(rebuilt.ts_hours, view.ts_hours)
        np.testing.assert_array_equal(rebuilt.node_ids, view.node_ids)
        np.testing.assert_array_equal(
            rebuilt.slot_values, view.slot_values
        )
        np.testing.assert_array_equal(
            rebuilt.slot_offsets, view.slot_offsets
        )
        assert len(rebuilt) == len(view)


def _score_window(task: tuple[float, int], log) -> tuple[float, float, int]:
    """Shared-payload worker: compute metrics against the shared log."""
    window, scale = task
    return (mtbf(log) * scale, mttr(log), len(log))


def _sum_columns(scale: int, view) -> float:
    return float(view.ts_hours.sum()) * scale + float(
        view.node_ids.sum()
    )


class TestSharedSweepParity:
    def test_failure_log_payload_bit_parity(self, t2_log):
        tasks = [(336.0, 1), (720.0, 2), (1000.0, 3), (2000.0, 4)]
        serial = sweep(_score_window, tasks, shared=t2_log)
        parallel = sweep(
            _score_window, tasks, processes=2, shared=t2_log
        )
        assert parallel == serial  # bit-exact floats included

    def test_columnar_view_payload_bit_parity(self, t2_log):
        view = t2_log.columns
        serial = sweep(_sum_columns, [1, 2, 3], shared=view)
        parallel = sweep(
            _sum_columns, [1, 2, 3], processes=2, shared=view
        )
        assert parallel == serial


class TestSharedPayloadInternals:
    def test_resolved_log_equals_original(self, t2_log):
        rebuilt = _load_shared("log-parity", _packed(t2_log))
        assert rebuilt is not t2_log
        assert rebuilt == t2_log
        np.testing.assert_array_equal(
            rebuilt.columns.ts_hours, t2_log.columns.ts_hours
        )
        # A second chunk of the same sweep reuses the object.
        assert _load_shared("log-parity", b"") is rebuilt
