"""Transport of lazy logs: a log read column-wise holds only its view
until ``records`` is first touched, and must survive pickling, deep
copies, shared memory and worker processes either way."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core.breakdown import category_breakdown
from repro.core.columns import ColumnarView
from repro.core.records import FailureLog
from repro.core.report import full_report
from repro.io import read_csv, write_csv
from repro.parallel import shutdown_pool, sweep
from repro.synth import GeneratorConfig, generate_log
from tests.io.oracles import read_csv_rows


@pytest.fixture(scope="module")
def csv_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("lazy")
    paths = {}
    for machine in ("tsubame2", "tsubame3"):
        paths[machine] = root / f"{machine}.csv"
        write_csv(
            generate_log(
                machine, config=GeneratorConfig(seed=3, num_failures=300)
            ),
            paths[machine],
        )
    return paths


def _pair(paths, kind: str, touch: bool) -> tuple[FailureLog, FailureLog]:
    """(log under test, the row reader's equal log)."""
    lazy, rows = read_csv(paths["tsubame3"]), read_csv_rows(
        paths["tsubame3"]
    )
    if kind == "sub":
        lazy, rows = lazy.by_category("GPU"), rows.by_category("GPU")
    assert "records" not in lazy.__dict__
    if touch:
        lazy.records
    return lazy, rows


KINDS = [
    pytest.param(kind, touch, id=f"{kind}-{'touched' if touch else 'lazy'}")
    for kind in ("csv", "sub")
    for touch in (False, True)
]


def _loci(view: ColumnarView) -> list[str | None]:
    return [
        view.locus_names[code] if code >= 0 else None
        for code in view.locus_codes
    ]


def _assert_same_identity(actual: ColumnarView, expected: ColumnarView):
    # Code tables may differ (a sliced view keeps its parent's); the
    # values they decode to may not.
    assert _loci(actual) == _loci(expected)
    for name in ("record_ids", "ts_us", "ts_hours"):
        assert np.array_equal(getattr(actual, name), getattr(expected, name))


@pytest.mark.parametrize("kind, touch", KINDS)
def test_pickle_round_trip(csv_paths, kind, touch):
    log, rows = _pair(csv_paths, kind, touch)
    clone = pickle.loads(pickle.dumps(log))
    # A lazy log ships its view (its only copy of the data); a
    # materialized one ships records and rebuilds the view on demand.
    assert ("records" in clone.__dict__) == touch
    assert not clone.columns.ts_us.flags.writeable
    _assert_same_identity(clone.columns, log.columns)
    assert clone == rows
    assert clone == log


@pytest.mark.parametrize("kind, touch", KINDS)
def test_deepcopy(csv_paths, kind, touch):
    log, rows = _pair(csv_paths, kind, touch)
    clone = copy.deepcopy(log)
    assert ("records" in clone.__dict__) == touch
    assert len(clone) == len(rows)
    assert clone == rows


@pytest.mark.parametrize("kind, touch", KINDS)
def test_equals_row_path_log(csv_paths, kind, touch):
    log, rows = _pair(csv_paths, kind, touch)
    assert len(log) == len(rows)
    assert log.categories() == rows.categories()
    assert log.node_ids() == rows.node_ids()
    assert log.timestamps_hours() == rows.timestamps_hours()
    assert log == rows
    assert [repr(r.ttr_hours) for r in log] == [
        repr(r.ttr_hours) for r in rows
    ]


@pytest.mark.parametrize("kind, touch", KINDS)
def test_shared_memory_round_trip(csv_paths, kind, touch):
    log, rows = _pair(csv_paths, kind, touch)
    block = log.columns.export_shm()
    try:
        view = ColumnarView.from_shm(block.handle)
        _assert_same_identity(view, log.columns)
        rebuilt = FailureLog._from_columns(
            log.machine, log.window_start, log.window_end, view
        )
        assert rebuilt == rows
    finally:
        block.close()


def _report(section: int, logs: tuple[FailureLog, FailureLog]) -> str:
    return full_report(*logs).split("\n\n")[section]


def _breakdown(scale: int, log: FailureLog) -> tuple:
    shares = category_breakdown(log).shares
    return scale, shares, log.records[-1]


@pytest.mark.parametrize("touch", [False, True])
def test_report_in_two_worker_processes(csv_paths, touch):
    logs = tuple(read_csv(csv_paths[m]) for m in ("tsubame2", "tsubame3"))
    if touch:
        for log in logs:
            log.records
    expected = full_report(
        *(read_csv_rows(csv_paths[m]) for m in ("tsubame2", "tsubame3"))
    ).split("\n\n")
    sections = list(range(len(expected)))
    try:
        assert sweep(_report, sections, processes=2, shared=logs) == expected
        # A lone log travels as pickled records plus a shared-memory view.
        serial = sweep(_breakdown, [1, 2], shared=logs[0])
        assert sweep(
            _breakdown, [1, 2], processes=2, shared=logs[0]
        ) == serial
    finally:
        shutdown_pool()
