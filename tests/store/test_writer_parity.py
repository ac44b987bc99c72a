"""The columnar store writer against the row-wise oracle.

For every generated append sequence, a store written through
``repro.store.writer`` and one written through
:func:`tests.store.oracles.oracle_writer` must end byte-identical —
segment files, the manifest's ``appends`` history and ``views.json`` —
and every append must succeed on both or raise the same exception
type with the same message on both.  The sequences cover unsorted
record lists with tied timestamps, generators, eager, lazy
(``read_csv``) and filtered logs, first appends and appends into a
windowed store, every rejection the writer makes, strict and lenient
stores with ad-hoc categories, ``""``/``None`` loci and multi-slot GPU
lists.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from datetime import datetime, timedelta
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.core.records import FailureLog, FailureRecord
from repro.core.taxonomy import SOFTWARE_ROOT_LOCI, categories_for
from repro.errors import ReproError
from repro.io import read_csv, write_csv
from repro.store import init_store
from repro.store.views import VIEWS_NAME
from tests.store.oracles import oracle_writer

MACHINE = "tsubame3"
_CATEGORIES = tuple(cat.name for cat in categories_for(MACHINE))
_ADHOC = "Cosmic ray"
_BASES = (datetime(2018, 4, 1, 6), datetime(1969, 12, 31, 23))
_HOUR = timedelta(hours=1)
_FORMS = ("list", "generator", "eager", "csv", "filtered")


@st.composite
def _records(draw, base: datetime) -> list[FailureRecord]:
    """1..8 records over a few distinct stamps (ties) and ids (dups)."""
    offsets = draw(
        st.lists(st.integers(-2 * 3600 * 10**6, 48 * 3600 * 10**6),
                 min_size=1, max_size=4)
    )
    n = draw(st.integers(1, 8))
    return [
        FailureRecord(
            record_id=draw(st.integers(0, 12)),
            timestamp=base + timedelta(
                microseconds=draw(st.sampled_from(offsets))
            ),
            node_id=draw(st.integers(0, 40)),
            category=draw(st.sampled_from(_CATEGORIES + (_ADHOC,))),
            ttr_hours=draw(st.floats(0.0, 300.0, allow_nan=False)),
            gpus_involved=tuple(
                draw(st.lists(st.integers(0, 3), unique=True, max_size=4))
            ),
            root_locus=draw(
                st.sampled_from((None, "", *SOFTWARE_ROOT_LOCI[:3]))
            ),
        )
        for _ in range(n)
    ]


def _batch_factory(records, form, strict, window, work):
    """A callable building the batch afresh, so each writer gets its
    own (a generator is consumed, a lazy log materialized)."""
    if form == "list":
        return lambda: list(reversed(records))
    if form == "generator":
        return lambda: (record for record in records)
    stamps = [record.timestamp for record in records]
    start, end = window or (min(stamps) - _HOUR, max(stamps) + _HOUR)
    # Keep the rows a log can hold: in the window, ids unique and, in
    # a strict log, categories in the taxonomy.
    records = list({
        record.record_id: record
        for record in reversed(records)
        if record.timestamp >= start
        and (not strict or record.category != _ADHOC)
    }.values())
    stamps = [record.timestamp for record in records] or [end]

    def eager() -> FailureLog:
        return FailureLog(
            machine=MACHINE, records=tuple(records), window_start=start,
            window_end=max(end, max(stamps)), _strict_taxonomy=strict,
        )

    if form == "eager":
        return eager
    counter = iter(range(10**6))

    def lazy() -> FailureLog:
        path = work / f"batch-{next(counter)}.csv"
        write_csv(eager(), path)
        log = read_csv(path)
        return log.gpu_failures() if form == "filtered" else log

    return lazy


def _run(root: Path, plan, oracle: bool):
    """Apply ``plan`` to a fresh store; the bytes and outcomes left."""
    store_window, strict, appends = plan
    window = {}
    if store_window is not None:
        window = {"window_start": store_window[0],
                  "window_end": store_window[1]}
    store = init_store(root, MACHINE, strict_taxonomy=strict, **window)
    outcomes = []
    for factory, reindex in appends:
        try:
            with oracle_writer() if oracle else nullcontext():
                summary = store.append(factory(), reindex=reindex)
            outcomes.append(summary)
        except Exception as exc:  # noqa: BLE001 - compared across writers
            outcomes.append((type(exc), str(exc)))
    views = root / VIEWS_NAME
    return {
        "outcomes": outcomes,
        "segments": {
            path.name: path.read_bytes()
            for path in sorted(root.glob("seg-*.rps"))
        },
        "appends": store.manifest["appends"],
        "views": views.read_bytes() if views.exists() else None,
    }


@st.composite
def _plans(draw):
    """A store set-up plus 1..3 append specs drawn from one base."""
    base = draw(st.sampled_from(_BASES))
    strict = draw(st.booleans())
    store_window = None
    if draw(st.booleans()):
        start = base + timedelta(minutes=draw(st.integers(-180, 60)))
        store_window = (
            start, start + timedelta(hours=draw(st.integers(1, 24)))
        )
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        records = draw(_records(base))
        form = draw(st.sampled_from(_FORMS))
        # A log batch carries the store's window origin, or one 7
        # minutes off (an origin mismatch).
        window = None
        if form not in ("list", "generator") and store_window is not None:
            shift = timedelta(minutes=draw(st.sampled_from((0, 0, 7))))
            window = (store_window[0] + shift, store_window[1] + shift)
        specs.append((records, form, window, draw(st.booleans())))
    return store_window, strict, specs


def _assert_parity(plan) -> list:
    """Both writers leave the same bytes and outcomes for ``plan``.

    Specs whose log cannot be built are dropped: a log is validated
    before any writer sees it.
    """
    store_window, strict, specs = plan
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        appends = []
        for records, form, window, reindex in specs:
            factory = _batch_factory(records, form, strict, window, work)
            try:
                factory()
            except ReproError:  # an invalid log
                continue
            appends.append((factory, reindex))
        resolved = (store_window, strict, appends)
        columnar = _run(work / "columnar.store", resolved, oracle=False)
        oracle = _run(work / "oracle.store", resolved, oracle=True)
    assert columnar == oracle
    return columnar["outcomes"]


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=_plans())
def test_columnar_writer_matches_oracle(plan):
    for outcome in _assert_parity(plan):
        if isinstance(outcome, dict):
            event("appended")
        else:
            words = (w for w in outcome[1].split() if not w.isdigit())
            event(f"{outcome[0].__name__}: {' '.join(islice(words, 3))}")


_T0 = _BASES[0]


def _rec(record_id, minutes, category="GPU", gpus=(), locus=None):
    return FailureRecord(
        record_id, _T0 + timedelta(minutes=minutes), record_id % 7,
        category, 1.5 * record_id, tuple(gpus), locus,
    )


_MIXED = [
    _rec(4, 30, gpus=(3, 1)), _rec(2, 30, "Software", locus="gpu_driver"),
    _rec(9, 10, "Memory", locus=""), _rec(5, 30, gpus=(0, 1, 2, 3)),
    _rec(7, 95, "SXM2-Board"), _rec(8, 10, "Software", locus="unknown"),
]
_WINDOW = (_T0 - _HOUR, _T0 + 3 * _HOUR)
_SHIFTED = (_T0 - 2 * _HOUR, _T0 + 3 * _HOUR)


_LATE = (_T0 + _HOUR, _T0 + 3 * _HOUR)
_PAIR = [_rec(1, 5), _rec(2, 6, _ADHOC)]

#: (case, store window, strict, [(records, form, batch window,
#: reindex)], expected outcome per append: "ok" or a message part).
_NAMED_CASES = [
    ("unsorted-ties-reindexed", None, True,
     [(_MIXED, "list", None, True)], ("ok",)),
    ("unsorted-ties-own-ids", None, True,
     [(_MIXED, "list", None, False)], ("ok",)),
    ("generator", None, True,
     [(_MIXED, "generator", None, False)], ("ok",)),
    ("eager-log-first-append", None, True,
     [(_MIXED, "eager", None, True)], ("ok",)),
    ("lazy-csv-log", _WINDOW, True,
     [(_MIXED, "csv", _WINDOW, False)], ("ok",)),
    ("filtered-sub-log", _WINDOW, True,
     [(_MIXED, "filtered", _WINDOW, True)], ("ok",)),
    ("origin-mismatch", _WINDOW, True,
     [(_MIXED, "eager", _SHIFTED, False)], ("the origin is fixed",)),
    ("before-window-start", _LATE, True,
     [(_MIXED, "list", None, False)], ("outside the observation",)),
    ("duplicate-ids", None, True,
     [([_rec(3, 5), _rec(3, 9)], "list", None, False)],
     ("duplicate record_id 3",)),
    ("id-collision", None, True,
     [(_MIXED, "list", None, False), ([_rec(6, 200)], "list", None, False)],
     ("ok", "collides")),
    ("non-monotone", None, True,
     [(_MIXED, "list", None, False), ([_rec(20, 50)], "list", None, False)],
     ("ok", "not time-monotone")),
    ("strict-ad-hoc-category", None, True,
     [(_PAIR, "list", None, False)], ("not in the tsubame3 taxonomy",)),
    ("lenient-ad-hoc-category", None, False,
     [(_PAIR, "eager", None, False), ([_rec(3, 7, _ADHOC)], "list", None,
                                       True)],
     ("ok", "ok")),
    ("empty-batch", None, True, [([], "list", None, False)], ("empty",)),
]


@pytest.mark.parametrize(
    ("window", "strict", "specs", "expected"),
    [pytest.param(*case[1:], id=case[0]) for case in _NAMED_CASES],
)
def test_named_cases_match_oracle(window, strict, specs, expected):
    outcomes = _assert_parity((window, strict, specs))
    assert len(outcomes) == len(expected)
    for outcome, want in zip(outcomes, expected):
        if want == "ok":
            assert isinstance(outcome, dict), outcome
        else:
            assert want in outcome[1], outcome
