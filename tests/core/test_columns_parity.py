"""Parity suite: every vectorized kernel against its per-record
oracle in ``tests/core/oracles.py``.

Property-based over randomly built logs (hypothesis) plus the
calibrated Tsubame logs, asserting results equal within 1e-9 so the
columnar backend can never silently drift from the record-path
semantics it replaced.
"""

from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import metrics, multigpu, seasonal, spatial, temporal
from repro.core.records import FailureLog, FailureRecord
from repro.core.taxonomy import TSUBAME2_CATEGORIES, FailureClass
from repro.errors import AnalysisError
from repro.machines.racks import rack_layout_for
from tests.conftest import T0, make_log
from tests.core import oracles

TOL = 1e-9

_CATEGORY_NAMES = tuple(cat.name for cat in TSUBAME2_CATEGORIES)

_SPAN_HOURS = 2000.0


@st.composite
def failure_logs(draw, min_size=2, max_size=60):
    """Random but valid Tsubame-2 logs."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    records = []
    for record_id in range(n):
        hours = draw(
            st.floats(
                min_value=0.0,
                max_value=_SPAN_HOURS,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        category = draw(st.sampled_from(_CATEGORY_NAMES))
        slots = ()
        if category == "GPU" and draw(st.booleans()):
            slots = tuple(
                sorted(
                    draw(
                        st.sets(
                            st.integers(min_value=0, max_value=2),
                            min_size=1,
                            max_size=3,
                        )
                    )
                )
            )
        records.append(
            FailureRecord(
                record_id=record_id,
                timestamp=T0 + timedelta(hours=hours),
                node_id=draw(st.integers(min_value=0, max_value=12)),
                category=category,
                ttr_hours=draw(
                    st.floats(
                        min_value=0.0,
                        max_value=500.0,
                        allow_nan=False,
                        allow_infinity=False,
                    )
                ),
                gpus_involved=slots,
            )
        )
    return make_log(records, span_hours=_SPAN_HOURS)


def _assert_close_lists(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a == pytest.approx(e, abs=TOL)


class TestMetricsParity:
    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs())
    def test_tbf_series(self, log):
        _assert_close_lists(
            metrics.tbf_series_hours(log),
            oracles.tbf_series_hours(log),
        )

    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs())
    def test_ttr_series(self, log):
        _assert_close_lists(
            metrics.ttr_series_hours(log),
            oracles.ttr_series_hours(log),
        )

    def test_series_on_calibrated_logs(self, t2_log, t3_log):
        for log in (t2_log, t3_log):
            _assert_close_lists(
                metrics.tbf_series_hours(log),
                oracles.tbf_series_hours(log),
            )
            _assert_close_lists(
                metrics.ttr_series_hours(log),
                oracles.ttr_series_hours(log),
            )


class TestTemporalParity:
    @settings(max_examples=30, deadline=None)
    @given(log=failure_logs(min_size=6))
    def test_tbf_by_category(self, log):
        try:
            expected = oracles.tbf_by_category(log)
        except AnalysisError:
            with pytest.raises(AnalysisError):
                temporal.tbf_by_category(log)
            return
        actual = temporal.tbf_by_category(log)
        assert [e.category for e in actual] == [
            e.category for e in expected
        ]
        for a, e in zip(actual, expected):
            assert a.summary.as_row() == pytest.approx(
                e.summary.as_row(), abs=TOL
            )

    def test_tbf_by_category_calibrated(self, t2_log):
        actual = temporal.tbf_by_category(t2_log)
        expected = oracles.tbf_by_category(t2_log)
        assert [e.category for e in actual] == [
            e.category for e in expected
        ]


class TestSpatialParity:
    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs())
    def test_node_failure_distribution(self, log):
        actual = spatial.node_failure_distribution(log)
        expected = oracles.node_failure_distribution(log)
        assert actual.counts_per_node == expected.counts_per_node
        assert actual.histogram == expected.histogram

    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs())
    def test_repeat_failure_class_split(self, log):
        assert spatial.repeat_failure_class_split(
            log
        ) == oracles.repeat_failure_class_split(log)

    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs())
    def test_gpu_slot_distribution(self, log):
        slots = (0, 1, 2)
        assert spatial.gpu_slot_distribution(
            log, slots
        ) == oracles.gpu_slot_distribution(log, slots)

    def test_rack_failure_distribution_calibrated(self, t2_log, t3_log):
        for log in (t2_log, t3_log):
            layout = rack_layout_for(log.machine)
            assert spatial.rack_failure_distribution(
                log, layout
            ) == oracles.rack_failure_distribution(log, layout)


class TestSeasonalParity:
    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs())
    def test_monthly_ttr(self, log):
        actual = seasonal.monthly_ttr(log)
        expected = oracles.monthly_ttr(log)
        assert sorted(actual.summaries) == sorted(expected.summaries)
        for month, summary in expected.summaries.items():
            assert actual.summaries[month].as_row() == pytest.approx(
                summary.as_row(), abs=TOL
            )

    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs())
    def test_monthly_failure_counts(self, log):
        assert seasonal.monthly_failure_counts(
            log
        ).counts == oracles.monthly_failure_counts(log).counts

    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs())
    def test_weekday_profile(self, log):
        assert seasonal.weekday_profile(
            log
        ) == oracles.weekday_profile(log)

    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs())
    def test_hour_of_day_profile(self, log):
        assert seasonal.hour_of_day_profile(
            log
        ) == oracles.hour_of_day_profile(log)


class TestMultiGpuParity:
    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs())
    def test_multi_gpu_involvement(self, log):
        assert multigpu.multi_gpu_involvement(
            log, 3
        ) == oracles.multi_gpu_involvement(log, 3)

    @settings(max_examples=40, deadline=None)
    @given(log=failure_logs(min_size=4))
    def test_multi_gpu_clustering(self, log):
        try:
            expected = oracles.multi_gpu_clustering(log)
        except AnalysisError:
            with pytest.raises(AnalysisError):
                multigpu.multi_gpu_clustering(log)
            return
        actual = multigpu.multi_gpu_clustering(log)
        assert len(actual.events) == len(expected.events)
        for (a_time, a_num), (e_time, e_num) in zip(
            actual.events, expected.events
        ):
            assert a_time == pytest.approx(e_time, abs=TOL)
            assert a_num == e_num
        _assert_close_lists(
            actual.gaps_after_multi, expected.gaps_after_multi
        )
        _assert_close_lists(
            actual.gaps_after_single, expected.gaps_after_single
        )

    def test_clustering_calibrated(self, t2_log):
        actual = multigpu.multi_gpu_clustering(t2_log)
        expected = oracles.multi_gpu_clustering(t2_log)
        _assert_close_lists(
            actual.gaps_after_multi, expected.gaps_after_multi
        )
        _assert_close_lists(
            actual.gaps_after_single, expected.gaps_after_single
        )


class TestFilterParity:
    """Mask-based filters against predicate filters through the
    validating constructor — the reference path the fast path replaced."""

    def _reference_filter(self, log, predicate):
        return FailureLog(
            machine=log.machine,
            records=tuple(r for r in log.records if predicate(r)),
            window_start=log.window_start,
            window_end=log.window_end,
        )

    @settings(max_examples=30, deadline=None)
    @given(log=failure_logs())
    def test_by_category(self, log):
        fast = log.by_category("GPU", "CPU")
        slow = self._reference_filter(
            log, lambda r: r.category in {"GPU", "CPU"}
        )
        assert fast.records == slow.records

    @settings(max_examples=30, deadline=None)
    @given(log=failure_logs())
    def test_by_class(self, log):
        from repro.core import taxonomy

        for cls in FailureClass:
            fast = log.by_class(cls)
            slow = self._reference_filter(
                log,
                lambda r: taxonomy.failure_class(log.machine, r.category)
                is cls,
            )
            assert fast.records == slow.records

    @settings(max_examples=30, deadline=None)
    @given(log=failure_logs())
    def test_gpu_failures(self, log):
        from repro.core import taxonomy

        fast = log.gpu_failures()
        slow = self._reference_filter(
            log,
            lambda r: bool(r.gpus_involved)
            or taxonomy.is_gpu_category(log.machine, r.category),
        )
        assert fast.records == slow.records

    @settings(max_examples=30, deadline=None)
    @given(log=failure_logs(), data=st.data())
    def test_between(self, log, data):
        lo = data.draw(
            st.floats(min_value=0.0, max_value=_SPAN_HOURS / 2)
        )
        hi = data.draw(
            st.floats(min_value=lo + 1.0, max_value=_SPAN_HOURS)
        )
        start = T0 + timedelta(hours=lo)
        end = T0 + timedelta(hours=hi)
        fast = log.between(start, end)
        slow = self._reference_filter(
            log, lambda r: start <= r.timestamp < end
        )
        assert fast.records == slow.records

    @settings(max_examples=30, deadline=None)
    @given(log=failure_logs())
    def test_chained_filters(self, log):
        fast = log.by_category("GPU").gpu_failures().by_node(3)
        slow = self._reference_filter(
            log,
            lambda r: r.category == "GPU" and r.node_id == 3,
        )
        assert fast.records == slow.records
