"""Tests for five-number summaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.stats.summary import (
    describe,
    five_number_summaries,
    five_number_summary,
)


class TestFiveNumberSummary:
    def test_known_values(self):
        summary = five_number_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.minimum == 1.0
        assert summary.q1 == 2.0
        assert summary.median == 3.0
        assert summary.q3 == 4.0
        assert summary.maximum == 5.0
        assert summary.mean == 3.0
        assert summary.n == 5

    def test_iqr(self):
        summary = five_number_summary([0.0, 10.0, 20.0, 30.0])
        assert summary.iqr == pytest.approx(summary.q3 - summary.q1)

    def test_relative_spread(self):
        summary = five_number_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.relative_spread == pytest.approx(2.0 / 3.0)

    def test_relative_spread_zero_median(self):
        summary = five_number_summary([0.0, 0.0, 0.0])
        assert summary.relative_spread == 0.0

    def test_single_value(self):
        summary = five_number_summary([7.0])
        assert summary.minimum == summary.maximum == summary.median == 7.0
        assert summary.iqr == 0.0

    def test_as_row_keys(self):
        row = five_number_summary([1.0, 2.0]).as_row()
        assert set(row) == {"n", "min", "q1", "median", "q3", "max",
                            "mean", "iqr"}

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            five_number_summary([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            five_number_summary([1.0, float("nan")])


class TestDescribe:
    def test_extended_keys(self):
        row = describe([1.0, 2.0, 3.0])
        for key in ("std", "cv", "p90", "p95", "p99"):
            assert key in row

    def test_std_single_sample_is_zero(self):
        assert describe([5.0])["std"] == 0.0

    def test_percentile_ordering(self):
        row = describe(list(range(100)))
        assert row["p90"] <= row["p95"] <= row["p99"] <= row["max"]

    def test_cv(self):
        row = describe([10.0, 10.0, 10.0])
        assert row["cv"] == 0.0


#: Values with many ties, both zeros and spreads wide enough that
#: interpolation rounds.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300, 7.0, 1e16]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
_GROUPS = st.lists(
    st.lists(_VALUES, min_size=1, max_size=12), min_size=1, max_size=6
)


def _slices(groups):
    """The groups laid end to end, and each one's (start, end)."""
    sizes = [len(group) for group in groups]
    ends = np.cumsum(sizes)
    values = np.array([value for group in groups for value in group])
    return values, ends - sizes, ends


def _assert_same_summary(actual, expected):
    assert actual.n == expected.n
    for field in ("minimum", "q1", "median", "q3", "maximum", "mean"):
        got, want = getattr(actual, field), getattr(expected, field)
        assert got == want, field
        assert np.signbit(got) == np.signbit(want), field


class TestFiveNumberSummaries:
    @settings(max_examples=300, deadline=None)
    @given(_GROUPS)
    def test_matches_each_slice(self, groups):
        values, starts, ends = _slices(groups)
        summaries = five_number_summaries(values, starts, ends)
        assert len(summaries) == len(groups)
        for summary, start, end in zip(summaries, starts, ends):
            _assert_same_summary(
                summary, five_number_summary(values[start:end])
            )

    @pytest.mark.parametrize(
        "group",
        [[3.0], [2.0, 1.0], [1.0, 1.0, 2.0, 2.0], [0.0, -0.0],
         [-0.0, 0.0, 0.0, -0.0, 1.0], [5.0, -0.0]],
    )
    def test_small_tied_and_signed_zero_groups(self, group):
        values, starts, ends = _slices([[4.0, 8.0, 15.0], group])
        _assert_same_summary(
            five_number_summaries(values, starts, ends)[1],
            five_number_summary(group),
        )

    def test_slices_need_not_tile(self):
        values = np.array([9.0, 1.0, 2.0, 3.0, 9.0, 4.0])
        summaries = five_number_summaries(values, [1, 5], [4, 6])
        _assert_same_summary(
            summaries[0], five_number_summary([1.0, 2.0, 3.0])
        )
        _assert_same_summary(summaries[1], five_number_summary([4.0]))
        assert five_number_summaries(values, [], []) == []

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_raises_the_same_error(self, bad):
        values = np.array([1.0, 2.0, bad, 3.0])
        with pytest.raises(ValidationError) as expected:
            five_number_summary(values[1:])
        with pytest.raises(ValidationError) as actual:
            five_number_summaries(values, [0, 1], [1, 4])
        assert str(actual.value) == str(expected.value)

    def test_first_bad_slice_in_order_raises(self):
        values = np.array([np.inf, 1.0])
        with pytest.raises(ValidationError, match="non-empty"):
            five_number_summaries(values, [1, 0], [1, 1])
        with pytest.raises(ValidationError, match="finite"):
            five_number_summaries(values, [0, 1], [1, 1])
