"""Tests for the ASCII chart renderers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.stats.ecdf import ECDF
from repro.stats.summary import five_number_summary
from repro.viz import bar_chart, boxplot_table, cdf_chart, render_table, timeline
from tests.viz import oracles


class TestBarChart:
    def test_contains_labels_and_values(self):
        chart = bar_chart([("GPU", 44.4), ("CPU", 1.8)], title="Fig")
        assert "Fig" in chart
        assert "GPU" in chart
        assert "44.4" in chart

    def test_longest_bar_is_full_width(self):
        chart = bar_chart([("a", 10.0), ("b", 5.0)], width=20)
        lines = chart.splitlines()
        assert "#" * 20 in lines[0]
        assert "#" * 20 not in lines[1]

    def test_zero_values_render_empty_bars(self):
        chart = bar_chart([("a", 0.0), ("b", 0.0)])
        assert "#" not in chart

    def test_empty_rows_rejected(self):
        with pytest.raises(ValidationError):
            bar_chart([])

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            bar_chart([("a", -1.0)])

    def test_invalid_width_rejected(self):
        with pytest.raises(ValidationError):
            bar_chart([("a", 1.0)], width=0)


class TestCdfChart:
    def test_renders_both_curves(self):
        chart = cdf_chart(
            {"t2": ECDF([1.0, 2.0, 3.0]), "t3": ECDF([10.0, 20.0])},
            num_points=5,
        )
        assert "-- t2 --" in chart
        assert "-- t3 --" in chart
        assert "100.0%" in chart

    def test_empty_curves_rejected(self):
        with pytest.raises(ValidationError):
            cdf_chart({})

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            cdf_chart({"a": ECDF([1.0])}, num_points=1)

    def test_single_value_support_handled(self):
        chart = cdf_chart({"a": ECDF([5.0, 5.0])}, num_points=3)
        assert chart  # degenerate support must not divide by zero


class TestBoxplotTable:
    def test_columns_present(self):
        summary = five_number_summary([1.0, 2.0, 3.0, 4.0])
        table = boxplot_table([("GPU", summary)])
        assert "median" in table
        assert "GPU" in table

    def test_empty_rows_rejected(self):
        with pytest.raises(ValidationError):
            boxplot_table([])


class TestTimeline:
    def test_magnitudes_rendered(self):
        line = timeline([(10.0, 1), (50.0, 3)], span=100.0, width=10)
        assert "." in line
        assert "3" in line

    def test_collision_keeps_larger_magnitude(self):
        line = timeline([(10.0, 1), (10.5, 2)], span=1000.0, width=10)
        assert "2" in line
        assert "." not in line.splitlines()[0]

    def test_bounds_validated(self):
        with pytest.raises(ValidationError):
            timeline([(200.0, 1)], span=100.0)
        with pytest.raises(ValidationError):
            timeline([(10.0, 0)], span=100.0)
        with pytest.raises(ValidationError):
            timeline([], span=0.0)
        with pytest.raises(ValidationError):
            timeline([], span=10.0, width=5)

    def test_magnitude_capped_at_nine(self):
        line = timeline([(5.0, 42)], span=10.0, width=10)
        assert "9" in line

    @pytest.mark.parametrize(
        "events, message",
        [
            # A bad magnitude ahead of an out-of-span time...
            ([(1.0, 1), (2.0, 0), (200.0, 1)],
             "event magnitude must be >= 1, got 0"),
            # ...and the other way round.
            ([(1.0, 1), (200.0, 1), (2.0, 0)],
             r"event time 200.0 outside \[0, 100.0\]"),
            # Both offences in one event: its time is checked first.
            ([(1.0, 1), (-1.0, 0)], r"event time -1.0 outside"),
            ([(float("nan"), 1), (2.0, 0)], r"event time nan outside"),
        ],
    )
    def test_names_the_first_offending_event(self, events, message):
        with pytest.raises(ValidationError, match=message):
            oracles.timeline(events, span=100.0)
        with pytest.raises(ValidationError, match=message):
            timeline(events, span=100.0)

    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.floats(min_value=-1.0, max_value=101.0)
                | st.just(float("nan")),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=40,
        ),
        width=st.integers(min_value=10, max_value=30),
    )
    def test_matches_per_event_loop(self, events, width):
        def outcome(render):
            try:
                return render(events, span=100.0, width=width, title="t")
            except ValidationError as error:
                return str(error)

        assert outcome(timeline) == outcome(oracles.timeline)


class TestRenderTable:
    def test_alignment_and_content(self):
        table = render_table(
            ["name", "value"], [["GPU", "398"], ["CPU", "16"]],
            title="Counts",
        )
        lines = table.splitlines()
        assert lines[0] == "Counts"
        assert "name" in lines[1]
        assert "GPU" in table

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            render_table(["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValidationError):
            render_table([], [])

    def test_no_rows_ok(self):
        table = render_table(["a"], [])
        assert "a" in table


class TestSparkline:
    def test_levels_reflect_magnitude(self):
        from repro.viz import sparkline

        line = sparkline([0.0, 10.0])
        assert line[0] == " "
        assert line[-1] == "#"

    def test_constant_series_mid_level(self):
        from repro.viz import sparkline

        assert sparkline([5.0, 5.0, 5.0]) == "==="

    def test_downsampling(self):
        from repro.viz import sparkline

        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        levels = " .:-=+*#"
        indices = [levels.index(ch) for ch in line]
        assert indices == sorted(indices)  # monotone series

    def test_invalid_inputs(self):
        from repro.viz import sparkline

        with pytest.raises(ValidationError):
            sparkline([])
        with pytest.raises(ValidationError):
            sparkline([1.0, float("nan")])
        with pytest.raises(ValidationError):
            sparkline([1.0, 2.0], width=0)


class TestHistogram:
    def test_bins_cover_sample(self):
        from repro.viz import histogram

        text = histogram([1.0, 2.0, 3.0, 10.0], num_bins=3)
        # Total count across rendered bins equals sample size.
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in text.splitlines()]
        assert sum(counts) == 4

    def test_single_value_sample(self):
        from repro.viz import histogram

        text = histogram([7.0, 7.0], num_bins=2)
        assert "2" in text

    def test_invalid_inputs(self):
        from repro.viz import histogram

        with pytest.raises(ValidationError):
            histogram([])
        with pytest.raises(ValidationError):
            histogram([1.0], num_bins=0)
        with pytest.raises(ValidationError):
            histogram([float("inf")])
