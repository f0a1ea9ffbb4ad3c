"""ASCII chart helpers."""

import pytest

from repro.harness.figures import bar_chart, series_chart


class TestBarChart:
    def test_basic(self):
        chart = bar_chart(["a", "bb"], [0.1, 0.05], title="T")
        lines = chart.splitlines()
        assert lines[0] == "T"
        assert lines[1].count("#") > lines[2].count("#")

    def test_peak_gets_full_width(self):
        chart = bar_chart(["x"], [0.5], width=10)
        assert chart.count("#") == 10

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_empty(self):
        assert bar_chart([], [], title="empty") == "empty"

    def test_negative_values_render_empty_bars(self):
        chart = bar_chart(["neg", "pos"], [-0.1, 0.1])
        neg_line = chart.splitlines()[0]
        assert neg_line.endswith("|")


class TestSeriesChart:
    def test_contains_markers_and_legend(self):
        chart = series_chart(["2K", "4K"],
                             {"BTB": [1.0, 1.1], "SBB": [1.05, 1.2]})
        assert "legend:" in chart
        assert "o=BTB" in chart
        assert "x=SBB" in chart

    def test_extremes_on_grid(self):
        chart = series_chart(["a", "b"], {"s": [0.0, 1.0]}, height=5)
        rows = chart.splitlines()
        assert "o" in rows[0]    # max at the top
        assert "o" in rows[4]    # min at the bottom

