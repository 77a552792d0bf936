"""Tests for ASCII figure rendering."""

from repro.reporting.render import ascii_plot, sparkline


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant(self):
        line = sparkline([3, 3, 3])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_monotone_values_monotone_glyphs(self):
        bars = " .:-=+*#%@"
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        indices = [bars.index(ch) for ch in line]
        assert indices == sorted(indices)
        assert indices[0] == 0 and indices[-1] == len(bars) - 1

    def test_length_matches_input(self):
        assert len(sparkline([5, 1, 9, 2])) == 4


class TestAsciiPlot:
    ROWS = [
        {"B": 0, "rounds": 98},
        {"B": 115, "rounds": 98},
        {"B": 230, "rounds": 184},
    ]

    def test_contains_axes_and_points(self):
        text = ascii_plot(self.ROWS, "B", "rounds", title="T")
        assert text.startswith("T")
        assert "> B" in text
        assert text.count("*") == 3

    def test_extremes_placed_at_corners(self):
        text = ascii_plot(self.ROWS, "B", "rounds", width=20, height=5)
        lines = [l for l in text.splitlines() if l.startswith("  |")]
        # max rounds at top row, min at bottom row
        assert "*" in lines[0]
        assert "*" in lines[-1]

    def test_empty_rows(self):
        assert ascii_plot([], "x", "y", title="empty") == "empty"

    def test_degenerate_single_point(self):
        text = ascii_plot([{"x": 1, "y": 1}], "x", "y")
        assert text.count("*") == 1
