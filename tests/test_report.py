"""Report formatting."""

from repro.harness.report import format_rows, format_series, format_table


class TestFormatTable:
    def test_columns_aligned(self):
        out = format_table(("name", "value"), [("a", 1), ("longer-name", 22)])
        lines = out.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        header, rule = lines[0], lines[1]
        assert header.index("value") == lines[2].index("1")

    def test_floats_formatted(self):
        out = format_table(("x",), [(1.23456,)])
        assert "1.235" in out

    def test_empty_rows(self):
        out = format_table(("a", "b"), [])
        assert "a" in out and "b" in out


class TestFormatRows:
    def test_headers_are_the_first_rows_keys(self):
        rows = [{"b": 1, "a": "x"}, {"a": "y", "b": 2}]
        assert format_rows(rows) == format_table(["b", "a"], [[1, "x"], [2, "y"]])

    def test_no_rows(self):
        assert format_rows([]) == "(no rows)"


class TestFormatSeries:
    def test_empty(self):
        assert "empty" in format_series([], "t", "v")

    def test_bars_scale_to_peak(self):
        out = format_series([(0.0, 1.0), (1.0, 2.0)], "t", "v", width=10)
        lines = out.splitlines()
        assert lines[-1].count("#") == 10
        assert lines[-2].count("#") == 5

    def test_zero_values_no_bar(self):
        out = format_series([(0.0, 0.0)], "t", "v")
        assert "#" not in out.splitlines()[-1]
