"""Unit tests for the report formatting helpers."""

import pytest

from repro.analysis import format_table, relative_error


class TestFormatTable:
    def test_basic_table(self):
        text = format_table(("a", "b"), [(1, 2), (3, 4)])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "b"]
        assert "1" in lines[2]

    def test_title(self):
        text = format_table(("x",), [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_column_alignment(self):
        text = format_table(("name", "v"), [("long-name-here", 1)])
        lines = text.splitlines()
        assert len(lines[1]) >= len("long-name-here")

    def test_none_rendered_as_dash(self):
        text = format_table(("a",), [(None,)])
        assert "-" in text.splitlines()[-1]

    def test_float_formatting(self):
        text = format_table(("v",), [(1234.5,), (0.123456,)])
        assert "1,234" in text or "1,235" in text
        assert "0.123" in text


class TestErrorHelpers:
    def test_relative_error_signed(self):
        assert relative_error(110, 100) == pytest.approx(0.10)
        assert relative_error(90, 100) == pytest.approx(-0.10)

    def test_relative_error_zero_reference(self):
        with pytest.raises(ValueError):
            relative_error(1, 0)
