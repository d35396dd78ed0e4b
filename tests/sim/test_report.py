"""Tests for the report rendering helpers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.report import Table, ascii_histogram, format_series


class TestTable:
    def test_render_aligns_columns(self):
        table = Table("Title", ["a", "longer"])
        table.add_row(1, 2.5)
        table.add_row(100, 3.14159)
        rendering = table.render()
        lines = rendering.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[2] and "longer" in lines[2]
        # All data lines share the same width.
        assert len(lines[4]) == len(lines[5])

    def test_wrong_arity_rejected(self):
        table = Table("t", ["x"])
        with pytest.raises(ConfigurationError):
            table.add_row(1, 2)

    def test_float_formatting(self):
        table = Table("t", ["v"])
        table.add_row(123456.0)
        table.add_row(12.345)
        table.add_row(0.12345)
        table.add_row(float("nan"))
        rendering = table.render()
        assert "123,456" in rendering
        assert "12.35" in rendering  # 2dp for medium magnitudes
        assert "0.1234" in rendering or "0.1235" in rendering
        assert "-" in rendering  # NaN cell

    def test_print_smoke(self, capsys):
        table = Table("t", ["v"])
        table.add_row(1)
        table.print()
        captured = capsys.readouterr()
        assert "t" in captured.out


class TestSeries:
    def test_format_series(self):
        text = format_series("acc", [1, 2], [0.5, 0.6])
        assert "series: acc" in text
        assert text.count("\n") == 2


class TestHistogram:
    def test_counts_sum(self):
        text = ascii_histogram([1.0, 2.0, 2.0, 3.0], bins=3)
        total = sum(int(line.rsplit(" ", 1)[-1])
                    for line in text.splitlines())
        assert total == 4

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ascii_histogram([])

    def test_explicit_range_clips(self):
        text = ascii_histogram(
            [1.0, 100.0], bins=2, lo=0.0, hi=10.0
        )
        # 100.0 falls outside the histogram range.
        total = sum(int(line.rsplit(" ", 1)[-1])
                    for line in text.splitlines())
        assert total == 1


class TestProtocolResultsTable:
    @staticmethod
    def _result(n_hat=100.0):
        import numpy as np

        from repro.protocols.base import ProtocolResult

        return ProtocolResult(
            protocol="PET",
            n_hat=n_hat,
            rounds=4,
            total_slots=20,
            per_round_statistics=np.array([1.0, 2.0, 3.0, 4.0]),
        )

    def test_renders_summary_schema(self):
        from repro.sim.report import protocol_results_table

        table = protocol_results_table([self._result(110.0)], true_n=100)
        text = table.render()
        assert "PET" in text
        assert "10.00%" in text

    def test_without_true_n_drops_error_column(self):
        from repro.sim.report import protocol_results_table

        table = protocol_results_table([self._result()])
        assert "error" not in table.render().splitlines()[2]
