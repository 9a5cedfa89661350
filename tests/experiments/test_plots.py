"""Tests for the ASCII chart rendering of experiment tables."""

from __future__ import annotations

import pytest

from repro.experiments.plots import ascii_chart
from repro.experiments.reporting import ExperimentTable


def figure_like_table():
    table = ExperimentTable(experiment_id="figure-7", title="Response time vs peers",
                            x_label="peers", series=["BRK", "UMS-Direct"])
    table.add_row(2000, {"BRK": 13.0, "UMS-Direct": 4.0})
    table.add_row(6000, {"BRK": 20.0, "UMS-Direct": 5.0})
    table.add_row(10000, {"BRK": 26.0, "UMS-Direct": 6.0})
    return table


class TestAsciiChart:
    def test_chart_contains_title_axis_and_legend(self):
        chart = ascii_chart(figure_like_table())
        assert chart.splitlines()[0].startswith("figure-7")
        assert "B=BRK" in chart
        assert "U=UMS-Direct" in chart
        assert "peers: 2000 .. 10000" in chart

    def test_chart_height_and_width_are_respected(self):
        chart = ascii_chart(figure_like_table(), width=40, height=10)
        body_lines = [line for line in chart.splitlines() if "|" in line]
        assert len(body_lines) == 10
        assert all(len(line.split("|", 1)[1]) <= 40 for line in body_lines)

    def test_series_marks_appear_in_the_grid(self):
        chart = ascii_chart(figure_like_table())
        grid = "\n".join(line for line in chart.splitlines() if "|" in line)
        assert grid.count("B") >= 3
        assert grid.count("U") >= 1

    def test_larger_values_plot_higher(self):
        chart = ascii_chart(figure_like_table(), height=12)
        lines = [line.split("|", 1)[1] for line in chart.splitlines() if "|" in line]
        first_b = next(index for index, line in enumerate(lines) if "B" in line)
        first_d = next(index for index, line in enumerate(lines) if "U" in line)
        assert first_b < first_d  # BRK (larger) appears nearer the top

    def test_y_axis_is_labelled_with_the_maximum(self):
        chart = ascii_chart(figure_like_table())
        assert "26.0" in chart

    def test_non_numeric_table_renders_a_notice(self):
        table = ExperimentTable(experiment_id="table-1", title="params",
                                x_label="parameter", series=["value"])
        table.add_row("name", {"value": "text"})
        assert "no numeric series" in ascii_chart(table)

    def test_too_small_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ascii_chart(figure_like_table(), width=5, height=3)

    def test_single_row_table_renders(self):
        table = ExperimentTable(experiment_id="f", title="one", x_label="x", series=["A"])
        table.add_row(1, {"A": 3.0})
        chart = ascii_chart(table)
        assert "A=A" in chart


class TestRenderAll:
    def test_runner_report_with_charts(self, tmp_path):
        import io
        from repro.experiments.runner import write_experiments_report
        stream = io.StringIO()
        write_experiments_report([figure_like_table()], stream, scale="tiny", charts=True)
        output = stream.getvalue()
        assert "```" in output
        assert "B=BRK" in output
