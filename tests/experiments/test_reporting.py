"""Unit tests for experiment tables and rendering."""

from __future__ import annotations

import pytest

from repro.experiments.reporting import ExperimentTable


def sample_table():
    table = ExperimentTable(experiment_id="figure-X", title="Demo", x_label="peers",
                            series=["BRK", "UMS-Direct"], notes="a note")
    table.add_row(100, {"BRK": 10.0, "UMS-Direct": 2.5})
    table.add_row(200, {"BRK": 12.0, "UMS-Direct": 3.0})
    return table


class TestExperimentTable:
    def test_add_row_and_accessors(self):
        table = sample_table()
        assert len(table) == 2
        assert table.x_values() == [100, 200]
        assert table.series_values("BRK") == [10.0, 12.0]
        assert table.series_values("UMS-Direct") == [2.5, 3.0]

    def test_add_row_rejects_unknown_series(self):
        table = sample_table()
        with pytest.raises(ValueError):
            table.add_row(300, {"Paxos": 1.0})

    def test_series_values_rejects_unknown_series(self):
        with pytest.raises(KeyError):
            sample_table().series_values("Paxos")

    def test_partial_rows_render_none(self):
        table = ExperimentTable(experiment_id="t", title="t", x_label="x",
                                series=["A", "B"])
        table.add_row(1, {"A": 1.0})
        assert table.series_values("B") == [None]
        assert "None" in table.to_markdown()

    def test_markdown_rendering(self):
        markdown = sample_table().to_markdown()
        assert "### figure-X: Demo" in markdown
        assert "| peers | BRK | UMS-Direct |" in markdown
        assert "| 100 | 10.00 | 2.50 |" in markdown
        assert markdown.strip().endswith("a note")

    def test_text_rendering_aligns_columns(self):
        text = sample_table().to_text()
        assert text.splitlines()[0].startswith("figure-X")
        assert "BRK" in text and "UMS-Direct" in text
        assert "10.00" in text

    def test_float_format_is_configurable(self):
        markdown = sample_table().to_markdown(float_format="%.3f")
        assert "10.000" in markdown

    def test_empty_table_renders(self):
        table = ExperimentTable(experiment_id="t", title="empty", x_label="x", series=["A"])
        assert "empty" in table.to_text()
        assert "| x | A |" in table.to_markdown()

