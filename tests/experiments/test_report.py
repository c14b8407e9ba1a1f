"""Tests for experiment result rendering."""

import pytest

from repro.experiments.report import ExperimentResult


def make_result():
    return ExperimentResult(
        experiment_id="figX",
        title="A test figure",
        columns=["name", "value"],
        rows=[["alpha", 1.5], ["beta", None], ["gamma", 300.0]],
        notes=["a note"])


def test_render_contains_header_rows_and_notes():
    text = make_result().render()
    assert "== figX: A test figure ==" in text
    assert "alpha" in text
    assert "1.50" in text
    assert "300" in text        # large floats rendered without decimals
    assert "-" in text          # None cell
    assert "note: a note" in text


def test_render_alignment_consistent_width():
    lines = make_result().render().splitlines()
    data_lines = lines[1:5]
    assert len({len(line.rstrip()) <= len(lines[1]) for line in data_lines})


def test_column_accessor():
    result = make_result()
    assert result.column("name") == ["alpha", "beta", "gamma"]
    assert result.column("value") == [1.5, None, 300.0]
    with pytest.raises(ValueError):
        result.column("missing")

