import pytest

from lamedit.svgchart import line_chart


def test_chart_structure_and_determinism():
    series = [
        ("sum", [0.25, 0.5, 1.0], [0.1, 0.3, 0.2]),
        ("mean", [0.25, 0.5, 1.0], [0.2, 0.4, 0.5]),
    ]
    a = line_chart(series, title="scale sweep", x_label="alpha", y_label="accuracy", y_range=(0.0, 1.0))
    b = line_chart(series, title="scale sweep", x_label="alpha", y_label="accuracy", y_range=(0.0, 1.0))
    assert a == b
    assert a.startswith("<?xml")
    assert a.count("<polyline") == 2
    assert "scale sweep" in a and "alpha" in a and "accuracy" in a
    assert a.rstrip().endswith("</svg>")


def test_fixed_y_range_used():
    chart = line_chart([("m", [0.0, 1.0], [0.2, 0.4])], "t", "x", "y", y_range=(0.0, 1.0))
    assert ">1<" in chart  # top tick label from the forced range


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        line_chart([("m", [], [])], "t", "x", "y", y_range=(0.0, 1.0))
