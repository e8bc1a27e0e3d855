"""Report-emission tests: cell formatting, CSV/JSON determinism, SVG charts."""

import json
import math
import xml.etree.ElementTree as ElementTree

import pytest

from kiim import Direction, Method
from kiim.report import SCHEMA_VERSION, format_value, json_text, write_bar_chart, \
    write_csv, write_json_summary, write_line_chart


@pytest.mark.parametrize("value,expected", [
    (True, "true"),
    (False, "false"),
    (Method.KIIM, "KIIM"),
    (Direction.X_TO_Y, "XtoY"),
    (0.25, "0.25"),
    (1.0 / 3.0, "0.333333333333"),
    (1e-300, "1e-300"),
    (None, ""),
    (7, "7"),
    ("plain", "plain"),
])
def test_format_value(value, expected):
    assert format_value(value) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_format_value_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        format_value(bad)


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, [{"id": 1, "score": 0.5, "ok": True}, {"id": 2, "score": None, "ok": False}])
    assert path.read_bytes() == b"id,score,ok\n1,0.5,true\n2,,false\n"


def test_write_csv_is_deterministic(tmp_path):
    records = [{"i": i, "v": i / 7.0, "d": Direction.X_TO_Y} for i in range(20)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, records)
    write_csv(b, records)
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_rejects_ragged_rows(tmp_path):
    # Records with other keys, or the same keys in another order, or none.
    for records in ([{"a": 1, "b": 2}, {"a": 1, "c": 2}], [{"a": 1, "b": 2}, {"a": 1}],
                    [{"a": 1, "b": 2}, {"b": 2, "a": 1}], []):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "out.csv", records)
    assert not (tmp_path / "out.csv").exists()


def test_json_summary_schema_and_sorting(tmp_path):
    path = tmp_path / "summary.json"
    payload = {"zeta": 1, "alpha": {"b": 2.5, "a": [1, 2]}}
    write_json_summary(path, payload)
    text = path.read_text()
    assert text == json_text(payload) + "\n"
    body = json.loads(text)
    assert body["schema"] == SCHEMA_VERSION
    assert body["zeta"] == 1 and body["alpha"] == {"b": 2.5, "a": [1, 2]}
    assert text.index('"alpha"') < text.index('"schema"') < text.index('"zeta"')
    assert text.endswith("\n")


@pytest.mark.parametrize("payload", [
    {"x": math.nan},
    {"x": [1.0, math.inf]},
    {"x": {"deep": {"deeper": -math.inf}}},
])
def test_json_summary_rejects_non_finite(tmp_path, payload):
    with pytest.raises(ValueError):
        write_json_summary(tmp_path / "summary.json", payload)
    with pytest.raises(ValueError):
        json_text(payload)


def test_bar_chart_is_valid_svg_with_labels(tmp_path):
    path = tmp_path / "chart.svg"
    write_bar_chart(path, "accuracy by method", ["KIIM", "ANM"], [0.97, 0.12],
                    y_label="accuracy")
    text = path.read_text()
    root = ElementTree.fromstring(text)
    assert root.tag.endswith("svg")
    assert "accuracy by method" in text
    assert "KIIM" in text and "ANM" in text
    assert text.count("<rect") == 3  # background plus one bar per value


def test_bar_chart_validation(tmp_path):
    with pytest.raises(ValueError):
        write_bar_chart(tmp_path / "chart.svg", "t", ["a"], [1.0, 2.0], y_label="y")
    with pytest.raises(ValueError):
        write_bar_chart(tmp_path / "chart.svg", "t", [], [], y_label="y")


def test_line_chart_draws_each_series(tmp_path):
    path = tmp_path / "chart.svg"
    write_line_chart(path, "accuracy by size", [50, 100, 200],
                     {"KIIM": [0.9, 0.95, 1.0], "KCDC": [0.5, 0.6, 0.7]},
                     y_label="accuracy", x_label="n")
    text = path.read_text()
    ElementTree.fromstring(text)
    assert text.count("<polyline") == 2
    assert "KCDC" in text and "200" in text


def test_line_chart_validation(tmp_path):
    with pytest.raises(ValueError):
        write_line_chart(tmp_path / "c.svg", "t", [], {"a": []}, y_label="y")
    with pytest.raises(ValueError):
        write_line_chart(tmp_path / "c.svg", "t", [1, 2], {"a": [1.0]}, y_label="y")
