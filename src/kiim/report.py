"""Deterministic report emission: CSV tables, JSON summaries, SVG charts.

CSV bytes depend only on the row values (floats via %.12g, no timestamps),
so reruns with equal config digests and seeds are byte-identical. JSON
summaries carry a schema version, the resolved config, and its digest;
wall-clock timings live only there. Charts are written as plain SVG text
on a fixed 800x500 canvas.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from pathlib import Path

SCHEMA_VERSION = 1

_WIDTH, _HEIGHT = 800, 500
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 80, 30, 60, 70


def format_value(value) -> str:
    """One CSV cell; floats get %.12g and must be finite."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("refusing to write a non-finite value into a report")
        return "%.12g" % value
    if value is None:
        return ""
    return str(value)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row width does not match header")
        lines.append(",".join(format_value(cell) for cell in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json_summary(path, payload: dict) -> None:
    """Schema-stamped JSON with sorted keys; rejects NaN/Inf anywhere."""
    body = {"schema": SCHEMA_VERSION}
    body.update(payload)
    text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:g}" y="30" font-size="20" text-anchor="middle">{title}</text>',
    ]


def _axes(y_label: str, x_label: str, y_max: float) -> list[str]:
    x0, y0 = _MARGIN_LEFT, _HEIGHT - _MARGIN_BOTTOM
    x1, y1 = _WIDTH - _MARGIN_RIGHT, _MARGIN_TOP
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:g}" y="{_HEIGHT - 15}" font-size="14" '
        f'text-anchor="middle">{x_label}</text>',
        f'<text x="20" y="{(y0 + y1) / 2:g}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 20 {(y0 + y1) / 2:g})">{y_label}</text>',
    ]
    for i in range(5):
        frac = i / 4
        y = y0 - frac * (y0 - y1)
        parts.append(f'<line x1="{x0 - 4}" y1="{y:g}" x2="{x0}" y2="{y:g}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{y + 4:g}" font-size="12" '
                     f'text-anchor="end">{frac * y_max:.3g}</text>')
    return parts


def write_bar_chart(path, title: str, labels, values, y_label: str,
                    x_label: str = "") -> None:
    """One labeled bar per entry with its numeric value on top."""
    labels = list(labels)
    values = [float(v) for v in values]
    if len(labels) != len(values) or not labels:
        raise ValueError("need equally many labels and values, at least one")
    y_max = max(max(values), 1e-12)
    parts = _svg_header(title) + _axes(y_label, x_label, y_max)
    x0, y0 = _MARGIN_LEFT, _HEIGHT - _MARGIN_BOTTOM
    span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    height_span = y0 - _MARGIN_TOP
    slot = span / len(values)
    bar = slot * 0.6
    for i, (label, value) in enumerate(zip(labels, values)):
        cx = x0 + (i + 0.5) * slot
        h = max(value, 0.0) / y_max * height_span
        parts.append(f'<rect x="{cx - bar / 2:g}" y="{y0 - h:g}" width="{bar:g}" '
                     f'height="{h:g}" fill="#4878a8"/>')
        parts.append(f'<text x="{cx:g}" y="{y0 - h - 6:g}" font-size="12" '
                     f'text-anchor="middle">{value:.3g}</text>')
        parts.append(f'<text x="{cx:g}" y="{y0 + 18:g}" font-size="12" '
                     f'text-anchor="middle">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def write_line_chart(path, title: str, x_values, series: dict, y_label: str,
                     x_label: str = "") -> None:
    """One polyline per series over shared numeric x positions."""
    xs = [float(x) for x in x_values]
    if not xs or not series:
        raise ValueError("need x positions and at least one series")
    y_max = max(max(float(v) for v in ys) for ys in series.values())
    y_max = max(y_max, 1e-12)
    parts = _svg_header(title) + _axes(y_label, x_label, y_max)
    x0, y0 = _MARGIN_LEFT, _HEIGHT - _MARGIN_BOTTOM
    span = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    height_span = y0 - _MARGIN_TOP
    x_min, x_span = min(xs), max(max(xs) - min(xs), 1e-12)
    colors = ("#4878a8", "#a84848", "#48a869", "#8048a8", "#a88c48", "#48a0a8")
    for x in xs:
        px = x0 + (x - x_min) / x_span * span
        parts.append(f'<line x1="{px:g}" y1="{y0}" x2="{px:g}" y2="{y0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{px:g}" y="{y0 + 18}" font-size="12" '
                     f'text-anchor="middle">{x:g}</text>')
    for idx, (name, ys) in enumerate(sorted(series.items())):
        ys = [float(v) for v in ys]
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length does not match x positions")
        color = colors[idx % len(colors)]
        points = " ".join(
            f"{x0 + (x - x_min) / x_span * span:g},{y0 - max(v, 0.0) / y_max * height_span:g}"
            for x, v in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                     f'points="{points}"/>')
        parts.append(f'<text x="{_WIDTH - _MARGIN_RIGHT - 6}" '
                     f'y="{_MARGIN_TOP + 16 + 16 * idx}" font-size="12" text-anchor="end" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
