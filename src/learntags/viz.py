"""SVG figure exports: value strip charts and parallel coordinates.

Output is plain hand-built SVG with "%.2f" coordinates so identical
inputs produce byte-identical documents, which keeps the figures usable
in golden-file comparisons.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .quantify import AttributeValueMap

# Dimension order matches the columns of the learner table's coords.
DIMENSION_LABELS = ("current_skill", "target_skill", "strategy",
                    "presentation", "hours")

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")

_VALUES_W, _VALUES_H = 640.0, 170.0
_AXIS_X0, _AXIS_X1, _AXIS_Y = 50.0, 590.0, 80.0

_PAR_W, _PAR_H = 640.0, 400.0
_PAR_Y_TOP, _PAR_Y_BOTTOM = 40.0, 350.0


def extreme_pairs(
    values: AttributeValueMap,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """All (nearest, farthest) parameter pairs by |v_i - v_j|, ties kept."""
    params = sorted(values)
    if len(params) < 2:
        raise ValueError("need at least two parameters to compare")
    dist = {(a, b): abs(values[a] - values[b]) for a, b in combinations(params, 2)}
    lo = min(dist.values())
    hi = max(dist.values())
    nearest = sorted(p for p, d in dist.items() if d == lo)
    farthest = sorted(p for p, d in dist.items() if d == hi)
    return nearest, farthest


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _pairs_text(pairs: list[tuple[int, int]]) -> str:
    return " ".join(f"({a},{b})" for a, b in pairs)


def _write_svg(path, width: float, height: float, title: str, parts: list[str]) -> str:
    """Frame ``parts`` as an SVG document titled ``title``, write it to
    ``path`` and return it."""
    w, h = _fmt(width), _fmt(height)
    doc = "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f"<title>{title}</title>", *parts, "</svg>\n"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
    return doc


def export_values(values: AttributeValueMap, attribute_name: str, path) -> str:
    """Strip chart of the 5 quantified parameter values on a number line.

    Markers are labeled with the categorical ids; the annotation lines
    name every nearest and farthest pair, e.g. ``nearest: (3,5)``.
    Returns the document and writes it to ``path``.
    """
    nearest, farthest = extreme_pairs(values)
    params = sorted(values)
    lo = min(values[p] for p in params)
    hi = max(values[p] for p in params)
    span = hi - lo

    def x_at(v: float) -> float:
        if span == 0.0:
            return (_AXIS_X0 + _AXIS_X1) / 2.0
        return _AXIS_X0 + (v - lo) / span * (_AXIS_X1 - _AXIS_X0)

    parts = [
        f'<line x1="{_fmt(_AXIS_X0)}" y1="{_fmt(_AXIS_Y)}" x2="{_fmt(_AXIS_X1)}" '
        f'y2="{_fmt(_AXIS_Y)}" stroke="#333333" stroke-width="1"/>',
    ]
    for p in params:
        x = x_at(values[p])
        parts += [
            f'<circle cx="{_fmt(x)}" cy="{_fmt(_AXIS_Y)}" r="4.00" '
            f'fill="{_PALETTE[(p - 1) % len(_PALETTE)]}"/>',
            f'<text x="{_fmt(x)}" y="{_fmt(_AXIS_Y - 10.0)}" font-size="11" '
            f'text-anchor="middle">{p}</text>',
        ]
    for dy, text in ((35.0, f"nearest: {_pairs_text(nearest)}"),
                     (55.0, f"farthest: {_pairs_text(farthest)}"),
                     (75.0, attribute_name)):
        parts.append(f'<text x="{_fmt(_AXIS_X0)}" y="{_fmt(_AXIS_Y + dy)}" '
                     f'font-size="12">{text}</text>')
    return _write_svg(path, _VALUES_W, _VALUES_H, f"{attribute_name} quantified values", parts)


def export_parcoords(x: np.ndarray, labels: np.ndarray, path) -> str:
    """Parallel-coordinates plot: one polyline per row of ``x`` over 5
    axes, drawn in row order.

    Each axis is scaled so its minimum sits at the bottom and its
    maximum at the top; a degenerate axis (min == max) pins every
    vertex to the bottom.  Polyline color follows the row's cluster
    label.
    """
    rows = np.asarray(x, dtype=np.float64).tolist()
    labels = np.asarray(labels).tolist()
    if not rows:
        raise ValueError("no points to plot")
    if len(labels) != len(rows):
        raise ValueError(f"{len(labels)} cluster labels for {len(rows)} rows")
    n_dims = len(DIMENSION_LABELS)
    axis_x = [60.0 + i * 130.0 for i in range(n_dims)]
    mins = [min(row[i] for row in rows) for i in range(n_dims)]
    maxs = [max(row[i] for row in rows) for i in range(n_dims)]

    def y_at(dim: int, v: float) -> float:
        span = maxs[dim] - mins[dim]
        scaled = 0.0 if span == 0.0 else (v - mins[dim]) / span
        return _PAR_Y_BOTTOM - scaled * (_PAR_Y_BOTTOM - _PAR_Y_TOP)

    parts = []
    for ax, name in zip(axis_x, DIMENSION_LABELS):
        parts += [
            f'<line x1="{_fmt(ax)}" y1="{_fmt(_PAR_Y_TOP)}" x2="{_fmt(ax)}" '
            f'y2="{_fmt(_PAR_Y_BOTTOM)}" stroke="#333333" stroke-width="1"/>',
            f'<text x="{_fmt(ax)}" y="{_fmt(_PAR_Y_BOTTOM + 20.0)}" font-size="11" '
            f'text-anchor="middle">{name}</text>',
        ]
    for row, label in zip(rows, labels):
        color = _PALETTE[label % len(_PALETTE)]
        vertices = " ".join(
            f"{_fmt(axis_x[i])},{_fmt(y_at(i, row[i]))}" for i in range(n_dims)
        )
        parts.append(
            f'<polyline points="{vertices}" fill="none" stroke="{color}" '
            f'stroke-width="1" opacity="0.8"/>'
        )
    return _write_svg(path, _PAR_W, _PAR_H, "parallel coordinates", parts)
