"""Minimal dependency-free SVG renderings (best effort; CSV is canonical)."""

from __future__ import annotations

import math
from typing import Sequence

_W, _H, _PAD = 640, 400, 50


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def _svg(body: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n'
        f'<rect width="{_W}" height="{_H}" fill="white"/>\n{body}</svg>\n'
    )


def line_chart(series: dict[str, Sequence[float]], title: str = "",
               y_label: str = "") -> str:
    """Polyline chart of one or more named series against their index."""
    colors = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400", "#16a085"]
    finite = [v for vs in series.values() for v in vs if math.isfinite(v)]
    if not finite:
        return _svg("")
    lo, hi = min(finite), max(finite)
    n_max = max(len(vs) for vs in series.values())
    parts = [f'<text x="{_W/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
             f'<text x="15" y="{_H/2}" font-size="12" transform="rotate(-90 15 {_H/2})" '
             f'text-anchor="middle">{y_label}</text>']
    for i, (name, vs) in enumerate(series.items()):
        xs = _scale(range(len(vs)), 0, max(n_max - 1, 1), _PAD, _W - _PAD)
        ys = _scale(vs, lo, hi, _H - _PAD, _PAD)
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y, v in zip(xs, ys, vs)
                       if math.isfinite(v))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{_W - _PAD}" y="{_PAD + 16 * i}" text-anchor="end" '
                     f'fill="{color}" font-size="12">{name}</text>')
    return _svg("\n".join(parts))


def bar_chart(edges: Sequence[float], counts: Sequence[int], title: str = "") -> str:
    """Histogram bars from numpy-style bin edges and counts."""
    cmax = max(max(counts), 1)
    lo, hi = edges[0], edges[-1]
    parts = [f'<text x="{_W/2}" y="20" text-anchor="middle" font-size="14">{title}</text>']
    for e0, e1, c in zip(edges[:-1], edges[1:], counts):
        x0 = _scale([e0], lo, hi, _PAD, _W - _PAD)[0]
        x1 = _scale([e1], lo, hi, _PAD, _W - _PAD)[0]
        h = c / cmax * (_H - 2 * _PAD)
        parts.append(f'<rect x="{x0:.1f}" y="{_H - _PAD - h:.1f}" '
                     f'width="{max(x1 - x0 - 1, 1):.1f}" height="{h:.1f}" '
                     f'fill="#2980b9"/>')
    parts.append(f'<text x="{_PAD}" y="{_H - _PAD + 20}" font-size="12">{lo:.3g}</text>')
    parts.append(f'<text x="{_W - _PAD}" y="{_H - _PAD + 20}" text-anchor="end" '
                 f'font-size="12">{hi:.3g}</text>')
    return _svg("\n".join(parts))
