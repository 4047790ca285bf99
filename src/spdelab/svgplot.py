"""Minimal self-contained SVG log-log plotting (no plotting dependency).

Produces the standard convergence-figure layout: error curves with markers
against resolution on log2-log2 axes, plus dashed guide lines with
prescribed slopes anchored at the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_COLORS = ["#1f6fb4", "#d1342f", "#3c8a3f", "#8a4fb4", "#b4773c", "#3cb4a4"]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55  # margins


@dataclass(frozen=True)
class Series:
    label: str
    x: list
    y: list


@dataclass(frozen=True)
class GuideLine:
    """Dashed reference of given log-log slope through (anchor_x, anchor_y)."""

    label: str
    slope: float
    anchor_x: float
    anchor_y: float


def _ticks(lo: float, hi: float) -> list[int]:
    start, stop = math.floor(lo), math.ceil(hi)
    step = max(1, (stop - start) // 8)
    return list(range(start, stop + 1, step))


def _fmt_pow2(e: int) -> str:
    return "1" if e == 0 else f"2^{e}"


def loglog_svg(
    series: list[Series],
    guides: list[GuideLine],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render curves and dashed guide lines on log2 axes; returns SVG text."""
    pts = [(math.log2(x), math.log2(y)) for s in series for x, y in zip(s.x, s.y)]
    if not pts:
        raise ValueError("nothing to plot")
    gx = [math.log2(g.anchor_x) for g in guides]
    gy = [math.log2(g.anchor_y) for g in guides]
    xs = [p[0] for p in pts] + gx
    ys = [p[1] for p in pts] + gy
    x_lo, x_hi = min(xs) - 0.4, max(xs) + 0.4
    y_lo, y_hi = min(ys) - 0.6, max(ys) + 0.6
    for g in guides:  # include guide-line endpoints in the y range
        for xe in (x_lo, x_hi):
            y_lo = min(y_lo, math.log2(g.anchor_y) + g.slope * (xe - math.log2(g.anchor_x)))
    y_lo -= 0.2

    def px(lx: float) -> float:
        return _ML + (lx - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(ly: float) -> float:
        return _H - _MB - (ly - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # axes box and ticks
    out.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    )
    for e in _ticks(x_lo, x_hi):
        if x_lo <= e <= x_hi:
            x = px(e)
            out.append(
                f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" '
                f'y2="{_H - _MB + 5}" stroke="black"/>'
            )
            out.append(
                f'<text x="{x:.1f}" y="{_H - _MB + 20}" text-anchor="middle">'
                f"{_fmt_pow2(e)}</text>"
            )
    for e in _ticks(y_lo, y_hi):
        if y_lo <= e <= y_hi:
            y = py(e)
            out.append(
                f'<line x1="{_ML - 5}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
                f'stroke="black"/>'
            )
            out.append(
                f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">'
                f"{_fmt_pow2(e)}</text>"
            )
    out.append(
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{_H / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_H / 2})">{ylabel}</text>'
    )

    for g in guides:
        ax, ay = math.log2(g.anchor_x), math.log2(g.anchor_y)
        x1, x2 = x_lo + 0.2, x_hi - 0.2
        y1, y2 = ay + g.slope * (x1 - ax), ay + g.slope * (x2 - ax)
        out.append(
            f'<line x1="{px(x1):.1f}" y1="{py(y1):.1f}" x2="{px(x2):.1f}" '
            f'y2="{py(y2):.1f}" stroke="#666" stroke-dasharray="6,4"/>'
        )
        out.append(
            f'<text x="{px(x2) - 4:.1f}" y="{py(y2) - 5:.1f}" text-anchor="end" '
            f'fill="#666">{g.label}</text>'
        )

    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = [(px(math.log2(x)), py(math.log2(y))) for x, y in zip(s.x, s.y)]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        out.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        for x, y in coords:
            out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.2" fill="{color}"/>')
        out.append(
            f'<text x="{_W - _MR - 8}" y="{_MT + 18 + 16 * i}" text-anchor="end" '
            f'fill="{color}">{s.label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
