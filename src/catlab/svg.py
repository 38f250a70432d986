"""Minimal hand-rolled SVG rendering for the CLT figure.

Only rect/polyline/line/text primitives, no plotting dependency.  All
coordinates are formatted with fixed precision so the same inputs always
produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ResourceLimitError
from .experiments import histogram, kde

__all__ = ["MAX_BINS", "check_bins", "histogram_kde_svg"]

WIDTH, HEIGHT = 640, 440
MARGIN_LEFT, MARGIN_RIGHT = 64, 20
MARGIN_TOP, MARGIN_BOTTOM = 36, 48

# Each bar is a <rect> of about 108 bytes, so the cap keeps a figure near 1.1 MB.
MAX_BINS = 10_000


def check_bins(bins: int) -> None:
    """Refuse a bar count outside 1 .. ``MAX_BINS``."""
    if bins < 1:
        raise DomainError("bins must be >= 1")
    if bins > MAX_BINS:
        raise ResourceLimitError(f"a histogram of {bins} bars exceeds the cap of {MAX_BINS} bars")


def _fmt(v: float) -> str:
    return format(float(v), ".2f")


def _line(x1: float, y1: float, x2: float, y2: float) -> str:
    ends = f'x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
    return f'<line {ends} stroke="black"/>'


def _label(x: float, y: float, anchor: str, t: float) -> str:
    at = f'x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}"'
    return f'<text {at} font-family="sans-serif" font-size="11">{t:g}</text>'


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    """Round tick values over [lo, hi], which has hi > lo."""
    raw = (hi - lo) / (count - 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    ticks = []
    t = np.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        ticks.append(float(t))
        t += step
    return ticks


def histogram_kde_svg(sample, bins: int = 20) -> str:
    """Density-scaled histogram with a KDE polyline, as an SVG string."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise DomainError("cannot plot an empty sample")
    check_bins(bins)
    counts, edges = histogram(x, bins)
    spread = x.size > 1 and x.std(ddof=1) > 0
    grid, density = kde(x) if spread else (edges, np.zeros_like(edges))
    # check_bins leaves at least two edges, and np.histogram refuses equal ones
    bar_density = counts / (len(x) * (edges[1] - edges[0]))

    x_lo = min(float(edges[0]), float(grid[0]))
    x_hi = max(float(edges[-1]), float(grid[-1]))
    y_hi = max(float(bar_density.max()), float(density.max()), 1e-9) * 1.08

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v: float) -> float:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return MARGIN_TOP + (1.0 - v / y_hi) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}"'
        f' viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="22" text-anchor="middle"'
        ' font-family="sans-serif" font-size="14">standardized Zagreb indices</text>',
    ]
    for i, d in enumerate(bar_density):
        x0, x1 = sx(float(edges[i])), sx(float(edges[i + 1]))
        y0 = sy(float(d))
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}"'
            f' height="{_fmt(sy(0.0) - y0)}" fill="#cfd8e6" stroke="#7a8aa0"'
            f' stroke-width="0.5"/>'
        )
    # sx and sy apply elementwise, with the same float operations as per point
    points = " ".join(
        f"{gx:.2f},{gy:.2f}" for gx, gy in zip(sx(grid).tolist(), sy(density).tolist())
    )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f4e9c" stroke-width="2.5"/>'
    )
    axis_y = sy(0.0)
    parts.append(_line(MARGIN_LEFT, axis_y, WIDTH - MARGIN_RIGHT, axis_y))
    parts.append(_line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, axis_y))
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(_line(px, axis_y, px, axis_y + 5))
        parts.append(_label(px, axis_y + 20, "middle", t))
    for t in _ticks(0.0, y_hi, count=5):
        py = sy(t)
        parts.append(_line(MARGIN_LEFT - 5, py, MARGIN_LEFT, py))
        parts.append(_label(MARGIN_LEFT - 9, py + 4, "end", t))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
