"""The CLT figure: polyline coordinates, degenerate samples, the bar cap."""

import re

import numpy as np
import pytest

from catlab import svg
from catlab.errors import DomainError, ResourceLimitError
from catlab.experiments import kde
from catlab.svg import histogram_kde_svg


def _points(text):
    (points,) = re.findall(r'<polyline points="([^"]*)"', text)
    return [tuple(map(float, p.split(","))) for p in points.split()]


def test_polyline_matches_the_per_point_coordinates():
    """The array form of sx/sy formats to the bytes the per-point form gave."""
    for seed in range(5):
        x = np.random.default_rng(seed).normal(size=200 + 37 * seed)
        text = histogram_kde_svg(x, bins=9)
        counts, edges = np.histogram(x, bins=9, range=(float(x.min()), float(x.max())))
        grid, density = kde(x)
        x_lo = min(float(edges[0]), float(grid[0]))
        x_hi = max(float(edges[-1]), float(grid[-1]))
        bar = counts / (len(x) * (edges[1] - edges[0]))
        y_hi = max(float(bar.max()), float(density.max()), 1e-9) * 1.08
        plot_w = svg.WIDTH - svg.MARGIN_LEFT - svg.MARGIN_RIGHT
        plot_h = svg.HEIGHT - svg.MARGIN_TOP - svg.MARGIN_BOTTOM
        want = " ".join(
            format(svg.MARGIN_LEFT + (float(gx) - x_lo) / (x_hi - x_lo) * plot_w, ".2f")
            + ","
            + format(svg.MARGIN_TOP + (1.0 - float(gy) / y_hi) * plot_h, ".2f")
            for gx, gy in zip(grid, density)
        )
        assert f'<polyline points="{want}"' in text


def test_one_value_sample_renders_one_bar_and_a_flat_line():
    """A single value has no sample spread: no KDE, no ddof warning."""
    text = histogram_kde_svg([5.0])  # tier-1 turns any warning into an error
    bars = re.findall(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="([^"]*)" fill="#cfd8e6"',
                      text)
    assert len(bars) == 20
    assert sum(float(h) > 0 for h in bars) == 1
    points = _points(text)
    assert len(points) == 21  # the histogram edges
    assert len({y for _, y in points}) == 1


def test_one_value_sample_refused_below_the_float_spacing():
    """numpy widens one value v to [v - 0.5, v + 0.5], which is v again at 1e17."""
    with pytest.raises(DomainError, match="cannot split the sample into 20 bins"):
        histogram_kde_svg([1e17])


def test_bar_count_is_capped():
    """The cap itself renders one bar per bin; one more, or none, is refused."""
    x = np.linspace(-2.0, 2.0, 50)
    text = histogram_kde_svg(x, bins=svg.MAX_BINS)
    assert text.count('fill="#cfd8e6"') == svg.MAX_BINS
    with pytest.raises(ResourceLimitError, match=f"{svg.MAX_BINS + 1} bars exceeds the cap"):
        histogram_kde_svg(x, bins=svg.MAX_BINS + 1)
    with pytest.raises(DomainError, match="bins must be >= 1"):
        histogram_kde_svg(x, bins=0)
