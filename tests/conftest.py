"""Shared fixtures: the two Monte Carlo runs reused across acceptance tests,
and a helper that grows one caterpillar from a generator."""

import pytest

from catlab.caterpillar import Caterpillar, simulate_counts
from catlab.experiments import DEFAULT_SEED
from catlab.verify import mc200, mc50


def sampled(m, n, rng, draw=simulate_counts) -> Caterpillar:
    """The caterpillar whose n leaf counts ``draw`` takes from the generator ``rng``."""
    return Caterpillar(m, tuple(draw(m, n, rng)))


@pytest.fixture(scope="session")
def summary_m200():
    """R=500 run at (m=200, n=5000) with hoover/zagreb/randic/gini."""
    return mc200(DEFAULT_SEED)


@pytest.fixture(scope="session")
def summary_m50():
    """R=500 run at (m=50, n=2000) with wiener/hyper_wiener."""
    return mc50(DEFAULT_SEED)
