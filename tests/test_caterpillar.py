"""Core model: growth process, samplers, degrees, adjacency, determinism."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from catlab.caterpillar import (
    Caterpillar,
    RngSeed,
    degree_sequence,
    grow_step,
    new_spine,
    sample_direct_counts,
    simulate_counts,
    to_adjacency,
)
from catlab.errors import DomainError
from catlab.indices import zagreb
from catlab.oracle import compositions, multinomial_coefficient
from conftest import sampled


def test_new_spine():
    assert new_spine(2) == Caterpillar(2, (0, 0))
    assert new_spine(5).leaf_counts == (0,) * 5
    with pytest.raises(DomainError, match="m must be >= 2"):
        new_spine(1)


def test_caterpillar_invariants():
    c = Caterpillar(3, (4, 0, 1))
    assert c.n == 5
    assert c.node_count == 8
    assert c.edge_count == 7
    with pytest.raises(DomainError):
        Caterpillar(3, (1, 2))
    with pytest.raises(DomainError):
        Caterpillar(3, (1, -1, 0))


def test_grow_step_adds_one_leaf():
    rng = RngSeed(5).generator()
    c = Caterpillar(3, (4, 0, 1))
    grown = grow_step(c, rng)
    assert grown.n == 6
    diffs = [b - a for a, b in zip(c.leaf_counts, grown.leaf_counts)]
    assert sorted(diffs) == [0, 0, 1]


def test_two_step_law_from_enumeration():
    """All 4 equally likely two-step histories on m=2 give 1/4, 1/2, 1/4."""
    law = {}
    for picks in itertools.product(range(2), repeat=2):
        counts = [0, 0]
        for i in picks:
            counts[i] += 1
        law[tuple(counts)] = law.get(tuple(counts), 0) + 1
    assert law == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    # multinomial weights agree with the raw history count
    for counts, histories in law.items():
        assert multinomial_coefficient(counts) == histories


def test_simulate_basics():
    assert sampled(3, 0, RngSeed(1).generator()).leaf_counts == (0, 0, 0)
    a = sampled(2, 1000, RngSeed(7).generator())
    b = sampled(2, 1000, RngSeed(7).generator())
    assert a == b
    assert a.n == 1000


def test_simulate_matches_repeated_grow_steps():
    """Batched draws consume the stream exactly like n grow_step calls."""
    seed = RngSeed(99, 3)
    batched = sampled(5, 40, seed.generator())
    rng = seed.generator()
    state = new_spine(5)
    for _ in range(40):
        state = grow_step(state, rng)
    assert state == batched


def test_sample_direct_basics():
    assert sampled(4, 0, RngSeed(1).generator(), sample_direct_counts).leaf_counts == (0, 0, 0, 0)
    a = sampled(3, 500, RngSeed(11).generator(), sample_direct_counts)
    assert a.n == 500
    assert a == sampled(3, 500, RngSeed(11).generator(), sample_direct_counts)


def test_sample_direct_large_n_counts_near_mean():
    """Each count within 5 sd of n/m; sd = sqrt(n(m-1))/m."""
    m, n = 3, 10**6
    c = sampled(m, n, RngSeed(2).generator(), sample_direct_counts)
    sd = math.sqrt(n * (m - 1)) / m
    for x in c.leaf_counts:
        assert abs(x - n / m) < 5 * sd


def _exact_multinomial_law(m: int, n: int) -> dict[tuple, float]:
    total = m**n
    return {
        counts: multinomial_coefficient(counts) / total for counts in compositions(n, m)
    }


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("sampler", ["sequential", "direct"])
def test_distributional_equivalence_chisquare(m, n, sampler):
    """Both samplers match the exact multinomial law (1e5 draws, alpha=0.001)."""
    draws = 100_000
    law = _exact_multinomial_law(m, n)
    rng = RngSeed(314, 1 if sampler == "direct" else 0).generator()
    observed = {counts: 0 for counts in law}
    for _ in range(draws):
        if sampler == "sequential":
            counts = tuple(simulate_counts(m, n, rng))
        else:
            counts = tuple(sample_direct_counts(m, n, rng))
        observed[counts] += 1
    chi2 = sum(
        (observed[c] - draws * p) ** 2 / (draws * p) for c, p in law.items()
    )
    critical = stats.chi2.ppf(1 - 0.001, df=len(law) - 1)
    assert chi2 < critical, (sampler, m, n, chi2, critical)


def test_degree_sequence_examples():
    assert degree_sequence(Caterpillar(3, (1, 0, 2))) == [2, 2, 3, 1, 1, 1]
    assert degree_sequence(new_spine(2)) == [1, 1]


def test_degree_sum_is_twice_edges():
    rng = RngSeed(8).generator()
    for _ in range(50):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(0, 60))
        c = sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator())
        assert sum(degree_sequence(c)) == 2 * (c.n + c.m - 1)


def test_to_adjacency_examples():
    g = to_adjacency(Caterpillar(2, (1, 0)))
    assert g.node_count == 3
    assert g.edge_count == 2
    assert 2 in g.adjacency[0] and 1 in g.adjacency[0]

    path = to_adjacency(new_spine(3))
    assert path.adjacency == ((1,), (0, 2), (1,))


def test_adjacency_connected_and_degrees_agree():
    """Exhaustive: adjacency degrees equal degree_sequence, m 2..6, n 0..8."""
    for m in range(2, 7):
        for n in range(0, 9):
            for counts in compositions(n, m):
                c = Caterpillar(m, counts)
                g = to_adjacency(c)
                assert [len(nbrs) for nbrs in g.adjacency] == degree_sequence(c)
                # BFS from node 0 reaches everything
                seen = {0}
                frontier = [0]
                while frontier:
                    nxt = []
                    for u in frontier:
                        for v in g.adjacency[u]:
                            if v not in seen:
                                seen.add(v)
                                nxt.append(v)
                    frontier = nxt
                assert len(seen) == g.node_count


def test_substream_determinism_and_distinctness():
    assert np.array_equal(
        RngSeed(10, 4).generator().integers(0, 1000, 8),
        RngSeed(10, 4).generator().integers(0, 1000, 8),
    )
    assert not np.array_equal(
        RngSeed(10, 4).generator().integers(0, 1000, 8),
        RngSeed(10, 5).generator().integers(0, 1000, 8),
    )


def test_substream_independence_smoke():
    """Zagreb values on paired substreams are uncorrelated (|rho| < 0.1)."""
    pairs = 1000
    first = [zagreb(sampled(5, 200, RngSeed(77, r).generator())) for r in range(pairs)]
    second = [zagreb(sampled(5, 200, RngSeed(77, r + pairs).generator())) for r in range(pairs)]
    rho = float(np.corrcoef(first, second)[0, 1])
    assert abs(rho) < 0.1
