"""Index computations: hand values, BFS cross-checks, structural properties."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catlab.caterpillar import Caterpillar, RngSeed, new_spine, simulate, to_adjacency
from catlab.errors import DomainError
from catlab.indices import (
    IndexSpec,
    degree_gini,
    degree_gini_exact,
    gini_functional,
    hoover,
    hoover_exact,
    hyper_wiener,
    randic,
    wiener,
    zagreb,
)
from catlab.oracle import compositions, hyper_wiener_bfs, one_step_successors, wiener_bfs


def test_index_spec_parsing():
    assert str(IndexSpec.parse("zagreb")) == "zagreb"
    assert IndexSpec.parse("randic") == IndexSpec("randic", 1.0)
    assert str(IndexSpec.parse("randic:-0.5")) == "randic:-0.5"
    with pytest.raises(DomainError):
        IndexSpec.parse("wiener:2")
    with pytest.raises(DomainError):
        IndexSpec.parse("hosoya")


def test_gini_functional_hand_values():
    assert gini_functional([5, 5, 5, 5]) == 0.0
    assert gini_functional([0, 1]) == pytest.approx(0.5)
    assert gini_functional([1, 2, 3]) == pytest.approx(8 / 36)


def test_gini_functional_errors():
    with pytest.raises(DomainError, match="zero total wealth"):
        gini_functional([0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        gini_functional([1.0])


def test_gini_brute_force_cross_check():
    rng = RngSeed(3).generator()
    for _ in range(20):
        w = rng.uniform(0, 10, size=int(rng.integers(2, 30)))
        if w.sum() == 0:
            continue
        n = len(w)
        brute = sum(abs(a - b) for a in w for b in w) / (2 * n * w.sum())
        assert gini_functional(w) == pytest.approx(brute, abs=1e-12)


@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=2, max_size=40),
    st.floats(min_value=0.01, max_value=1000.0),
)
@settings(max_examples=60)
def test_gini_scale_invariance(weights, k):
    scaled = [k * w for w in weights]
    assert gini_functional(scaled) == pytest.approx(gini_functional(weights), abs=1e-12)


def test_degree_gini_hand_values():
    assert degree_gini(new_spine(2)) == 0.0
    assert degree_gini_exact(Caterpillar(2, (1, 0))) == Fraction(1, 6)


def _brute_degree_gini(c):
    """sum_ij |d_i - d_j| / (2 N sum_i d_i) over degree_sequence, grouped by value."""
    from collections import Counter

    from catlab.caterpillar import degree_sequence

    degs = degree_sequence(c)
    tally = Counter(degs).items()
    num = sum(ca * cb * abs(a - b) for a, ca in tally for b, cb in tally)
    return Fraction(num, 2 * len(degs) * sum(degs))


def test_degree_gini_matches_brute_force_exhaustively():
    for m in range(2, 6):
        for n in range(0, 7):
            for counts in compositions(n, m):
                c = Caterpillar(m, counts)
                assert degree_gini_exact(c) == _brute_degree_gini(c)


def test_degree_gini_matches_brute_force_random_states():
    rng = RngSeed(4242).generator()
    states = [(400, 20_000), (2, 20_000), (400, 0)]
    states += [(int(rng.integers(2, 401)), int(rng.integers(0, 20_001))) for _ in range(12)]
    for k, (m, n) in enumerate(states):
        c = simulate(m, n, RngSeed(4242, k))
        assert degree_gini_exact(c) == _brute_degree_gini(c)


def test_hoover_hand_values():
    assert hoover(new_spine(2)) == 0.0
    assert hoover_exact(Caterpillar(2, (1, 0))) == Fraction(1, 6)


def test_hoover_range_and_zero_condition():
    """0 <= H < 1, with H = 0 only at the bare two-node spine."""
    for m in range(2, 6):
        for n in range(0, 7):
            for counts in compositions(n, m):
                h = hoover_exact(Caterpillar(m, counts))
                assert 0 <= h < 1
                if h == 0:
                    assert (m, n) == (2, 0)


def test_zagreb_hand_values():
    assert zagreb(new_spine(3)) == 6  # 4m - 6 at n = 0
    assert zagreb(Caterpillar(2, (2, 0))) == 12
    assert zagreb(Caterpillar(2, (1, 1))) == 10


def test_zagreb_equals_squared_degree_sum():
    from catlab.caterpillar import degree_sequence

    for m in range(2, 7):
        for n in range(0, 9):
            for counts in compositions(n, m):
                c = Caterpillar(m, counts)
                assert zagreb(c) == sum(d * d for d in degree_sequence(c))


def test_randic_hand_values():
    assert randic(Caterpillar(3, (0, 1, 0)), 1) == 9
    assert randic(Caterpillar(3, (1, 0, 0)), 1) == 8
    assert randic(new_spine(3), -0.5) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_randic_alpha1_equals_edge_sum():
    for m in range(2, 6):
        for n in range(0, 7):
            for counts in compositions(n, m):
                c = Caterpillar(m, counts)
                g = to_adjacency(c)
                degs = [len(nbrs) for nbrs in g.adjacency]
                edge_sum = sum(
                    degs[u] * degs[v]
                    for u in range(g.node_count)
                    for v in g.adjacency[u]
                    if u < v
                )
                assert randic(c, 1) == edge_sum


def test_wiener_hand_values():
    assert wiener(new_spine(3)) == 4
    assert wiener(Caterpillar(2, (1, 0))) == 4
    assert wiener(Caterpillar(3, (0, 1, 0))) == 9


def test_hyper_wiener_hand_values():
    assert hyper_wiener(new_spine(3)) == 10
    assert hyper_wiener(Caterpillar(3, (0, 1, 0))) == 24
    assert hyper_wiener(Caterpillar(2, (1, 0))) == 10


def test_distance_formulas_match_bfs_exhaustively():
    for m in range(2, 6):
        for n in range(0, 7):
            for counts in compositions(n, m):
                c = Caterpillar(m, counts)
                g = to_adjacency(c)
                assert wiener(c) == wiener_bfs(g)
                assert hyper_wiener(c) == hyper_wiener_bfs(g)


def test_distance_formulas_match_bfs_random_states():
    rng = RngSeed(6060).generator()
    for _ in range(100):
        m = int(rng.integers(2, 51))
        n = int(rng.integers(0, 201))
        c = simulate(m, n, RngSeed(int(rng.integers(0, 2**32))))
        g = to_adjacency(c)
        assert wiener(c) == wiener_bfs(g)
        assert hyper_wiener(c) == hyper_wiener_bfs(g)


def test_monotone_growth_one_step():
    """Adding a leaf strictly increases the integer-valued indices."""
    rng = RngSeed(515).generator()
    for _ in range(40):
        m = int(rng.integers(2, 15))
        n = int(rng.integers(0, 50))
        c = simulate(m, n, RngSeed(int(rng.integers(0, 2**32))))
        from catlab.caterpillar import spine_degrees

        degs = spine_degrees(c)
        for i, succ in enumerate(one_step_successors(c)):
            assert zagreb(succ) - zagreb(c) == 2 * degs[i] + 2
            assert wiener(succ) > wiener(c)
            assert hyper_wiener(succ) > hyper_wiener(c)
            assert randic(succ, 1) > randic(c, 1)


def test_exact_arithmetic_at_large_scale():
    """O(m) closed forms agree with a naive big-int double loop at large n."""
    c = simulate(1000, 10**6, RngSeed(123))
    x = [int(v) for v in c.leaf_counts]
    m, n = c.m, c.n

    w = m * (m * m - 1) // 6
    wh = m * (m**3 + 2 * m * m - m - 2) // 12
    for i in range(m):
        for j in range(i + 1, m):
            d = j - i + 2
            w += d * x[i] * x[j]
            wh += (d + d * d) * x[i] * x[j]
        w += x[i] * (x[i] - 1)
        wh += 3 * x[i] * (x[i] - 1)
        for j in range(m):
            d = abs(i - j) + 1
            w += d * x[i]
            wh += (d + d * d) * x[i]
    assert wiener(c) == w
    assert hyper_wiener(c) == wh
    assert hyper_wiener(c) > 2**53  # genuinely beyond float precision
