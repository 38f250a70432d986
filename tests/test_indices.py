"""Index computations: hand values, BFS cross-checks, structural properties."""

import math
from fractions import Fraction

import numpy as np
import pytest

from catlab.caterpillar import (
    Caterpillar,
    RngSeed,
    new_spine,
    sample_direct_counts,
    simulate_counts,
    to_adjacency,
)
from catlab.errors import DomainError
from catlab.indices import (
    IndexSpec,
    compute_index,
    compute_index_batch,
    degree_gini_exact,
    fits_int64,
    hoover_exact,
    hyper_wiener,
    randic,
    wiener,
    zagreb,
)
from catlab.oracle import compositions, hyper_wiener_bfs, one_step_successors, wiener_bfs
from conftest import sampled


def test_index_spec_parsing():
    assert str(IndexSpec.parse("zagreb")) == "zagreb"
    assert IndexSpec.parse("randic") == IndexSpec("randic", 1.0)
    assert str(IndexSpec.parse("randic:-0.5")) == "randic:-0.5"
    with pytest.raises(DomainError):
        IndexSpec.parse("wiener:2")
    with pytest.raises(DomainError):
        IndexSpec.parse("hosoya")


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_index_spec_rejects_non_finite_randic_exponent(alpha):
    with pytest.raises(DomainError, match="Randic exponent must be finite"):
        IndexSpec("randic", alpha)
    with pytest.raises(DomainError, match="Randic exponent must be finite"):
        IndexSpec.parse(f"randic:{alpha}")


def test_degree_gini_hand_values():
    assert degree_gini_exact(new_spine(2)) == 0
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
        c = sampled(m, n, RngSeed(4242, k).generator())
        assert degree_gini_exact(c) == _brute_degree_gini(c)


def test_compute_index_returns_exact_ratios():
    rng = RngSeed(77).generator()
    for _ in range(20):
        c = sampled(int(rng.integers(2, 40)), int(rng.integers(0, 500)), rng)
        gini = compute_index(c, IndexSpec("gini_degree"))
        share = compute_index(c, IndexSpec("hoover"))
        assert type(gini) is Fraction and gini == degree_gini_exact(c)
        assert type(share) is Fraction and share == hoover_exact(c)


def test_hoover_hand_values():
    assert hoover_exact(new_spine(2)) == 0
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
        c = sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator())
        g = to_adjacency(c)
        assert wiener(c) == wiener_bfs(g)
        assert hyper_wiener(c) == hyper_wiener_bfs(g)


def test_monotone_growth_one_step():
    """Adding a leaf strictly increases the integer-valued indices."""
    rng = RngSeed(515).generator()
    for _ in range(40):
        m = int(rng.integers(2, 15))
        n = int(rng.integers(0, 50))
        c = sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator())
        from catlab.caterpillar import spine_degrees

        degs = spine_degrees(c)
        for i, succ in enumerate(one_step_successors(c)):
            assert zagreb(succ) - zagreb(c) == 2 * degs[i] + 2
            assert wiener(succ) > wiener(c)
            assert hyper_wiener(succ) > hyper_wiener(c)
            assert randic(succ, 1) > randic(c, 1)


def test_exact_arithmetic_at_large_scale():
    """O(m) closed forms agree with a naive big-int double loop at large n."""
    c = sampled(1000, 10**6, RngSeed(123).generator())
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


BATCH_SPECS = [
    IndexSpec.parse(text)
    for text in ("gini_degree", "hoover", "zagreb", "randic:1", "randic:-0.5", "wiener", "hyper_wiener")
]


def _assert_batch_matches_scalar(m, states):
    """compute_index_batch equals compute_index state by state, types included."""
    counts = np.array(states, dtype=np.int64).reshape(len(states), m)
    for spec in BATCH_SPECS:
        want = [compute_index(Caterpillar(m, tuple(x)), spec) for x in states]
        got = compute_index_batch(counts, spec)
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want], (m, str(spec))


def test_batch_matches_scalar_exhaustively():
    # every state with m <= 5 and n <= 5 (leafless ends included), mixed n per batch
    for m in range(2, 6):
        _assert_batch_matches_scalar(m, [x for n in range(6) for x in compositions(n, m)])


def test_batch_matches_scalar_random_states():
    rng = RngSeed(2024).generator()
    _assert_batch_matches_scalar(2, [[0, 0], [0, 7], [3, 0]])
    for k in range(12):
        m = int(rng.integers(2, 300))
        states = []
        for j in range(6):
            n = int(rng.integers(0, 50_001))
            draw = simulate_counts if j % 2 else sample_direct_counts
            x = draw(m, n, rng)
            if j % 3 == 0:  # move the first end node's leaves to its neighbour
                x[1] += x[0]
                x[0] = 0
            states.append(x)
        _assert_batch_matches_scalar(m, states)


def test_batch_exact_up_to_the_int64_bound():
    m, n = 5000, 298_639  # the largest n at which 4 N^2 (m+1)^2 < 2^63
    assert fits_int64(m, n) and not fits_int64(m, n + 1)
    assert fits_int64(5000, 100_000) and not fits_int64(10_000, 10**6)
    # leaves at the ends maximize the distance sums
    one_end = [n] + [0] * (m - 1)
    both_ends = [n // 2] + [0] * (m - 2) + [n - n // 2]
    _assert_batch_matches_scalar(m, [one_end, both_ends])
    assert compute_index_batch(np.array([both_ends]), IndexSpec("hyper_wiener"))[0] > 2**53
    over = np.array([[n + 1] + [0] * (m - 1)], dtype=np.int64)
    with pytest.raises(DomainError, match="fits_int64"):
        compute_index_batch(over, IndexSpec("zagreb"))
    with pytest.raises(DomainError, match="int64"):
        compute_index_batch(np.array([[1, 2]], dtype=np.int32), IndexSpec("zagreb"))
