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
    _row_sums,
    compute_index,
    compute_indices_batch,
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


def test_randic_rejects_float_overflow():
    # (2 * 2)^1000 overflows on the middle spine edge; at alpha = 1100 so does
    # 2^1100, and a leafless degree-2 node adds 0 * inf = nan
    with pytest.raises(DomainError, match="not finite"):
        randic(new_spine(4), 1000.0)
    with pytest.raises(DomainError, match="not finite"):
        randic(new_spine(4), 1100.0)
    assert 0 < randic(new_spine(4), -1000.0) < 1e-300


def test_randic_alpha1_equals_edge_sum():
    for m in range(2, 6):
        for n in range(0, 7):
            for counts in compositions(n, m):
                c = Caterpillar(m, counts)
                edges = to_adjacency(c).edges
                degs = np.bincount(np.ravel(edges)).tolist()
                assert randic(c, 1) == sum(degs[u] * degs[v] for u, v in edges)


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


# every kind, and Randic at three exponents
ALL_SPECS = BATCH_SPECS + [IndexSpec.parse("randic:0.5")]


def _typed(values):
    return [(type(v), v) for v in values]


def _assert_batch_matches_scalar(m, states):
    """compute_indices_batch of each spec alone equals compute_index state
    by state, types included, and one call of every spec equals it column
    by column."""
    counts = np.array(states, dtype=np.int64).reshape(len(states), m)
    columns = compute_indices_batch(counts, ALL_SPECS)
    assert len(columns) == len(ALL_SPECS)
    for spec, column in zip(ALL_SPECS, columns):
        want = [compute_index(Caterpillar(m, tuple(x)), spec) for x in states]
        got = compute_indices_batch(counts, (spec,))[0]
        assert _typed(got) == _typed(want), (m, str(spec))
        assert _typed(column) == _typed(got), (m, str(spec))


def _assert_refused(counts, spec, match):
    """compute_indices_batch refuses ``counts`` for ``spec`` alone and
    among every spec."""
    for specs in ([spec], ALL_SPECS):
        with pytest.raises(DomainError, match=match):
            compute_indices_batch(counts, specs)


def test_batch_matches_scalar_exhaustively():
    # every state with m <= 5 and n <= 5 (leafless ends included), mixed n per batch
    for m in range(2, 6):
        _assert_batch_matches_scalar(m, [x for n in range(6) for x in compositions(n, m)])


def test_batch_matches_scalar_random_states():
    rng = RngSeed(2024).generator()
    _assert_batch_matches_scalar(2, [[0, 0], [0, 7], [3, 0]])
    _assert_batch_matches_scalar(7, [[1, 0, 4, 0, 0, 2, 9]])  # one row
    for m in (2, 5):
        _assert_batch_matches_scalar(m, [])  # the empty (0, m) matrix
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
    """At the largest n that fits_int64 admits, where the distance sums pass 2^63."""
    # N = n + m is the largest with N^2 max(m + 1, 6) < 2^63
    for m, n in ((2, 1_239_850_260), (5, 1_239_850_257), (5000, 42_940_378)):
        assert fits_int64(m, n) and not fits_int64(m, n + 1)
        # leaves at the ends maximize the distance sums; at m = 5000 the
        # degree Gini's rank terms run from -4999 to 4999 (n + 1) > 2^32
        one_end = [n] + [0] * (m - 1)
        both_ends = [n // 2] + [0] * (m - 2) + [n - n // 2]
        _assert_batch_matches_scalar(m, [one_end, both_ends])
    assert compute_indices_batch(np.array([both_ends]), (IndexSpec("hyper_wiener"),))[0][0] > 2**63
    assert fits_int64(10_000, 10**6)
    assert fits_int64(2**21 - 1, 0) and not fits_int64(2**21, 0)
    over = np.array([[n + 1] + [0] * (m - 1)], dtype=np.int64)
    _assert_refused(over, IndexSpec("zagreb"), "fits_int64")
    _assert_refused(np.array([[1, 2]], dtype=np.int32), IndexSpec("zagreb"), "int64")


def test_batch_refuses_counts_that_could_wrap_or_are_negative():
    # four counts of 2^62 sum to 2^64, which wraps to 0 in int64
    _assert_refused(np.array([[2**62] * 4]), IndexSpec("zagreb"), "2\\^32")
    _assert_refused(np.array([[-3, 1]]), IndexSpec("wiener"), "2\\^32")
    # 2^32 alone is refused by the count check, 2^32 - 1 by fits_int64
    _assert_refused(np.array([[2**32, 0]]), IndexSpec("zagreb"), "2\\^32")
    _assert_refused(np.array([[2**32 - 1, 0]]), IndexSpec("zagreb"), "fits_int64")
    for spec in BATCH_SPECS:
        assert compute_indices_batch(np.zeros((0, 5), dtype=np.int64), (spec,)) == [[]]
    assert compute_indices_batch(np.zeros((0, 5), dtype=np.int64), ALL_SPECS) == [[]] * 8


@pytest.mark.parametrize("spec", BATCH_SPECS + [IndexSpec.parse("randic:0.5")], ids=str)
def test_batch_refuses_what_is_not_a_spine_of_two_or_more_nodes(spec):
    """One column once gave 0 (or a ZeroDivisionError for Gini and Hoover),
    though Caterpillar refuses m = 1; no column and 1-D input met numpy's errors."""
    for shape in ((2, 1), (0, 1), (3, 0), (0, 0)):
        _assert_refused(np.zeros(shape, dtype=np.int64), spec, "spine too short")
    for shape in ((5,), (0,), (1, 2, 3)):
        _assert_refused(np.zeros(shape, dtype=np.int64), spec, "matrix")


def test_limb_row_sums_are_exact_for_negative_terms():
    rng = np.random.default_rng(7)
    terms = rng.integers(-(2**62), 2**62, size=(4, 1000), dtype=np.int64)
    terms[0] = -(2**63)  # every limb at its extreme
    terms[1] = 2**63 - 1
    assert _row_sums(terms) == [sum(row) for row in terms.tolist()]
