"""Enumeration oracle, BFS distances, one-step laws, martingale checks."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from catlab import oracle
from catlab.caterpillar import AdjacencyGraph, Caterpillar, RngSeed, new_spine, to_adjacency
from catlab.errors import DomainError, ResourceLimitError
from catlab.indices import zagreb
from catlab.oracle import (
    ExactMoments,
    bfs_distance_sums,
    bfs_distances,
    choose_method,
    compositions,
    enumerate_exact,
    hyper_wiener_bfs,
    martingale_residual,
    multinomial_coefficient,
    one_step_successors,
    randic_supermartingale_gap,
    wiener_bfs,
)
from catlab.caterpillar import spine_degrees
from conftest import sampled


def test_enumerate_exact_frozen_values():
    em = enumerate_exact(2, 2, "zagreb")
    assert em.mean == 11
    assert em.variance == 1
    assert em.support_size == 2  # values 12, 10, 10, 12
    assert em.history_count == 4
    assert enumerate_exact(3, 1, "hyper_wiener").mean == 28
    z0 = enumerate_exact(5, 0, "wiener")
    assert z0.variance == 0 and z0.history_count == 1


INDICES = ("gini_degree", "hoover", "zagreb", "randic:1", "wiener", "hyper_wiener")


def test_enumeration_paths_agree():
    """Counted weights and scalar values (histories) equal multinomial
    weights and batch values (compositions), support sizes included."""
    for index in INDICES:
        for m in range(2, 6):
            for n in range(0, 8):
                a = enumerate_exact(m, n, index, method="histories")
                b = enumerate_exact(m, n, index, method="compositions")
                assert a == b, (index, m, n)


@pytest.mark.parametrize("rows_per_block", [1, 7, None])
def test_composition_block_size_does_not_matter(monkeypatch, rows_per_block):
    """Blocks of 1 and 7 states, and one block of every state, agree."""
    cases = [(5, 20, index) for index in ("gini_degree", "hoover", "hyper_wiener")]
    cases += [(3, 6, index) for index in INDICES]
    wants = [enumerate_exact(m, n, index, method="compositions") for m, n, index in cases]
    assert wants[0].mean.denominator > 1  # Gini at (5, 20) is Fraction-valued
    for (m, n, index), want in zip(cases, wants):
        states = math.comb(n + m - 1, m - 1)
        monkeypatch.setattr(oracle, "BLOCK_CELLS", (rows_per_block or states) * m)
        assert enumerate_exact(m, n, index, method="compositions") == want


def test_composition_path_streams_blocks():
    """All 10,626 states at (5, 20) are never held at once."""
    tracemalloc.start()
    try:
        enumerate_exact(5, 20, "hyper_wiener")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_enumerate_guard_and_method_choice():
    with pytest.raises(ResourceLimitError, match="guard"):
        enumerate_exact(2, 40, "zagreb", method="histories")
    assert choose_method(2, 40) == "compositions"
    assert choose_method(2, 5) == "histories"
    # composition path succeeds where raw histories cannot
    em = enumerate_exact(2, 40, "zagreb")
    assert em.mean == Fraction(40 * 40, 2) + Fraction(7 * 40, 2) + 2
    with pytest.raises(DomainError):
        enumerate_exact(2, 3, "zagreb", method="sideways")


def test_enumerate_rejects_irrational_randic():
    for m, n, index in ((2, 2, "randic:-0.5"), (50, 50, "randic:0.5")):
        # rejected before the state count is checked against the guard
        with pytest.raises(DomainError, match="alpha = 1"):
            enumerate_exact(m, n, index)


def test_multinomial_coefficients_sum_to_histories():
    for m in (2, 3, 4):
        for n in range(0, 7):
            assert sum(multinomial_coefficient(c) for c in compositions(n, m)) == m**n


def test_bfs_distances_basics():
    d = bfs_distances(to_adjacency(new_spine(3)))
    assert d[0][1] == 1 and d[1][2] == 1 and d[0][2] == 2
    assert all(d[i][i] == 0 for i in range(3))

    g = to_adjacency(Caterpillar(2, (1, 0)))
    d = bfs_distances(g)
    assert d[2][1] == 2  # leaf to far spine node
    assert d == [list(row) for row in zip(*d)]  # symmetric


def test_bfs_distance_table_guard():
    g = to_adjacency(Caterpillar(2, (4000, 0)))
    with pytest.raises(ResourceLimitError, match="guard"):
        wiener_bfs(g)


def test_exact_moments_invariant_survives_optimize():
    """The variance invariant is checked even under ``python -O``."""
    with pytest.raises(DomainError):
        ExactMoments(Fraction(1), Fraction(2), Fraction(5), 1, 1)
    code = (
        "from fractions import Fraction\n"
        "from catlab.errors import DomainError\n"
        "from catlab.oracle import ExactMoments\n"
        "try:\n"
        "    ExactMoments(Fraction(1), Fraction(2), Fraction(5), 1, 1)\n"
        "except DomainError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('inconsistent ExactMoments was accepted')\n"
    )
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_bfs_disconnected_error():
    g = AdjacencyGraph(node_count=3, adjacency=((1,), (0,), ()))
    with pytest.raises(DomainError, match="disconnected"):
        bfs_distances(g)


def test_eccentricity_structure():
    """Max distance = (m-1) + [leaf at end 0] + [leaf at end m-1]."""
    for m in (2, 3, 4):
        for n in range(0, 6):
            for counts in compositions(n, m):
                c = Caterpillar(m, counts)
                d = bfs_distances(to_adjacency(c))
                got = max(max(row) for row in d)
                want = (m - 1) + (counts[0] > 0) + (counts[-1] > 0)
                assert got == want


def test_wiener_bfs_hand_values():
    assert wiener_bfs(to_adjacency(new_spine(3))) == 4
    assert hyper_wiener_bfs(to_adjacency(new_spine(3))) == 10
    g = to_adjacency(Caterpillar(2, (1, 0)))
    assert wiener_bfs(g) == 4
    assert hyper_wiener_bfs(g) == 10
    assert bfs_distance_sums(g) == (4, 6)  # distances 1, 1, 2


def test_one_step_successors():
    succ = one_step_successors(new_spine(2))
    assert {s.leaf_counts for s in succ} == {(1, 0), (0, 1)}

    c = new_spine(3)
    values = [zagreb(s) for s in one_step_successors(c)]
    assert values == [10, 12, 10]
    assert Fraction(sum(values), 3) == Fraction(32, 3)
    # successor increments follow 2 D_i + 2
    rng = RngSeed(44).generator()
    for _ in range(25):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(0, 40))
        state = sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator())
        degs = spine_degrees(state)
        for i, s in enumerate(one_step_successors(state)):
            assert zagreb(s) == zagreb(state) + 2 * degs[i] + 2


def test_martingale_residual_exact_zero():
    assert martingale_residual(new_spine(3)) == 0
    assert martingale_residual(Caterpillar(2, (5, 1))) == 0
    rng = RngSeed(777).generator()
    for _ in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(0, 101))
        c = sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator())
        assert martingale_residual(c) == 0


def test_supermartingale_gap_nonnegative():
    rng = RngSeed(778).generator()
    for _ in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(0, 101))
        c = sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator())
        assert randic_supermartingale_gap(c) >= 0


def test_conditional_variance_scaling():
    """Empirical Var[Z_n]/n^2 within 10% of 2(m-1)/m^2 at m=10, n=1e4."""
    from catlab.experiments import ExperimentConfig, run_mc
    from catlab.indices import IndexSpec
    from catlab.theory import zagreb_clt_variance

    m, n = 10, 10**4
    summary = run_mc(
        ExperimentConfig(
            m=m, n=n, replications=10**4, seed=606,
            indices=(IndexSpec("zagreb"),), sampler="direct",
        )
    )
    scaled_var = summary.variance("zagreb") / n**2
    target = float(zagreb_clt_variance(m).value)
    assert abs(scaled_var - target) < 0.1 * target
