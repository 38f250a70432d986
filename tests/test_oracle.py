"""Enumeration oracle, BFS distance sums, one-step laws, martingale checks."""

import itertools
import math
import operator
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from catlab import oracle, theory
from catlab.caterpillar import AdjacencyGraph, Caterpillar, RngSeed, new_spine, to_adjacency
from catlab.errors import DomainError, ResourceLimitError
from catlab.indices import IndexSpec, compute_index, randic, zagreb
from catlab.oracle import (
    ExactMoments,
    bfs_distance_sums_many,
    choose_method,
    compositions,
    enumerate_exact,
    hyper_wiener_bfs,
    multinomial_coefficient,
    one_step_means,
    one_step_successors,
    wiener_bfs,
)
from catlab.caterpillar import spine_degrees
from catlab.theory import zagreb_mean
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


def reference_moments(m, n, index):
    """The per-tuple formulation the block-built paths replaced: each
    stars-and-bars composition as a tuple, weighted by its multinomial
    coefficient and evaluated by the scalar ``compute_index``, with the
    moments summed as Fractions."""
    spec = IndexSpec.parse(index)
    top = (n,)
    values, weights = [], []
    for cuts in itertools.combinations_with_replacement(range(n + 1), m - 1):
        counts = tuple(map(operator.sub, cuts + top, (0, *cuts)))
        values.append(Fraction(compute_index(Caterpillar(m, counts), spec)))
        weights.append(multinomial_coefficient(counts))
    histories = m**n
    return ExactMoments(
        mean=sum(map(operator.mul, weights, values)) / histories,
        second_moment=sum(w * v * v for w, v in zip(weights, values)) / histories,
        support_size=len(set(values)),
        history_count=histories,
    )


def test_enumeration_paths_agree():
    """Counted history weights (histories) and multinomial weights of the
    block-built compositions (compositions) both equal the per-tuple
    reference, support sizes included, for every m <= 6 and n <= 8."""
    for index in INDICES:
        for m in range(2, 7):
            for n in range(0, 9):
                want = reference_moments(m, n, index)
                for method in ("histories", "compositions"):
                    assert enumerate_exact(m, n, index, method=method) == want, (index, m, n)


@pytest.mark.parametrize("m,n", [(10, 6), (3, 9), (4, 0)])
def test_histories_path_steps_each_state_once(monkeypatch, m, n):
    """The histories path steps the C(n+m-1, m) states of levels 0..n-1,
    each once, and never walks the m^n histories themselves."""
    calls = []
    real = oracle._successor_counts
    monkeypatch.setattr(oracle, "_successor_counts", lambda x: calls.append(x) or real(x))
    em = enumerate_exact(m, n, "zagreb", method="histories")
    assert len(calls) == len(set(calls)) == math.comb(n + m - 1, m)
    assert em.history_count == m**n


@pytest.mark.parametrize("m,n", [(10, 6), (2, 22)])
def test_enumeration_paths_agree_on_millions_of_histories(m, n):
    """10^6 and 4.2 million histories, within the guard the histories chain
    runs under: its C(n+m-1, m) stepped states x m successors x m cells."""
    assert math.comb(n + m - 1, m) * m * m <= oracle.ENUMERATION_GUARD
    for index in INDICES:
        want = reference_moments(m, n, index)
        for method in ("histories", "compositions"):
            assert enumerate_exact(m, n, index, method=method) == want, (index, method)


def traced_peak(f):
    """The tracemalloc peak, in bytes, of calling ``f()``."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_histories_guard_follows_the_chain(monkeypatch):
    """(10, 7) has 10^7 histories of 10 cells, past the guard, but the chain
    steps C(16,10) = 8,008 states into 10 successors of 10 cells each."""
    assert math.comb(16, 10) * 10 * 10 <= oracle.ENUMERATION_GUARD < 10**7 * 10
    histories = enumerate_exact(10, 7, "zagreb", method="histories")
    assert histories == enumerate_exact(10, 7, "zagreb", method="compositions")
    # Its levels hold leaf-count tuples, not Caterpillars: the 11,440 states
    # of level 7 peak at 3.1 MiB, where a Counter of Caterpillars took 4.4.
    assert traced_peak(lambda: enumerate_exact(10, 7, "zagreb", method="histories")) < 4 * 2**20
    # Refusals come before the first step, however large the chain: one
    # state of 10^5 successors of 10^5 cells, and C(2000002,3) states.
    monkeypatch.setattr(oracle, "_successor_counts", None)
    for m, n in ((100_000, 1), (3, 2_000_000)):
        with pytest.raises(ResourceLimitError, match="use the composition method"):
            enumerate_exact(m, n, "zagreb", method="histories")


@pytest.mark.parametrize("rows_per_block", [1, 7, None])
def test_composition_block_size_does_not_matter(monkeypatch, rows_per_block):
    """Blocks of 1 and 7 states, and one block of every state, agree on both
    paths, and ``compositions`` yields the same tuples in the same order."""
    methods = ("histories", "compositions")
    cases = [(5, 20, index, "compositions") for index in ("gini_degree", "hoover", "hyper_wiener")]
    cases += [(3, 6, index, method) for index in INDICES for method in methods]
    wants = [enumerate_exact(m, n, index, method=method) for m, n, index, method in cases]
    assert wants[0].mean.denominator > 1  # Gini at (5, 20) is Fraction-valued
    for (m, n, index, method), want in zip(cases, wants):
        states = math.comb(n + m - 1, m - 1)
        monkeypatch.setattr(oracle, "BLOCK_CELLS", (rows_per_block or states) * m)
        assert enumerate_exact(m, n, index, method=method) == want, (m, n, index, method)
        assert list(compositions(n, m)) == list(recursive_compositions(n, m))


def test_composition_path_streams_blocks():
    """All 10,626 states at (5, 20) are never held at once: each block is
    built as one int64 matrix, not from a tuple per state (365 KiB then)."""
    assert traced_peak(lambda: enumerate_exact(5, 20, "hyper_wiener")) <= 0.4 * 2**20


@pytest.mark.parametrize("m,n", [(2, 62), (3, 39), (2, 63), (3, 40)])
def test_composition_weights_on_either_side_of_int64(m, n):
    """Below 2^63 histories the weights come from the int64 Pascal table,
    from 2^63 on from math.comb; both paths agree on either side."""
    assert (m**n < 2**63) == (n < {2: 63, 3: 40}[m])
    for index in ("zagreb", "hyper_wiener"):
        want = enumerate_exact(m, n, index, method="histories")
        assert enumerate_exact(m, n, index, method="compositions") == want, (m, n, index)


@pytest.mark.parametrize("m,n,per_state", [(2, 62, False), (5, 20, False), (2, 63, True)])
def test_multinomial_coefficient_runs_only_from_2_to_the_63_histories(monkeypatch, m, n, per_state):
    calls = []
    real = oracle.multinomial_coefficient
    monkeypatch.setattr(oracle, "multinomial_coefficient", lambda c: calls.append(c) or real(c))
    enumerate_exact(m, n, "zagreb")
    assert calls == ([list(c) for c in compositions(n, m)] if per_state else [])


def test_enumerate_guard_and_method_choice():
    with pytest.raises(ResourceLimitError, match="guard"):
        enumerate_exact(2, 3000, "zagreb", method="histories")
    # The histories guard counts the cells the chain builds: m successors of
    # m cells for each of the C(n+m-1, m) states it steps.  Exactly the
    # guard is allowed and guard - 1 is not: 2^2 x C(4,2) = 24, 3^2 x C(4,3) = 36
    assert enumerate_exact(2, 3, "zagreb", method="histories", guard=24).history_count == 8
    assert enumerate_exact(3, 2, "zagreb", method="histories", guard=36).history_count == 9
    for m, n, guard, size in ((2, 3, 23, "C\\(4,2\\)"), (3, 2, 35, "C\\(4,3\\)")):
        with pytest.raises(ResourceLimitError, match=f"stepping {size} states, each to {m} "):
            enumerate_exact(m, n, "zagreb", method="histories", guard=guard)
    # C(4,2) = 6 compositions of 3 cells each
    assert enumerate_exact(3, 2, "zagreb", method="compositions", guard=18).history_count == 9
    with pytest.raises(ResourceLimitError, match="C\\(4,2\\) compositions"):
        enumerate_exact(3, 2, "zagreb", method="compositions", guard=17)
    # auto is the compositions path wherever it used to pick histories (n <= 12
    # and m^n x m within the default guard), and on either side of that rule
    for m, n in ((2, 40), (2, 5), (3162, 1), (3163, 1)):
        assert choose_method(m, n) == "compositions", (m, n)
    for n in range(1, 13):
        m = 2
        while m**n * m <= oracle.ENUMERATION_GUARD:
            assert choose_method(m, n) == "compositions", (m, n)
            m += 1
    # and under a guard the chain would exceed: 2^2 x C(3,2) = 12 cells > 8
    assert choose_method(2, 2, guard=8) == "compositions"
    for method in ("histories", "compositions"):
        assert choose_method(2, 5, method) == method
    assert enumerate_exact(2, 2, "zagreb", guard=8).mean == 11
    # 2^40 histories, but the chain steps C(41,2) = 820 states
    em = enumerate_exact(2, 40, "zagreb")
    assert em.mean == Fraction(40 * 40, 2) + Fraction(7 * 40, 2) + 2
    assert enumerate_exact(2, 40, "zagreb", method="histories") == em
    with pytest.raises(DomainError):
        enumerate_exact(2, 3, "zagreb", method="sideways")
    # the bare spine is one state of m cells, exact up to m = 2^21
    for method in ("histories", "compositions"):
        em = enumerate_exact(40_000, 0, "zagreb", method=method)
        assert (em.mean, em.variance) == (zagreb_mean(40_000, 0).value, 0)
        with pytest.raises(DomainError, match="fits_int64"):
            enumerate_exact(2**21, 0, "zagreb", method=method)


def test_enumerate_rejects_irrational_randic():
    for m, n, index in ((2, 2, "randic:-0.5"), (50, 50, "randic:0.5")):
        # rejected before the state count is checked against the guard
        with pytest.raises(DomainError, match="alpha = 1"):
            enumerate_exact(m, n, index)
        with pytest.raises(DomainError, match="alpha = 1"):
            oracle._enumerate_moments(m, n, ["zagreb", index])


def test_one_pass_moments_equal_enumerate_exact_index_by_index():
    """The multi-index core gives each index what enumerate_exact gives it
    alone, on both paths, and refuses what enumerate_exact refuses."""
    for m in range(2, 6):
        for n in range(7):
            for method in ("histories", "compositions"):
                want = [enumerate_exact(m, n, index, method=method) for index in INDICES]
                specs = [IndexSpec.parse(index) for index in INDICES]
                for indices, moments in ((INDICES, want), (specs, want), (specs[::-1], want[::-1])):
                    assert oracle._enumerate_moments(m, n, indices, method) == moments, (m, n)
    assert oracle._enumerate_moments(3, 2, []) == []
    # the guards of test_enumerate_guard_and_method_choice, with every index
    assert oracle._enumerate_moments(3, 2, INDICES, "histories", guard=36)[0].history_count == 9
    with pytest.raises(ResourceLimitError, match="stepping C\\(4,3\\) states"):
        oracle._enumerate_moments(3, 2, INDICES, "histories", guard=35)
    assert oracle._enumerate_moments(3, 2, INDICES, "compositions", guard=18)[0].history_count == 9
    with pytest.raises(ResourceLimitError, match="C\\(4,2\\) compositions"):
        oracle._enumerate_moments(3, 2, INDICES, "compositions", guard=17)
    with pytest.raises(DomainError, match="fits_int64"):
        oracle._enumerate_moments(2**21, 0, INDICES)


def recursive_compositions(n, m):
    """The first-part-outermost recursion: lexicographic by construction."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in recursive_compositions(n - first, m - 1):
            yield (first,) + rest


def test_compositions_lexicographic():
    for m in range(1, 7):
        for n in range(9):
            assert list(compositions(n, m)) == list(recursive_compositions(n, m)), (m, n)
    for n in (3, 0):
        with pytest.raises(DomainError, match="m >= 1"):
            list(compositions(n, 0))
    # A negative sum is refused, not read as no compositions or left to math.comb.
    for n, m in ((-1, 2), (-3, 2), (-1, 1)):
        with pytest.raises(DomainError, match="n >= 0"):
            list(compositions(n, m))


def test_compositions_long_spine():
    """m = 2000 is within the guard and deeper than the recursion limit."""
    states = list(compositions(1, 2000))
    assert len(states) == 2000
    assert states[0] == (0,) * 1999 + (1,) and states[-1] == (1,) + (0,) * 1999


def test_multinomial_coefficients_sum_to_histories():
    for m in (2, 3, 4):
        for n in range(0, 7):
            assert sum(multinomial_coefficient(c) for c in compositions(n, m)) == m**n


def test_multinomial_coefficient_is_n_factorial_over_parts():
    for m in range(1, 7):
        for n in range(9):
            for c in compositions(n, m):
                want = math.factorial(n) // math.prod(map(math.factorial, c))
                assert multinomial_coefficient(c) == want, c


def test_multinomial_coefficient_skips_zero_parts(monkeypatch):
    calls = []
    comb = math.comb
    monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or comb(*a))
    assert multinomial_coefficient((0,) * 1199 + (1,)) == 1
    assert len(calls) == 1


def bfs_levels(graphs):
    """Each graph's ordered pair counts at distance 1, 2, ... from one
    stacked BFS, without the zeros that pad its row past its diameter."""
    return [[c for c in counts if c] for counts in oracle._bfs_levels(graphs).tolist()]


def test_bfs_distances_basics():
    """Ordered pairs at distance 1, 2, ...: each unordered pair counts twice."""
    assert bfs_levels([to_adjacency(new_spine(3))]) == [[4, 2]]
    assert bfs_levels([to_adjacency(Caterpillar(2, (1, 0)))]) == [[4, 2]]
    # leaves x, y on the two ends of a-b-c: x-y is the one pair at distance 4
    assert bfs_levels([to_adjacency(Caterpillar(3, (1, 0, 1)))]) == [[8, 6, 4, 2]]
    assert bfs_levels([]) == [] and bfs_distance_sums_many([]) == []


def refused_peak(bfs, graphs, message):
    """The tracemalloc peak of a call refused with exactly ``message``."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as refused:
            bfs(graphs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == message
    return peak


def test_bfs_distance_table_guard():
    """N^2 > ENUMERATION_GUARD is refused before the bitsets exist."""
    g = to_adjacency(Caterpillar(2, (4000, 0)))
    message = "BFS distance table of 4002^2 = 16016004 cells exceeds the guard of 10000000"
    for bfs, graphs in ((wiener_bfs, g), (bfs_distance_sums_many, [g])):
        assert refused_peak(bfs, graphs, message) < 64 * 2**10


def test_bfs_stack_guard():
    """G x N^2 > ENUMERATION_GUARD is refused before the bitsets exist,
    though each graph of the stack fits on its own."""
    g = to_adjacency(Caterpillar(2, (1998, 0)))
    assert bfs_distance_sums_many([g, g]) == bfs_distance_sums_many([g]) * 2
    message = "BFS distance table of 3 x 2000^2 = 12000000 cells exceeds the guard of 10000000"
    assert refused_peak(bfs_distance_sums_many, [g] * 3, message) < 64 * 2**10


def test_bfs_neighbour_rows_guard():
    """A dense graph within the table guard still has its gather bounded,
    refused before any neighbour row is built."""
    size = 900  # 810,000 cells, but 900 + 2 x 404,550 gathered rows of 15 words
    g = AdjacencyGraph(size, tuple(itertools.combinations(range(size), 2)))
    message = "BFS neighbour rows of 810000 x 15 words exceed the guard of 10000000"
    assert refused_peak(bfs_distance_sums_many, [g], message) < 64 * 2**10


def floyd_warshall(g):
    """All-pairs distances by brute-force relaxation through every node."""
    dist = np.full((g.node_count, g.node_count), g.node_count, dtype=np.int64)
    for u, v in g.edges:
        dist[u, v] = dist[v, u] = 1
    np.fill_diagonal(dist, 0)  # after the edges: a self-loop is no distance
    for k in range(g.node_count):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    return dist


def generic_graphs():
    rng = np.random.default_rng(1414)
    tree = [(v, int(rng.integers(0, v))) for v in range(1, 130)]
    chords = [tuple(map(int, rng.choice(130, size=2, replace=False))) for _ in range(40)]
    return {
        "cycle C_7": AdjacencyGraph(7, tuple((v, (v + 1) % 7) for v in range(7))),
        "complete K_5": AdjacencyGraph(5, tuple(itertools.combinations(range(5), 2))),
        "4x4 grid": AdjacencyGraph(16, tuple((v, v + 1) for v in range(16) if v % 4 < 3)
                                   + tuple((v, v + 4) for v in range(12))),
        "one node": AdjacencyGraph(1, ()),
        "130 nodes, 3 words a row": AdjacencyGraph(130, tuple(tree + chords)),
        # A row ORs in only its non-pendant neighbours' rows: none here (only
        # the hub has a row), one, or several.
        "star K_{1,6}": AdjacencyGraph(7, tuple((0, v) for v in range(1, 7))),
        "K_2": AdjacencyGraph(2, ((0, 1),)),
        "path P_5": AdjacencyGraph(5, tuple((v, v + 1) for v in range(4))),
        "C_6 with a pendant P_4": AdjacencyGraph(
            9, tuple((v, (v + 1) % 6) for v in range(6)) + ((0, 6), (6, 7), (7, 8))
        ),
        # 0's first neighbour is the leaf 1, its others the hubs 2 and 3;
        # 7's first neighbour is the leaf 8, its other the hub 3.
        "hubs whose first neighbour is a leaf": AdjacencyGraph(
            9, ((0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (2, 6), (7, 8), (3, 7))
        ),
        # three 2-paths from the hub 0: three pendants, each two steps away
        "spider": AdjacencyGraph(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6))),
        # the leaf 3 has degree 2 through its repeated edge, so it keeps a row
        "leaf doubled by a repeated edge": AdjacencyGraph(4, ((0, 1), (1, 2), (1, 3), (1, 3))),
        # the path end 3 has degree 3 through its self-loop, the end 0 is a pendant
        "self-loop on a path end": AdjacencyGraph(4, ((0, 1), (1, 2), (2, 3), (3, 3))),
    }


@pytest.mark.parametrize("name", list(generic_graphs()))
def test_bfs_matches_floyd_warshall_on_generic_graphs(name):
    g = generic_graphs()[name]
    want = floyd_warshall(g)
    assert bfs_levels([g]) == [floyd_warshall_levels(want)]
    assert bfs_distance_sums_many([g]) == [floyd_warshall_sums(want)]


def floyd_warshall_levels(dist):
    """The distance histogram, ordered pairs, without the diagonal's zeros."""
    return np.bincount(dist.ravel())[1:].tolist()


def floyd_warshall_sums(dist):
    upper = dist[np.triu_indices(len(dist), 1)]
    return int(upper.sum()), int((upper * upper).sum())


@pytest.mark.parametrize("first, second", [
    ("cycle C_7", AdjacencyGraph(7, tuple((v, v + 1) for v in range(6)))),  # the 7-node path
    ("complete K_5", AdjacencyGraph(5, tuple((0, v) for v in range(1, 5)))),  # the 5-node star
], ids=["C_7 and P_7", "K_5 and star"])
def test_bfs_stack_matches_floyd_warshall(first, second):
    """Graphs of one node count but different diameters share one BFS."""
    graphs = [generic_graphs()[first], second, second, generic_graphs()[first]]
    dists = [floyd_warshall(g) for g in graphs]
    assert bfs_levels(graphs) == [floyd_warshall_levels(d) for d in dists]
    assert bfs_distance_sums_many(graphs) == [floyd_warshall_sums(d) for d in dists]


def test_bfs_first_neighbour_and_hub_split_matches_floyd_warshall():
    """From level 2 on a row ORs in its first and second non-pendant
    neighbours' rows (its own where it has none) and, unbuffered, the rest
    of them.  Mixed stacks of nodes with no neighbour, with one
    (leaves, path ends), with two and with up to 40 agree with brute force
    in every order."""
    graphs = generic_graphs()
    mixed = [
        AdjacencyGraph(1, ()),
        AdjacencyGraph(41, tuple((0, v) for v in range(1, 41))),  # the star K_{1,40}
        AdjacencyGraph(9, tuple((v, v + 1) for v in range(8))),  # the 9-node path
        graphs["cycle C_7"],
        graphs["130 nodes, 3 words a row"],
        AdjacencyGraph(2, ((1, 0),)),  # K_2: no hub, and no pendant
    ]
    want = {id(g): floyd_warshall(g) for g in mixed}
    orders = [mixed, mixed[::-1], mixed[1::2] + mixed[::2], [mixed[0]] * 3, mixed[1:2] * 2]
    # K_2 and one node keep a row for every node, the star for its hub only
    orders += [[mixed[5], mixed[0], mixed[1]], [mixed[1], mixed[5], mixed[0], mixed[1]]]
    for graphs in orders:
        dists = [want[id(g)] for g in graphs]
        assert bfs_levels(graphs) == [floyd_warshall_levels(d) for d in dists]
        assert bfs_distance_sums_many(graphs) == [floyd_warshall_sums(d) for d in dists]
    # A node with no neighbour is its own first neighbour; next to other
    # nodes it is never reached, so its graph is refused wherever it stands.
    isolated = AdjacencyGraph(3, ((0, 1),))
    for k in range(len(mixed) + 1):
        with pytest.raises(DomainError, match="graph is disconnected"):
            bfs_distance_sums_many(mixed[:k] + [isolated] + mixed[k:])


class GatheredRows:
    """A stand-in for ``oracle.np``: numpy, except that the reached table it
    makes records the rows its gathers read, level by level, a level ending
    at its popcount."""

    def __init__(self):
        self.shapes = []
        self.levels = [set()]
        levels = self.levels

        class Table(np.ndarray):
            def take(self, indices, axis=None, **kwargs):
                levels[-1].update(np.asarray(indices).tolist())
                return super().take(indices, axis=axis, **kwargs)

        self.table = Table

    def zeros(self, shape, dtype=float):
        zeros = np.zeros(shape, dtype)
        if np.dtype(dtype) != np.uint64 or len(zeros.shape) != 2:
            return zeros
        self.shapes.append(zeros.shape)
        return zeros.view(self.table)

    def bitwise_count(self, words):
        self.levels.append(set())
        return np.bitwise_count(words)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("c, rows, nodes, diameter", [
    (Caterpillar(4, (2, 9, 1, 2)), 4, 18, 5),  # every spine node holds a leaf
    (Caterpillar(5, (0, 3, 0, 2, 0)), 3, 10, 4),  # its leafless spine ends are pendants
], ids=["4-of-18", "3-of-10"])
def test_bfs_gathers_read_only_non_pendant_rows(monkeypatch, c, rows, nodes, diameter):
    """Only the non-pendant nodes have rows: 4 of 18, and 3 of 10.  Level 1
    is written from the edge list and reads no row; each later level reads
    every row and no other.  Keeping every node's row fails this."""
    g = to_adjacency(c)
    degree = np.bincount(np.ravel(g.edges), minlength=g.node_count)
    pendants = {v for u, w in g.edges for v, x in ((u, w), (w, u)) if degree[v] == 1 < degree[x]}
    assert (g.node_count - len(pendants), g.node_count) == (rows, nodes)
    gathered = GatheredRows()
    monkeypatch.setattr(oracle, "np", gathered)
    assert oracle._bfs_levels([g]).shape == (1, diameter)
    assert gathered.shapes == [(rows, 1)]
    assert gathered.levels == [set()] + [set(range(rows))] * (diameter - 1) + [set()]


@pytest.mark.parametrize("count", [-3, 2.5, True, False, np.bool_(True), "3", None])
def test_bfs_refuses_a_node_count_that_is_not_a_non_negative_int(count):
    """Refused before anything is built: -3 would fail inside numpy, 2.5
    would be a TypeError, and True would read as one node."""
    g = AdjacencyGraph(count, ())
    path = to_adjacency(new_spine(3))
    for graphs in ([g], [path, g], [g, path]):
        with pytest.raises(DomainError, match=r"node_count must be a non-negative int, got "):
            bfs_distance_sums_many(graphs)
    assert bfs_distance_sums_many([AdjacencyGraph(np.int64(3), path.edges), path]) == [(4, 6)] * 2


def test_bfs_stack_equals_each_graph_on_the_grid():
    """Every grid point of criterion 7 (m <= 5, n <= 6) as one stack, in order."""
    for m in range(2, 6):
        for n in range(7):
            graphs = [to_adjacency(Caterpillar(m, counts)) for counts in compositions(n, m)]
            singles = [bfs_distance_sums_many([g])[0] for g in graphs]
            assert bfs_distance_sums_many(graphs) == singles, (m, n)


def test_bfs_stack_shifts_narrow_int_ends_without_wrapping():
    """numpy int8 ends are node numbers too; stacking 40 graphs of 6 nodes
    shifts them past 127, where an int8 row number would wrap."""
    g = to_adjacency(Caterpillar(3, (1, 0, 2)))
    narrow = AdjacencyGraph(g.node_count, tuple((np.int8(u), np.int8(v)) for u, v in g.edges))
    assert bfs_distance_sums_many([narrow] * 40) == bfs_distance_sums_many([g]) * 40


def test_bfs_stack_rejects_a_disconnected_member_and_mixed_sizes():
    """Graphs of different node counts share one block-diagonal BFS and get
    their single-graph results.  A disconnected member is still refused, and
    so is an end equal to its own graph's N, which would reach the next
    graph's rows though it lies below the stack's largest N."""
    path = to_adjacency(Caterpillar(2, (1, 2)))
    two_paths = AdjacencyGraph(5, ((0, 1), (1, 2), (3, 4)))
    for graphs in ([path, two_paths], [two_paths, path, path], [path, path, two_paths]):
        with pytest.raises(DomainError, match="graph is disconnected"):
            bfs_distance_sums_many(graphs)
    longer = to_adjacency(Caterpillar(2, (5, 0)))
    graphs = [path, longer, *generic_graphs().values(), AdjacencyGraph(0, ()), path]
    assert bfs_levels(graphs) == [bfs_levels([g])[0] for g in graphs]
    assert bfs_distance_sums_many(graphs) == [bfs_distance_sums_many([g])[0] for g in graphs]
    # A 0-node graph counts no pair at the end of a stack and in a stack of
    # 0-node graphs only, through both entries.
    empty = AdjacencyGraph(0, ())
    for graphs in ([path, longer, empty], [empty], [empty] * 3):
        sums = [bfs_distance_sums_many([g])[0] for g in graphs]
        assert bfs_levels(graphs) == [bfs_levels([g])[0] for g in graphs]
        assert bfs_distance_sums_many(graphs) == sums
        assert oracle._bfs_distance_sums_arrays(*as_arrays(graphs)) == sums
        assert sums[-1] == (0, 0)
    for graphs in ([longer, two_paths, path], [two_paths, longer]):
        with pytest.raises(DomainError, match="graph is disconnected"):
            bfs_distance_sums_many(graphs)
    reaching = AdjacencyGraph(5, path.edges + ((4, 5),))
    for graphs in ([reaching, longer], [longer, reaching, path]):
        with pytest.raises(DomainError, match=r"outside the nodes \[0, 5\)"):
            bfs_distance_sums_many(graphs)
    # The guard sums N^2 over the stack: 2 x 2000^2 + 1502^2.
    wide, narrow = to_adjacency(Caterpillar(2, (1998, 0))), to_adjacency(Caterpillar(2, (1500, 0)))
    message = ("BFS distance table of 3 graphs of 1502 to 2000 nodes = 10256004 cells"
               " exceeds the guard of 10000000")
    assert refused_peak(bfs_distance_sums_many, [wide, narrow, wide], message) < 64 * 2**10


def as_arrays(graphs):
    """A stack as the array entry reads it: node counts, edge counts, (E, 2) ends."""
    ends = [end for g in graphs for edge in g.edges for end in edge]
    return (
        np.array([g.node_count for g in graphs], dtype=np.int64),
        np.array([len(g.edges) for g in graphs], dtype=np.int64),
        np.array(ends, dtype=np.int64).reshape(-1, 2),
    )


def test_bfs_array_entry_equals_the_graph_entry():
    """The array entry runs the same core on the same graphs: generic ones
    alone, a mixed-size stack, and criterion 7's largest grid point.  It
    leaves the caller's ends as they were, though the core shifts each
    graph's ends to its rows in the stack."""
    graphs = generic_graphs()
    mixed = [
        to_adjacency(Caterpillar(2, (1, 2))), graphs["130 nodes, 3 words a row"],
        AdjacencyGraph(0, ()), graphs["cycle C_7"], graphs["one node"],
        to_adjacency(Caterpillar(4, (3, 0, 0, 5))),
    ]
    grid = [to_adjacency(Caterpillar(5, counts)) for counts in compositions(6, 5)]
    stacks = [[g] for g in graphs.values()] + [mixed, grid, []]
    for stack in stacks:
        arrays = as_arrays(stack)
        ends = arrays[2].copy()
        assert oracle._bfs_distance_sums_arrays(*arrays) == bfs_distance_sums_many(stack)
        assert np.array_equal(arrays[2], ends)


def test_bfs_array_entry_refuses_an_end_outside_its_graph():
    """An end of N_g lies below the stack's largest N but would reach the
    next graph's rows; a negative end reads as a huge one."""
    path = to_adjacency(Caterpillar(2, (1, 2)))
    longer = to_adjacency(Caterpillar(2, (5, 0)))
    for bad in ((4, 5), (-1, 0)):
        reaching = AdjacencyGraph(5, path.edges + (bad,))
        for stack in ([reaching, longer], [longer, reaching, path]):
            message = re.escape("an edge end lies outside the nodes [0, 5)")
            with pytest.raises(DomainError, match=message):
                oracle._bfs_distance_sums_arrays(*as_arrays(stack))
            with pytest.raises(DomainError, match=message):
                bfs_distance_sums_many(stack)


def test_bfs_array_entry_guards_refuse_before_allocating():
    """Both guards of the shared core refuse the array entry's stack with the
    graph entry's message, before any row is built."""
    size = 900
    dense = AdjacencyGraph(size, tuple(itertools.combinations(range(size), 2)))
    cases = [
        ([to_adjacency(Caterpillar(2, (4000, 0)))],
         "BFS distance table of 4002^2 = 16016004 cells exceeds the guard of 10000000"),
        ([to_adjacency(Caterpillar(2, (1998, 0)))] * 3,
         "BFS distance table of 3 x 2000^2 = 12000000 cells exceeds the guard of 10000000"),
        ([dense], "BFS neighbour rows of 810000 x 15 words exceed the guard of 10000000"),
    ]
    def entry(arrays):
        return oracle._bfs_distance_sums_arrays(*arrays)

    for graphs, message in cases:
        assert refused_peak(entry, as_arrays(graphs), message) < 64 * 2**10


def test_bfs_refuses_malformed_edges():
    """An end outside [0, N) or an edge that is not a pair of ints is refused,
    alone or in a stack; a stacked end of N would reach the next graph's rows.
    A float, string or bool end, or a bare int, must not be read as a nearby
    pair: (1, 2), (1, 2), (1, 0) and the self-loop (2, 2)."""
    path3 = to_adjacency(new_spine(3))
    outside = r"outside the nodes \[0, 3\)"
    cases = [((2, 3), outside), ((1, -1), outside), ((0, 1, 2), "pair"), ((2,), "pair")]
    cases += [(bad, "pair") for bad in ((1.5, 2), ("1", 2), 2, (True, False))]
    # numpy reads a bytes or str edge as one scalar, a numpy bool or float
    # end is no node number, and an end past int64 (or a uint64 next to an
    # int) turns the ends from int.
    cases += [(bad, "pair") for bad in (
        b"\x01\x02", np.bytes_(b"\x01\x02"), "12", (np.bool_(True), 2), (np.float64(1.0), 2),
        (1, 2**70), (1, np.uint64(2**63)),
    )]
    for bad, match in cases:
        g = AdjacencyGraph(3, ((0, 1), (1, 2), bad))
        for graphs in ([g, path3], [path3, g], [g]):
            with pytest.raises(DomainError, match=match):
                bfs_distance_sums_many(graphs)
    # Narrow numpy ints, a list and an int array are pairs: (1, 2) again.
    for good in ((np.uint8(1), np.uint8(2)), [1, 2], np.array([1, 2])):
        assert bfs_distance_sums_many([AdjacencyGraph(3, ((0, 1), (1, 2), good))]) == [(4, 6)]


def test_bfs_hand_values_on_generic_graphs():
    graphs = generic_graphs()
    assert bfs_distance_sums_many([graphs["cycle C_7"]]) == [(7 * (1 + 2 + 3), 7 * (1 + 4 + 9))]
    assert bfs_distance_sums_many([graphs["complete K_5"]]) == [(10, 10)]


def test_bfs_disconnected_error():
    isolated = AdjacencyGraph(node_count=3, edges=((0, 1),))
    two_paths = AdjacencyGraph(5, ((0, 1), (1, 2), (3, 4)))
    for g in (isolated, two_paths):
        for bfs, graphs in ((wiener_bfs, g), (bfs_distance_sums_many, [g])):
            with pytest.raises(DomainError, match="graph is disconnected"):
                bfs(graphs)


def test_eccentricity_structure():
    """Max distance (the number of BFS levels) = (m-1) + [leaf at end 0]
    + [leaf at end m-1]."""
    for m in (2, 3, 4):
        for n in range(0, 6):
            states = list(compositions(n, m))
            levels = bfs_levels([to_adjacency(Caterpillar(m, c)) for c in states])
            for counts, got in zip(states, levels, strict=True):
                assert len(got) == (m - 1) + (counts[0] > 0) + (counts[-1] > 0)


def test_wiener_bfs_hand_values():
    assert wiener_bfs(to_adjacency(new_spine(3))) == 4
    assert hyper_wiener_bfs(to_adjacency(new_spine(3))) == 10
    g = to_adjacency(Caterpillar(2, (1, 0)))
    assert wiener_bfs(g) == 4
    assert hyper_wiener_bfs(g) == 10
    assert bfs_distance_sums_many([g]) == [(4, 6)]  # distances 1, 1, 2


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


ONE_STEP_SPECS = (
    "gini_degree", "hoover", "zagreb", "randic:1", "randic:0.5", "randic:-0.5", "wiener",
    "hyper_wiener",
)


def test_one_step_laws_equal_their_scalar_sums():
    """The batched one-step mean against its scalar form, written out: the
    sum of ``compute_index`` over ``one_step_successors``, over m."""
    rng = RngSeed(779).generator()
    states = [new_spine(2)]
    for _ in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(0, 101))
        states.append(sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator()))
    expected = {text: [] for text in ONE_STEP_SPECS}
    for c in states:
        successors = one_step_successors(c)
        # M_n = Z_n - n(n + 6m - 5)/m, one step on from n = c.n
        drift = Fraction((c.n + 1) * (c.n + 6 * c.m - 4) - c.n * (c.n + 6 * c.m - 5), c.m)
        assert one_step_means([c], "zagreb") == [zagreb(c) + drift]
        for text in ONE_STEP_SPECS:
            spec = IndexSpec.parse(text)
            want = Fraction(sum(compute_index(s, spec) for s in successors)) / c.m
            assert one_step_means([c], spec) == [want]
            assert one_step_means([c], text) == [want]
            expected[text].append(want)
    # all the states at once, their spine lengths mixed, equal them state by state
    for text, want in expected.items():
        got = one_step_means(states, text)
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want], text
    assert one_step_means([], "zagreb") == []
    # (1, 0) and (0, 1) have degrees (2, 1) and (1, 2): R = 2 + 2 either way
    assert one_step_means([new_spine(2)], "randic:1") == [4]


def _martingale_residual(c):
    """One-step drift of the compensated Zagreb index Z_n + beta_n."""
    beta = theory.martingale_compensator
    [mean] = one_step_means([c], "zagreb")
    return mean + beta(c.m, c.n + 1) - zagreb(c) - beta(c.m, c.n)


def test_martingale_residual_exact_zero():
    assert _martingale_residual(new_spine(3)) == 0
    assert _martingale_residual(Caterpillar(2, (5, 1))) == 0
    rng = RngSeed(777).generator()
    for _ in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(0, 101))
        c = sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator())
        assert _martingale_residual(c) == 0


def test_supermartingale_gap_nonnegative():
    rng = RngSeed(778).generator()
    for _ in range(100):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(0, 101))
        c = sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator())
        bound = theory.randic_supermartingale_bound(c.m, c.n + 1, randic(c, 1))
        assert one_step_means([c], "randic:1")[0] - bound >= 0


def test_oracle_binds_nothing_from_theory():
    """The oracles read the index functions only, never the closed forms
    they are checked against."""
    assert not any(value is theory for value in vars(oracle).values())
    assert [
        name for name, value in vars(oracle).items()
        if getattr(value, "__module__", None) == theory.__name__
    ] == []


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
