"""Ground-truth machinery: exhaustive enumeration, BFS distance sums, one-step laws.

The enumeration oracle computes exact rational moments of any rational-valued
index over the uniform growth law, by one of two paths that are kept and
cross-checked.  The histories path steps the law n times from the bare
spine with :func:`one_step_successors`, so each distinct state's weight is
its counted number of growth histories.  The compositions path streams
the leaf-count compositions, weighted by their multinomial coefficients; it
engages automatically for larger n since every index depends on leaf counts
only.  The two paths differ only in where the weights come from: both
evaluate their states in blocks of ``max(1, BLOCK_CELLS // m)`` with
:func:`~catlab.indices.compute_index_batch` and reduce to Python-int sums
over one common denominator (:class:`~catlab.experiments.WeightedSums`), so
no Fraction arithmetic runs per state.  The guard counts cells, states x m,
where the histories path counts its m^n histories as states.

The BFS oracle is a generic graph algorithm that knows nothing of spines or
leaves, so it stays independent of the edge-cut formula it checks.  It runs
one level-synchronous BFS from every node at once: node v's reached set is a
row of ceil(N/64) uint64 words, and each level ORs together the rows of v's
closed neighbourhood (``np.bitwise_or.reduceat`` over a CSR neighbour list).
The bits a level sets are the ordered pairs at that distance, and only these
per-level counts are kept; no distance table is built.  Bits are counted
with ``np.unpackbits``, since ``np.bitwise_count`` needs numpy 2.0 and the
floor is 1.24.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .caterpillar import AdjacencyGraph, Caterpillar, _check_mn, new_spine
from .errors import DomainError, ResourceLimitError
from .experiments import WeightedSums
from .indices import IndexSpec, _check_int64, compute_index_batch, randic, zagreb
from .theory import martingale_compensator, randic_supermartingale_bound

__all__ = [
    "ExactMoments",
    "ENUMERATION_GUARD",
    "BLOCK_CELLS",
    "choose_method",
    "compositions",
    "multinomial_coefficient",
    "enumerate_exact",
    "bfs_distance_sums",
    "wiener_bfs",
    "hyper_wiener_bfs",
    "one_step_successors",
    "martingale_residual",
    "randic_one_step_mean",
    "randic_supermartingale_gap",
]

ENUMERATION_GUARD = 10**7

# The compositions path holds max(1, BLOCK_CELLS // m) states at a time.  Each
# state carries a count tuple, weight, value and ratio as Python objects next
# to its int64 row, so the block is a quarter of the replicate engine's: at
# (5, 20), 204 states per block keep the tracemalloc peak at 0.25 MiB, where
# 819 states reached 0.53 MiB and ran no faster.
BLOCK_CELLS = 1024


@dataclass(frozen=True)
class ExactMoments:
    """Exact rational moments of an index over all equally likely histories."""

    mean: Fraction
    second_moment: Fraction
    variance: Fraction
    support_size: int
    history_count: int

    def __post_init__(self):
        if self.variance != self.second_moment - self.mean * self.mean:
            raise DomainError("variance must equal second_moment - mean^2")


def compositions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All m-tuples of non-negative integers summing to n, in lexicographic order.

    Stars and bars: the m - 1 bars stand at cut points 0 <= c_1 <= ... <= n
    among the n stars, and the parts are the gaps between successive cuts.
    """
    top = (n,)
    for cuts in itertools.combinations_with_replacement(range(n + 1), m - 1):
        # Through a list: tuple() of a lazy map would allocate a larger
        # tuple and shrink it, piling freed tuples up.
        yield tuple(list(map(operator.sub, cuts + top, (0, *cuts))))


def multinomial_coefficient(counts) -> int:
    """Number of growth histories producing the given leaf counts."""
    total = 0
    coeff = 1
    # zero parts contribute C(total, 0) = 1, and long spines are mostly zeros
    for c in filter(None, counts):
        total += c
        coeff *= math.comb(total, c)
    return coeff


def choose_method(m: int, n: int, method: str = "auto", guard: int = ENUMERATION_GUARD) -> str:
    """Resolve the enumeration path: raw histories for small n, else compositions.

    ``auto`` takes histories while n <= 12 and their m^n x m cells fit the guard.
    """
    if method not in ("auto", "histories", "compositions"):
        raise DomainError(f"unknown enumeration method {method!r}")
    if method != "auto":
        return method
    return "histories" if n <= 12 and m**n * m <= guard else "compositions"


def enumerate_exact(
    m: int,
    n: int,
    index: IndexSpec | str,
    method: str = "auto",
    guard: int = ENUMERATION_GUARD,
) -> ExactMoments:
    """Exact mean/variance of an index over the uniform growth law at (m, n).

    ``method`` is ``"histories"`` (n steps of :func:`one_step_successors`
    from the bare spine), ``"compositions"`` (stream leaf-count compositions
    in blocks, with multinomial weights), or ``"auto"`` (compositions once
    n > 12).  The cells of the chosen path, states x m (m^n histories on the
    histories path), must stay within ``guard`` (else
    :class:`ResourceLimitError`), and (m, n) within the batched evaluator's
    exact range :func:`~catlab.indices.fits_int64` (else
    :class:`DomainError`); within the default guard, only n = 0 with
    m >= 2^21 falls outside that range.
    """
    _check_mn(m, n)
    spec = IndexSpec.parse(index) if isinstance(index, str) else index
    if spec.kind == "randic" and spec.alpha != 1:
        raise DomainError(f"exact Randic evaluation requires alpha = 1, got {spec.alpha}")
    method = choose_method(m, n, method, guard)
    _check_int64(m, n)

    if method == "histories":
        # The sizes are stated as m^n and C(., .): str() refuses ints past
        # 4300 digits.  As m >= 2, m^n x m > guard once n + 1 reaches
        # guard's bit length, so a refused m^n is never built.
        if n + 1 >= guard.bit_length() or m**n * m > guard:
            raise ResourceLimitError(
                f"enumeration of {m}^{n} histories of {m} cells exceeds the guard"
                f" of {guard} cells; use the composition method"
            )
        histories = Counter([new_spine(m)])
        for _ in range(n):
            grown = Counter()
            for c, count in histories.items():
                grown.update(dict.fromkeys(one_step_successors(c), count))
            histories = grown
        weighted = ((c.leaf_counts, count) for c, count in histories.items())
    else:
        if math.comb(n + m - 1, m - 1) * m > guard:
            raise ResourceLimitError(
                f"enumeration of C({n + m - 1},{m - 1}) compositions of {m} cells"
                f" exceeds the guard of {guard} cells"
            )
        weighted = ((c, multinomial_coefficient(c)) for c in compositions(n, m))

    history_count = m**n

    sums = WeightedSums(support=set())
    block = max(1, BLOCK_CELLS // m)
    while chunk := list(itertools.islice(weighted, block)):
        states, weights = zip(*chunk)
        sums.add(compute_index_batch(np.array(states, dtype=np.int64), spec), weights)
    mean = Fraction(sums.total, history_count * sums.denominator)
    second = Fraction(sums.total_sq, history_count * sums.denominator**2)
    return ExactMoments(
        mean=mean,
        second_moment=second,
        variance=second - mean * mean,
        support_size=len(sums.support),
        history_count=history_count,
    )


def _bfs_levels(g: AdjacencyGraph) -> list[int]:
    """Level-synchronous BFS from every node at once.

    Returns the number of ordered node pairs at distance 1, 2, ...  Each
    level unpacks an N x N array of fresh bits, so N x N and the gathered
    neighbour rows must stay within ``ENUMERATION_GUARD`` cells.
    """
    size = g.node_count
    if size * size > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"BFS distance table of {size}^2 = {size * size} cells exceeds the"
            f" guard of {ENUMERATION_GUARD}"
        )
    words = -(-size // 64)
    # Closed neighbourhoods (v first): reached sets only grow, and no
    # reduceat segment is empty, not even an isolated node's.
    closed = [(v, *nbrs) for v, nbrs in enumerate(g.adjacency)]
    lengths = np.fromiter(map(len, closed), dtype=np.intp, count=size)
    gathered = int(lengths.sum())
    if gathered * words > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"BFS neighbour rows of {gathered} x {words} words exceed the"
            f" guard of {ENUMERATION_GUARD}"
        )
    nbr = np.fromiter(itertools.chain.from_iterable(closed), dtype=np.intp, count=gathered)
    starts = np.cumsum(lengths) - lengths
    nodes = np.arange(size)
    # Little-endian words, so bit j of a row is bit j % 8 of byte j // 8.
    reached = np.zeros((size, words), dtype="<u8")
    reached.view(np.uint8)[nodes, nodes >> 3] = 1 << (nodes & 7)
    counts: list[int] = []
    unreached = size * size - size
    while unreached:
        step = np.bitwise_or.reduceat(reached.take(nbr, axis=0), starts, axis=0)
        fresh = np.unpackbits(
            (step ^ reached).view(np.uint8), axis=1, count=size, bitorder="little"
        )
        count = int(np.count_nonzero(fresh))
        if not count:
            raise DomainError("graph is disconnected: BFS did not reach every node")
        counts.append(count)
        unreached -= count
        reached = step
    return counts


def bfs_distance_sums(g: AdjacencyGraph) -> tuple[int, int]:
    """(sum of d, sum of d^2) over unordered node pairs, from per-level pair counts.

    No distance table is stored; the guard on N x N still applies.
    """
    counts = _bfs_levels(g)
    total = sum(k * c for k, c in enumerate(counts, 1))
    total_sq = sum(k * k * c for k, c in enumerate(counts, 1))
    return total // 2, total_sq // 2


def wiener_bfs(g: AdjacencyGraph) -> int:
    """Wiener index from explicit BFS distances (unordered pairs)."""
    return bfs_distance_sums(g)[0]


def hyper_wiener_bfs(g: AdjacencyGraph) -> int:
    """Hyper-Wiener index from explicit BFS distances: sum of d + d^2."""
    return sum(bfs_distance_sums(g))


def one_step_successors(c: Caterpillar) -> list[Caterpillar]:
    """The m equally likely states one growth step after ``c``."""
    successors = []
    for i in range(c.m):
        counts = list(c.leaf_counts)
        counts[i] += 1
        successors.append(Caterpillar(m=c.m, leaf_counts=tuple(counts)))
    return successors


def martingale_residual(c: Caterpillar) -> Fraction:
    """One-step drift of the compensated Zagreb index; exactly 0.

    With M_n = Z_n - n(n + 6m - 5)/m, returns the mean of M_n over the m
    successors of ``c`` minus M_{n-1} at ``c``, in exact rational arithmetic.
    """
    m = c.m
    n_prev = c.n
    n_next = n_prev + 1
    mean_z_next = Fraction(sum(zagreb(s) for s in one_step_successors(c)), m)
    m_next = mean_z_next + martingale_compensator(m, n_next)
    m_prev = zagreb(c) + martingale_compensator(m, n_prev)
    return m_next - m_prev


def randic_one_step_mean(c: Caterpillar) -> Fraction:
    """Exact conditional mean of the Randic index (alpha = 1) after one step."""
    return Fraction(sum(randic(s, 1) for s in one_step_successors(c)), c.m)


def randic_supermartingale_gap(c: Caterpillar) -> Fraction:
    """One-step Randic mean minus its super-martingale lower bound; >= 0."""
    j = c.n + 1
    bound = randic_supermartingale_bound(c.m, j, randic(c, 1))
    return randic_one_step_mean(c) - bound
