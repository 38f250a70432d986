"""Ground-truth machinery: exhaustive enumeration, BFS distances, one-step laws.

The enumeration oracle computes exact rational moments of any rational-valued
index either by iterating all m^n equally likely growth histories or by
iterating leaf-count compositions weighted by their multinomial coefficients.
Both paths are kept and cross-checked; the composition path engages
automatically for larger n since every index depends on leaf counts only.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .caterpillar import AdjacencyGraph, Caterpillar, _check_mn
from .errors import DomainError, ResourceLimitError
from .indices import IndexSpec, compute_index, randic, zagreb
from .theory import martingale_compensator, randic_supermartingale_bound

__all__ = [
    "ExactMoments",
    "ENUMERATION_GUARD",
    "choose_method",
    "compositions",
    "multinomial_coefficient",
    "enumerate_exact",
    "bfs_distances",
    "bfs_distance_sums",
    "wiener_bfs",
    "hyper_wiener_bfs",
    "one_step_successors",
    "martingale_residual",
    "randic_one_step_mean",
    "randic_supermartingale_gap",
]

ENUMERATION_GUARD = 10**7


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
    """All m-tuples of non-negative integers summing to n."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


def multinomial_coefficient(counts) -> int:
    """Number of growth histories producing the given leaf counts."""
    total = 0
    coeff = 1
    for c in counts:
        total += c
        coeff *= math.comb(total, c)
    return coeff


def _moments_from_weighted(values_and_weights, history_count: int) -> ExactMoments:
    total = Fraction(0)
    total_sq = Fraction(0)
    support = set()
    for value, weight in values_and_weights:
        v = Fraction(value)
        total += weight * v
        total_sq += weight * v * v
        support.add(v)
    mean = total / history_count
    second = total_sq / history_count
    return ExactMoments(
        mean=mean,
        second_moment=second,
        variance=second - mean * mean,
        support_size=len(support),
        history_count=history_count,
    )


def choose_method(m: int, n: int, method: str = "auto", guard: int = ENUMERATION_GUARD) -> str:
    """Resolve the enumeration path: raw histories for small n, else compositions."""
    if method not in ("auto", "histories", "compositions"):
        raise DomainError(f"unknown enumeration method {method!r}")
    if method != "auto":
        return method
    return "histories" if n <= 12 and m**n <= guard else "compositions"


def enumerate_exact(
    m: int,
    n: int,
    index: IndexSpec | str,
    method: str = "auto",
    guard: int = ENUMERATION_GUARD,
) -> ExactMoments:
    """Exact mean/variance of an index over the uniform growth law at (m, n).

    ``method`` is ``"histories"`` (iterate all m^n attachment sequences),
    ``"compositions"`` (iterate leaf-count compositions with multinomial
    weights), or ``"auto"`` (compositions once n > 12).  The state count of
    the chosen path must stay within ``guard``.
    """
    _check_mn(m, n)
    spec = IndexSpec.parse(index) if isinstance(index, str) else index
    if spec.kind == "randic" and spec.alpha != 1:
        raise DomainError(f"exact Randic evaluation requires alpha = 1, got {spec.alpha}")
    method = choose_method(m, n, method, guard)

    history_count = m**n
    if method == "histories":
        if history_count > guard:
            raise ResourceLimitError(
                f"enumeration of {m}^{n} = {history_count} histories exceeds the"
                f" guard of {guard}; use the composition method"
            )
        def _histories():
            for picks in itertools.product(range(m), repeat=n):
                counts = [0] * m
                for i in picks:
                    counts[i] += 1
                c = Caterpillar(m=m, leaf_counts=tuple(counts))
                yield compute_index(c, spec), 1
        return _moments_from_weighted(_histories(), history_count)

    state_count = math.comb(n + m - 1, m - 1)
    if state_count > guard:
        raise ResourceLimitError(
            f"enumeration of C({n + m - 1},{m - 1}) = {state_count} compositions"
            f" exceeds the guard of {guard}"
        )
    def _compositions():
        for counts in compositions(n, m):
            c = Caterpillar(m=m, leaf_counts=counts)
            yield compute_index(c, spec), multinomial_coefficient(counts)
    return _moments_from_weighted(_compositions(), history_count)


def bfs_distances(g: AdjacencyGraph) -> list[list[int]]:
    """All-pairs shortest-path distances by BFS from every node.

    The N x N table must stay within ``ENUMERATION_GUARD`` cells.
    """
    size = g.node_count
    if size * size > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"BFS distance table of {size}^2 = {size * size} cells exceeds the"
            f" guard of {ENUMERATION_GUARD}"
        )
    dist = [[-1] * size for _ in range(size)]
    for src in range(size):
        row = dist[src]
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        if any(d < 0 for d in row):
            raise DomainError("graph is disconnected: BFS did not reach every node")
    return dist


def bfs_distance_sums(g: AdjacencyGraph) -> tuple[int, int]:
    """(sum of d, sum of d^2) over unordered node pairs, from one BFS table."""
    total = total_sq = 0
    for u, row in enumerate(bfs_distances(g)):
        tail = row[u + 1:]
        total += sum(tail)
        total_sq += sum(d * d for d in tail)
    return total, total_sq


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
