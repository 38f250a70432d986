"""Per-instance topological indices, computed exactly from leaf counts.

Every function here consumes the compact ``Caterpillar`` state; nothing needs
the explicit adjacency.  Zagreb, Randic with alpha = 1, Wiener and
hyper-Wiener are evaluated in arbitrary-precision integer arithmetic so the
O(m) closed forms can be compared bit-for-bit against the BFS oracles even at
n = 10^6.  Gini and Hoover are ratios of integers and come back as exact
Fractions.

:func:`compute_index_batch` evaluates many states at once from an int64
matrix of leaf counts (one state per row) and returns the same Python ints
and Fractions as the scalar functions, which stay the reference.  It is
exact only where :func:`fits_int64` holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .caterpillar import Caterpillar, spine_degrees
from .errors import DomainError

__all__ = [
    "IndexSpec",
    "degree_gini_exact",
    "hoover_exact",
    "zagreb",
    "randic",
    "wiener",
    "hyper_wiener",
    "compute_index",
    "fits_int64",
    "compute_index_batch",
]


@dataclass(frozen=True)
class IndexSpec:
    """A requested index kind; Randic carries its exponent alpha."""

    kind: str
    alpha: float | None = None

    _KINDS = ("gini_degree", "hoover", "zagreb", "randic", "wiener", "hyper_wiener")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"unknown index kind {self.kind!r}")
        if self.kind == "randic":
            if self.alpha is None:
                object.__setattr__(self, "alpha", 1.0)
            elif not math.isfinite(self.alpha):
                raise DomainError(f"Randic exponent must be finite, got {self.alpha}")
        elif self.alpha is not None:
            raise DomainError(f"index {self.kind!r} takes no alpha parameter")

    @classmethod
    def parse(cls, text: str) -> "IndexSpec":
        """Parse ``"zagreb"``, ``"randic:1"``, ``"randic:-0.5"`` etc."""
        name, _, arg = text.strip().partition(":")
        if name == "randic":
            return cls("randic", float(arg) if arg else 1.0)
        if arg:
            raise DomainError(f"index {name!r} takes no parameter")
        return cls(name)

    def __str__(self) -> str:
        if self.kind == "randic":
            return f"randic:{self.alpha:g}"
        return self.kind


def _abs_diff_double_sum(sorted_values) -> int:
    """Sum over ordered pairs of |w_i - w_j| for an ascending-sorted sequence.

    Uses the identity  sum_ij |w_i - w_j| = 2 * sum_k (2k - n - 1) w_(k)
    with k the 1-based rank; O(n) after sorting.
    """
    n = len(sorted_values)
    total = 0
    for k, w in enumerate(sorted_values, start=1):
        total += (2 * k - n - 1) * w
    return 2 * total


def degree_gini_exact(c: Caterpillar) -> Fraction:
    """Within-graph Gini of the degree sequence, as an exact rational.

    Only the m spine degrees need sorting: each of the n leaves has degree
    1, so a spine node of degree D differs from every leaf by D - 1 and
    leaf-leaf pairs contribute nothing.
    """
    degs = spine_degrees(c)
    num = _abs_diff_double_sum(sorted(degs)) + 2 * c.n * (sum(degs) - c.m)
    total = 2 * (c.node_count - 1)
    return Fraction(num, 2 * c.node_count * total)


def hoover_exact(c: Caterpillar) -> Fraction:
    """Degree-based Hoover index as an exact rational.

    Half the total absolute deviation of degrees from the average degree,
    normalized by N * avg where N = n + m and avg = 2 - 2/N (both
    deterministic for this graph class).  Equals S / (4 N (N-1)) with
    S = sum_v |N deg(v) - (2N - 2)|.
    """
    N = c.node_count
    target = 2 * N - 2
    s = sum(abs(N * d - target) for d in spine_degrees(c))
    s += c.n * abs(N - target)  # every leaf has degree 1
    return Fraction(s, 4 * N * (N - 1))


def zagreb(c: Caterpillar) -> int:
    """Sum of squared degrees over all nodes: sum_i D_i^2 + n, exact."""
    return sum(d * d for d in spine_degrees(c)) + c.n


def randic(c: Caterpillar, alpha: float = 1.0):
    """Randic index with exponent alpha: sum over edges of (deg u * deg v)^alpha.

    On a caterpillar this is the sum over the m-1 spine edges of
    (D_{i-1} D_i)^alpha plus, for each spine node, X_i * D_i^alpha for its
    pendant leaves.  alpha = 1 is evaluated in exact integer arithmetic.
    """
    degs = spine_degrees(c)
    x = c.leaf_counts
    if alpha == 1:
        spine_part = sum(degs[i - 1] * degs[i] for i in range(1, c.m))
        leaf_part = sum(xi * di for xi, di in zip(x, degs))
        return spine_part + leaf_part
    d = np.asarray(degs, dtype=float)
    spine_part = float(np.power(d[:-1] * d[1:], alpha).sum())
    leaf_part = float((np.asarray(x, dtype=float) * np.power(d, alpha)).sum())
    return spine_part + leaf_part


def _distance_sums(c: Caterpillar) -> tuple[int, int]:
    """Sums of d and d^2 over unordered node pairs, from the edge cuts.

    A pair's distance is the number of edges its path crosses.  So sum d is
    the sum over edges of the product of the two side sizes, and sum d^2
    adds twice, for every two distinct edges e and f, the pairs whose path
    crosses both: (side of e away from f) * (side of f away from e).  Spine
    edge i has L_i nodes on its left and N - L_i on its right; each of the
    n pendant edges cuts off one leaf, so two pendant edges share one pair.
    """
    x = [int(v) for v in c.leaf_counts]
    n = sum(x)
    size = n + c.m
    cut = n * (size - 1)  # sum d: the pendant edges here, spine edges below
    shared = n * (n - 1) // 2  # pairs crossing both edges, summed over edge pairs
    left = 0  # L_i
    left_leaves = 0  # leaves among the L_i nodes
    left_total = 0  # sum of L_j over the spine edges j < i
    for xi in x[:-1]:
        left += 1 + xi
        left_leaves += xi
        right = size - left
        cut += left * right
        # earlier spine edges, then pendant edges on either side of edge i
        shared += left_total * right + left_leaves * right + (n - left_leaves) * left
        left_total += left
    return cut, cut + 2 * shared


def wiener(c: Caterpillar) -> int:
    """Wiener index (sum of distances over unordered node pairs), exact, O(m)."""
    return _distance_sums(c)[0]


def hyper_wiener(c: Caterpillar) -> int:
    """Hyper-Wiener index: sum over unordered pairs of (d + d^2), exact, O(m)."""
    d1, d2 = _distance_sums(c)
    return d1 + d2


def compute_index(c: Caterpillar, spec: IndexSpec):
    """Evaluate one index exactly: an int, or a Fraction for Gini and Hoover.

    Randic with alpha != 1 is the only float.
    """
    if spec.kind == "gini_degree":
        return degree_gini_exact(c)
    if spec.kind == "hoover":
        return hoover_exact(c)
    if spec.kind == "zagreb":
        return zagreb(c)
    if spec.kind == "randic":
        return randic(c, spec.alpha)
    if spec.kind == "wiener":
        return wiener(c)
    if spec.kind == "hyper_wiener":
        return hyper_wiener(c)
    raise DomainError(f"unknown index kind {spec.kind!r}")  # pragma: no cover


def fits_int64(m: int, n: int) -> bool:
    """Whether the batched forms are exact for m spine nodes and n leaves.

    The bound is 4 N^2 (m+1)^2 < 2^63 with N = n + m.  The largest value is
    hyper-Wiener, and it and every partial sum behind it stay below
    N^2 (m+1)^2; the degree indices stay below 6 N^2.  Holds at
    (5000, 10^5); fails at (10^4, 10^6), where hyper-Wiener reaches 8.5e18.
    """
    size = n + m
    return 4 * size * size * (m + 1) ** 2 < 2**63


def _batch_degrees(counts: np.ndarray) -> np.ndarray:
    """Spine degrees of every row: X + 2, and X + 1 at the two ends."""
    degs = counts + 2
    degs[:, 0] -= 1
    degs[:, -1] -= 1
    return degs


def _fractions(numerators: np.ndarray, denominators: np.ndarray) -> list[Fraction]:
    return [Fraction(p, q) for p, q in zip(numerators.tolist(), denominators.tolist())]


def _degree_gini_batch(counts: np.ndarray) -> list[Fraction]:
    """:func:`degree_gini_exact` of every row; rank weights on the sorted spine degrees."""
    m = counts.shape[1]
    n = counts.sum(axis=1)
    size = n + m
    weights = 2 * np.arange(1, m + 1, dtype=np.int64) - m - 1
    ranked = (np.sort(_batch_degrees(counts), axis=1) * weights).sum(axis=1)
    # the spine degrees sum to n + 2m - 2, so the leaf term is 2n (n + m - 2)
    return _fractions(2 * ranked + 2 * n * (size - 2), 4 * size * (size - 1))


def _hoover_batch(counts: np.ndarray) -> list[Fraction]:
    """:func:`hoover_exact` of every row: S / (4 N (N-1))."""
    n = counts.sum(axis=1)
    size = n + counts.shape[1]
    spine = np.abs(size[:, None] * _batch_degrees(counts) - (2 * size - 2)[:, None])
    s = spine.sum(axis=1) + n * (size - 2)  # each leaf: |N - (2N - 2)| = N - 2
    return _fractions(s, 4 * size * (size - 1))


def _zagreb_batch(counts: np.ndarray) -> list[int]:
    """:func:`zagreb` of every row."""
    degs = _batch_degrees(counts)
    return ((degs * degs).sum(axis=1) + counts.sum(axis=1)).tolist()


def _randic_batch(counts: np.ndarray) -> list[int]:
    """:func:`randic` with alpha = 1 of every row."""
    degs = _batch_degrees(counts)
    return ((degs[:, :-1] * degs[:, 1:]).sum(axis=1) + (counts * degs).sum(axis=1)).tolist()


def _distance_sums_batch(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_distance_sums` of every row, as cumulative sums over the spine edges."""
    m = counts.shape[1]
    n = counts.sum(axis=1)
    size = n + m
    left_leaves = np.cumsum(counts[:, :-1], axis=1)
    left = left_leaves + np.arange(1, m, dtype=np.int64)
    right = size[:, None] - left
    left_total = np.cumsum(left, axis=1) - left
    cut = n * (size - 1) + (left * right).sum(axis=1)
    shared = n * (n - 1) // 2 + (
        (left_total + left_leaves) * right + (n[:, None] - left_leaves) * left
    ).sum(axis=1)
    return cut, cut + 2 * shared


def _wiener_batch(counts: np.ndarray) -> list[int]:
    """:func:`wiener` of every row."""
    return _distance_sums_batch(counts)[0].tolist()


def _hyper_wiener_batch(counts: np.ndarray) -> list[int]:
    """:func:`hyper_wiener` of every row."""
    d1, d2 = _distance_sums_batch(counts)
    return (d1 + d2).tolist()


def compute_index_batch(counts: np.ndarray, spec: IndexSpec) -> list:
    """:func:`compute_index` of every row of an int64 (states, m) leaf-count matrix.

    Raises :class:`DomainError` where :func:`fits_int64` fails for the
    largest row.  Randic with alpha != 1 runs the scalar function per row,
    so its float sums keep their order.
    """
    m = counts.shape[1]
    if counts.dtype != np.int64 or not fits_int64(m, int(counts.sum(axis=1).max())):
        raise DomainError("batched index evaluation needs int64 counts within fits_int64")
    if spec.kind == "randic" and spec.alpha != 1:
        return [randic(Caterpillar(m, tuple(row)), spec.alpha) for row in counts.tolist()]
    return _BATCH[spec.kind](counts)


_BATCH = {
    "gini_degree": _degree_gini_batch,
    "hoover": _hoover_batch,
    "zagreb": _zagreb_batch,
    "randic": _randic_batch,
    "wiener": _wiener_batch,
    "hyper_wiener": _hyper_wiener_batch,
}
