"""Per-instance topological indices, computed exactly from leaf counts.

Every function here consumes the compact ``Caterpillar`` state; nothing needs
the explicit edge list.  Zagreb, Randic with alpha = 1, Wiener and
hyper-Wiener are evaluated in arbitrary-precision integer arithmetic so the
O(m) closed forms can be compared bit-for-bit against the BFS oracles even at
n = 10^6.  Gini and Hoover are ratios of integers and come back as exact
Fractions.

:func:`compute_indices_batch` evaluates many states at once from an int64
matrix of leaf counts (one state per row), for any number of indices in
one pass: it checks the matrix once and computes each term the indices
share once.  It returns the same Python ints and Fractions as the scalar
functions, which stay the reference.  It is exact wherever
:func:`fits_int64` holds: every term it adds up fits in int64 there, and
the row sums that can pass 2^63, Wiener's and hyper-Wiener's, are taken in
32-bit limbs and finished in Python ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .caterpillar import Caterpillar, _check_mn, spine_degrees
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
    "compute_indices_batch",
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
    Raises :class:`DomainError` where the float sum overflows.
    """
    degs = spine_degrees(c)
    x = c.leaf_counts
    if alpha == 1:
        spine_part = sum(degs[i - 1] * degs[i] for i in range(1, c.m))
        leaf_part = sum(xi * di for xi, di in zip(x, degs))
        return spine_part + leaf_part
    d = np.asarray(degs, dtype=float)
    # an overflow becomes inf (and 0 * inf nan), rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        spine_part = float(np.power(d[:-1] * d[1:], alpha).sum())
        leaf_part = float((np.asarray(x, dtype=float) * np.power(d, alpha)).sum())
    total = spine_part + leaf_part
    if not math.isfinite(total):
        raise DomainError(f"Randic index with alpha = {alpha:g} is not finite (float overflow)")
    return total


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

    The bound is N^2 max(m + 1, 6) < 2^63 with N = n + m, and it covers
    every int64 intermediate the batch forms compute element-wise:

    - counts and degrees stay at most N, so the degree products, the Gini
      rank terms and Hoover's N d stay at most N^2;
    - spine edge i, with L nodes on its left and R = N - L on its right,
      adds L R <= N^2 / 4 to Wiener.  The earlier spine edges' L sum below
      (i - 1) L, so hyper-Wiener's two products for it,
      (L + the earlier L's + the leaves among its L) R < m L R and
      (leaves on its right) L < L R, stay below (m + 1) N^2 / 4 together,
      and the prefix sums below m N;
    - the degrees sum below 2N, so the Zagreb, Randic:1, Hoover and degree
      Gini row sums and denominators stay below 6 N^2.

    Only the Wiener and hyper-Wiener row sums can pass 2^63; :func:`_row_sums`
    takes them in 32-bit limbs, exact for fewer than 2^31 terms a row,
    which the bound implies (m^3 < 2^63).  Holds at (10^4, 10^6), where
    hyper-Wiener reaches 8.5e18; at n = 0 it first fails at m = 2^21.
    """
    size = n + m
    return size * size * max(m + 1, 6) < 2**63


def _check_int64(m: int, n: int) -> None:
    """Refuse (m, n) outside :func:`fits_int64` with :class:`DomainError`."""
    if not fits_int64(m, n):
        raise DomainError("batched index evaluation needs int64 counts within fits_int64")


def _row_sums(terms: np.ndarray) -> list[int]:
    """Exact row sums of an int64 matrix as Python ints, from 32-bit limbs.

    The low limbs (t & 0xFFFFFFFF) and the high limbs (t >> 32, an
    arithmetic shift, so negative terms stay exact) are summed apart in
    int64, which cannot overflow for fewer than 2^31 terms a row.
    """
    low = (terms & 0xFFFFFFFF).sum(axis=1).tolist()
    high = (terms >> 32).sum(axis=1).tolist()
    return [(h << 32) + lo for h, lo in zip(high, low)]


class _term:
    """A :class:`_BlockTerms` term, computed on its first read: a non-data
    descriptor, so the value it stores in the instance shadows it after.
    ``functools.cached_property`` takes a lock on Python 3.11 that every
    one-index block would pay for."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, terms, owner=None):
        value = terms.__dict__[self.name] = self.compute(terms)
        return value


class _BlockTerms:
    """The terms that the batch evaluators of one validated leaf-count block
    share, each computed at most once, on its first read, so a block pays
    for the terms its indices read and for no other.

    ``n``, the row totals, comes from the validation, which sums the rows
    anyway.
    """

    def __init__(self, counts: np.ndarray, n: np.ndarray):
        self.counts = counts
        self.m = counts.shape[1]
        self.n = n

    @_term
    def totals(self) -> list[int]:
        """n as Python ints."""
        return self.n.tolist()

    @_term
    def size(self) -> np.ndarray:
        """The node counts N = n + m."""
        return self.n + self.m

    @_term
    def degrees(self) -> np.ndarray:
        """Spine degrees of every row: X + 2, and X + 1 at the two ends."""
        degs = self.counts + 2
        degs[:, 0] -= 1
        degs[:, -1] -= 1
        return degs

    @_term
    def left_leaves(self) -> np.ndarray:
        """For each spine edge, the leaves among the nodes on its left."""
        return np.cumsum(self.counts[:, :-1], axis=1)

    @_term
    def left(self) -> np.ndarray:
        """For each spine edge, the L nodes on its left."""
        return self.left_leaves + np.arange(1, self.m, dtype=np.int64)

    @_term
    def right(self) -> np.ndarray:
        """For each spine edge, the R = N - L nodes on its right."""
        return self.size[:, None] - self.left

    @_term
    def denominators(self) -> list[int]:
        """The Gini and Hoover denominator 4 N (N - 1) of every row."""
        return (4 * self.size * (self.size - 1)).tolist()


def _fractions(numerators: np.ndarray, denominators: list[int]) -> list[Fraction]:
    return [Fraction(p, q) for p, q in zip(numerators.tolist(), denominators)]


def _degree_gini_batch(t: _BlockTerms) -> list[Fraction]:
    """:func:`degree_gini_exact` of every row; rank weights on the sorted spine degrees."""
    weights = 2 * np.arange(1, t.m + 1, dtype=np.int64) - t.m - 1
    ranked = (np.sort(t.degrees, axis=1) * weights).sum(axis=1)
    # the spine degrees sum to n + 2m - 2, so the leaf term is 2n (n + m - 2)
    return _fractions(2 * ranked + 2 * t.n * (t.size - 2), t.denominators)


def _hoover_batch(t: _BlockTerms) -> list[Fraction]:
    """:func:`hoover_exact` of every row: S / (4 N (N-1))."""
    size = t.size
    spine = np.abs(size[:, None] * t.degrees - (2 * size - 2)[:, None])
    s = spine.sum(axis=1) + t.n * (size - 2)  # each leaf: |N - (2N - 2)| = N - 2
    return _fractions(s, t.denominators)


def _zagreb_batch(t: _BlockTerms) -> list[int]:
    """:func:`zagreb` of every row."""
    degs = t.degrees
    return ((degs * degs).sum(axis=1) + t.n).tolist()


def _randic_batch(t: _BlockTerms) -> list[int]:
    """:func:`randic` with alpha = 1 of every row."""
    degs = t.degrees
    return ((degs[:, :-1] * degs[:, 1:]).sum(axis=1) + (t.counts * degs).sum(axis=1)).tolist()


def _wiener_batch(t: _BlockTerms) -> list[int]:
    """:func:`wiener` of every row: each spine edge adds L R, each pendant edge N - 1."""
    m = t.m
    return [k * (k + m - 1) + s for k, s in zip(t.totals, _row_sums(t.left * t.right))]


def _hyper_wiener_batch(t: _BlockTerms) -> list[int]:
    """:func:`hyper_wiener` of every row: sum d + d^2 = 2 (sum d + shared pairs).

    As in :func:`_distance_sums`, spine edge i adds L R to sum d, and shares
    (the earlier spine edges' L + the leaves among its L) R pairs with the
    edges on its left and (leaves on its right) L with the pendant edges on
    its right.  Any two pendant edges share one pair.
    """
    m = t.m
    left, left_leaves = t.left, t.left_leaves
    reach = np.cumsum(left, axis=1) + left_leaves  # L + earlier L's + leaves among L
    terms = reach * t.right + (t.n[:, None] - left_leaves) * left
    return [
        2 * (k * (k + m - 1) + k * (k - 1) // 2 + s)
        for k, s in zip(t.totals, _row_sums(terms))
    ]


def compute_indices_batch(counts: np.ndarray, specs: Sequence[IndexSpec]) -> list[list]:
    """:func:`compute_index` of every row of an int64 (states, m) leaf-count
    matrix, one column per spec, in the order of ``specs``.

    The matrix is checked once, and each term the requested indices share
    (row totals, node counts, spine degrees, the nodes and leaves on either
    side of each spine edge, the Gini and Hoover denominator) is computed
    at most once for all of them.  Exact at every row where
    :func:`fits_int64` holds; raises :class:`DomainError` for a matrix that
    is not 2-D or has fewer than two columns, for other dtypes, for a count
    that is negative or at least 2^32, or where it fails for the largest
    row.  Counts below 2^32 cannot wrap the int64 row sums, and larger ones
    fail it anyway.  Randic with alpha != 1 runs the scalar function per
    row, so its float sums keep their order.
    """
    if counts.ndim != 2:
        raise DomainError(f"batched index evaluation needs a 2-D matrix, not {counts.ndim}-D")
    m = counts.shape[1]
    _check_mn(m)
    if counts.dtype != np.int64:
        raise DomainError("batched index evaluation needs int64 counts")
    if not len(counts):
        return [[] for _ in specs]
    # one reduction: as uint64, a negative count reads at least 2^63
    if counts.view(np.uint64).max() >= 2**32:
        raise DomainError("batched index evaluation needs counts in [0, 2^32)")
    n = counts.sum(axis=1)
    _check_int64(m, int(n.max()))
    terms = _BlockTerms(counts, n)
    return [
        [randic(Caterpillar(m, tuple(row)), spec.alpha) for row in counts.tolist()]
        if spec.kind == "randic" and spec.alpha != 1
        else _BATCH[spec.kind](terms)
        for spec in specs
    ]


_BATCH = {
    "gini_degree": _degree_gini_batch,
    "hoover": _hoover_batch,
    "zagreb": _zagreb_batch,
    "randic": _randic_batch,
    "wiener": _wiener_batch,
    "hyper_wiener": _hyper_wiener_batch,
}
