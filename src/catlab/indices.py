"""Per-instance topological indices, computed exactly from leaf counts.

Every function here consumes the compact ``Caterpillar`` state; nothing needs
the explicit adjacency.  Zagreb, Randic with alpha = 1, Wiener and
hyper-Wiener are evaluated in arbitrary-precision integer arithmetic so the
O(m) closed forms can be compared bit-for-bit against the BFS oracles even at
n = 10^6.  Gini and Hoover are ratios of integers and get exact rational
variants alongside the float views.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .caterpillar import Caterpillar, spine_degrees
from .errors import DomainError

__all__ = [
    "IndexSpec",
    "gini_functional",
    "degree_gini",
    "degree_gini_exact",
    "hoover",
    "hoover_exact",
    "zagreb",
    "randic",
    "wiener",
    "hyper_wiener",
    "compute_index",
    "compute_index_exact",
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


def _abs_diff_double_sum(sorted_values) -> int | float:
    """Sum over ordered pairs of |w_i - w_j| for an ascending-sorted sequence.

    Uses the identity  sum_ij |w_i - w_j| = 2 * sum_k (2k - n - 1) w_(k)
    with k the 1-based rank; O(n) after sorting.
    """
    n = len(sorted_values)
    total = 0
    for k, w in enumerate(sorted_values, start=1):
        total += (2 * k - n - 1) * w
    return 2 * total


def gini_functional(weights) -> float:
    """Gini coefficient of a weight vector.

    Returns sum_ij |w_i - w_j| / (2 n sum_i w_i).  Scale-invariant; zero for
    perfectly equal weights.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or len(w) < 2:
        raise DomainError("gini needs at least two weights")
    if np.any(w < 0):
        raise DomainError("gini weights must be non-negative")
    total = float(w.sum())
    if total == 0.0:
        raise DomainError("zero total wealth: gini is undefined for all-zero weights")
    num = _abs_diff_double_sum(np.sort(w).tolist())
    return num / (2.0 * len(w) * total)


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


def degree_gini(c: Caterpillar) -> float:
    """Within-graph Gini of the degree sequence (float view)."""
    return float(degree_gini_exact(c))


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


def hoover(c: Caterpillar) -> float:
    """Degree-based Hoover index (float view); lies in [0, 1)."""
    return float(hoover_exact(c))


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


def wiener(c: Caterpillar) -> int:
    """Wiener index (sum of distances over unordered node pairs), exact.

    Three-part split evaluated in O(m): the fixed spine-spine total
    m(m^2-1)/6; leaf-leaf pairs at distance (j-i+2) across spine positions
    plus distance 2 within one position; and spine-leaf pairs at distance
    |i-j|+1.
    """
    m = c.m
    x = [int(v) for v in c.leaf_counts]
    n = sum(x)

    total = m * (m * m - 1) // 6

    # cross-position leaf pairs: sum_{i<j} (j-i+2) X_i X_j via prefix sums
    prefix = 0  # sum of X_i for i < j
    prefix_ix = 0  # sum of i*X_i for i < j (1-based i)
    cross_gap = 0  # sum_{i<j} (j-i) X_i X_j
    for j in range(1, m + 1):
        xj = x[j - 1]
        if prefix and xj:
            cross_gap += xj * (j * prefix - prefix_ix)
        prefix += xj
        prefix_ix += j * xj
    sum_sq = sum(v * v for v in x)
    cross_pairs = (n * n - sum_sq) // 2  # sum_{i<j} X_i X_j
    total += cross_gap + 2 * cross_pairs

    # same-position leaf pairs: distance 2, X(X-1)/2 pairs each
    total += sum(v * (v - 1) for v in x)

    # spine-leaf: for a leaf at position i (1-based), sum_j (|i-j|+1) = m + T_i
    for i in range(1, m + 1):
        if x[i - 1]:
            t_i = (i - 1) * i // 2 + (m - i) * (m - i + 1) // 2
            total += x[i - 1] * (m + t_i)
    return total


def hyper_wiener(c: Caterpillar) -> int:
    """Hyper-Wiener index: sum over unordered pairs of (d + d^2), exact.

    Same three-part split as :func:`wiener` with weight d + d^2 per pair;
    the fixed spine-spine total is m(m^3 + 2m^2 - m - 2)/12.
    """
    m = c.m
    x = [int(v) for v in c.leaf_counts]
    n = sum(x)

    total = m * (m**3 + 2 * m * m - m - 2) // 12

    # cross-position leaf pairs: gap g = j-i, distance g+2,
    # weight (g+2) + (g+2)^2 = g^2 + 5g + 6
    prefix = 0
    prefix_ix = 0
    prefix_iix = 0  # sum of i^2 * X_i
    cross = 0
    for j in range(1, m + 1):
        xj = x[j - 1]
        if prefix and xj:
            gap1 = j * prefix - prefix_ix  # sum (j-i) X_i
            gap2 = j * j * prefix - 2 * j * prefix_ix + prefix_iix  # sum (j-i)^2 X_i
            cross += xj * (gap2 + 5 * gap1)
        prefix += xj
        prefix_ix += j * xj
        prefix_iix += j * j * xj
    sum_sq = sum(v * v for v in x)
    cross += 6 * ((n * n - sum_sq) // 2)
    total += cross

    # same-position leaf pairs: distance 2 -> weight 6 per pair
    total += 3 * sum(v * (v - 1) for v in x)

    # spine-leaf: d = |i-j|+1, sum_j (d + d^2) = U_i + 3 T_i + 2m with
    # T_i = sum_j |i-j| and U_i = sum_j (i-j)^2
    def _sq_sum(k: int) -> int:
        return k * (k + 1) * (2 * k + 1) // 6

    for i in range(1, m + 1):
        if x[i - 1]:
            left, right = i - 1, m - i
            t_i = left * (left + 1) // 2 + right * (right + 1) // 2
            u_i = _sq_sum(left) + _sq_sum(right)
            total += x[i - 1] * (u_i + 3 * t_i + 2 * m)
    return total


def compute_index(c: Caterpillar, spec: IndexSpec):
    """Evaluate one index; integers stay exact, ratios come back as floats."""
    if spec.kind == "gini_degree":
        return degree_gini(c)
    if spec.kind == "hoover":
        return hoover(c)
    if spec.kind == "zagreb":
        return zagreb(c)
    if spec.kind == "randic":
        return randic(c, spec.alpha)
    if spec.kind == "wiener":
        return wiener(c)
    if spec.kind == "hyper_wiener":
        return hyper_wiener(c)
    raise DomainError(f"unknown index kind {spec.kind!r}")  # pragma: no cover


def compute_index_exact(c: Caterpillar, spec: IndexSpec):
    """Evaluate one index as an exact int or Fraction (enumeration oracles).

    Randic is only exact for alpha = 1.
    """
    if spec.kind == "gini_degree":
        return degree_gini_exact(c)
    if spec.kind == "hoover":
        return hoover_exact(c)
    if spec.kind == "randic":
        if spec.alpha != 1:
            raise DomainError(
                f"exact Randic evaluation requires alpha = 1, got {spec.alpha}"
            )
        return randic(c, 1)
    return compute_index(c, spec)
