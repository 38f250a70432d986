"""Exact reference values the benchmark checks catlab's outputs against.

Everything here is derived from the definitions, independently of
``catlab.indices``: degrees from the leaf counts, Wiener and hyper-Wiener
from edge cuts of the tree (an edge e splits the N nodes into a | b, and a
pair's path crosses e exactly when the pair is split by it), Gini and Hoover
as exact rationals.  All arithmetic is in Python integers, so a silent
int64 overflow in the program shows up as a mismatch.  The random draw is
rebuilt from numpy alone, following catlab's documented stream contract:
replicate r uses ``SeedSequence(seed, spawn_key=(r,))`` with PCG64 and
``integers(0, m, size=n)``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def draw_counts(seed: int, replicate: int, m: int, n: int) -> list[int]:
    """Leaf counts of replicate ``replicate`` under the documented stream contract."""
    ss = np.random.SeedSequence(seed, spawn_key=(replicate,))
    rng = np.random.Generator(np.random.PCG64(ss))
    if n == 0:
        return [0] * m
    return np.bincount(rng.integers(0, m, size=n), minlength=m).tolist()


def spine_degrees(counts: list[int]) -> list[int]:
    m = len(counts)
    return [x + (1 if i in (0, m - 1) else 2) for i, x in enumerate(counts)]


def zagreb(counts: list[int]) -> int:
    return sum(d * d for d in spine_degrees(counts)) + sum(counts)


def randic1(counts: list[int]) -> int:
    """Sum over edges of deg(u) * deg(v)."""
    d = spine_degrees(counts)
    return sum(d[i] * d[i + 1] for i in range(len(d) - 1)) + sum(
        x * di for x, di in zip(counts, d)
    )


def _cuts(counts: list[int]):
    """Left-side sizes L_i of the spine edges (i, i+1), and N."""
    total = len(counts) + sum(counts)
    left, sizes = 0, []
    for x in counts[:-1]:
        left += 1 + x
        sizes.append(left)
    return sizes, total


def wiener(counts: list[int]) -> int:
    """Sum over unordered pairs of d = sum over edges of a * b."""
    sizes, total = _cuts(counts)
    n = sum(counts)
    return sum(a * (total - a) for a in sizes) + n * (total - 1)


def hyper_wiener(counts: list[int]) -> int:
    """Sum over unordered pairs of d + d^2.

    d^2 counts ordered pairs of path edges (e, f); a pair of nodes has both
    on its path iff it is split by both, which for e != f happens for
    (side of e away from f) * (side of f away from e) pairs.
    """
    sizes, total = _cuts(counts)
    n = sum(counts)
    w = wiener(counts)
    # spine edge pairs i < j: outer sides are L_i and N - L_j
    spine_spine = 0
    prefix = 0
    for a in sizes:
        spine_spine += prefix * (total - a)
        prefix += a
    # spine edge i with a leaf edge: the leaf's own side is 1, the spine
    # edge's far side is N - L_i for leaves left of it and L_i for the rest
    spine_leaf = 0
    leaves_left = 0
    for i, a in enumerate(sizes):
        leaves_left += counts[i]
        spine_leaf += leaves_left * (total - a) + (n - leaves_left) * a
    # two distinct leaf edges: both lie on the path between their leaves
    leaf_leaf = n * (n - 1) // 2
    sum_d2 = w + 2 * (spine_spine + spine_leaf + leaf_leaf)
    return w + sum_d2


def degree_gini(counts: list[int]) -> Fraction:
    """Gini of all N degrees: sum_ij |d_i - d_j| / (2 N sum_i d_i)."""
    d = sorted(spine_degrees(counts))
    m, n = len(d), sum(counts)
    spine_pairs = 2 * sum((2 * k - m + 1) * v for k, v in enumerate(d))
    leaf_spine = 2 * n * sum(v - 1 for v in d)  # leaves have degree 1
    total = m + n
    return Fraction(spine_pairs + leaf_spine, 2 * total * 2 * (total - 1))


def hoover(counts: list[int]) -> Fraction:
    """Half the absolute deviation of degrees from their mean, over their sum."""
    total = len(counts) + sum(counts)
    mean = Fraction(2 * (total - 1), total)
    dev = sum(abs(v - mean) for v in spine_degrees(counts))
    dev += sum(counts) * abs(1 - mean)
    return dev / (2 * 2 * (total - 1))


INDICES = {
    "gini_degree": degree_gini,
    "hoover": hoover,
    "zagreb": zagreb,
    "randic:1": randic1,
    "wiener": wiener,
    "hyper_wiener": hyper_wiener,
}


def csv_cell(value) -> str:
    """How catlab writes a value: ints verbatim, everything else as .17g."""
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def exact_moments(m: int, n: int, index: str) -> tuple[Fraction, Fraction, int]:
    """Exact (mean, second moment, support size) over all m^n histories.

    Iterates leaf-count compositions with multinomial weights.
    """
    fn = INDICES[index]
    total = Fraction(0)
    total_sq = Fraction(0)
    support = set()
    for cut in itertools.combinations(range(n + m - 1), m - 1):
        bounds = (-1,) + cut + (n + m - 1,)
        counts = [bounds[i + 1] - bounds[i] - 1 for i in range(m)]
        weight = math.factorial(n)
        for x in counts:
            weight //= math.factorial(x)
        v = Fraction(fn(counts))
        total += weight * v
        total_sq += weight * v * v
        support.add(v)
    histories = m**n
    return total / histories, total_sq / histories, len(support)
