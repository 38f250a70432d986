"""Random caterpillar model: compact state, uniform growth, and samplers.

A caterpillar is a tree whose non-leaf nodes form a path (the spine).  The
state kept here is deliberately minimal: the spine size ``m`` and the number
of leaves attached to each spine node.  Every index computed elsewhere in the
package is a function of those leaf counts alone, so adjacency is only
materialized on demand for the BFS oracles.

Randomness is fully pinned down: every sample is drawn from a PCG64 bit
generator seeded through ``numpy.random.SeedSequence(seed, spawn_key=(stream,))``.
Identical ``(seed, stream)`` pairs give identical results on every platform;
distinct ``stream`` values give independent substreams, one per replicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Caterpillar",
    "AdjacencyGraph",
    "RngSeed",
    "new_spine",
    "grow_step",
    "simulate_counts",
    "sample_direct_counts",
    "degree_sequence",
    "spine_degrees",
    "to_adjacency",
]


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream) pair identifying one reproducible random substream."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        """Materialize the PCG64 generator for this substream."""
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def _check_mn(m: int, n: int = 0) -> None:
    """Reject a spine shorter than two nodes or a negative leaf count."""
    if m < 2:
        raise DomainError(f"spine too short: m must be >= 2, got {m}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")


@dataclass(frozen=True)
class Caterpillar:
    """Compact caterpillar state: spine size and per-spine-node leaf counts.

    ``leaf_counts[i]`` is the number of leaves hanging off spine node ``i``
    (0-indexed along the spine).  The total number of nodes is ``n + m`` and,
    the graph being a tree, the number of edges is ``n + m - 1``.
    """

    m: int
    leaf_counts: tuple[int, ...]

    def __post_init__(self):
        _check_mn(self.m)
        if len(self.leaf_counts) != self.m:
            raise DomainError(
                f"leaf_counts has length {len(self.leaf_counts)}, expected m = {self.m}"
            )
        if any(x < 0 for x in self.leaf_counts):
            raise DomainError("leaf counts must be non-negative")

    @property
    def n(self) -> int:
        """Number of leaves (growth steps applied so far)."""
        return sum(self.leaf_counts)

    @property
    def node_count(self) -> int:
        return self.n + self.m

    @property
    def edge_count(self) -> int:
        return self.n + self.m - 1


@dataclass(frozen=True)
class AdjacencyGraph:
    """Explicit node/edge form of a caterpillar, used by the BFS oracles.

    Spine nodes come first (0 .. m-1, in spine order), then the leaves in
    spine order.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


def new_spine(m: int) -> Caterpillar:
    """Bare spine on ``m`` nodes, no leaves yet."""
    _check_mn(m)
    return Caterpillar(m=m, leaf_counts=(0,) * m)


def grow_step(c: Caterpillar, rng: np.random.Generator) -> Caterpillar:
    """Attach one leaf to a uniformly chosen spine node."""
    i = int(rng.integers(0, c.m))
    counts = list(c.leaf_counts)
    counts[i] += 1
    return Caterpillar(m=c.m, leaf_counts=tuple(counts))


def simulate_counts(m: int, n: int, rng: np.random.Generator) -> list[int]:
    """Leaf counts after ``n`` uniform growth steps, drawn from ``rng``.

    Batch bounded-integer draws from a PCG64 generator are bit-identical to
    repeated single draws, so this consumes exactly the stream a loop of
    ``grow_step`` calls would.
    """
    if n == 0:
        return [0] * m
    picks = rng.integers(0, m, size=n)
    return np.bincount(picks, minlength=m).tolist()


def sample_direct_counts(m: int, n: int, rng: np.random.Generator) -> list[int]:
    """One multinomial(n; 1/m, ..., 1/m) draw via conditional binomials.

    X_1 ~ Bin(n, 1/m), then X_2 | X_1 ~ Bin(n - X_1, 1/(m-1)), and so on;
    exact and O(m), no rejection.  Same law as :func:`simulate_counts`, but
    not path-identical: the two consume the random stream differently.
    """
    counts = [0] * m
    remaining = n
    for i in range(m - 1):
        if remaining == 0:
            break
        x = int(rng.binomial(remaining, 1.0 / (m - i)))
        counts[i] = x
        remaining -= x
    counts[m - 1] = remaining
    return counts


def spine_degrees(c: Caterpillar) -> list[int]:
    """Degrees of the m spine nodes, in spine order.

    End nodes have degree X+1, interior nodes X+2; for m = 2 both nodes are
    ends.
    """
    m = c.m
    x = c.leaf_counts
    degs = [x[i] + 2 for i in range(m)]
    degs[0] = x[0] + 1
    degs[m - 1] = x[m - 1] + 1
    return degs


def degree_sequence(c: Caterpillar) -> list[int]:
    """All n+m node degrees: spine degrees first, then one 1 per leaf."""
    return spine_degrees(c) + [1] * c.n


def to_adjacency(c: Caterpillar) -> AdjacencyGraph:
    """Materialize the explicit tree: spine path plus pendant leaves."""
    m, n = c.m, c.n
    adjacency: list[list[int]] = [[] for _ in range(n + m)]
    for i in range(m - 1):
        adjacency[i].append(i + 1)
        adjacency[i + 1].append(i)
    next_node = m
    for i, count in enumerate(c.leaf_counts):
        for _ in range(count):
            adjacency[i].append(next_node)
            adjacency[next_node].append(i)
            next_node += 1
    return AdjacencyGraph(
        node_count=n + m,
        adjacency=tuple(tuple(nbrs) for nbrs in adjacency),
    )
