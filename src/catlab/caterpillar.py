"""Random caterpillar model: compact state, uniform growth, and samplers.

A caterpillar is a tree whose non-leaf nodes form a path (the spine).  The
state kept here is deliberately minimal: the spine size ``m`` and the number
of leaves attached to each spine node.  Every index computed elsewhere in the
package is a function of those leaf counts alone; only the BFS oracles need
the explicit tree, which :func:`to_adjacency` lists as an edge list, and
``_adjacency_arrays`` writes as int arrays for a whole stack of leaf-count
rows at once.

Randomness is fully pinned down: every sample is drawn from a PCG64 bit
generator seeded through ``numpy.random.SeedSequence(seed, spawn_key=(stream,))``.
Identical ``(seed, stream)`` pairs give identical results on every platform;
distinct ``stream`` values give independent substreams, one per replicate.
:meth:`RngSeed.generator` builds that generator with numpy's own seeding and
stays the reference.  :func:`substreams` gives the same substreams for a run
of consecutive streams: it hashes the stream words of many substreams at
once in uint32 numpy lanes, exactly as ``SeedSequence`` mixes its spawn key
and generates the seed words, finishes PCG64's seeding in Python ints and
re-seeds one reused generator in place.  Tests pin every state and draw of
it to :meth:`RngSeed.generator`.

The leaf draw of substream (seed, r) is ``integers(0, m, size=n)``, counted
per spine node.  :func:`leaf_count_blocks` repeats numpy's bounded-integer
reduction (Lemire's) over raw PCG64 words: for many replicates at once
from :func:`substreams` where that is cheap, and for every other row on its
own from :meth:`RngSeed.generator`.  Of the replicate draws, only
:func:`simulate_counts`, the reference that ``experiments.reference_rows``
draws with, calls ``integers``; tests pin every row to numpy's own draw.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Caterpillar",
    "AdjacencyGraph",
    "RngSeed",
    "substreams",
    "leaf_count_blocks",
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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the multiplier of PCG64's 128-bit LCG.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

# Substreams seeded per vectorised pass of substreams(); bounds its arrays.
_SEED_CHUNK = 1024

# Leaves drawn per integers() call in simulate_counts(); bounds the draw's memory.
_DRAW_CHUNK = 1 << 16

# Lanes (leaves) per sub-block of leaf_count_blocks(); bounds its two reused
# buffers, 12 bytes a lane, and its counts, m cells a row.  _raw_leaf_counts()
# reads up to max(_BLOCK_LANES, m) lanes a chunk.
_BLOCK_LANES = 1 << 15


def _seed_words(pool: list[int], hash_const: int, streams: np.ndarray) -> np.ndarray:
    """PCG64's four 64-bit seed words of each substream, one row per stream.

    ``pool`` is the seed's mixed pool and ``hash_const`` the hash constant
    that SeedSequence reaches after mixing the seed; each stream is a
    one-word spawn key.  Every step is uint32 arithmetic, so numpy's
    wrap-around is SeedSequence's own.
    """
    mixed = []
    for word in pool:
        # mix(pool word, hashmix(stream word))
        hashed = streams ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        hashed *= np.uint32(hash_const)
        hashed ^= hashed >> np.uint32(16)
        lane = np.uint32(_MIX_MULT_L * word & _MASK32) - np.uint32(_MIX_MULT_R) * hashed
        mixed.append(lane ^ (lane >> np.uint32(16)))
    # generate_state(4, np.uint64): eight uint32 words, the pool cycled twice
    hash_const = _INIT_B
    state = np.empty((len(streams), 8), dtype=np.uint64)
    for i in range(8):
        lane = mixed[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        lane *= np.uint32(hash_const)
        state[:, i] = lane ^ (lane >> np.uint32(16))
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


def substreams(seed: int, first: int, count: int) -> Iterator[np.random.Generator]:
    """The generators of substreams (seed, first), ..., (seed, first + count - 1).

    Each is bit-identical to ``RngSeed(seed, stream).generator()``, but all
    of them are one :class:`numpy.random.Generator` whose PCG64 is re-seeded
    in place before it is yielded, so a caller must finish with it before
    asking for the next; only the block kernel of :func:`leaf_count_blocks`
    reads them.  The seed goes through one ``numpy.random.SeedSequence``,
    which validates it; streams must lie in [0, 2^32), one uint32 word each.
    """
    if first < 0 or count < 0 or first + count > 1 << 32:
        raise DomainError(f"streams {first}..{first + count - 1} are outside [0, 2^32)")
    ss = np.random.SeedSequence(seed)
    pool = ss.pool.tolist()
    # mixing the seed took 16 hashes, and 4 more per seed word past the pool's 4
    words = max(1, -(-int(ss.entropy).bit_length() // 32))
    hash_const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _MASK32
    bit_generator = np.random.PCG64(ss)
    generator = np.random.Generator(bit_generator)
    for start in range(first, first + count, _SEED_CHUNK):
        streams = np.arange(start, min(start + _SEED_CHUNK, first + count), dtype=np.uint32)
        for state_hi, state_lo, seq_hi, seq_lo in _seed_words(pool, hash_const, streams).tolist():
            # pcg64_set_seed: inc = 2 initseq + 1, then two LCG steps from 0
            inc = (((seq_hi << 64) | seq_lo) << 1 | 1) & _MASK128
            state = ((inc + ((state_hi << 64) | state_lo)) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield generator


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
        if min(self.leaf_counts) < 0:
            raise DomainError("leaf counts must be non-negative")

    @property
    def n(self) -> int:
        """Number of leaves (growth steps applied so far)."""
        return sum(self.leaf_counts)

    @property
    def node_count(self) -> int:
        return self.n + self.m


@dataclass(frozen=True)
class AdjacencyGraph:
    """An undirected graph on nodes 0 .. node_count-1, used by the BFS oracles.

    ``edges`` holds one (u, v) tuple per edge.  The BFS checks them: an end
    outside [0, node_count) or an edge that is not a pair is refused.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]


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


def _raw_leaf_counts(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``simulate_counts(m, n, rng)`` as an int64 array, read from the raw
    PCG64 words of a fresh ``rng``.

    The lanes are the words' uint32 halves, low half first, as ``integers``
    reads them, and are reduced as in :func:`leaf_count_blocks`; a rejected
    lane is dropped and the next one read, until n are accepted.  A chunk
    holds up to ``max(_BLOCK_LANES, m)`` lanes, enough to pay for its
    ``bincount`` of m cells, so memory is O(m + _BLOCK_LANES).  ``rng`` may
    end past the last lane ``integers`` would read: throw it away after.
    """
    threshold = (1 << 32) % m
    counts = np.zeros(m, dtype=np.int64)
    # '<' dtypes: the lanes are each word's halves, low half first, on every platform
    buffer = np.empty(min(n + n % 2, max(_BLOCK_LANES, m + m % 2)), dtype="<u8")
    need = n
    while need:
        product = buffer[:min(need + need % 2, len(buffer))]
        words = rng.bit_generator.random_raw(len(product) // 2).astype("<u8", copy=False)
        product[:] = words.view("<u4")
        product *= np.uint64(m)
        low = product.view("<u4")[0::2]
        rejected = np.flatnonzero(low < threshold) if low.min() < threshold else ()
        product >>= np.uint64(32)
        # a chunk holds need + 1 lanes at most, so one that rejects a lane
        # accepts need at most: it is counted whole, its rejected lanes taken back
        leaves = product[:need + len(rejected)]
        counts += np.bincount(leaves.view("<i8"), minlength=m)
        if len(rejected):
            np.subtract.at(counts, product[rejected].view("<i8"), 1)
        need -= len(leaves) - len(rejected)
    return counts


def leaf_count_blocks(
    seed: int, replications: int, m: int, n: int, rows: int, sampler: str
) -> Iterator[np.ndarray]:
    """Leaf counts of replicates 0, ..., R-1 as int64 blocks of ``rows`` rows, in order.

    Row r is substream (seed, r)'s draw by ``sampler``: :func:`simulate_counts`
    for ``sequential``, :func:`sample_direct_counts` for ``direct``; at n = 0
    every row is zeros and no generator is made.  A sequential draw with
    0 < n <= ``_DRAW_CHUNK`` and at most 1/16 rejected lanes expected a row,
    n (2^32 mod m) / 2^32, runs the block kernel: it reduces the raw words
    of up to ``_BLOCK_LANES // max(n, m)`` rows from :func:`substreams` at
    a time and counts them with one ``bincount``.  A row it does not draw
    (one with a rejected lane, or any row of another draw, n = 10^6
    included) is drawn on its own from ``RngSeed(seed, r).generator()``: a
    sequential row by :func:`_raw_leaf_counts`, from raw words too, so
    ``integers`` never runs here.
    """
    draw = _raw_leaf_counts if sampler == "sequential" else sample_direct_counts
    # numpy maps a uint32 lane to the high half of lane * m and rejects it
    # when the low half is below 2^32 mod m, which is 0 for a power of two
    threshold = (1 << 32) % m
    kernel = sampler == "sequential" and 0 < n <= _DRAW_CHUNK and 16 * n * threshold <= 1 << 32
    sub = max(1, min(rows, replications, _BLOCK_LANES // max(n, m)))
    if kernel:
        streams = substreams(seed, 0, replications)
        # '<' dtypes: the lanes are each word's halves, low half first, on every platform
        word, lane = np.dtype("<u8"), np.dtype("<u4")
        pairs = -(-n // 2)
        products = np.empty((sub, n), dtype=word)
        offsets = np.arange(0, sub * m, m, dtype=word)[:, None]
    for start in range(0, replications, rows):
        # zeros: a row of n = 0 leaves is never drawn
        counts = np.zeros((min(rows, replications - start), m), dtype=np.int64)
        for first in range(start, start + len(counts), sub):
            block = counts[first - start:first - start + sub]
            k = len(block)
            undrawn = range(k) if n else ()
            if kernel:
                product = products[:k]
                # zip takes a row before a generator, so no sub-block seeds past its
                # last row; each row's words widen straight into it, copied once
                for row, rng in zip(product, streams):
                    words = rng.bit_generator.random_raw(pairs).astype(word, copy=False)
                    row[:] = words.view(lane)[:n]
                product *= np.uint64(m)
                low = product.view(lane)[:, 0::2]
                undrawn = ()
                if threshold and low.min() < threshold:
                    undrawn = np.flatnonzero(low.min(axis=1) < threshold)
                product >>= np.uint64(32)
                product += offsets[:k]
                block[:] = np.bincount(product.view("<i8").ravel(), minlength=k * m).reshape(k, m)
            for j in undrawn:
                block[j] = draw(m, n, RngSeed(seed, first + j).generator())
        yield counts


def simulate_counts(m: int, n: int, rng: np.random.Generator) -> list[int]:
    """Leaf counts after ``n`` uniform growth steps, drawn from ``rng``.

    Batch bounded-integer draws from a PCG64 generator are bit-identical to
    repeated single draws in any chunking, so this consumes exactly the
    stream a loop of ``grow_step`` calls would, and leaves the generator in
    the same state.  It draws at most ``_DRAW_CHUNK`` leaves per ``integers``
    call, so memory is O(m + _DRAW_CHUNK) for any n; ``n <= _DRAW_CHUNK`` is
    one call.
    """
    if n <= _DRAW_CHUNK:
        return np.bincount(rng.integers(0, m, size=n), minlength=m).tolist()
    counts = np.zeros(m, dtype=np.int64)
    for start in range(0, n, _DRAW_CHUNK):
        counts += np.bincount(rng.integers(0, m, size=min(_DRAW_CHUNK, n - start)), minlength=m)
    return counts.tolist()


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
    """The tree's spine edges (i, i + 1), then its pendant edges (i, leaf), leaves m, m+1, ..."""
    owners = [i for i, count in enumerate(c.leaf_counts) for _ in range(count)]
    edges = [(i, i + 1) for i in range(c.m - 1)]
    edges += ((i, leaf) for leaf, i in enumerate(owners, c.m))
    return AdjacencyGraph(node_count=c.m + len(owners), edges=tuple(edges))


def _adjacency_arrays(blocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The node counts, edge counts and (E, 2) int64 edge ends of a stack of
    caterpillars, each graph's edges listed as :func:`to_adjacency` lists
    them, with no Caterpillar or edge tuple made.

    ``blocks`` are int64 leaf-count matrices, each of one spine length m;
    their rows, in order, are the stack's graphs.  A graph's second ends
    are 1, 2, ..., N - 1: the spine edges' i + 1, then the leaves m, m + 1,
    ...  Its first ends are the spine's 0 .. m - 2, then each spine node
    once per leaf it holds.
    """
    edge_counts, ends = [], []
    for counts in blocks:
        k, m = counts.shape
        # per row: each of 0 .. m - 2 once, then each of 0 .. m - 1 x_i times
        times = np.ones((k, 2 * m - 1), dtype=np.int64)
        times[:, m - 1:] = counts
        firsts = np.tile(np.r_[0:m - 1, 0:m], k).repeat(times.ravel())
        edges = counts.sum(axis=1) + (m - 1)
        # a graph's edges are numbered from 1 in its own block of the stack
        seconds = np.arange(1, len(firsts) + 1) - (np.add.accumulate(edges) - edges).repeat(edges)
        edge_counts.append(edges)
        ends.append(np.stack((firsts, seconds), axis=1))
    edge_counts = np.concatenate(edge_counts)
    return edge_counts + 1, edge_counts, np.concatenate(ends)
