"""Ground-truth machinery: exhaustive enumeration, BFS distance sums, one-step means.

The enumeration oracle computes exact rational moments of any rational-valued
index over the uniform growth law, by one of two paths that are kept and
cross-checked.  The histories path steps the law n times from the bare
spine, one level at a time, as a dict from leaf-count tuples to counts of
histories: each state's count is added into each of its m successors
(:func:`_successor_counts`, the step :func:`one_step_successors` also
takes), so each distinct state's weight is its counted number of growth
histories.  The compositions path builds the leaf-count compositions a block
at a time, as one int64 matrix of stars-and-bars cut differences, weighted
by their multinomial coefficients, since every index depends on leaf counts
only; ``auto`` takes it.  Below 2^63 histories a block's weights are
products along its rows of one int64 Pascal table, since
n!/(x_1!...x_m!) = prod_i C(x_1 + ... + x_i, x_i); from 2^63 on,
:func:`multinomial_coefficient` computes them one state at a time.  The
two paths differ only in where the weights come from: both evaluate their
states in blocks of ``max(1, BLOCK_CELLS // m)`` with
:func:`~catlab.indices.compute_indices_batch` and reduce to Python-int sums
over one common denominator (:class:`~catlab.experiments.WeightedSums`),
so neither builds a :class:`~catlab.caterpillar.Caterpillar` per state and
no Fraction arithmetic runs per state.  One pass serves any number of indices: the
states, weights and checks are made once, and each block is one evaluator
call for all of them; criterion 6 of :mod:`catlab.verify` makes one pass
per grid point.  The guard counts the cells each path builds:
states x m on the compositions path, and on the histories path the m
successors of m cells of each of the C(n+m-1, m) states it steps.

The BFS oracle is a generic graph algorithm that knows nothing of spines or
leaves, so it stays independent of the edge-cut formula it checks.  It runs
one level-synchronous BFS from every node at once, over a stack of G graphs
with node counts N_g laid out block-diagonally: node v of graph g is node
N_0 + ... + N_{g-1} + v of the stack, and a reached set is a row of
ceil(max N_g / 64) uint64 words, one bit per node of its graph.  Two
entries share one core, :func:`_bfs_stack`, which holds the guards and the
per-end bounds check and reads node counts and edge ends only.
:func:`bfs_distance_sums_many` reads :class:`AdjacencyGraph` objects: it
refuses a malformed node count or edge and flattens the stack's edges once
into one list of ends.  The private :func:`_bfs_distance_sums_arrays`
reads int arrays of node counts, edge counts and (E, 2) ends, and leaves
them unchanged.  Criterion 7 of :mod:`catlab.verify` runs its exhaustive
grid and its random states through the array entry, from
:func:`~catlab.caterpillar._adjacency_arrays`.

Only the non-pendant nodes have rows.  A pendant is a node w of degree 1
whose one neighbour u has degree 2 or more: every leaf of a caterpillar and,
but in K_2, every leafless spine end, 78% of criterion 7's random states'
nodes.  In any graph B_k(w) = {w} | B_{k-1}(u), so w's row would hold
nothing that u's rows do not.  Level 1 is written straight from the edge
list: each row gets its own bit and every neighbour's, by
``np.bitwise_or.at``.  From level 2 on, a row ORs in its own row and the
rows of its first and second non-pendant neighbours (its own where it has
none) and, for the rows with more, the rows of the others, unbuffered; a
caterpillar's spine nodes have at most two such neighbours.  Graph g's rows
are one run, in its own node order.  The pairs it has reached by level k
are its rows' popcounts plus, for each row, its pendants times its popcount
at level k - 1 (times 2 at level 1): one ``np.add.reduceat`` of popcounts
weighted to carry both sums in one int64 a graph.  The pairs at distance k
are the gain at level k.  Only these per-level counts are kept, no distance
table, and both distance sums are products of the count matrix with d and
d^2.  A stack pays numpy's per-call cost once for all its graphs: criterion
7 runs whole points of its exhaustive grid, and its random states sorted by
spine length, in stacks of up to 4,500 nodes.

The one-step law, :func:`one_step_means`, is the exact mean of any index
over the m successors of each of many states, evaluated as one batch of
leaf-count rows per spine length.  Like the other oracles it reads the
index functions only and states no closed form: criteria 8 and 9 of
:mod:`catlab.verify` hold it against the paper's martingale compensator
and super-martingale bound in :mod:`catlab.theory`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .caterpillar import AdjacencyGraph, Caterpillar, _check_mn
from .errors import DomainError, ResourceLimitError
from .experiments import WeightedSums
from .indices import IndexSpec, _check_int64, compute_indices_batch

__all__ = [
    "ExactMoments",
    "ENUMERATION_GUARD",
    "BLOCK_CELLS",
    "choose_method",
    "compositions",
    "multinomial_coefficient",
    "enumerate_exact",
    "bfs_distance_sums_many",
    "wiener_bfs",
    "hyper_wiener_bfs",
    "one_step_successors",
    "one_step_means",
]

ENUMERATION_GUARD = 10**7

# The compositions path holds max(1, BLOCK_CELLS // m) states at a time.  Each
# state carries a weight, value and ratio as Python objects (and, from 2^63
# histories on, a count list) next to its int64 row, so the block is a
# quarter of the replicate engine's: at (5, 20), 204 states per block keep
# the tracemalloc peak at 0.26 MiB, where 819 states reached 0.53 MiB and
# ran no faster.
BLOCK_CELLS = 1024


@dataclass(frozen=True)
class ExactMoments:
    """Exact rational moments of an index over all equally likely histories."""

    mean: Fraction
    second_moment: Fraction
    support_size: int
    history_count: int

    @property
    def variance(self) -> Fraction:
        return self.second_moment - self.mean * self.mean


def compositions(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All m-tuples of non-negative integers summing to n, in lexicographic order.

    The rows of :func:`_composition_blocks`, in blocks of
    ``max(1, BLOCK_CELLS // m)``, as tuples; m < 1 or n < 0 raises
    :class:`DomainError`.
    """
    if m < 1:
        raise DomainError(f"compositions need m >= 1 parts, got {m}")
    if n < 0:
        raise DomainError(f"compositions need a sum n >= 0, got {n}")
    for counts in _composition_blocks(n, m, max(1, BLOCK_CELLS // m)):
        yield from map(tuple, counts.tolist())


def _composition_blocks(n: int, m: int, rows: int) -> Iterator[np.ndarray]:
    """The compositions of n into m parts as int64 matrices of up to ``rows``
    rows each, in lexicographic order.

    Stars and bars: the m - 1 bars stand at cut points 0 <= c_1 <= ... <= n
    among the n stars, and the parts are the gaps between successive cuts,
    the differences of the cuts padded with 0 and n.
    """
    total = math.comb(n + m - 1, m - 1)
    # Read as one stream of ints, each cut tuple is dropped before the next
    # is drawn, so itertools reuses it rather than allocating one per state.
    cuts = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(n + 1), m - 1)
    )
    # The padding columns are written once; each block fills the columns
    # between them and is differenced once.
    padded = np.zeros((min(rows, total), m + 1), dtype=np.int64)
    padded[:, m] = n
    for start in range(0, total, rows):
        size = min(rows, total - start)
        block = padded[:size]
        block[:, 1:m] = np.fromiter(cuts, dtype=np.int64, count=size * (m - 1)).reshape(size, m - 1)
        yield block[:, 1:] - block[:, :-1]


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
    """Resolve the enumeration path: ``auto`` is the compositions path, and
    the histories path runs only by name, as the cross-check of the weights.

    ``m``, ``n`` and ``guard`` are unread; callers pass them positionally.
    """
    if method not in ("auto", "histories", "compositions"):
        raise DomainError(f"unknown enumeration method {method!r}")
    return "compositions" if method == "auto" else method


def _history_blocks(m: int, n: int, rows: int) -> Iterator[tuple[np.ndarray, tuple[int, ...]]]:
    """The distinct states n growth steps from the bare spine, with their
    counts of histories, in blocks of up to ``rows``: an int64 leaf-count
    matrix and its rows' counts.

    Each level maps leaf-count tuples to counts; each state's count is added
    into each of its m successors (:func:`_successor_counts`), so the chain
    steps the C(n+m-1, m) states of levels 0..n-1 once each.
    """
    histories = {(0,) * m: 1}
    for _ in range(n):
        grown = {}
        for x, count in histories.items():
            for s in _successor_counts(x):
                grown[s] = grown.get(s, 0) + count
        histories = grown
    items = iter(histories.items())
    while chunk := list(itertools.islice(items, rows)):
        states, counts = zip(*chunk)
        yield np.array(states, dtype=np.int64), counts


def enumerate_exact(
    m: int,
    n: int,
    index: IndexSpec | str,
    method: str = "auto",
    guard: int = ENUMERATION_GUARD,
) -> ExactMoments:
    """Exact mean/variance of an index over the uniform growth law at (m, n).

    ``method`` is ``"histories"`` (n growth steps of leaf-count tuples from
    the bare spine, with counted history weights), ``"compositions"``
    (leaf-count compositions built as int64 blocks, with multinomial
    weights from an int64 Pascal table below 2^63 histories), or
    ``"auto"``, which is the compositions path.  The cells the chosen path
    builds, states x m (on the histories path, C(n+m-1, m) stepped states
    x m successors x m), must stay within ``guard`` (else
    :class:`ResourceLimitError`), and (m, n) within the batched evaluator's
    exact range :func:`~catlab.indices.fits_int64` (else
    :class:`DomainError`); within the default guard, only n = 0 with
    m >= 2^21 falls outside that range.
    """
    return _enumerate_moments(m, n, (index,), method, guard)[0]


def _enumerate_moments(
    m: int,
    n: int,
    indices: Sequence[IndexSpec | str],
    method: str = "auto",
    guard: int = ENUMERATION_GUARD,
) -> list[ExactMoments]:
    """:func:`enumerate_exact` of each of ``indices``, from one pass.

    The states, their weights and the checks are made once, and each block
    is evaluated for every index by one
    :func:`~catlab.indices.compute_indices_batch` call.
    """
    _check_mn(m, n)
    specs = [IndexSpec.parse(index) if isinstance(index, str) else index for index in indices]
    for spec in specs:
        if spec.kind == "randic" and spec.alpha != 1:
            raise DomainError(f"exact Randic evaluation requires alpha = 1, got {spec.alpha}")
    method = choose_method(m, n, method, guard)
    _check_int64(m, n)
    block = max(1, BLOCK_CELLS // m)

    # The sizes are stated as C(., .): str() refuses ints past 4300 digits.
    if method == "histories":
        if math.comb(n + m - 1, m) * m * m > guard:
            raise ResourceLimitError(
                f"stepping C({n + m - 1},{m}) states, each to {m} successors of {m}"
                f" cells, exceeds the guard of {guard} cells; use the composition method"
            )
    elif math.comb(n + m - 1, m - 1) * m > guard:
        raise ResourceLimitError(
            f"enumeration of C({n + m - 1},{m - 1}) compositions of {m} cells"
            f" exceeds the guard of {guard} cells"
        )

    history_count = m**n
    if method == "histories":
        blocks = _history_blocks(m, n, block)
    elif history_count < 2**63:
        # n!/prod x_i! = prod_i C(x_1 + ... + x_i, x_i), read from one int64
        # Pascal table (m >= 2, so n <= 62): every factor is at least 1 and
        # the product at most m^n, so no partial product overflows.
        pascal = np.zeros((n + 1, n + 1), dtype=np.int64)
        pascal[:, 0] = 1
        for a in range(1, n + 1):
            pascal[a, 1:] = pascal[a - 1, 1:] + pascal[a - 1, :-1]
        blocks = (
            (counts, pascal[counts.cumsum(axis=1), counts].prod(axis=1).tolist())
            for counts in _composition_blocks(n, m, block)
        )
    else:
        blocks = (
            (counts, list(map(multinomial_coefficient, counts.tolist())))
            for counts in _composition_blocks(n, m, block)
        )

    sums = [WeightedSums(support=set()) for _ in specs]
    for counts, weights in blocks:
        for acc, column in zip(sums, compute_indices_batch(counts, specs)):
            acc.add(column, weights)
    return [
        ExactMoments(
            mean=Fraction(acc.total, history_count * acc.denominator),
            second_moment=Fraction(acc.total_sq, history_count * acc.denominator**2),
            support_size=len(acc.support),
            history_count=history_count,
        )
        for acc in sums
    ]


def _bfs_levels(graphs: Sequence[AdjacencyGraph]) -> np.ndarray:
    """:func:`_bfs_stack` of a stack of :class:`AdjacencyGraph`: refuses
    (:class:`DomainError`) a node count that is not a non-negative int and,
    once the guards pass, an edge that is not a pair of int node numbers.
    """
    sizes = [g.node_count for g in graphs]
    for size in sizes:
        # True * True is 1 node, and -3 or 2.5 would fail deep inside numpy.
        if not isinstance(size, (int, np.integer)) or isinstance(size, bool) or size < 0:
            raise DomainError(f"node_count must be a non-negative int, got {size!r}")
    return _bfs_stack(
        list(map(int, sizes)), [len(g.edges) for g in graphs], lambda: _read_ends(graphs)
    )


def _read_ends(graphs: Sequence[AdjacencyGraph]) -> np.ndarray:
    """The stack's edges as one (E, 2) int array, read once as one flat list
    of ends whose types are checked in one pass."""
    edges = list(itertools.chain.from_iterable(g.edges for g in graphs))
    try:
        # A bare int or a generator has no len, and numpy reads a str or
        # bytes edge (numpy's own too) as one scalar, so none of them is a pair.
        kinds = set(map(type, edges))
        if set(map(len, edges)) - {2} or any(issubclass(kind, (str, bytes)) for kind in kinds):
            raise TypeError
        ends = list(itertools.chain.from_iterable(edges))
        # A bool end would read as 0 or 1.
        if {bool, np.bool_} & set(map(type, ends)):
            raise TypeError
        # numpy reads [] as float64, so no edges are read as no int ends.
        ends = np.array(ends) if ends else np.empty(0, dtype=np.intp)
    except (TypeError, ValueError):  # ValueError: ends of unequal shapes
        ends = None
    # A float or string end, or an int past int64, turns the whole array
    # from int, and an end that is itself a sequence changes its shape.
    if ends is None or ends.dtype.kind != "i" or ends.shape != (2 * len(edges),):
        raise DomainError("every edge must be a pair (u, v) of node numbers")
    return ends.reshape(-1, 2)


def _bfs_stack(sizes: list[int], edge_counts: list[int], read_ends) -> np.ndarray:
    """Level-synchronous BFS from every node of every graph at once.

    The stack holds G graphs with node counts ``sizes`` and edge counts
    ``edge_counts``, laid out block diagonally; ``read_ends()`` returns
    their (E, 2) int edge ends, graph after graph, each graph's in its own
    numbering, and is called only once the guards pass.  Returns a (G, L)
    int64 matrix whose row g counts the ordered node pairs of graph g at
    distance 1, 2, ..., L, where L is the stack's largest diameter; a row's
    zeros are the levels after its graph was done.  The sum of the N_g^2
    pairs and the gathered neighbour rows of ceil(max N_g / 64) words must
    stay within ``ENUMERATION_GUARD`` cells, and every end within its own
    graph's nodes (else :class:`DomainError`).

    Only non-pendant nodes have a row of the reached table.  A pendant is a
    node of degree 1 whose one neighbour u has degree 2 or more, and
    B_k(w) = {w} | B_{k-1}(u) for any graph, so its row would hold nothing
    that u's rows do not: its counts are read off u's previous level.
    """
    stack = len(sizes)
    if not stack:
        return np.zeros((0, 0), dtype=np.int64)
    cells = sum(size * size for size in sizes)
    if cells > ENUMERATION_GUARD:
        size = sizes[0]
        if stack == 1:
            tables = f"{size}^2"
        elif sizes.count(size) == stack:
            tables = f"{stack} x {size}^2"
        else:
            tables = f"{stack} graphs of {min(sizes)} to {max(sizes)} nodes"
        raise ResourceLimitError(
            f"BFS distance table of {tables} = {cells} cells exceeds the"
            f" guard of {ENUMERATION_GUARD}"
        )
    words = -(-max(sizes) // 64)
    # The table has at most one row per node, and a level gathers at most
    # one row per row and per edge end.
    total = sum(sizes)
    gathered = total + 2 * sum(edge_counts)
    if gathered * words > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"BFS neighbour rows of {gathered} x {words} words exceed the"
            f" guard of {ENUMERATION_GUARD}"
        )
    # Within the guards the stack has fewer than 10^7 nodes and edge ends,
    # and its table fewer than 8 x 10^7 bytes, so int32 holds every node,
    # row and byte number.  numpy turns an int32 index array into intp on
    # each use, so only arrays held through the set-up are int32, and each
    # is dropped once read: criterion 7's stacks of 4,500 nodes stay within
    # its test's 400 KiB tracemalloc peak that way.
    sizes = np.array(sizes, dtype=np.int32)
    # Each end within its own graph's nodes: an end of N_g would reach the
    # next graph's rows.  As unsigned, a negative end reads at least 2^63.
    bounds = sizes.astype(np.uint32).repeat(edge_counts)
    ends = read_ends()
    outside = ends.astype(np.intp, copy=False).view(np.uintp) >= bounds[:, None]
    if outside.any():
        raise DomainError(
            f"an edge end lies outside the nodes [0, {bounds[outside.nonzero()[0][0]]})"
        )
    del bounds, outside
    # Graph g's nodes are first[g] .. first[g] + N_g - 1 in the stack.  Each
    # edge end as a node of the stack, widened before the shift (numpy int8
    # ends would wrap) into a new array, so the caller's ends stay; and the
    # other end of its edge.
    first = np.add.accumulate(sizes, dtype=np.int32) - sizes
    tails = ends.astype(np.int32).ravel()
    tails += first.repeat(edge_counts).repeat(2)
    heads = tails.reshape(-1, 2)[:, ::-1].ravel()
    # A self-loop adds 2 to its node's degree, and a repeated edge 1 to each
    # end's, so neither leaves a pendant.  Each other node keeps a row, in
    # node order, and counts its pendant neighbours.
    degree = np.bincount(tails, minlength=total)
    pendant = (degree == 1).take(tails)
    pendant &= (degree > 1).take(heads)
    del degree
    kept = np.ones(total, dtype=bool)
    kept[tails[pendant]] = False
    pendants = np.bincount(heads[pendant], minlength=total)[kept]
    rows = len(pendants)
    row = np.add.accumulate(kept, dtype=np.int32) - 1
    # The ends with a row (all but the pendants' own) as rows, and the other
    # ends of their edges as nodes.
    tails = row.take(tails[~pendant])
    heads = heads[~pendant]
    del pendant
    # From level 2 on, a row ORs in its own row and its non-pendant
    # neighbours' rows: for k >= 2 a pendant neighbour's B_{k-1} lies in the
    # row's own.  Its first and second such neighbours' rows (its own where
    # it has none) are two gathers; the rows with more (none in a
    # caterpillar) OR in the rest unbuffered, a row once per neighbour.
    inner = kept.take(heads)
    nodes = np.arange(rows)
    first_nbr, hubs, others = _first_neighbours(tails[inner], row.take(heads[inner]), nodes)
    second, hubs, others = _first_neighbours(hubs, others, nodes)
    del inner, row, nodes
    # Level 1, from the edge list: each row gets its own bit and every
    # neighbour's.  Little-endian words, so bit j of row r is bit j % 8 of
    # byte 8 * words * r + j // 8.  A row's own bits are one a row; its
    # neighbours' can share a byte, so they are ORed in unbuffered.
    reached = np.zeros((rows, words), dtype="<u8")
    table = reached.view(np.uint8).reshape(-1)
    column = np.arange(total, dtype=np.int32) - first.repeat(sizes)
    own = column[kept]
    table[8 * words * np.arange(rows) + (own >> 3)] = 1 << (own & 7)
    column = column.take(heads)
    del own, heads
    tails *= 8 * words
    tails += column >> 3
    np.bitwise_or.at(table, tails, 1 << (column & 7).astype(np.uint8))
    del table, tails, column
    # Graph g's rows are one run, and so are their words; a 0-node graph has
    # none, and counts 0 pairs.
    filled = sizes > 0
    first_rows = (np.add.accumulate(kept) - kept)[first[filled]]
    first_words = first_rows * words
    # Graph g's ordered pairs within distance k are the sum S_k of |B_k(v)|
    # over its rows plus, for each pendant w of a row u, |B_k(w)|: that is
    # |B_{k-1}(u)| from k = 2 on, so the sum T_{k-1} of l_v |B_{k-1}(v)|
    # over its rows, l_v being v's pendants; B_1(w) = {w, u}, so T_0 is
    # twice its pendants.  One reduceat of the words weighted 1 + l_v 2^32
    # gives S_k + 2^32 T_k: each is at most the guarded pairs, below 2^32.
    weights = (1 + (pendants << 32)).repeat(words)
    levels = []
    paired, lag = total, 2 * int(np.add.reduce(pendants))
    while paired < cells:
        if levels:
            step = reached.take(first_nbr, axis=0)
            step |= reached
            step |= reached.take(second, axis=0)
            if len(hubs):
                np.bitwise_or.at(step, hubs, reached.take(others, axis=0))
            reached = step
        levels.append(np.add.reduceat(np.bitwise_count(reached).ravel() * weights, first_words))
        # A graph that gains no pair never gains one again, so a stalled
        # member shows once the others are done.
        level = int(np.add.reduce(levels[-1]))
        now = (level & 0xFFFFFFFF) + lag
        if now == paired:
            raise DomainError("graph is disconnected: BFS did not reach every node")
        paired, lag = now, level >> 32
    # The pairs within distance k only grow, so a level's new pairs are the
    # differences.
    per_graph = np.zeros((stack, len(levels)), dtype=np.int64)
    if levels:
        levels = np.array(levels)
        within = levels & 0xFFFFFFFF
        within[0] += 2 * np.add.reduceat(pendants, first_rows)
        within[1:] += levels[:-1] >> 32
        per_graph[filled] = np.diff(within, axis=0, prepend=sizes[filled][None]).T
    return per_graph


def _first_neighbours(tails, heads, nodes):
    """A first neighbour of each of ``nodes`` in the edge list ``tails`` ->
    ``heads``, in any order (the node itself where it lists none), and the
    edges to its other neighbours.

    Where a node lists several, one indexed assignment keeps one of them;
    every edge to that one, a repeated edge too, leaves the list, since its
    row would be ORed in twice.
    """
    first = nodes.copy()
    first[tails] = heads
    rest = heads != first.take(tails)
    return first, tails[rest], heads[rest]


def bfs_distance_sums_many(graphs: Sequence[AdjacencyGraph]) -> list[tuple[int, int]]:
    """(sum of d, sum of d^2) over the unordered node pairs of each graph of
    a stack, from its per-level pair counts; no distance table is stored.

    The stack runs as one BFS, its graphs laid out block-diagonally, so they
    may have different node counts; the guard applies to the sum of their
    N_g x N_g pairs.  Both sums are int64 products of the level-count matrix
    with d and d^2: they are at most max N_g^2 times the guarded pair count.
    """
    return _level_sums(_bfs_levels(graphs))


def _bfs_distance_sums_arrays(
    node_counts: np.ndarray, edge_counts: np.ndarray, ends: np.ndarray
) -> list[tuple[int, int]]:
    """:func:`bfs_distance_sums_many` of a stack given as arrays: its graphs'
    int node counts and edge counts, and their (E, 2) int edge ends, graph
    after graph, each graph's in its own numbering.  ``ends`` is not changed.
    """
    return _level_sums(_bfs_stack(node_counts.tolist(), edge_counts.tolist(), lambda: ends))


def _level_sums(counts: np.ndarray) -> list[tuple[int, int]]:
    """Each row's (sum of d, sum of d^2) over unordered pairs, from its
    ordered pairs at distance 1, 2, ..."""
    d = np.arange(1, counts.shape[1] + 1, dtype=np.int64)
    sums = counts @ np.stack((d, d * d), axis=1) // 2
    return list(map(tuple, sums.tolist()))


def wiener_bfs(g: AdjacencyGraph) -> int:
    """Wiener index from explicit BFS distances (unordered pairs)."""
    return bfs_distance_sums_many([g])[0][0]


def hyper_wiener_bfs(g: AdjacencyGraph) -> int:
    """Hyper-Wiener index from explicit BFS distances: sum of d + d^2."""
    return sum(bfs_distance_sums_many([g])[0])


def _successor_counts(x: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The leaf counts of the m equally likely states one growth step after
    leaf counts ``x``: one more leaf on spine node i, for i = 0 .. m-1."""
    return [x[:i] + (x[i] + 1,) + x[i + 1:] for i in range(len(x))]


def one_step_successors(c: Caterpillar) -> list[Caterpillar]:
    """The m equally likely states one growth step after ``c``."""
    return [Caterpillar(c.m, x) for x in _successor_counts(c.leaf_counts)]


def one_step_means(states: Sequence[Caterpillar], index: IndexSpec | str) -> list[Fraction]:
    """Exact mean of an index over the m equally likely states one growth
    step after each of ``states``, in their order.

    The states of each spine length make one
    :func:`~catlab.indices.compute_indices_batch` call: each state's counts
    tiled m times plus the identity are its m successors' rows.  So this
    raises :class:`DomainError` where that evaluator does.  Each state's
    successor values are summed in successor order, so Randic with
    alpha != 1 sums its floats as one state alone would, before the exact
    conversion.
    """
    spec = IndexSpec.parse(index) if isinstance(index, str) else index
    by_length = {}
    for k, c in enumerate(states):
        by_length.setdefault(c.m, []).append(k)
    means = [None] * len(states)
    for m, group in by_length.items():
        counts = np.array([states[k].leaf_counts for k in group], dtype=np.int64)
        successors = (counts[:, None, :] + np.eye(m, dtype=np.int64)).reshape(-1, m)
        values = compute_indices_batch(successors, (spec,))[0]
        for j, k in enumerate(group):
            means[k] = Fraction(sum(values[j * m:(j + 1) * m])) / m
    return means
