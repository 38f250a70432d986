"""Core model: growth process, samplers, degrees, edge lists, determinism."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from catlab import caterpillar
from catlab.caterpillar import (
    Caterpillar,
    RngSeed,
    _adjacency_arrays,
    degree_sequence,
    grow_step,
    leaf_count_blocks,
    new_spine,
    sample_direct_counts,
    simulate_counts,
    substreams,
    to_adjacency,
)
from catlab.errors import DomainError
from catlab.indices import zagreb
from catlab.oracle import compositions, multinomial_coefficient
from catlab.verify import _random_states
from conftest import sampled


def test_new_spine():
    assert new_spine(2) == Caterpillar(2, (0, 0))
    assert new_spine(5).leaf_counts == (0,) * 5
    with pytest.raises(DomainError, match="m must be >= 2"):
        new_spine(1)


def test_caterpillar_invariants():
    c = Caterpillar(3, (4, 0, 1))
    assert c.n == 5
    assert c.node_count == 8
    with pytest.raises(DomainError):
        Caterpillar(3, (1, 2))
    for counts in ((1, -1, 0), (-1, 2, 3), (0, 0, -5)):
        with pytest.raises(DomainError, match="^leaf counts must be non-negative$"):
            Caterpillar(3, counts)


def test_grow_step_adds_one_leaf():
    rng = RngSeed(5).generator()
    c = Caterpillar(3, (4, 0, 1))
    grown = grow_step(c, rng)
    assert grown.n == 6
    diffs = [b - a for a, b in zip(c.leaf_counts, grown.leaf_counts)]
    assert sorted(diffs) == [0, 0, 1]


def test_two_step_law_from_enumeration():
    """All 4 equally likely two-step histories on m=2 give 1/4, 1/2, 1/4."""
    law = {}
    for picks in itertools.product(range(2), repeat=2):
        counts = [0, 0]
        for i in picks:
            counts[i] += 1
        law[tuple(counts)] = law.get(tuple(counts), 0) + 1
    assert law == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    # multinomial weights agree with the raw history count
    for counts, histories in law.items():
        assert multinomial_coefficient(counts) == histories


def test_simulate_basics():
    assert sampled(3, 0, RngSeed(1).generator()).leaf_counts == (0, 0, 0)
    a = sampled(2, 1000, RngSeed(7).generator())
    b = sampled(2, 1000, RngSeed(7).generator())
    assert a == b
    assert a.n == 1000


def test_simulate_matches_repeated_grow_steps():
    """Batched draws consume the stream exactly like n grow_step calls."""
    seed = RngSeed(99, 3)
    batched = sampled(5, 40, seed.generator())
    rng = seed.generator()
    state = new_spine(5)
    for _ in range(40):
        state = grow_step(state, rng)
    assert state == batched


def _one_shot_counts(m, n, rng):
    """The unchunked draw: all n leaves in one integers() call."""
    return np.bincount(rng.integers(0, m, size=n), minlength=m)


@pytest.mark.parametrize("chunk", [7, 64])
def test_chunked_draw_equals_one_shot_draw(monkeypatch, chunk):
    """Same counts and same generator state at every chunk edge, one draw
    after another from a single generator as verify's random states do."""
    monkeypatch.setattr(caterpillar, "_DRAW_CHUNK", chunk)
    for m in (2, 3, 200):
        rng, want = RngSeed(11, m).generator(), RngSeed(11, m).generator()
        # n = 0 after an odd n: a buffered half of a 64-bit word stays put
        for n in (1, 0, chunk - 1, chunk, chunk + 1, 3 * chunk + 1):
            counts = simulate_counts(m, n, rng)
            assert all(type(count) is int for count in counts)
            assert np.array_equal(counts, _one_shot_counts(m, n, want)), (m, n)
            assert rng.bit_generator.state == want.bit_generator.state, (m, n)


def test_chunked_draw_equals_one_shot_draw_at_the_stress_scale():
    """2^32 mod 10^4 = 7296, so Lemire rejections fall inside the chunks."""
    m, n = 10_000, 10**6
    assert n > caterpillar._DRAW_CHUNK
    rng, want = RngSeed(31415, 2).generator(), RngSeed(31415, 2).generator()
    assert np.array_equal(simulate_counts(m, n, rng), _one_shot_counts(m, n, want))
    assert rng.bit_generator.state == want.bit_generator.state


def test_leaf_draw_memory_is_bounded():
    """The one-shot draw peaked at 76 MiB here; the chunks keep it under 1 MiB."""
    rng = RngSeed(3).generator()
    tracemalloc.start()
    try:
        counts = simulate_counts(100, 10**7, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts) == 10**7
    assert peak < 2**20, peak


def _numpy_counts(seed, r, m, n):
    """Substream (seed, r)'s leaf counts from numpy alone."""
    ss = np.random.SeedSequence(seed, spawn_key=(r,))
    rng = np.random.Generator(np.random.PCG64(ss))
    return np.bincount(rng.integers(0, m, size=n), minlength=m)


def _rejected_lanes(seed, r, m, n):
    """The positions among the first n uint32 lanes of substream (seed, r) that
    numpy's Lemire reduction rejects, read straight from its raw 64-bit words."""
    ss = np.random.SeedSequence(seed, spawn_key=(r,))
    words = np.random.PCG64(ss).random_raw(-(-n // 2)).astype("<u8")
    lanes = words.view("<u4")[:n].astype(np.uint64)
    low = lanes * np.uint64(m) & np.uint64(2**32 - 1)
    return np.flatnonzero(low < 2**32 % m).tolist()


def _raw_counts(seed, r, m, n):
    counts = caterpillar._raw_leaf_counts(m, n, RngSeed(seed, r).generator())
    assert counts.dtype == np.int64 and counts.shape == (m,)
    return counts


@pytest.mark.parametrize("lanes", [None, 8, 64])
def test_raw_row_draw_equals_numpy_draws(monkeypatch, lanes):
    """At 8 and 64 lanes a chunk (200 at m = 200) n spans several chunks, and
    an odd n ends a word early; m = 2 and 64 are powers of two, 3 and 200 are
    not."""
    if lanes:
        monkeypatch.setattr(caterpillar, "_BLOCK_LANES", lanes)
    for m in (2, 64, 3, 200):
        for n in (0, 1, 2, 7, 8, 9, 63, 64, 65, 200, 201, 1001):
            for r in (0, 1):
                assert np.array_equal(_raw_counts(7, r, m, n), _numpy_counts(7, r, m, n)), (m, n, r)


@pytest.mark.parametrize(
    "m, n, least",
    # 2^32 mod 10^4 = 7296 rejects about 1.7 lanes of 10^6, and
    # 2^32 mod 999,999 = 971,590 about 68 lanes of 300,000
    [(10_000, 10**6, 1), (999_999, 300_000, 40)],
)
def test_raw_row_draw_drops_every_rejected_lane(m, n, least):
    for seed in (1, 31415, 2**160 + 5):
        for r in range(3):
            assert np.array_equal(_raw_counts(seed, r, m, n), _numpy_counts(seed, r, m, n))
    assert max(len(_rejected_lanes(1, r, m, n)) for r in range(3)) >= least


def test_raw_row_draw_with_rejected_lanes_on_chunk_edges():
    """A chunk holds whole words: a rejected high half can end the first chunk
    and a rejected low half can open the top-up chunk after it."""
    m, seed, r = 999_999, 31415, 0
    rejected = _rejected_lanes(seed, r, m, 300_000)
    last = next(p for p in rejected[1:] if p % 2)  # the first chunk's last lane
    first = next(p for p in rejected[1:] if p % 2 == 0)  # the top-up's first lane
    for n in (last + 1, first, first - 1):
        assert np.array_equal(_raw_counts(seed, r, m, n), _numpy_counts(seed, r, m, n)), n


def test_raw_row_draw_memory_is_bounded():
    """Chunks of 2^15 lanes keep the raw draw under 1 MiB at any n."""
    rng = RngSeed(3).generator()
    tracemalloc.start()
    try:
        counts = caterpillar._raw_leaf_counts(100, 10**7, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() == 10**7
    assert peak < 2**20, peak


def _blocks(seed, replications, m, n, rows, sampler="sequential"):
    blocks = list(leaf_count_blocks(seed, replications, m, n, rows, sampler))
    sizes = [min(rows, replications - start) for start in range(0, replications, rows)]
    assert [len(b) for b in blocks] == sizes
    assert all(b.dtype == np.int64 and b.shape[1] == m for b in blocks)
    return np.concatenate(blocks)


CHUNK = caterpillar._DRAW_CHUNK


@pytest.mark.parametrize("seed", [1, 2**160 + 5])  # one and six seed words
@pytest.mark.parametrize(
    "m, n",
    # m = 2 and 64 are powers of two (no rejection); 3, 7 and 200 are not
    [(2, 0), (2, 1), (3, 1), (2, 37), (64, 1001), (200, 5000), (7, CHUNK), (7, CHUNK + 1)],
)
def test_leaf_count_blocks_equal_numpy_draws(seed, m, n):
    replications = 13 if n < CHUNK else 3
    want = [_numpy_counts(seed, r, m, n) for r in range(replications)]
    for rows in (1, 5, 20):
        assert np.array_equal(_blocks(seed, replications, m, n, rows), want), rows


def _reference_states(seed, streams):
    """The state of ``RngSeed(seed, r).generator()`` for each r in ``streams``."""
    return [RngSeed(seed, r).generator().bit_generator.state for r in streams]


@pytest.mark.parametrize("lanes", [None, 1 << 17])
def test_leaf_count_blocks_redraw_exactly_the_rejected_rows(monkeypatch, lanes):
    """2^32 mod 15860 = 15856, so a row of 16384 lanes holds a rejected lane
    with probability 0.06, inside the 1/16 the block path takes; at 2^17
    lanes a sub-block holds 8 rows, so rejected rows sit at every offset."""
    m, n, seed, replications = 15_860, 16_384, 31415, 80
    assert 16 * n * (2**32 % m) <= 2**32
    if lanes:
        monkeypatch.setattr(caterpillar, "_BLOCK_LANES", lanes)
    rejected = [r for r in range(replications) if _rejected_lanes(seed, r, m, n)]
    assert len(rejected) >= 3, rejected
    redrawn = []
    raw_leaf_counts = caterpillar._raw_leaf_counts

    def counted(m, n, rng):
        redrawn.append(rng.bit_generator.state)
        return raw_leaf_counts(m, n, rng)

    monkeypatch.setattr(caterpillar, "_raw_leaf_counts", counted)
    want = [_numpy_counts(seed, r, m, n) for r in range(replications)]
    assert np.array_equal(_blocks(seed, replications, m, n, 10), want)
    assert redrawn == _reference_states(seed, rejected)


def _refuse(*args):
    raise AssertionError("made a generator")


def _own_generator_states(monkeypatch, name):
    """Refuse :func:`substreams`, and record the generator state that each call
    of the draw ``caterpillar.<name>`` starts from."""
    states = []
    draw = getattr(caterpillar, name)

    def recorded(m, n, rng):
        states.append(rng.bit_generator.state)
        return draw(m, n, rng)

    monkeypatch.setattr(caterpillar, "substreams", _refuse)
    monkeypatch.setattr(caterpillar, name, recorded)
    return states


@pytest.mark.parametrize(
    "m, n",
    # past the 1/16 expected rejections per row, past the chunk, and n = 0
    [(15_860, 16_930), (3, CHUNK + 1), (200, 0)],
)
def test_leaf_count_blocks_draw_per_replicate_outside_the_block_rule(monkeypatch, m, n):
    """Outside the kernel's rule each row is drawn from its own reference
    generator, once and in row order, and substreams() never runs; at n = 0
    no generator is made at all."""
    want = [_numpy_counts(7, r, m, n) for r in range(3)]
    reference = _reference_states(7, range(3)) if n else []
    states = _own_generator_states(monkeypatch, "_raw_leaf_counts")
    if not n:
        monkeypatch.setattr(RngSeed, "generator", _refuse)
    assert np.array_equal(_blocks(7, 3, m, n, 2), want)
    assert states == reference


@pytest.mark.parametrize("sampler", ["sequential", "direct"])
def test_leaf_count_blocks_of_zero_leaves_make_no_generator(monkeypatch, sampler):
    monkeypatch.setattr(RngSeed, "generator", _refuse)
    monkeypatch.setattr(caterpillar, "substreams", _refuse)
    blocks = _blocks(7, 11, 5, 0, 4, sampler)
    assert blocks.shape == (11, 5) and not blocks.any()


def test_leaf_count_blocks_direct_sampler(monkeypatch):
    want = [sample_direct_counts(6, 300, RngSeed(5, r).generator()) for r in range(7)]
    states = _own_generator_states(monkeypatch, "sample_direct_counts")
    assert _blocks(5, 7, 6, 300, 3, "direct").tolist() == want
    assert states == _reference_states(5, range(7))


def test_sample_direct_basics():
    assert sampled(4, 0, RngSeed(1).generator(), sample_direct_counts).leaf_counts == (0, 0, 0, 0)
    a = sampled(3, 500, RngSeed(11).generator(), sample_direct_counts)
    assert a.n == 500
    assert a == sampled(3, 500, RngSeed(11).generator(), sample_direct_counts)


def test_sample_direct_large_n_counts_near_mean():
    """Each count within 5 sd of n/m; sd = sqrt(n(m-1))/m."""
    m, n = 3, 10**6
    c = sampled(m, n, RngSeed(2).generator(), sample_direct_counts)
    sd = math.sqrt(n * (m - 1)) / m
    for x in c.leaf_counts:
        assert abs(x - n / m) < 5 * sd


def _exact_multinomial_law(m: int, n: int) -> dict[tuple, float]:
    total = m**n
    return {
        counts: multinomial_coefficient(counts) / total for counts in compositions(n, m)
    }


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("sampler", ["sequential", "direct"])
def test_distributional_equivalence_chisquare(m, n, sampler):
    """Both samplers match the exact multinomial law (1e5 draws, alpha=0.001)."""
    draws = 100_000
    law = _exact_multinomial_law(m, n)
    rng = RngSeed(314, 1 if sampler == "direct" else 0).generator()
    observed = {counts: 0 for counts in law}
    for _ in range(draws):
        if sampler == "sequential":
            counts = tuple(simulate_counts(m, n, rng))
        else:
            counts = tuple(sample_direct_counts(m, n, rng))
        observed[counts] += 1
    chi2 = sum(
        (observed[c] - draws * p) ** 2 / (draws * p) for c, p in law.items()
    )
    critical = stats.chi2.ppf(1 - 0.001, df=len(law) - 1)
    assert chi2 < critical, (sampler, m, n, chi2, critical)


def test_degree_sequence_examples():
    assert degree_sequence(Caterpillar(3, (1, 0, 2))) == [2, 2, 3, 1, 1, 1]
    assert degree_sequence(new_spine(2)) == [1, 1]


def test_degree_sum_is_twice_edges():
    rng = RngSeed(8).generator()
    for _ in range(50):
        m = int(rng.integers(2, 12))
        n = int(rng.integers(0, 60))
        c = sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator())
        assert sum(degree_sequence(c)) == 2 * (c.n + c.m - 1)


def test_to_adjacency_examples():
    g = to_adjacency(Caterpillar(2, (1, 0)))
    assert g.node_count == 3
    assert g.edges == ((0, 1), (0, 2))

    path = to_adjacency(new_spine(3))
    assert path.edges == ((0, 1), (1, 2))


def test_adjacency_arrays_equal_to_adjacency():
    """The stack helper lists every graph as to_adjacency does, edge for edge
    and node count for node count: every composition of m <= 5 and n <= 6,
    one block per spine length; criterion 7's 100 random states, one block
    per state; and the edge cases n = 0 and m = 2."""
    random_states = list(_random_states(20_000_101, 100, 50, 200))
    cases = [
        [[Caterpillar(m, counts) for n in range(7) for counts in compositions(n, m)]
         for m in range(2, 6)],
        [[c] for c in random_states],
        [[new_spine(2)], [new_spine(7)], [Caterpillar(2, (0, 5)), Caterpillar(2, (3, 1))]],
    ]
    for blocks in cases:
        graphs = [to_adjacency(c) for block in blocks for c in block]
        nodes, edges, ends = _adjacency_arrays(
            [np.array([c.leaf_counts for c in block], dtype=np.int64) for block in blocks]
        )
        assert nodes.tolist() == [g.node_count for g in graphs]
        assert edges.tolist() == [len(g.edges) for g in graphs]
        assert ends.shape == (sum(edges.tolist()), 2)
        assert list(map(tuple, ends.tolist())) == [e for g in graphs for e in g.edges]


def test_adjacency_connected_and_degrees_agree():
    """Exhaustive: edge-list degrees equal degree_sequence, m 2..6, n 0..8."""
    for m in range(2, 7):
        for n in range(0, 9):
            for counts in compositions(n, m):
                c = Caterpillar(m, counts)
                g = to_adjacency(c)
                degs = np.bincount(np.ravel(g.edges), minlength=g.node_count)
                assert degs.tolist() == degree_sequence(c)
                # every node but 0 has an edge down to a smaller one, so all reach 0
                assert {max(e) for e in g.edges if min(e) < max(e)} == set(range(1, g.node_count))


def test_substream_determinism_and_distinctness():
    assert np.array_equal(
        RngSeed(10, 4).generator().integers(0, 1000, 8),
        RngSeed(10, 4).generator().integers(0, 1000, 8),
    )
    assert not np.array_equal(
        RngSeed(10, 4).generator().integers(0, 1000, 8),
        RngSeed(10, 5).generator().integers(0, 1000, 8),
    )


def test_substream_independence_smoke():
    """Zagreb values on paired substreams are uncorrelated (|rho| < 0.1)."""
    pairs = 1000
    first = [zagreb(sampled(5, 200, RngSeed(77, r).generator())) for r in range(pairs)]
    second = [zagreb(sampled(5, 200, RngSeed(77, r + pairs).generator())) for r in range(pairs)]
    rho = float(np.corrcoef(first, second)[0, 1])
    assert abs(rho) < 0.1


# one to six uint32 seed words, so the seed's mixing runs past the pool's four
SEEDS = [0, 1, 31415, 2**32 + 7, 2**64 - 1, 2**128 + 3, 10**40, 2**160 + 5]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("first", [0, 777, 2**32 - 3])
def test_substreams_match_seed_sequence(seed, first):
    """Every state and draw equals RngSeed(seed, r).generator()'s."""
    count = 3
    for r, rng in zip(range(first, first + count), substreams(seed, first, count), strict=True):
        want = RngSeed(seed, r).generator()
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.integers(0, 200, size=64), want.integers(0, 200, size=64))
        assert rng.random() == want.random()
        assert rng.bit_generator.state == want.bit_generator.state


def test_substreams_across_vectorised_passes(monkeypatch):
    monkeypatch.setattr(caterpillar, "_SEED_CHUNK", 4)
    states = [rng.bit_generator.state for rng in substreams(5, 2, 11)]
    assert states == [RngSeed(5, r).generator().bit_generator.state for r in range(2, 13)]
    assert list(substreams(5, 9, 0)) == []


def test_substreams_reject_what_seed_sequence_rejects():
    with pytest.raises(DomainError, match="outside"):
        next(substreams(1, 2**32 - 1, 2))
    with pytest.raises(DomainError, match="outside"):
        next(substreams(1, -1, 1))
    with pytest.raises(ValueError) as numpy_error:
        np.random.SeedSequence(-1)
    with pytest.raises(ValueError, match=re.escape(str(numpy_error.value))):
        next(substreams(-1, 0, 1))
