"""Monte Carlo engine, exact moments, normality tests, density tools."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from catlab import experiments
from catlab.caterpillar import RngSeed
from catlab.errors import DomainError, ResourceLimitError
from catlab.experiments import (
    Ecdf,
    ExperimentConfig,
    WeightedSums,
    _exact_moments,
    ecdf,
    histogram,
    jarque_bera,
    kde,
    ks_normality,
    reference_rows,
    replicate_rows,
    run_mc,
    standardize_zagreb,
)
from catlab.indices import IndexSpec, fits_int64
from catlab.theory import zagreb_mean, zagreb_variance


def _fraction_moments(column):
    """Brute-force exact mean and unbiased variance, one Fraction per value."""
    xs = [Fraction(x) for x in column]
    mean = sum(xs, Fraction(0)) / len(xs)
    if len(xs) < 2:
        return mean, Fraction(0)
    return mean, sum(((x - mean) ** 2 for x in xs), Fraction(0)) / (len(xs) - 1)


def test_exact_moments_match_fraction_arithmetic():
    rng = np.random.default_rng(0)
    mixed = [int(v) * 10**6 for v in rng.integers(-10**18, 10**18, size=40)]
    mixed += [Fraction(int(p), int(q)) for p, q in rng.integers(1, 10**6, size=(40, 2))]
    mixed += [0.1, -2.5, 1e-300]
    for column in (mixed, mixed[:1], [Fraction(7, 3)], [5, 5, 5], [2**80, 1, Fraction(1, 2**70)]):
        mean, variance = _exact_moments(column)
        assert (mean, variance) == _fraction_moments(column)
        assert type(mean) is Fraction and type(variance) is Fraction
    with pytest.raises(DomainError, match="not finite"):
        _exact_moments([1.0, math.inf])
    with pytest.raises(DomainError, match="not finite"):
        _exact_moments([math.nan])


def test_weighted_sums_match_fraction_arithmetic():
    """Blocks of ints and Fractions with weights > 1, against plain Fractions."""
    blocks = [
        ([3, Fraction(1, 6), -7], [2, 5, 1]),
        ([Fraction(5, 4), 2**70, Fraction(-3, 10**9)], [9, 1, 4]),
        ([0, 1, Fraction(1, 6)], [1, 3, 7]),
    ]
    sums = WeightedSums(support=set())
    for values, weights in blocks:
        sums.add(values, weights)
    pairs = [(Fraction(v), w) for values, weights in blocks for v, w in zip(values, weights)]
    weight = sum(w for _, w in pairs)
    assert sums.weight == weight
    assert Fraction(sums.total, sums.denominator) == sum(w * v for v, w in pairs)
    assert Fraction(sums.total_sq, sums.denominator**2) == sum(w * v * v for v, w in pairs)
    assert sums.denominator == 3 * 10**9  # lcm of 6, 4 and 10^9
    assert len(sums.support) == len({v for v, _ in pairs}) == 8


def test_weighted_sums_int_blocks_match_the_ratio_path():
    """An int block at denominator 1 skips as_integer_ratio; an int block
    after a Fraction block is scaled to the common denominator.  Weight,
    totals, denominator and support equal those of the values' (p, q)
    ratios, summed by hand."""
    blocks = [
        ([4, -2, 2**70, 4], [3, 1, 2, 5]),
        ([Fraction(1, 6), Fraction(4, 1), 2], [7, 1, 2]),
        ([5, 2**70, 0], [1, 4, 6]),
    ]
    sums = WeightedSums(support=set())
    for values, weights in blocks:
        sums.add(values, weights)
    ratios = [(v.as_integer_ratio(), w) for values, weights in blocks for v, w in zip(values, weights)]
    denominator = math.lcm(*(q for (_, q), _ in ratios))
    scaled = [(p * (denominator // q), w) for (p, q), w in ratios]
    assert sums.weight == sum(w for _, w in scaled) == 32
    assert sums.total == sum(w * a for a, w in scaled)
    assert sums.total_sq == sum(w * a * a for a, w in scaled)
    assert sums.denominator == denominator == 6
    # Fraction(4, 1) is the int 4 again: 4, -2, 2^70, 1/6, 2, 5 and 0
    assert len(sums.support) == len({pq for pq, _ in ratios}) == 7


def test_weighted_sums_refuse_a_weight_count_unlike_the_value_count():
    """[1, 2] against weights [1, 1, 5] once left weight 7 but total 3."""
    sums = WeightedSums()
    for values, weights in (([1, 2], [1, 1, 5]), ([1, 2, 3], [1]), ([4], [])):
        with pytest.raises(DomainError, match="weights"):
            sums.add(values, weights)
    assert (sums.weight, sums.total, sums.total_sq, sums.denominator) == (0, 0, 0, 1)


def test_run_mc_moments_are_exact_above_2p53():
    specs = (IndexSpec("hyper_wiener"), IndexSpec("gini_degree"))
    cfg = ExperimentConfig(m=5000, n=100000, replications=3, indices=specs)
    summary = run_mc(cfg)
    rows = replicate_rows(cfg)
    assert max(row[0] for row in rows) > 2**53
    for k, spec in enumerate(specs):
        column = [row[k] for row in rows]
        assert summary.columns[str(spec)] == column
        mean, variance = _fraction_moments(column)
        assert summary.mean(spec) == mean
        assert summary.variance(str(spec)) == variance


def test_run_mc_rejects_non_finite_values():
    # (2 * 2)^1000 overflows to inf on the middle spine edge of a bare 4-spine
    cfg = ExperimentConfig(m=4, n=0, replications=2, indices=(IndexSpec("randic", 1000.0),))
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="not finite"):
        run_mc(cfg)


def test_z_score_is_exact_difference_over_standard_error():
    cfg = ExperimentConfig(m=6, n=50, replications=40, seed=3, indices=(IndexSpec("wiener"),))
    summary = run_mc(cfg)
    mean, variance = summary.mean("wiener"), summary.variance("wiener")
    target = mean / 2500 - Fraction(1, 10**9)
    expected = (1e-9 * 2500) / math.sqrt(variance / 40)
    assert summary.z_score("wiener", target, scale=2500) == pytest.approx(expected, rel=1e-12)
    constant = run_mc(ExperimentConfig(m=3, n=0, replications=2))
    assert constant.z_score("zagreb", 5) == 0.0


SIX = tuple(
    IndexSpec.parse(t) for t in ("gini_degree", "hoover", "zagreb", "randic:1", "wiener", "hyper_wiener")
)


def _typed(rows):
    return [[(type(v), v) for v in row] for row in rows]


def test_run_mc_deterministic_across_block_sizes(monkeypatch):
    base = ExperimentConfig(
        m=7, n=300, replications=64, seed=99,
        indices=(IndexSpec("zagreb"), IndexSpec("hoover")),
    )
    one = run_mc(base)
    assert one.columns == run_mc(base).columns
    for rows_per_block in (1, 7, 64):
        monkeypatch.setattr(experiments, "BLOCK_CELLS", rows_per_block * base.m)
        other = run_mc(base)
        for key in ("zagreb", "hoover"):
            assert np.array_equal(one.sample(key), other.sample(key))
            assert one.columns[key] == other.columns[key]
            assert one.mean(key) == other.mean(key)
            assert one.variance(key) == other.variance(key)


def test_replicate_rows_exact_and_in_replicate_order(monkeypatch):
    from catlab.caterpillar import Caterpillar, RngSeed, simulate_counts
    from catlab.indices import compute_index

    specs = (IndexSpec("hyper_wiener"), IndexSpec("gini_degree"))
    cfg = ExperimentConfig(m=9, n=400, replications=12, seed=5, indices=specs)
    rows = replicate_rows(cfg)
    expected = []
    for r in range(12):
        counts = simulate_counts(9, 400, RngSeed(5, r).generator())
        c = Caterpillar(9, tuple(counts))
        expected.append([compute_index(c, spec) for spec in specs])
    assert rows == expected
    assert all(type(row[0]) is int for row in rows)
    for rows_per_block in (1, 7, 12):
        monkeypatch.setattr(experiments, "BLOCK_CELLS", rows_per_block * cfg.m)
        assert _typed(replicate_rows(cfg)) == _typed(rows)


@pytest.mark.parametrize("count", [1, 3, 7])
def test_replicate_rows_makes_one_evaluator_call_per_block(monkeypatch, count):
    """However many indices a run asks for, each block of replicates goes
    through the index evaluator once."""
    calls = []
    real = experiments.compute_indices_batch
    monkeypatch.setattr(
        experiments, "compute_indices_batch", lambda *args: calls.append(args) or real(*args)
    )
    specs = (SIX + (IndexSpec("randic", -0.5),))[:count]
    cfg = ExperimentConfig(m=50, n=100, replications=300, seed=3, indices=specs)
    rows = replicate_rows(cfg)
    assert len(rows) == 300 and all(len(row) == count for row in rows)
    # blocks of 4096 // 50 = 81 replicates
    assert len(calls) == math.ceil(300 / (experiments.BLOCK_CELLS // 50)) == 4


@pytest.mark.parametrize("sampler", ["sequential", "direct"])
def test_replicate_rows_batch_equals_reference(sampler):
    specs = SIX + (IndexSpec("randic", -0.5),)
    for m, n in ((2, 0), (2, 5), (3, 1), (7, 40), (50, 2000), (200, 5000)):
        for seed in (1, 31415, 271828):
            cfg = ExperimentConfig(
                m=m, n=n, replications=9, seed=seed, indices=specs, sampler=sampler
            )
            assert _typed(replicate_rows(cfg)) == _typed(reference_rows(cfg)), (m, n, seed)


def test_replicate_rows_one_engine_above_the_old_bound(monkeypatch):
    """Batch rows equal reference_rows where 4 N^2 (m+1)^2 passes 2^63, which
    once sent replicate_rows to the scalar functions, up to the stress scale."""
    def refuse(*args):
        raise AssertionError("wrong path")

    for m, n in ((5000, 298_640), (10_000, 10**6)):
        cfg = ExperimentConfig(m=m, n=n, replications=2, indices=SIX)
        want = reference_rows(cfg)
        with monkeypatch.context() as patch:  # the batch engine only
            patch.setattr(experiments, "reference_rows", refuse)
            assert _typed(replicate_rows(cfg)) == _typed(want), (m, n)
        assert max(row[-1] for row in want) > 2**53


def test_replicate_rows_refuses_past_the_bound_before_drawing(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew a replicate")

    monkeypatch.setattr(RngSeed, "generator", refuse)
    monkeypatch.setattr(experiments, "leaf_count_blocks", refuse)
    for m, n in ((2**21, 0), (2, 1_239_850_261)):
        assert not fits_int64(m, n)
        cfg = ExperimentConfig(m=m, n=n, replications=3)
        with pytest.raises(DomainError, match="within fits_int64"):
            replicate_rows(cfg)


def test_replicate_rows_memory_at_the_stress_scale():
    """The one-shot draw's 7.6 MiB array made most of this run's 7.8 MiB peak."""
    cfg = ExperimentConfig(m=10_000, n=10**6, replications=8, seed=31415, indices=SIX)
    tracemalloc.start()
    try:
        rows = replicate_rows(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 8
    assert peak < 2 * 2**20, peak


def test_replicate_rows_memory_at_the_paper_scale():
    """The per-replicate draw peaked at 265 KiB here and the block draw at 618 KiB:
    its two reused buffers hold 12 bytes a lane, 6 rows of 5000 leaves at
    2^15 lanes a sub-block.  2^16 lanes a sub-block peaked at 1028 KiB."""
    cfg = ExperimentConfig(m=200, n=5000, replications=500, seed=31415)
    replicate_rows(cfg)  # first-call allocations of numpy are not the draw's
    tracemalloc.start()
    try:
        rows = replicate_rows(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 500
    assert peak < 768 * 2**10, peak


@pytest.mark.parametrize("path", ["batch", "reference"])
def test_memory_estimate_bounds_retained_bytes(path):
    engine = replicate_rows if path == "batch" else reference_rows
    for m, n in ((200, 5000), (50, 2000)):
        cfg = ExperimentConfig(m=m, n=n, replications=200, indices=SIX)
        engine(cfg)  # first-call allocations of numpy and fractions are not rows
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = engine(cfg)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == 200
        estimate = experiments._retained_bytes(cfg)
        assert retained <= estimate <= 3 * retained, (m, n, retained, estimate)


def test_run_mc_single_replicate():
    summary = run_mc(
        ExperimentConfig(m=3, n=0, replications=1, indices=(IndexSpec("zagreb"),))
    )
    assert summary.columns["zagreb"] == [6]
    assert summary.mean("zagreb") == 6
    assert summary.variance("zagreb") == 0


def test_run_mc_memory_cap():
    # refused before any draw: 10^8 rows need about 10^10 bytes
    with pytest.raises(ResourceLimitError, match="over the cap of 268435456"):
        run_mc(
            ExperimentConfig(
                m=2, n=0, replications=10**8, indices=(IndexSpec("zagreb"),),
            )
        )


def test_empty_indices_rejected():
    with pytest.raises(DomainError, match="no indices requested"):
        ExperimentConfig(m=3, n=4, replications=1, indices=())


def test_duplicate_index_rejected():
    with pytest.raises(DomainError, match="duplicate index"):
        ExperimentConfig(m=3, n=4, replications=1, indices=(IndexSpec("zagreb"),) * 2)
    with pytest.raises(DomainError, match="duplicate index"):
        ExperimentConfig(
            m=3, n=4, replications=1, indices=(IndexSpec("randic", 1.0), IndexSpec.parse("randic:1"))
        )


def test_run_mc_matches_theory_moments():
    """Empirical Zagreb mean/variance within 4 SE at (m=10, n=1000, R=1e4)."""
    m, n, reps = 10, 1000, 10**4
    summary = run_mc(
        ExperimentConfig(
            m=m, n=n, replications=reps, seed=2718,
            indices=(IndexSpec("zagreb"),),
        )
    )
    mean, variance = float(summary.mean("zagreb")), float(summary.variance("zagreb"))
    mean_t = float(zagreb_mean(m, n).value)
    var_t = float(zagreb_variance(m, n).value)
    se_mean = math.sqrt(variance / reps)
    assert abs(mean - mean_t) <= 4 * se_mean
    # SE of the sample variance via fourth-moment plug-in
    sample = summary.sample("zagreb")
    centered = sample - sample.mean()
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt((m4 - (reps - 3) / (reps - 1) * variance**2) / reps)
    assert abs(variance - var_t) <= 4 * se_var


def test_standardize_zagreb():
    out = standardize_zagreb([12, 10, 10, 12], 2, 2)
    assert np.allclose(out, [1.0, -1.0, -1.0, 1.0])
    mean = float(zagreb_mean(5, 9).value)
    assert np.allclose(standardize_zagreb([mean] * 3, 5, 9), 0.0)
    with pytest.raises(DomainError, match="variance is zero"):
        standardize_zagreb([6.0], 3, 0)
    with pytest.raises(DomainError, match="variance is zero"):
        standardize_zagreb([6.0, 6.0], 2, 1)  # degenerate (m, n): Z is constant


def test_standardized_sample_bands_at_default_seed(summary_m200):
    z = standardize_zagreb(summary_m200.sample("zagreb"), 200, 5000)
    assert -0.15 < float(z.mean()) < 0.15
    assert 0.8 < float(z.var(ddof=1)) < 1.2


def test_ks_perfect_quantile_sample():
    r = 500
    sample = special.ndtri((np.arange(1, r + 1) - 0.5) / r)
    res = ks_normality(sample)
    assert res.statistic <= 0.5 / r + 1e-9
    assert not res.reject


def test_ks_constant_zero_sample():
    res = ks_normality(np.zeros(500))
    assert res.statistic == pytest.approx(0.5)
    assert res.reject
    assert res.decision == "reject"


def test_ks_critical_value_and_size_guard():
    res = ks_normality(np.linspace(-2, 2, 500))
    assert res.critical == pytest.approx(1.63 / math.sqrt(500))
    with pytest.raises(DomainError):
        ks_normality(np.zeros(10))


def test_jarque_bera_quantile_sample():
    r = 500
    sample = special.ndtri((np.arange(1, r + 1) - 0.5) / r)
    res = jarque_bera(sample)
    assert res.statistic < 1.0
    assert not res.reject


def test_jarque_bera_rejections():
    rng = np.random.default_rng(12)
    expo = rng.exponential(1.0, size=500)
    res = jarque_bera((expo - expo.mean()) / expo.std())
    assert res.reject  # skewness ~ 2 forces the statistic far over 9.21

    two_point = np.array([-1.0, 1.0] * 250)
    res2 = jarque_bera(two_point)
    # kurtosis of the symmetric two-point law is 1: JB = R/6 * (2^2/4) = R/6
    assert res2.statistic == pytest.approx(500 / 6)
    assert res2.reject

    with pytest.raises(DomainError):
        jarque_bera(np.full(100, 2.0))


def test_ecdf():
    e = ecdf([0, 0, 0, 1])
    assert e(0) == 0.75
    assert e(-0.5) == 0.0
    assert e(1) == 1.0
    xs, ys = e.steps
    assert list(xs) == [0, 0, 0, 1]
    assert ys[-1] == 1.0
    with pytest.raises(DomainError):
        ecdf([])


def test_histogram():
    counts, edges = histogram([1, 2, 3, 4], bins=2)
    assert list(counts) == [2, 2]
    assert edges[0] == 1.0 and edges[-1] == 4.0
    with pytest.raises(DomainError):
        histogram([], bins=3)
    with pytest.raises(DomainError):
        histogram([1.0, 2.0], bins=0)


def test_histogram_refuses_bins_below_the_float_spacing():
    """At 1e17 floats are 16 apart, so [1e17, 1e17 + 16] has no room for 3 bins."""
    with pytest.raises(DomainError, match="cannot split the sample into 3 bins"):
        histogram([1e17, 1e17 + 16], 3)
    counts, edges = histogram([1e17, 1e17 + 16], 1)
    assert list(counts) == [2] and list(edges) == [1e17, 1e17 + 16]


def test_kde_normalization():
    rng = np.random.default_rng(5)
    grid, density = kde(rng.normal(size=400))
    integral = float(np.trapezoid(density, grid))
    assert abs(integral - 1.0) <= 0.01
    assert len(grid) == 512


def _kde_one_shot(sample):
    """The one-shot (512, R) evaluation that ``kde`` replaced, as its reference."""
    x = np.asarray(sample, dtype=float)
    r = len(x)
    h = 1.06 * float(x.std(ddof=1)) * r ** (-0.2)
    grid = np.linspace(float(x.min()) - 3 * h, float(x.max()) + 3 * h, 512)
    z = (grid[:, None] - x[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (r * h * math.sqrt(2 * math.pi))
    return grid, density


@pytest.mark.parametrize("cells", ["default", "1", "3R"])
@pytest.mark.parametrize("r", [20, 127, 500, 513, 2000])
def test_kde_is_bit_identical_to_the_one_shot_form(monkeypatch, r, cells):
    """Blocks of one row, of three rows with a partial last block, and the
    default budget all give the one-shot grid and density bit for bit."""
    if cells != "default":
        monkeypatch.setattr(experiments, "_KDE_CELLS", 1 if cells == "1" else 3 * r)
    for seed in range(5):
        x = np.random.default_rng(seed).normal(seed, 1 + seed, size=r)
        grid, density = kde(x)
        want_grid, want_density = _kde_one_shot(x)
        assert np.array_equal(grid, want_grid)
        assert np.array_equal(density, want_density)


def test_kde_memory_is_bounded():
    """The one-shot form peaked at 234 MiB here; the blocks keep it under 4 MiB."""
    x = np.random.default_rng(7).normal(size=20_000)
    tracemalloc.start()
    try:
        kde(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
