"""Monte Carlo engine, exact moments, normality tests, density tools."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special

from catlab.errors import DomainError, ResourceLimitError
from catlab.experiments import (
    DEFAULT_SEED,
    Ecdf,
    ExperimentConfig,
    _exact_moments,
    ecdf,
    histogram,
    jarque_bera,
    kde,
    ks_normality,
    replicate_rows,
    run_mc,
    standardize_zagreb,
    trajectory_check,
)
from catlab.indices import IndexSpec
from catlab.theory import wiener_mean_limit, zagreb_mean, zagreb_variance


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


def test_run_mc_deterministic_across_threads():
    base = ExperimentConfig(
        m=7, n=300, replications=64, seed=99,
        indices=(IndexSpec("zagreb"), IndexSpec("hoover")),
    )
    one = run_mc(base)
    two = run_mc(base)
    four = run_mc(
        ExperimentConfig(
            m=7, n=300, replications=64, seed=99,
            indices=(IndexSpec("zagreb"), IndexSpec("hoover")), threads=4,
        )
    )
    for key in ("zagreb", "hoover"):
        assert np.array_equal(one.sample(key), two.sample(key))
        assert np.array_equal(one.sample(key), four.sample(key))
        assert one.columns[key] == four.columns[key]
        assert one.mean(key) == four.mean(key)
        assert one.variance(key) == four.variance(key)


def test_replicate_rows_exact_and_in_replicate_order():
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
    threaded = ExperimentConfig(m=9, n=400, replications=12, seed=5, indices=specs, threads=3)
    assert replicate_rows(threaded) == rows


def test_run_mc_single_replicate():
    summary = run_mc(
        ExperimentConfig(m=3, n=0, replications=1, indices=(IndexSpec("zagreb"),))
    )
    assert summary.columns["zagreb"] == [6]
    assert summary.mean("zagreb") == 6
    assert summary.variance("zagreb") == 0


def test_run_mc_memory_cap():
    # refused before any draw: 10^8 replicates would need 8 * 10^8 bytes
    with pytest.raises(ResourceLimitError, match="over the cap of 268435456"):
        run_mc(
            ExperimentConfig(
                m=2, n=0, replications=10**8, indices=(IndexSpec("zagreb"),),
            )
        )


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


def test_kde_normalization():
    rng = np.random.default_rng(5)
    grid, density = kde(rng.normal(size=400))
    integral = float(np.trapezoid(density, grid))
    assert abs(integral - 1.0) <= 0.01
    assert len(grid) == 512


def test_trajectory_zagreb_limit_band():
    res = trajectory_check(5, 2**16, DEFAULT_SEED, "zagreb")
    final = res.scaled_values[-1]
    assert 0.2 * 0.8 <= final <= 0.2 * 1.2  # 1/m with CLT-scale slack


def test_trajectory_randic_stabilizes():
    res = trajectory_check(5, 2**16, DEFAULT_SEED, "randic:1")
    assert res.tail_deltas[-1] <= res.tail_deltas[0]
    assert res.max_tail_delta < 0.05


def test_trajectory_wiener_bounded():
    res = trajectory_check(5, 2**14, DEFAULT_SEED, "wiener")
    bound = 10 * float(wiener_mean_limit(5).value)
    assert all(0 < v < bound for v in res.scaled_values)


def test_trajectory_checkpoints():
    res = trajectory_check(3, 16, 7, "zagreb")
    assert res.checkpoints == (4, 8, 16)
    with pytest.raises(DomainError):
        trajectory_check(3, 8, 7, "zagreb")
