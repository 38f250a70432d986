"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line; the two expensive Monte Carlo runs are
shared session fixtures, and the statistical criteria are pinned to the
documented default seed.
"""

import time

from catlab.experiments import DEFAULT_SEED
from catlab import verify


def _report(result):
    print(f"criterion {result.cid}: {result.verdict} — {result.actual}")
    assert result.passed, f"{result.cid}: {result.actual} (target {result.target})"


def test_criterion_1_hoover_reproduction(summary_m200):
    """m=200, n=5000, R=500: mean Hoover within ±0.001 of 0.4807, < 30 s."""
    _report(verify.criterion_hoover(summary_m200, "default"))
    assert summary_m200.elapsed_seconds < 30.0


def test_criterion_2_zagreb_clt(summary_m200):
    """Standardized Zagreb passes KS (< 1.63/sqrt(500)) and JB (< 9.21)."""
    _report(verify.criterion_zagreb_clt(summary_m200, "default"))


def test_criterion_3_wiener_reproduction(summary_m50):
    """W/n^2 within 4 SE of the exact mean; closed form 9.7720 to 4 dp."""
    _report(verify.criterion_wiener(summary_m50, "default"))


def test_criterion_4_hyper_wiener_reproduction(summary_m50):
    """Wh/n^2 within 4 SE of the corrected mean; published form 264.6214."""
    _report(verify.criterion_hyper_wiener(summary_m50, "default"))


def test_criterion_5_randic_mean(summary_m200):
    """R/n^2 within 4 SE of the exact mean; asymptote 0.009975 reported."""
    _report(verify.criterion_randic(summary_m200, "default"))


def test_criterion_6_oracle_equivalence():
    """Enumeration moments equal closed forms exactly; errata offsets exact."""
    started = time.perf_counter()
    _report(verify.criterion_oracle_equivalence("default"))
    assert time.perf_counter() - started < 10.0


def test_criterion_7_formula_bfs_cross_validation():
    """O(m) Wiener/hyper-Wiener equal BFS oracles on grid + random states."""
    _report(verify.criterion_formula_vs_bfs("default"))


def test_criterion_8_martingale_identity():
    """Compensated Zagreb one-step drift exactly zero on 100 random states."""
    _report(verify.criterion_martingale("default"))


def test_criterion_9_supermartingale_inequality():
    """One-step Randic mean >= R + (2j+7m-10)/m on 100 random states."""
    _report(verify.criterion_supermartingale("default"))


def test_criterion_10_gini_theory(summary_m200):
    """(m-1)/(3m) rational identity; degree-Gini empirical mean in band."""
    _report(verify.criterion_gini(summary_m200, "default"))


def test_criterion_11_determinism():
    """paper7 report bytes identical across runs; batched rows equal the scalar reference."""
    _report(verify.criterion_determinism(DEFAULT_SEED, "default"))


def test_seed_robustness_report():
    """KS+JB non-rejection holds for at least 18 of 20 consecutive seeds."""
    _report(verify.criterion_seed_robustness(DEFAULT_SEED, "default"))
