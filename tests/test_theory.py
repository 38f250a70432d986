"""Closed-form evaluators: frozen values, rational identities, errata."""

from fractions import Fraction

import pytest

from catlab.caterpillar import Caterpillar, RngSeed, spine_degrees
from catlab.errors import DomainError, ValidityError
from catlab.indices import hoover_exact, randic
from catlab.oracle import enumerate_exact, randic_one_step_mean
from catlab.theory import (
    Validity,
    gini_mean,
    gini_mean_limit_in_n,
    hoover_mean,
    hyper_wiener_mean_corrected,
    hyper_wiener_mean_paper,
    martingale_compensator,
    randic_mean,
    randic_mean_limit,
    randic_supermartingale_bound,
    wiener_mean,
    zagreb_clt_variance,
    zagreb_mean,
    zagreb_second_moment,
    zagreb_variance,
)
from conftest import sampled


def test_gini_mean_values():
    assert gini_mean(2, 0).value == Fraction(1, 2)  # (m+1)/(3m) at n = 0
    assert gini_mean_limit_in_n(3).value == Fraction(2, 9)
    for m in range(2, 11):
        assert gini_mean_limit_in_n(m).value == Fraction(m - 1, 3 * m)
    # m -> infinity: (m-1)/(3m) -> 1/3
    assert abs(float(gini_mean_limit_in_n(10**6).value) - 1 / 3) < 1e-6


def test_gini_mean_limit_matches_formula_at_huge_n():
    for m in (2, 5, 10):
        at_huge = gini_mean(m, 10**9).value
        assert abs(float(at_huge) - float(gini_mean_limit_in_n(m).value)) < 1e-8


def test_hoover_mean_values():
    assert hoover_mean(2, 1).value == Fraction(1, 12)
    # documented approximation gap at small n: the instance value is 1/6
    assert hoover_exact(Caterpillar(2, (1, 0))) == Fraction(1, 6)
    assert float(hoover_mean(200, 5000)) == pytest.approx(0.4806768, abs=1e-6)
    # n -> infinity limit is 1/2
    assert abs(float(hoover_mean(7, 10**9)) - 0.5) < 1e-8


def test_zagreb_moment_values():
    assert zagreb_mean(2, 2).value == 11
    assert zagreb_variance(2, 2).value == 1
    assert zagreb_second_moment(2, 1).value == 36
    for m in range(2, 8):
        assert zagreb_mean(m, 0).value == 4 * m - 6
        assert zagreb_variance(m, 0).value == 0


def test_zagreb_variance_identity():
    """Var = E[Z^2] - E[Z]^2 holds exactly for m in 2..10, n in 0..100."""
    for m in range(2, 11):
        for n in range(0, 101):
            lhs = zagreb_variance(m, n).value
            rhs = zagreb_second_moment(m, n).value - zagreb_mean(m, n).value ** 2
            assert lhs == rhs


def test_zagreb_clt_params():
    assert zagreb_clt_variance(200).value == Fraction(398, 40000)
    assert zagreb_clt_variance(2).value == Fraction(1, 2)
    # leading n^2 coefficient of Var[Z_n] equals the CLT variance:
    # Var is a + b with a n^2 + b n, so a = (Var(2) - 2 Var(1)) / 2
    for m in range(2, 12):
        v1 = zagreb_variance(m, 1).value
        v2 = zagreb_variance(m, 2).value
        leading = (v2 - 2 * v1) / 2
        assert leading == zagreb_clt_variance(m).value


def test_martingale_compensator():
    assert martingale_compensator(3, 0) == 0
    assert martingale_compensator(2, 3) == Fraction(-3 * (3 + 12 - 5), 2)


def test_randic_mean_values_and_erratum():
    assert randic_mean(3, 1).value == Fraction(25, 3)
    assert randic_mean(3, 0).value == 4
    with pytest.raises(ValidityError, match="m = 2"):
        randic_mean(2, 1)
    loose = randic_mean(2, 1, strict=False)
    assert loose.value == 3
    assert loose.validity is Validity.ERRATUM_PAPER_FORM
    assert enumerate_exact(2, 1, "randic:1").mean == 4
    assert randic_mean_limit(200).value == Fraction(399, 40000)


def test_randic_supermartingale_bound_values():
    assert randic_supermartingale_bound(3, 1, 4) == Fraction(25, 3)
    assert randic_supermartingale_bound(2, 1, 1) == 4
    assert randic_one_step_mean(Caterpillar(3, (0, 0, 0))) == Fraction(25, 3)


def test_randic_one_step_mean_closed_form():
    """E[R_j | state] = R + (2(2j+3m-5) - D_1 - D_m)/m + 1, exactly."""
    rng = RngSeed(9).generator()
    for _ in range(50):
        m = int(rng.integers(2, 15))
        n = int(rng.integers(0, 60))
        c = sampled(m, n, RngSeed(int(rng.integers(0, 2**32))).generator())
        j = c.n + 1
        degs = spine_degrees(c)
        expected = (
            randic(c, 1)
            + Fraction(2 * (2 * j + 3 * m - 5) - degs[0] - degs[-1], m)
            + 1
        )
        assert randic_one_step_mean(c) == expected
        assert expected >= randic_supermartingale_bound(m, j, randic(c, 1))


def test_wiener_mean_values():
    assert wiener_mean(2, 1).value == 4
    assert float(wiener_mean(50, 2000).value / 2000**2) == pytest.approx(
        9.77204125, abs=1e-9
    )


def test_hyper_wiener_mean_forms():
    assert hyper_wiener_mean_paper(3, 0).value == 10
    assert hyper_wiener_mean_paper(3, 1).value == 29
    assert hyper_wiener_mean_corrected(3, 1).value == 28
    assert hyper_wiener_mean_corrected(3, 0).value == 10
    assert hyper_wiener_mean_paper(3, 1).validity is Validity.ERRATUM_PAPER_FORM
    scaled_paper = float(hyper_wiener_mean_paper(50, 2000).value / 2000**2)
    scaled_fixed = float(hyper_wiener_mean_corrected(50, 2000).value / 2000**2)
    assert scaled_paper == pytest.approx(264.6214, abs=1e-4)
    assert scaled_fixed == pytest.approx(264.6209, abs=1e-4)


def test_closed_forms_match_oracle_on_grid():
    """Exact equality against enumeration except the two documented errata."""
    for m in (2, 3, 4):
        for n in range(0, 7):
            assert enumerate_exact(m, n, "zagreb").mean == zagreb_mean(m, n).value
            assert (
                enumerate_exact(m, n, "zagreb").variance == zagreb_variance(m, n).value
            )
            assert enumerate_exact(m, n, "wiener").mean == wiener_mean(m, n).value
            h = enumerate_exact(m, n, "hyper_wiener").mean
            assert hyper_wiener_mean_corrected(m, n).value == h
            assert hyper_wiener_mean_paper(m, n).value - h == n
            r = enumerate_exact(m, n, "randic:1").mean
            if m == 2:
                assert randic_mean(m, n, strict=False).value - r == -1
            else:
                assert randic_mean(m, n).value == r


def test_domain_errors():
    with pytest.raises(DomainError):
        zagreb_mean(1, 5)
    with pytest.raises(DomainError):
        wiener_mean(3, -1)


def test_theory_value_float_view():
    tv = wiener_mean(50, 2000)
    assert float(tv) == pytest.approx(float(Fraction(tv.numerator, tv.denominator)))
    assert tv.scaled(2000**2).value == tv.value / 2000**2
