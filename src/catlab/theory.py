"""Closed-form means, variances and limits for the caterpillar indices.

Everything is evaluated in exact rational arithmetic (``fractions.Fraction``
over arbitrary-precision integers) and tagged with a validity domain.  Two of
the published closed forms are refuted by the exhaustive enumeration oracle
and are kept available verbatim under an erratum tag, next to the corrected
forms the oracle confirms:

* the Randic mean formula is off by exactly -1 for m = 2 (its derivation
  splits spine edges into end-adjacent and interior classes, which is
  vacuous on a two-node spine), so it is restricted to m >= 3 here;
* the published hyper-Wiener mean is off by exactly +n (its spine-leaf part
  drops 2n and its leaf-leaf part adds 3n); the corrected form rebuilt from
  the per-pair distance weights matches the oracle everywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .caterpillar import _check_mn
from .errors import DomainError, ValidityError

__all__ = [
    "Validity",
    "TheoryValue",
    "gini_mean",
    "gini_mean_limit_in_n",
    "hoover_mean",
    "zagreb_mean",
    "zagreb_second_moment",
    "zagreb_variance",
    "zagreb_clt_variance",
    "martingale_compensator",
    "randic_mean",
    "randic_mean_limit",
    "randic_supermartingale_bound",
    "wiener_mean",
    "hyper_wiener_mean_paper",
    "hyper_wiener_mean_corrected",
    "EVALUATORS",
    "evaluate",
]


class Validity(str, enum.Enum):
    """Domain tag for a closed form."""

    ALL_M = "all_m"
    M_GE_3 = "m_ge_3"
    ERRATUM_PAPER_FORM = "erratum_paper_form"


@dataclass(frozen=True)
class TheoryValue:
    """An exact rational value with a float view and provenance string."""

    value: Fraction
    validity: Validity
    source: str

    def __float__(self) -> float:
        return float(self.value)

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def scaled(self, divisor: Fraction | int) -> "TheoryValue":
        """Same value divided by ``divisor`` (e.g. n^2), still exact."""
        return TheoryValue(self.value / Fraction(divisor), self.validity, self.source)


def gini_mean(m: int, n: int) -> TheoryValue:
    """Mean of the distance-based Gini index of the caterpillar class."""
    _check_mn(m, n)
    num = (2 * m * m - 2) * n * n + (m**3 + 4 * m * m - m + 2) * n + 2 * m**4 - 2 * m * m
    den = (6 * m * m + 6 * m) * n * n + 12 * m**3 * n + 6 * m**4 - 6 * m**3
    return TheoryValue(
        Fraction(num, den),
        Validity.ALL_M,
        "E[gini] = ((2m^2-2)n^2 + (m^3+4m^2-m+2)n + 2m^4-2m^2)"
        " / ((6m^2+6m)n^2 + 12m^3 n + 6m^4-6m^3)",
    )


def gini_mean_limit_in_n(m: int) -> TheoryValue:
    """Limit in n of the distance-based Gini mean: (m-1)/(3m); -> 1/3 in m."""
    _check_mn(m)
    return TheoryValue(
        Fraction(m - 1, 3 * m), Validity.ALL_M, "lim_n E[gini] = (m-1)/(3m)"
    )


def hoover_mean(m: int, n: int) -> TheoryValue:
    """Mean of the degree-based Hoover index of the caterpillar class.

    Derived under the high-probability event that every spine degree exceeds
    the average degree, so it is an approximation at small n (exact
    per-instance values can differ; e.g. at m = 2, n = 1 the formula gives
    1/12 while every instance has Hoover 1/6).  Tends to 1/2 as n grows.
    """
    _check_mn(m, n)
    N = n + m
    value = Fraction(2 * n * (n + m - 2), N) / (2 * N * Fraction(2 * N - 2, N))
    return TheoryValue(
        value,
        Validity.ALL_M,
        "H_n = (2n(n+m-2)/(n+m)) / (2(n+m)(2 - 2/(n+m)))",
    )


def zagreb_mean(m: int, n: int) -> TheoryValue:
    """Exact mean of the Zagreb index: n^2/m + (6m-5)n/m + 4m - 6."""
    _check_mn(m, n)
    value = Fraction(n * n, m) + Fraction((6 * m - 5) * n, m) + (4 * m - 6)
    return TheoryValue(value, Validity.ALL_M, "E[Z_n] = n^2/m + (6m-5)n/m + 4m-6")


def zagreb_second_moment(m: int, n: int) -> TheoryValue:
    """Exact second moment of the Zagreb index (quartic in n)."""
    _check_mn(m, n)
    m2 = m * m
    value = (
        Fraction(n**4, m2)
        + Fraction((12 * m - 10) * n**3, m2)
        + Fraction((44 * m2 - 70 * m + 23) * n * n, m2)
        + Fraction((48 * m**3 - 112 * m2 + 66 * m - 14) * n, m2)
        + Fraction((4 * m - 6) ** 2)
    )
    return TheoryValue(
        value,
        Validity.ALL_M,
        "E[Z_n^2] = n^4/m^2 + (12m-10)n^3/m^2 + (44m^2-70m+23)n^2/m^2"
        " + (48m^3-112m^2+66m-14)n/m^2 + (4m-6)^2",
    )


def zagreb_variance(m: int, n: int) -> TheoryValue:
    """Exact variance of the Zagreb index: 2n((m-1)n + 3m - 7)/m^2."""
    _check_mn(m, n)
    value = Fraction(2 * n * ((m - 1) * n + 3 * m - 7), m * m)
    return TheoryValue(value, Validity.ALL_M, "Var[Z_n] = 2n((m-1)n + 3m-7)/m^2")


def zagreb_clt_variance(m: int) -> TheoryValue:
    """Gaussian limit of (Z_n - n^2/m)/n: variance 2(m-1)/m^2."""
    _check_mn(m)
    return TheoryValue(
        Fraction(2 * (m - 1), m * m),
        Validity.ALL_M,
        "(Z_n - n^2/m)/n -> N(0, 2(m-1)/m^2)",
    )


def martingale_compensator(m: int, n: int) -> Fraction:
    """Compensator beta_n = -n(n + 6m - 5)/m making Z_n + beta_n a martingale."""
    _check_mn(m, n)
    return Fraction(-n * (n + 6 * m - 5), m)


def _randic_mean_value(m: int, n: int) -> Fraction:
    return Fraction((2 * m - 1) * n * n + (7 * m * m - 10 * m + 1) * n + 4 * m * m * (m - 2), m * m)


def randic_mean(m: int, n: int, strict: bool = True) -> TheoryValue:
    """Mean of the Randic index (alpha = 1); valid for m >= 3 only.

    For m = 2 the formula undercounts by exactly 1 (exact enumeration at
    m = 2, n = 1 gives mean 4 while the formula gives 3).  With
    ``strict=False`` the raw formula value is returned under an erratum tag.
    """
    _check_mn(m, n)
    source = "E[R_n] = ((2m-1)n^2 + (7m^2-10m+1)n + 4m^2(m-2))/m^2"
    if m == 2:
        if strict:
            raise ValidityError(
                "Randic mean formula is invalid for m = 2: exact enumeration at"
                " n = 1 gives mean 4, the formula gives 3 (off by exactly -1)"
            )
        return TheoryValue(_randic_mean_value(m, n), Validity.ERRATUM_PAPER_FORM, source)
    return TheoryValue(_randic_mean_value(m, n), Validity.M_GE_3, source)


def randic_mean_limit(m: int) -> TheoryValue:
    """Limit of E[R_n]/n^2: (2m-1)/m^2."""
    _check_mn(m)
    return TheoryValue(
        Fraction(2 * m - 1, m * m), Validity.ALL_M, "lim E[R_n]/n^2 = (2m-1)/m^2"
    )


def randic_supermartingale_bound(m: int, j: int, r_prev) -> Fraction:
    """Lower bound on E[R_j | state at j-1]: R_{j-1} + (2j + 7m - 10)/m."""
    _check_mn(m)
    if j < 1:
        raise DomainError(f"step index j must be >= 1, got {j}")
    return Fraction(r_prev) + Fraction(2 * j + 7 * m - 10, m)


def wiener_mean(m: int, n: int) -> TheoryValue:
    """Exact mean of the Wiener index."""
    _check_mn(m, n)
    num = (
        (m * m + 6 * m - 1) * n * n
        + (m - 1) * (2 * m * m + 7 * m - 1) * n
        + m * m * (m * m - 1)
    )
    return TheoryValue(
        Fraction(num, 6 * m),
        Validity.ALL_M,
        "E[W_n] = ((m^2+6m-1)n^2 + (m-1)(2m^2+7m-1)n + m^2(m^2-1))/(6m)",
    )


def hyper_wiener_mean_paper(m: int, n: int) -> TheoryValue:
    """Published closed form for the hyper-Wiener mean (known erratum).

    Exceeds the exact mean by exactly n; kept verbatim for faithful
    comparison against the published numbers.  Use
    :func:`hyper_wiener_mean_corrected` for the oracle-validated value.
    """
    _check_mn(m, n)
    num = (
        (m**3 + 10 * m * m + 35 * m - 10) * n * n
        + (2 * m**3 + 13 * m * m + 25 * m - 10) * (m - 1) * n
        + m * m * (m + 2) * (m + 1) * (m - 1)
    )
    return TheoryValue(
        Fraction(num, 12 * m),
        Validity.ERRATUM_PAPER_FORM,
        "E[Wh_n] = ((m^3+10m^2+35m-10)n^2 + (2m^3+13m^2+25m-10)(m-1)n"
        " + m^2(m+2)(m+1)(m-1))/(12m)  [published form; off by +n]",
    )


def hyper_wiener_mean_corrected(m: int, n: int) -> TheoryValue:
    """Hyper-Wiener mean rebuilt from the per-pair distance weights.

    Spine-spine pairs contribute the fixed m(m^3+2m^2-m-2)/12; leaf-leaf
    pairs contribute (m^3+10m^2+35m-10) n(n-1)/(12m); spine-leaf pairs
    contribute n(m^3+6m^2+11m-6)/6 = n(2 + (m-1)(m^2+7m+18)/6).  Matches
    the enumeration oracle exactly on every tested grid point.
    """
    _check_mn(m, n)
    value = (
        Fraction(m * (m**3 + 2 * m * m - m - 2), 12)
        + Fraction((m**3 + 10 * m * m + 35 * m - 10) * n * (n - 1), 12 * m)
        + n * (2 + Fraction((m - 1) * (m * m + 7 * m + 18), 6))
    )
    return TheoryValue(
        value,
        Validity.ALL_M,
        "E[Wh_n] = m(m^3+2m^2-m-2)/12 + (m^3+10m^2+35m-10)n(n-1)/(12m)"
        " + n(2 + (m-1)(m^2+7m+18)/6)",
    )


EVALUATORS = {
    "gini_mean": gini_mean,
    "hoover_mean": hoover_mean,
    "zagreb_mean": zagreb_mean,
    "zagreb_second_moment": zagreb_second_moment,
    "zagreb_variance": zagreb_variance,
    "zagreb_clt_variance": lambda m, n: zagreb_clt_variance(m),
    "randic_mean": randic_mean,
    "wiener_mean": wiener_mean,
    "hyper_wiener_mean_paper": hyper_wiener_mean_paper,
    "hyper_wiener_mean_corrected": hyper_wiener_mean_corrected,
}


def evaluate(name: str, m: int, n: int) -> TheoryValue:
    """Evaluate a named closed form at (m, n)."""
    try:
        fn = EVALUATORS[name]
    except KeyError:
        raise DomainError(
            f"unknown theory evaluator {name!r}; choose from {sorted(EVALUATORS)}"
        ) from None
    return fn(m, n)
