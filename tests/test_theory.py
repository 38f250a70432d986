"""Closed-form evaluators: frozen values, rational identities, errata."""

import inspect
import sys
from collections import Counter
from fractions import Fraction

import pytest

from catlab import theory, verify

from catlab.caterpillar import Caterpillar, RngSeed, spine_degrees
from catlab.errors import DomainError, ValidityError
from catlab.indices import hoover_exact, randic, zagreb
from catlab.oracle import enumerate_exact, one_step_means, one_step_successors
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
from catlab.verify import _random_states
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
    assert float(hoover_mean(200, 5000).value) == pytest.approx(0.4806768, abs=1e-6)
    # n -> infinity limit is 1/2
    assert abs(float(hoover_mean(7, 10**9).value) - 0.5) < 1e-8


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


# The paper's martingale CLT also needs the summed one-step variances V over
# their mean to tend to 1.  A leaf at spine node i raises Z by 2 d_i + 2 and
# the d_i sum to n + 2m - 2, so V is affine in Z, and that condition fails at
# fixed m: Var Q_n / E[Q_n]^2 tends to 4/(3(m-1)), not 0.


def _mean_v(m, n):
    """E[V] at n leaves, from the affine identity and ``zagreb_mean``."""
    return Fraction(4, m) * (zagreb_mean(m, n).value - n) - 4 * Fraction(n + 2 * m - 2, m) ** 2


def _var_q(m, n):
    """Var Q_n for Q_n = sum_{j<n} V(c_j): Cov(Z_j, Z_k) = Var Z_j for j <= k."""
    return Fraction(16, m * m) * sum(
        (2 * (n - 1 - j) + 1) * zagreb_variance(m, j).value for j in range(n)
    )


def test_one_step_zagreb_law_is_affine_in_zagreb():
    """The m successors' Zagreb values have mean Z + (2(n+2m-2) + 2m)/m and
    variance (4/m)(Z - n) - 4((n+2m-2)/m)^2, exactly."""
    for c in _random_states(7, 200, 20, 100):
        m, n, z = c.m, c.n, zagreb(c)
        zs = [zagreb(s) for s in one_step_successors(c)]
        assert Fraction(sum(zs), m) == z + Fraction(2 * (n + 2 * m - 2) + 2 * m, m)
        variance = Fraction(m * sum(v * v for v in zs) - sum(zs) ** 2, m * m)
        assert variance == Fraction(4, m) * (z - n) - 4 * Fraction(n + 2 * m - 2, m) ** 2


@pytest.mark.parametrize("m,ratios", [
    (3, ("0.9091", "0.9524", "0.9756", "0.9877")),
    (5, ("0.4537", "0.4759", "0.4877", "0.4938")),
], ids=["m3", "m5"])
def test_one_step_variance_spread_tends_to_2_over_m_minus_1(m, ratios):
    """Var[V]/E[V]^2 = (16/m^2) Var Z / E[V]^2 climbs towards 2/(m-1)."""
    got = [Fraction(16, m * m) * zagreb_variance(m, n).value / _mean_v(m, n) ** 2
           for n in (10, 20, 40, 80)]
    assert [format(float(r), ".4f") for r in got] == list(ratios)
    assert got == sorted(got) and got[-1] < Fraction(2, m - 1)


def _scaled_path_sums(c, steps):
    """m^2 Q over every history of ``steps`` steps from ``c``; each state's
    m^2 V is m sum z^2 - (sum z)^2 over its successors' Zagreb values z."""
    if steps == 0:
        yield 0
        return
    successors = one_step_successors(c)
    zs = [zagreb(s) for s in successors]
    v = c.m * sum(z * z for z in zs) - sum(zs) ** 2
    for s in successors:
        for q in _scaled_path_sums(s, steps - 1):
            yield v + q


def test_summed_one_step_variance_law_over_every_history():
    """Var Q_n and E[Q_n] from the closed forms equal their values over all
    m^n growth histories (up to 3^8 = 6,561), in ints scaled by m^2."""
    for m, n in ((3, 5), (3, 8), (4, 6)):
        qs = list(_scaled_path_sums(Caterpillar(m, (0,) * m), n))
        count, s1, s2 = len(qs), sum(qs), sum(q * q for q in qs)
        assert count == m**n
        assert Fraction(s1, count * m * m) == sum(_mean_v(m, j) for j in range(n))
        assert Fraction(count * s2 - s1 * s1, count * count * m**4) == _var_q(m, n)
    # the failing condition's ratio at the paper's scale, below its limit
    ratio = _var_q(200, 5000) / sum(_mean_v(200, j) for j in range(5000)) ** 2
    assert format(float(ratio), ".4g") == "0.006697"
    assert ratio < Fraction(4, 3 * 199)


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
    c = Caterpillar(3, (0, 0, 0))
    [mean] = one_step_means([c], "randic:1")
    assert mean == randic_supermartingale_bound(3, 1, randic(c, 1))
    assert mean == Fraction(25, 3)


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
        assert one_step_means([c], "randic:1") == [expected]
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


# The closed forms that no criterion of ``run_suite("all")`` calls, each with
# the ROADMAP item that wires it into one.
UNREACHED = {"hoover_mean": 4, "zagreb_clt_variance": 2, "zagreb_second_moment": 3}
# The closed forms a criterion calls but no oracle checks, with their item.
UNCHECKED = {"gini_mean": 6, "gini_mean_limit_in_n": 6}


def test_every_closed_form_is_reached_by_the_full_suite_or_listed(monkeypatch):
    """Each function of ``theory.__all__`` is called by ``run_suite("all")``
    or named in ``UNREACHED``; a listed name that is called fails the test,
    so neither map can go stale.  ``evaluate`` is the ``catlab theory``
    dispatcher over the others, not a closed form."""
    forms = {
        name: getattr(theory, name) for name in theory.__all__
        if inspect.isfunction(getattr(theory, name)) and name != "evaluate"
    }
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [module for key, module in sys.modules.items() if key.split(".")[0] == "catlab"]
    for name, fn in forms.items():
        wrapper = counted(name, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, wrapper)
    assert all(r.passed for r in verify.run_suite("all"))
    assert {name for name in forms if not calls[name]} == set(UNREACHED)
    assert set(UNCHECKED) <= {name for name in forms if calls[name]}
