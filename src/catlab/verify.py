"""Acceptance-criteria engine shared by the test suite and the CLI.

Each numbered criterion is a function producing a :class:`CriterionResult`;
suites group them.  Exact criteria compare rationals with no tolerance;
statistical criteria use the documented default seed and 4-standard-error
bands (3 under the ``strict`` profile).  Reports deliberately contain no
wall-clock values so that a fixed (suite, seed, profile) always serializes
to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .caterpillar import Caterpillar, RngSeed, to_adjacency
from .errors import DomainError
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    jarque_bera,
    ks_normality,
    reference_rows,
    replicate_rows,
    run_mc,
    standardize_zagreb,
)
from .indices import IndexSpec, hyper_wiener, wiener
from .oracle import (
    bfs_distance_sums,
    enumerate_exact,
    martingale_residual,
    randic_supermartingale_gap,
    compositions,
)
from . import theory

__all__ = [
    "CriterionResult",
    "SUITES",
    "run_suite",
    "render_table",
    "report_json",
]

SE_BAND = {"default": 4.0, "strict": 3.0}
HOOVER_TOL = {"default": 1e-3, "strict": 5e-4}
CLT_MEAN_BAND = {"default": (-0.15, 0.15), "strict": (-0.12, 0.12)}
CLT_VAR_BAND = {"default": (0.8, 1.2), "strict": (0.85, 1.15)}
GINI_BAND = {"default": (0.45, 0.52), "strict": (0.46, 0.51)}

MC200_INDICES = (
    IndexSpec("hoover"),
    IndexSpec("zagreb"),
    IndexSpec("randic", 1.0),
    IndexSpec("gini_degree"),
)
MC50_INDICES = (IndexSpec("wiener"), IndexSpec("hyper_wiener"))


@dataclass(frozen=True)
class CriterionResult:
    """Verdict for one acceptance criterion."""

    cid: str
    quantity: str
    target: str
    actual: str
    tolerance: str
    passed: bool

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _f(x: float) -> str:
    return format(float(x), ".6g")


def _mc_configs(seed: int) -> tuple[ExperimentConfig, ExperimentConfig]:
    """The two shared R=500 runs: (m=200, n=5000) and (m=50, n=2000)."""
    return (
        ExperimentConfig(m=200, n=5000, replications=500, seed=seed, indices=MC200_INDICES),
        ExperimentConfig(m=50, n=2000, replications=500, seed=seed, indices=MC50_INDICES),
    )


def mc200(seed: int):
    """Shared R=500 run at (m=200, n=5000) with the degree-based indices."""
    return run_mc(_mc_configs(seed)[0])


def mc50(seed: int):
    """Shared R=500 run at (m=50, n=2000) with the distance-based indices."""
    return run_mc(_mc_configs(seed)[1])


def criterion_hoover(summary, profile: str) -> CriterionResult:
    tol = HOOVER_TOL[profile]
    mean = summary.mean("hoover")
    runtime_ok = summary.elapsed_seconds < 30.0
    passed = abs(mean - Fraction("0.4807")) <= tol and runtime_ok
    return CriterionResult(
        cid="1-hoover",
        quantity="mean Hoover index (m=200, n=5000, R=500)",
        target="0.4807",
        actual=_f(mean),
        tolerance=f"±{tol:g}; runtime < 30 s",
        passed=passed,
    )


def criterion_zagreb_clt(summary, profile: str) -> CriterionResult:
    cfg = summary.config
    z = standardize_zagreb(summary.sample("zagreb"), cfg.m, cfg.n)
    ks = ks_normality(z)
    jb = jarque_bera(z)
    mean = float(z.mean())
    var = float(z.var(ddof=1))
    mean_lo, mean_hi = CLT_MEAN_BAND[profile]
    var_lo, var_hi = CLT_VAR_BAND[profile]
    passed = (
        not ks.reject
        and not jb.reject
        and mean_lo < mean < mean_hi
        and var_lo < var < var_hi
    )
    return CriterionResult(
        cid="2-zagreb-clt",
        quantity="standardized Zagreb sample normality (m=200, n=5000, R=500)",
        target="KS and JB fail to reject; mean ~ 0, variance ~ 1",
        actual=(
            f"KS={_f(ks.statistic)} (crit {_f(ks.critical)}),"
            f" JB={_f(jb.statistic)} (crit {_f(jb.critical)}),"
            f" mean={_f(mean)}, var={_f(var)}"
        ),
        tolerance=(
            f"KS < {_f(ks.critical)}, JB < {_f(jb.critical)},"
            f" mean in ({mean_lo:g}, {mean_hi:g}), var in ({var_lo:g}, {var_hi:g})"
        ),
        passed=passed,
    )


def criterion_wiener(summary, profile: str) -> CriterionResult:
    cfg = summary.config
    band = SE_BAND[profile]
    exact = theory.wiener_mean(cfg.m, cfg.n).value / cfg.n**2
    z = summary.z_score("wiener", exact, scale=cfg.n**2)
    four_dp_ok = abs(float(exact) - 9.7720) < 5e-5
    passed = abs(z) <= band and four_dp_ok
    return CriterionResult(
        cid="3-wiener",
        quantity="mean Wiener/n^2 (m=50, n=2000, R=500)",
        target=f"{float(exact):.6f} (published 9.7732 simulated vs 9.7720 theory)",
        actual=f"{_f(summary.mean('wiener') / cfg.n**2)} (z={_f(z)})",
        tolerance=f"|z| <= {band:g}; closed form = 9.7720 to 4 dp",
        passed=passed,
    )


def criterion_hyper_wiener(summary, profile: str) -> CriterionResult:
    cfg = summary.config
    band = SE_BAND[profile]
    corrected = theory.hyper_wiener_mean_corrected(cfg.m, cfg.n).value / cfg.n**2
    paper_form = theory.hyper_wiener_mean_paper(cfg.m, cfg.n).value / cfg.n**2
    z = summary.z_score("hyper_wiener", corrected, scale=cfg.n**2)
    paper_ok = abs(float(paper_form) - 264.6214) <= 1e-4
    passed = abs(z) <= band and paper_ok
    return CriterionResult(
        cid="4-hyper-wiener",
        quantity="mean hyper-Wiener/n^2 (m=50, n=2000, R=500)",
        target=(
            f"{float(corrected):.6f} corrected"
            f" (published form {float(paper_form):.6f} vs reported 264.6214)"
        ),
        actual=f"{_f(summary.mean('hyper_wiener') / cfg.n**2)} (z={_f(z)})",
        tolerance=f"|z| <= {band:g}; published form = 264.6214 ± 0.0001",
        passed=passed,
    )


def criterion_randic(summary, profile: str) -> CriterionResult:
    cfg = summary.config
    band = SE_BAND[profile]
    exact = theory.randic_mean(cfg.m, cfg.n).value / cfg.n**2
    asymptote = theory.randic_mean_limit(cfg.m).value
    z = summary.z_score("randic:1", exact, scale=cfg.n**2)
    passed = abs(z) <= band
    return CriterionResult(
        cid="5-randic",
        quantity="mean Randic/n^2 (m=200, n=5000, R=500)",
        target=f"{float(exact):.6f} exact (asymptote (2m-1)/m^2 = {float(asymptote):.6f})",
        actual=f"{_f(summary.mean('randic:1') / cfg.n**2)} (z={_f(z)})",
        tolerance=f"|z| <= {band:g}",
        passed=passed,
    )


def criterion_oracle_equivalence(profile: str) -> CriterionResult:
    """Exact equality of enumeration moments and closed forms on the grid.

    The only tolerated mismatches are the two documented errata, and they
    must be *exactly* the documented offsets: the Randic formula is -1 at
    m = 2 and the published hyper-Wiener form is +n everywhere.
    """
    failures = []
    for m in (2, 3, 4):
        for n in range(7):
            zag = enumerate_exact(m, n, "zagreb")
            if zag.mean != theory.zagreb_mean(m, n).value:
                failures.append(f"zagreb mean ({m},{n})")
            if zag.variance != theory.zagreb_variance(m, n).value:
                failures.append(f"zagreb variance ({m},{n})")
            if enumerate_exact(m, n, "wiener").mean != theory.wiener_mean(m, n).value:
                failures.append(f"wiener mean ({m},{n})")
            r_oracle = enumerate_exact(m, n, "randic:1").mean
            r_formula = theory.randic_mean(m, n, strict=False).value
            if m == 2:
                if r_formula - r_oracle != -1:
                    failures.append(f"randic erratum offset ({m},{n})")
            elif r_formula != r_oracle:
                failures.append(f"randic mean ({m},{n})")
            h_oracle = enumerate_exact(m, n, "hyper_wiener").mean
            if theory.hyper_wiener_mean_corrected(m, n).value != h_oracle:
                failures.append(f"hyper_wiener corrected ({m},{n})")
            if theory.hyper_wiener_mean_paper(m, n).value - h_oracle != n:
                failures.append(f"hyper_wiener published offset ({m},{n})")
    if theory.hyper_wiener_mean_paper(3, 1).value - enumerate_exact(3, 1, "hyper_wiener").mean != 1:
        failures.append("hyper_wiener published form not +1 at (3,1)")
    return CriterionResult(
        cid="6-oracle-equivalence",
        quantity="enumeration oracle vs closed forms, m in {2,3,4}, n in 0..6",
        target="exact equality except the two documented errata",
        actual="all equal; errata offsets exact" if not failures else "; ".join(failures),
        tolerance="none (rational equality)",
        passed=not failures,
    )


def criterion_formula_vs_bfs(profile: str) -> CriterionResult:
    failures = []
    for m in range(2, 6):
        for n in range(7):
            for counts in compositions(n, m):
                c = Caterpillar(m=m, leaf_counts=counts)
                total, total_sq = bfs_distance_sums(to_adjacency(c))
                if wiener(c) != total:
                    failures.append(f"wiener {m},{counts}")
                if hyper_wiener(c) != total + total_sq:
                    failures.append(f"hyper_wiener {m},{counts}")
    for c in _random_states(20_000_101, 100, 50, 200):
        total, total_sq = bfs_distance_sums(to_adjacency(c))
        if wiener(c) != total or hyper_wiener(c) != total + total_sq:
            failures.append(f"random state m={c.m}, n={c.n}")
    return CriterionResult(
        cid="7-formula-vs-bfs",
        quantity="O(m) Wiener/hyper-Wiener vs BFS oracle",
        target="exact equality on exhaustive grid (m<=5, n<=6) + 100 random states",
        actual="all equal" if not failures else "; ".join(failures[:5]),
        tolerance="none (integer equality)",
        passed=not failures,
    )


def _random_states(seed: int, count: int, m_max: int, n_max: int):
    rng = RngSeed(seed).generator()
    for _ in range(count):
        m = int(rng.integers(2, m_max + 1))
        n = int(rng.integers(0, n_max + 1))
        counts = [0] * m
        for i in rng.integers(0, m, size=n):
            counts[i] += 1
        yield Caterpillar(m=m, leaf_counts=tuple(counts))


def criterion_martingale(profile: str) -> CriterionResult:
    bad = sum(
        1 for c in _random_states(20_000_102, 100, 20, 100) if martingale_residual(c) != 0
    )
    return CriterionResult(
        cid="8-martingale",
        quantity="compensated Zagreb one-step drift on 100 random states",
        target="exactly 0 (rational)",
        actual="all residuals 0" if bad == 0 else f"{bad} nonzero residuals",
        tolerance="none (rational equality)",
        passed=bad == 0,
    )


def criterion_supermartingale(profile: str) -> CriterionResult:
    bad = sum(
        1
        for c in _random_states(20_000_103, 100, 20, 100)
        if randic_supermartingale_gap(c) < 0
    )
    return CriterionResult(
        cid="9-supermartingale",
        quantity="one-step Randic mean vs lower bound on 100 random states",
        target="mean >= R + (2j+7m-10)/m",
        actual="bound holds on all states" if bad == 0 else f"{bad} violations",
        tolerance="none (rational comparison)",
        passed=bad == 0,
    )


def criterion_gini(summary, profile: str) -> CriterionResult:
    failures = []
    for m in range(2, 11):
        gap = theory.gini_mean(m, 10**9).value - theory.gini_mean_limit_in_n(m).value
        if abs(gap) >= Fraction(1, 10**8):
            failures.append(f"limit at m={m}")
    lo, hi = GINI_BAND[profile]
    mean = summary.mean("gini_degree")
    band_ok = lo <= mean <= hi
    passed = not failures and band_ok
    return CriterionResult(
        cid="10-gini",
        quantity="Gini limits: E[gini](m, 10^9) vs (m-1)/(3m) + degree-Gini band",
        target=f"limit reached for m in 2..10; empirical mean in [{lo:g}, {hi:g}]",
        actual=(
            f"limit ok; empirical mean {_f(mean)}"
            if not failures
            else "; ".join(failures)
        ),
        tolerance="|gap| < 1e-8 (exact rational); band as stated",
        passed=passed,
    )


def _typed(rows: list[list]) -> list[list]:
    return [[(type(v), v) for v in row] for row in rows]


def criterion_determinism(seed: int, profile: str) -> CriterionResult:
    one = report_json("paper7", seed, profile, _paper7(seed, profile))
    two = report_json("paper7", seed, profile, _paper7(seed, profile))
    differ = [
        f"m={cfg.m} rows"
        for cfg in _mc_configs(seed)
        if _typed(replicate_rows(cfg)) != _typed(reference_rows(cfg))
    ]
    if one != two:
        differ.insert(0, "reports")
    passed = not differ
    return CriterionResult(
        cid="11-determinism",
        quantity=(
            "byte-identity of the paper7 report across runs; batched rows vs"
            " the scalar reference at (200, 5000) and (50, 2000)"
        ),
        target="identical bytes; identical values and types",
        actual="identical" if passed else f"{', '.join(differ)} differ",
        tolerance="none",
        passed=passed,
    )


def criterion_seed_robustness(seed: int, profile: str) -> CriterionResult:
    """Pass rate of the KS+JB normality decision over 20 consecutive seeds."""
    passes = 0
    for s in range(seed, seed + 20):
        summary = run_mc(
            ExperimentConfig(
                m=200, n=5000, replications=500, seed=s,
                indices=(IndexSpec("zagreb"),),
            )
        )
        z = standardize_zagreb(summary.sample("zagreb"), 200, 5000)
        if not ks_normality(z).reject and not jarque_bera(z).reject:
            passes += 1
    return CriterionResult(
        cid="R-seed-robustness",
        quantity=f"KS+JB non-rejection rate over seeds {seed}..{seed + 19}",
        target=">= 18/20",
        actual=f"{passes}/20",
        tolerance="alpha = 0.01 tests",
        passed=passes >= 18,
    )


def _paper_criteria(big, small, profile: str) -> list[CriterionResult]:
    """Criteria 1-5, shared by the paper7, montecarlo and all suites."""
    return [
        criterion_hoover(big, profile),
        criterion_zagreb_clt(big, profile),
        criterion_wiener(small, profile),
        criterion_hyper_wiener(small, profile),
        criterion_randic(big, profile),
    ]


def _paper7(seed: int, profile: str) -> list[CriterionResult]:
    return _paper_criteria(mc200(seed), mc50(seed), profile)


def _oracle_suite(profile: str) -> list[CriterionResult]:
    return [
        criterion_oracle_equivalence(profile),
        criterion_formula_vs_bfs(profile),
        criterion_martingale(profile),
        criterion_supermartingale(profile),
    ]


SUITES = ("oracle", "montecarlo", "paper7", "all")


def run_suite(
    suite: str,
    seed: int = DEFAULT_SEED,
    profile: str = "default",
) -> list[CriterionResult]:
    """Run one named criteria suite and return its verdicts."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    if profile not in SE_BAND:
        raise DomainError(f"unknown tolerance profile {profile!r}")
    if suite == "oracle":
        return _oracle_suite(profile)
    if suite == "paper7":
        return _paper7(seed, profile)
    big = mc200(seed)
    paper = _paper_criteria(big, mc50(seed), profile)
    if suite == "montecarlo":
        return [*paper, criterion_gini(big, profile), criterion_seed_robustness(seed, profile)]
    return [
        *paper,
        *_oracle_suite(profile),
        criterion_gini(big, profile),
        criterion_determinism(seed, profile),
        criterion_seed_robustness(seed, profile),
    ]


def render_table(results: list[CriterionResult]) -> str:
    """Human-readable fixed-layout verdict table."""
    headers = ("criterion", "quantity", "target", "ours", "tolerance", "verdict")
    rows = [
        (r.cid, r.quantity, r.target, r.actual, r.tolerance, r.verdict)
        for r in results
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def report_json(
    suite: str, seed: int, profile: str, results: list[CriterionResult]
) -> bytes:
    """Deterministic JSON report: same inputs, same bytes."""
    payload = {
        "suite": suite,
        "seed": seed,
        "tolerance_profile": profile,
        "all_passed": all(r.passed for r in results),
        "results": [
            {
                "criterion": r.cid,
                "quantity": r.quantity,
                "target": r.target,
                "ours": r.actual,
                "tolerance": r.tolerance,
                "verdict": r.verdict,
                "passed": r.passed,
            }
            for r in results
        ],
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
