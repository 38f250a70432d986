"""Acceptance-criteria engine shared by the test suite and the CLI.

Each numbered criterion is a function producing a :class:`CriterionResult`;
suites group them.  Exact criteria compare rationals with no tolerance;
statistical criteria use the documented default seed and 4-standard-error
bands (3 under the ``strict`` profile).  Reports deliberately contain no
wall-clock values so that a fixed (suite, seed, profile) always serializes
to identical bytes.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .caterpillar import Caterpillar, RngSeed, _adjacency_arrays, simulate_counts, to_adjacency
from .errors import DomainError
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    reference_rows,
    run_mc,
    zagreb_normality,
)
from .indices import IndexSpec, compute_indices_batch, hyper_wiener, randic, wiener, zagreb
from .oracle import (
    _bfs_distance_sums_arrays,
    _composition_blocks,
    _enumerate_moments,
    bfs_distance_sums_many,
    one_step_means,
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


def mc200(seed: int):
    """Shared R=500 run at (m=200, n=5000) with the degree-based indices."""
    return run_mc(ExperimentConfig(200, 5000, 500, seed, MC200_INDICES))


def mc50(seed: int):
    """Shared R=500 run at (m=50, n=2000) with the distance-based indices."""
    return run_mc(ExperimentConfig(50, 2000, 500, seed, MC50_INDICES))


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
    check = zagreb_normality(summary.sample("zagreb"), cfg.m, cfg.n)
    ks, jb = check.ks, check.jarque_bera
    mean = float(check.z.mean())
    var = float(check.z.var(ddof=1))
    mean_lo, mean_hi = CLT_MEAN_BAND[profile]
    var_lo, var_hi = CLT_VAR_BAND[profile]
    passed = not check.reject and mean_lo < mean < mean_hi and var_lo < var < var_hi
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


def _scaled_mean(summary, profile, cid, quantity, key, exact, target, published=None):
    """Criteria 3-5: the mean of index ``key`` over n^2 within ``SE_BAND``
    standard errors of its closed form ``exact`` (already over n^2).
    ``published``, if given, is (tolerance text, passed) for the closed form
    against the published number, and must pass too.
    """
    n2 = summary.config.n**2
    band = SE_BAND[profile]
    z = summary.z_score(key, exact, scale=n2)
    text, published_ok = published or ("", True)
    return CriterionResult(
        cid=cid,
        quantity=quantity,
        target=target,
        actual=f"{_f(summary.mean(key) / n2)} (z={_f(z)})",
        tolerance=f"|z| <= {band:g}" + (text and f"; {text}"),
        passed=abs(z) <= band and published_ok,
    )


def criterion_wiener(summary, profile: str) -> CriterionResult:
    cfg = summary.config
    exact = theory.wiener_mean(cfg.m, cfg.n).value / cfg.n**2
    return _scaled_mean(
        summary, profile, "3-wiener", "mean Wiener/n^2 (m=50, n=2000, R=500)", "wiener", exact,
        f"{float(exact):.6f} (published 9.7732 simulated vs 9.7720 theory)",
        ("closed form = 9.7720 to 4 dp", abs(float(exact) - 9.7720) < 5e-5),
    )


def criterion_hyper_wiener(summary, profile: str) -> CriterionResult:
    cfg = summary.config
    corrected = theory.hyper_wiener_mean_corrected(cfg.m, cfg.n).value / cfg.n**2
    paper_form = float(theory.hyper_wiener_mean_paper(cfg.m, cfg.n).value / cfg.n**2)
    return _scaled_mean(
        summary, profile, "4-hyper-wiener", "mean hyper-Wiener/n^2 (m=50, n=2000, R=500)",
        "hyper_wiener", corrected,
        f"{float(corrected):.6f} corrected (published form {paper_form:.6f} vs reported 264.6214)",
        ("published form = 264.6214 ± 0.0001", abs(paper_form - 264.6214) <= 1e-4),
    )


def criterion_randic(summary, profile: str) -> CriterionResult:
    cfg = summary.config
    exact = theory.randic_mean(cfg.m, cfg.n).value / cfg.n**2
    asymptote = theory.randic_mean_limit(cfg.m).value
    return _scaled_mean(
        summary, profile, "5-randic", "mean Randic/n^2 (m=200, n=5000, R=500)", "randic:1", exact,
        f"{float(exact):.6f} exact (asymptote (2m-1)/m^2 = {float(asymptote):.6f})",
    )


def _oracle_rows(m: int, n: int):
    """Criterion 6's rows at (m, n): (label, oracle index, moment, closed
    form, documented offset of the closed form from the oracle)."""
    return (
        ("zagreb mean", "zagreb", "mean", theory.zagreb_mean(m, n), 0),
        ("zagreb variance", "zagreb", "variance", theory.zagreb_variance(m, n), 0),
        ("wiener mean", "wiener", "mean", theory.wiener_mean(m, n), 0),
        ("randic mean", "randic:1", "mean", theory.randic_mean(m, n, strict=False),
         -1 if m == 2 else 0),
        ("hyper_wiener corrected", "hyper_wiener", "mean",
         theory.hyper_wiener_mean_corrected(m, n), 0),
        ("hyper_wiener published offset", "hyper_wiener", "mean",
         theory.hyper_wiener_mean_paper(m, n), n),
    )


def criterion_oracle_equivalence() -> CriterionResult:
    """Exact equality of enumeration moments and closed forms on the grid.

    The only tolerated mismatches are the two documented errata, and they
    must be *exactly* the documented offsets: the Randic formula is -1 at
    m = 2 and the published hyper-Wiener form is +n everywhere.
    """
    failures = []
    for m in (2, 3, 4):
        for n in range(7):
            rows = _oracle_rows(m, n)
            # one enumeration pass for all the indices the rows read
            indices = list(dict.fromkeys(index for _, index, *_ in rows))
            exact = dict(zip(indices, _enumerate_moments(m, n, indices)))
            for label, index, moment, closed_form, offset in rows:
                if closed_form.value - getattr(exact[index], moment) != offset:
                    failures.append(f"{label} ({m},{n})")
    return CriterionResult(
        cid="6-oracle-equivalence",
        quantity="enumeration oracle vs closed forms, m in {2,3,4}, n in 0..6",
        target="exact equality except the two documented errata",
        actual="all equal; errata offsets exact" if not failures else "; ".join(failures),
        tolerance="none (rational equality)",
        passed=not failures,
    )


# The indices criterion 7 checks, in the order of its failure texts.
_FORMULA_INDICES = (IndexSpec("wiener"), IndexSpec("hyper_wiener"))

# Nodes per stack of criterion 7's random states.  Their rows are up to four
# words (N <= 250), and their edge tuples stay alive through the BFS: on
# Python 3.11, at the grid's 2,310 nodes the criterion's tracemalloc peak
# reads 429 KiB, at 2,000 it reads 322 KiB, and the two ran within 0.5 ms.
_STATE_STACK_NODES = 2000


def _stacks(sizes, budget):
    """Runs of consecutive items, as index lists, each of at most ``budget``
    nodes in all unless one item alone holds more: ``sizes`` are the items'
    node counts."""
    run, total = [], 0
    for k, size in enumerate(sizes):
        if run and total + size > budget:
            yield run
            run, total = [], 0
        run.append(k)
        total += size
    yield run


def _formula_stacks():
    """Criterion 7's stacks, each of which runs one all-sources BFS: the
    exhaustive grid's points (m, n), whole and in (m, n) order, then the
    random states, sorted by m.

    Every state of a grid point has N = m + n nodes.  A grid stack holds at
    most the nodes of the largest point, (5, 6), so the peak memory stays
    that of one BFS of that point: the 784 grid states run as 4 stacks.
    One stack per m held twice as much.  A random stack holds at most
    ``_STATE_STACK_NODES``, so the 100 random states run as 7 stacks.  A
    stack runs as many levels as its longest diameter, about m + 1, so the
    random states run sorted by spine length.
    """
    grid = [(m, n) for m in range(2, 6) for n in range(7)]
    nodes = [math.comb(n + m - 1, m - 1) * (m + n) for m, n in grid]
    states = sorted(_random_states(20_000_101, 100, 50, 200), key=lambda c: c.m)
    sizes = [c.node_count for c in states]
    return (
        [[grid[k] for k in run] for run in _stacks(nodes, max(nodes))],
        [[states[k] for k in run] for run in _stacks(sizes, _STATE_STACK_NODES)],
    )


def _grid_failures(points) -> list[str]:
    """Criterion 7 on one stack of grid points: the batch evaluator's Wiener
    and hyper-Wiener of each point's compositions against one BFS of the
    stack, built from its leaf-count matrices, one per spine length."""
    blocks = [
        np.concatenate([
            next(_composition_blocks(n, m, math.comb(n + m - 1, m - 1))) for _, n in group
        ])
        for m, group in itertools.groupby(points, key=lambda point: point[0])
    ]
    states = ((counts.shape[1], row) for counts in blocks for row in counts.tolist())
    formulas = itertools.chain.from_iterable(
        zip(*compute_indices_batch(counts, _FORMULA_INDICES)) for counts in blocks
    )
    return _mismatches(states, formulas, _bfs_distance_sums_arrays(*_adjacency_arrays(blocks)))


def _state_failures(states) -> list[str]:
    """Criterion 7 on one stack of random states: the scalar Wiener and
    hyper-Wiener of each state against one BFS of their adjacency lists."""
    return _mismatches(
        ((c.m, c.leaf_counts) for c in states),
        ((wiener(c), hyper_wiener(c)) for c in states),
        bfs_distance_sums_many([to_adjacency(c) for c in states]),
    )


def _mismatches(states, formulas, sums) -> list[str]:
    """The failure texts of the states (m, leaf counts) whose formula values
    (Wiener, hyper-Wiener) differ from their BFS sums (of d, of d^2)."""
    failures = []
    for (m, counts), (w, wh), (total, total_sq) in zip(states, formulas, sums):
        if w != total:
            failures.append(f"wiener {m},{tuple(counts)}")
        if wh != total + total_sq:
            failures.append(f"hyper_wiener {m},{tuple(counts)}")
    return failures


def criterion_formula_vs_bfs() -> CriterionResult:
    """The O(m) Wiener and hyper-Wiener formulas against a generic BFS: the
    batch evaluator on the exhaustive grid (m <= 5, n <= 6), one leaf-count
    array stack at a time, and the scalar index functions on 100 random
    states, through :func:`~catlab.caterpillar.to_adjacency`."""
    grid_stacks, state_stacks = _formula_stacks()
    failures = []
    for points in grid_stacks:
        failures += _grid_failures(points)
    for states in state_stacks:
        failures += _state_failures(states)
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
        yield Caterpillar(m=m, leaf_counts=tuple(simulate_counts(m, n, rng)))


def criterion_martingale() -> CriterionResult:
    """The paper's compensated Zagreb index Z_n + beta_n is a martingale:
    its exact one-step mean equals its value at every state."""
    states = list(_random_states(20_000_102, 100, 20, 100))
    bad = sum(
        1
        for c, mean in zip(states, one_step_means(states, "zagreb"))
        if mean + theory.martingale_compensator(c.m, c.n + 1)
        != zagreb(c) + theory.martingale_compensator(c.m, c.n)
    )
    return CriterionResult(
        cid="8-martingale",
        quantity="compensated Zagreb one-step drift on 100 random states",
        target="exactly 0 (rational)",
        actual="all residuals 0" if bad == 0 else f"{bad} nonzero residuals",
        tolerance="none (rational equality)",
        passed=bad == 0,
    )


def criterion_supermartingale() -> CriterionResult:
    """The paper's lower bound on the one-step Randic mean holds at every state."""
    states = list(_random_states(20_000_103, 100, 20, 100))
    bad = sum(
        1
        for c, mean in zip(states, one_step_means(states, "randic:1"))
        if mean < theory.randic_supermartingale_bound(c.m, c.n + 1, randic(c, 1))
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


def _typed(rows) -> list[list]:
    return [[(type(v), v) for v in row] for row in rows]


def criterion_determinism(big, small, profile: str) -> CriterionResult:
    """The paper7 report of the suite's runs ``big`` and ``small`` against
    one fresh paper7 run, and their columns against the scalar reference."""
    seed = big.config.seed
    one = report_json("paper7", seed, profile, _paper_criteria(big, small, profile))
    fresh = _paper_criteria(mc200(seed), mc50(seed), profile)
    differ = [
        f"m={run.config.m} rows"
        for run in (big, small)
        if _typed(zip(*run.columns.values())) != _typed(reference_rows(run.config))
    ]
    if one != report_json("paper7", seed, profile, fresh):
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


def criterion_seed_robustness(big) -> CriterionResult:
    """Pass rate of the KS+JB normality decision over 20 consecutive seeds.

    ``big`` is the first seed's run: its Zagreb column comes from
    substreams (seed, r) whatever other indices it holds, so only the other
    19 seeds are drawn, Zagreb alone.
    """
    cfg = big.config
    seed = cfg.seed
    others = (
        run_mc(dataclasses.replace(cfg, seed=s, indices=(IndexSpec("zagreb"),)))
        for s in range(seed + 1, seed + 20)
    )
    passes = sum(
        not zagreb_normality(run.sample("zagreb"), cfg.m, cfg.n).reject
        for run in itertools.chain([big], others)
    )
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


def _oracle_suite() -> list[CriterionResult]:
    return [
        criterion_oracle_equivalence(),
        criterion_formula_vs_bfs(),
        criterion_martingale(),
        criterion_supermartingale(),
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
        return _oracle_suite()
    big, small = mc200(seed), mc50(seed)
    paper = _paper_criteria(big, small, profile)
    if suite == "paper7":
        return paper
    if suite == "montecarlo":
        return [*paper, criterion_gini(big, profile), criterion_seed_robustness(big)]
    return [
        *paper,
        *_oracle_suite(),
        criterion_gini(big, profile),
        criterion_determinism(big, small, profile),
        criterion_seed_robustness(big),
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
