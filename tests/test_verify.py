"""The verify engine itself: criteria can fail, and suites assemble in order.

The acceptance tests only see passing verdicts.  These tests inject the
smallest natural fault into a closed form, a bound, a formula value, a
reference row, a sample, a test decision or a stub summary's mean or run
time and check that every criterion reports it, and run every suite over
stub criteria to pin which criteria it runs, in what order and on which
Monte Carlo run.
"""

import dataclasses
import itertools
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest

from catlab import experiments, oracle, theory, verify
from catlab.caterpillar import Caterpillar, RngSeed, simulate_counts, to_adjacency
from catlab.experiments import DEFAULT_SEED, ExperimentConfig, run_mc
from catlab.indices import IndexSpec


def test_criterion_6_fails_on_a_wrong_closed_form(monkeypatch):
    real = theory.zagreb_mean

    def off_by_one(m, n):
        value = real(m, n)
        return dataclasses.replace(value, value=value.value + 1)

    monkeypatch.setattr(theory, "zagreb_mean", off_by_one)
    result = verify.criterion_oracle_equivalence()
    assert result.verdict == "FAIL"
    failures = result.actual.split("; ")
    assert len(failures) == 21 and all(f.startswith("zagreb mean (") for f in failures)
    assert failures[0] == "zagreb mean (2,0)"


def test_criterion_6_fails_when_an_erratum_offset_is_missing(monkeypatch):
    monkeypatch.setattr(theory, "hyper_wiener_mean_paper", theory.hyper_wiener_mean_corrected)
    result = verify.criterion_oracle_equivalence()
    assert result.verdict == "FAIL"
    failures = result.actual.split("; ")
    # the published form is +n, so at n = 0 the corrected form still matches
    assert failures == [
        f"hyper_wiener published offset ({m},{n})" for m in (2, 3, 4) for n in range(1, 7)
    ]


def one_batch_value_off(monkeypatch, column, m, counts):
    """Add 1 to the batch evaluator's ``column`` of criterion 7 at one state."""
    real = verify.compute_indices_batch

    def off(block, specs):
        values = real(block, specs)
        rows = block.tolist()
        if block.shape[1] == m and list(counts) in rows:
            values[column][rows.index(list(counts))] += 1
        return values

    monkeypatch.setattr(verify, "compute_indices_batch", off)


def test_criterion_7_fails_on_one_wrong_wiener_value(monkeypatch):
    one_batch_value_off(monkeypatch, 0, 3, (1, 0, 2))
    result = verify.criterion_formula_vs_bfs()
    assert result.verdict == "FAIL"
    assert result.actual == "wiener 3,(1, 0, 2)"


def test_criterion_7_fails_on_one_wrong_batch_hyper_wiener_value(monkeypatch):
    one_batch_value_off(monkeypatch, 1, 5, (0, 2, 0, 0, 4))
    result = verify.criterion_formula_vs_bfs()
    assert result.verdict == "FAIL"
    assert result.actual == "hyper_wiener 5,(0, 2, 0, 0, 4)"


@pytest.mark.parametrize("column, index", [(0, "wiener"), (1, "hyper_wiener")],
                         ids=["wiener", "hyper_wiener"])
def test_criterion_7_fails_on_one_wrong_batch_value_of_a_random_state(monkeypatch, column, index):
    """The random states run through the batch evaluator like the grid, so
    a fault there at one random state is seen too, and the state named."""
    state = list(verify._random_states(20_000_101, 100, 50, 200))[37]
    one_batch_value_off(monkeypatch, column, state.m, state.leaf_counts)
    result = verify.criterion_formula_vs_bfs()
    assert result.verdict == "FAIL"
    assert result.actual == f"{index} {state.m},{state.leaf_counts}"


def test_criterion_7_raises_on_a_bfs_stream_one_sum_short(monkeypatch):
    """A BFS that drops each stack's last state's sums is an error, not a
    pass over the states it did return."""
    real = verify._bfs_distance_sums_arrays
    monkeypatch.setattr(verify, "_bfs_distance_sums_arrays", lambda *arrays: real(*arrays)[:-1])
    with pytest.raises(ValueError, match="shorter"):
        verify.criterion_formula_vs_bfs()


@pytest.mark.parametrize("criterion", [verify.criterion_martingale,
                                       verify.criterion_supermartingale])
def test_criteria_8_and_9_raise_on_one_step_means_one_short(monkeypatch, criterion):
    """One-step means that drop the last state's mean are an error, not a
    pass over the states they did return."""
    real = verify.one_step_means
    monkeypatch.setattr(verify, "one_step_means", lambda states, index: real(states, index)[:-1])
    with pytest.raises(ValueError, match="shorter"):
        criterion()


@pytest.mark.parametrize(
    "criterion,closed_form,key,run",
    [
        ("criterion_wiener", "wiener_mean", "wiener", "summary_m50"),
        ("criterion_hyper_wiener", "hyper_wiener_mean_corrected", "hyper_wiener", "summary_m50"),
        ("criterion_randic", "randic_mean", "randic:1", "summary_m200"),
    ],
)
def test_criteria_3_to_5_fail_on_a_closed_form_biased_by_5_se(
    monkeypatch, request, criterion, closed_form, key, run
):
    summary = request.getfixturevalue(run)
    cfg = summary.config
    check = getattr(verify, criterion)
    assert check(summary, "default").verdict == "PASS"
    real = getattr(theory, closed_form)
    z = summary.z_score(key, real(cfg.m, cfg.n).value)
    # 5 SE in the direction that moves z away from 0
    shift = Fraction(5 * math.sqrt(summary.variance(key) / cfg.replications))
    shift = shift if z >= 0 else -shift

    def biased(m, n):
        value = real(m, n)
        return dataclasses.replace(value, value=value.value - shift)

    monkeypatch.setattr(theory, closed_form, biased)
    result = check(summary, "default")
    assert result.verdict == "FAIL"
    biased_z = float(re.search(r"\(z=(.*)\)$", result.actual).group(1))
    assert abs(biased_z) > verify.SE_BAND["default"]
    assert biased_z == pytest.approx(z + math.copysign(5, z), abs=1e-3)


@pytest.mark.parametrize(
    "criterion,key,run,bias",
    [
        ("criterion_wiener", "wiener", "summary_m50", "0.00156"),
        ("criterion_hyper_wiener", "hyper_wiener", "summary_m50", "0.00317"),
        ("criterion_randic", "randic:1", "summary_m200", "0.00040"),
    ],
)
def test_criteria_3_to_5_fail_on_twice_the_readme_detectable_bias(
    request, criterion, key, run, bias
):
    """README states the relative bias of the mean each of criteria 3-5 can
    detect.  The default-seed run's index column scaled by 1 + delta, with
    delta twice that bias, fails under both profiles in both directions,
    and passes at delta = 0.  At 1.5 times, the seed's own z of about -1.9
    would put the upward Wiener and hyper-Wiener z on the 4 SE band's edge."""
    summary = request.getfixturevalue(run)
    assert summary.config.seed == DEFAULT_SEED == 31415
    check = getattr(verify, criterion)
    column = summary.columns[key]
    delta = 2 * Fraction(bias)
    for sign in (0, 1, -1):
        scaled = [value * (1 + sign * delta) for value in column]
        run_scaled = dataclasses.replace(
            summary,
            columns={**summary.columns, key: scaled},
            moments={**summary.moments, key: experiments._exact_moments(scaled)},
        )
        for profile in ("default", "strict"):
            result = check(run_scaled, profile)
            z = float(re.search(r"\(z=(.*)\)$", result.actual).group(1))
            if sign:
                assert result.verdict == "FAIL" and z * sign > verify.SE_BAND["default"]
            else:
                assert result.verdict == "PASS", (profile, z)


def test_criterion_8_fails_on_a_compensator_off_by_n_over_m(monkeypatch):
    real = theory.martingale_compensator
    # a constant offset cancels in the residual; one growing with n does not
    monkeypatch.setattr(theory, "martingale_compensator", lambda m, n: real(m, n) + Fraction(n, m))
    result = verify.criterion_martingale()
    assert result.verdict == "FAIL"
    assert result.actual == "100 nonzero residuals"


def test_criterion_9_fails_on_a_bound_raised_by_1(monkeypatch):
    real = theory.randic_supermartingale_bound
    monkeypatch.setattr(theory, "randic_supermartingale_bound", lambda m, j, r: real(m, j, r) + 1)
    result = verify.criterion_supermartingale()
    assert result.verdict == "FAIL"
    assert result.actual == "12 violations"  # the states whose gap is below 1


def test_criterion_11_fails_on_one_wrong_reference_cell(monkeypatch, summary_m200, summary_m50):
    real = verify.reference_rows

    def one_cell_off(cfg):
        rows = real(cfg)
        if cfg.m == 50:
            rows[123][1] += 1  # one hyper-Wiener value
        return rows

    monkeypatch.setattr(verify, "reference_rows", one_cell_off)
    result = verify.criterion_determinism(summary_m200, summary_m50, "default")
    assert result.verdict == "FAIL"
    assert result.actual == "m=50 rows differ"


def test_criterion_11_fails_when_the_fresh_run_differs_in_one_value(
    monkeypatch, summary_m200, summary_m50
):
    zagreb = list(summary_m200.columns["zagreb"])
    zagreb[0] += 2
    perturbed = dataclasses.replace(
        summary_m200,
        columns={**summary_m200.columns, "zagreb": zagreb},
        moments={**summary_m200.moments, "zagreb": experiments._exact_moments(zagreb)},
    )
    monkeypatch.setattr(verify, "mc200", lambda seed: perturbed)
    result = verify.criterion_determinism(summary_m200, summary_m50, "default")
    assert result.verdict == "FAIL"
    assert result.actual == "reports differ"


def test_zagreb_column_does_not_depend_on_the_other_indices(summary_m200):
    """Criterion R counts the suite's mc200 run as its first seed because a
    Zagreb-only run at that seed gives the same column, type for type."""
    cfg = dataclasses.replace(summary_m200.config, indices=(IndexSpec("zagreb"),))
    column = run_mc(cfg).columns["zagreb"]
    assert verify._typed([column]) == verify._typed([summary_m200.columns["zagreb"]])


def test_suite_all_draws_each_replicate_set_at_most_twice(monkeypatch):
    """The suite draws mc200 and mc50 once, criterion 11's fresh paper7 run
    draws them once more, and criterion R draws only the 19 seeds after the
    suite's own."""
    draws = Counter()
    real = experiments.replicate_rows

    def counted(cfg):
        draws[cfg.m, cfg.n, cfg.replications, cfg.seed] += 1
        return real(cfg)

    for module in (experiments, verify):
        monkeypatch.setattr(module, "replicate_rows", counted, raising=False)
    seed = DEFAULT_SEED
    assert all(r.passed for r in verify.run_suite("all", seed=seed))
    assert draws == {
        (200, 5000, 500, seed): 2,
        (50, 2000, 500, seed): 2,
        **{(200, 5000, 500, s): 1 for s in range(seed + 1, seed + 20)},
    }
    assert draws.total() == 23


def test_criterion_7_stacks_whole_grid_points_within_the_node_budget(monkeypatch):
    """The 784 grid states run as 2 stacked BFS calls of whole (m, n) grid
    points, in (m, n) order, each point once and each stack within 4,500
    nodes; the 100 random states, of mixed sizes and sorted by m, run as 3
    stacks within the same budget, by the same rule: a stack closes when
    the next item would take it past the budget.  Every stack makes one
    evaluator call per run of equal spine length."""
    calls, shapes = [], []
    real = oracle._bfs_stack
    monkeypatch.setattr(
        oracle, "_bfs_stack",
        lambda sizes, *args: calls.append(sizes) or real(sizes, *args),
    )
    real_batch = verify.compute_indices_batch
    monkeypatch.setattr(
        verify, "compute_indices_batch",
        lambda counts, specs: shapes.append(counts.shape) or real_batch(counts, specs),
    )
    assert verify.criterion_formula_vs_bfs().verdict == "PASS"
    stacks = list(verify._formula_stacks())
    assert len(calls) == len(stacks) == 5
    # each stack's states as (m, leaf counts), in the order the BFS reads them
    states = [
        [(counts.shape[1], tuple(row)) for counts in blocks for row in counts.tolist()]
        for blocks in stacks
    ]
    assert calls == [[m + sum(counts) for m, counts in stack] for stack in states]
    assert shapes == [
        (len(list(run)), m) for stack in states
        for m, run in itertools.groupby(length for length, _ in stack)
    ]
    assert shapes[:5] == [(28, 2), (84, 3), (210, 4), (126, 5), (336, 5)]
    grid = [(m, n) for m in range(2, 6) for n in range(7)]
    points = [[(m, tuple(counts)) for counts in oracle.compositions(n, m)] for m, n in grid]
    cuts = [0, 26, 28]  # (2, 0) .. (5, 4), then (5, 5) and (5, 6)
    assert states[:2] == [sum(points[a:b], []) for a, b in zip(cuts, cuts[1:])]
    assert list(map(sum, calls[:2])) == [3696, 3570]
    # (5, 5), 126 states of 10 nodes, would take the first stack past 4,500
    assert 3696 + 1260 > verify._STACK_NODES == 4500
    totals = list(map(sum, calls[2:]))
    assert totals == [4414, 4308, 4138]
    assert all(total + nodes[0] > 4500 for total, nodes in zip(totals, calls[3:]))
    by_m = sorted(verify._random_states(20_000_101, 100, 50, 200), key=lambda c: c.m)
    assert sum(states[2:], []) == [(c.m, c.leaf_counts) for c in by_m]
    # the random stacks' evaluator calls: one per distinct m of each stack
    assert len(shapes) - 5 == sum(len({m for m, _ in stack}) for stack in states[2:])


def test_criterion_6_makes_one_enumeration_pass_per_grid_point(monkeypatch):
    """The four indices its rows read share one pass per (m, n): 21 runs of
    the composition blocks, in (m, n) order, each block evaluated once."""
    passes, calls = [], []
    real_blocks = oracle._composition_blocks
    monkeypatch.setattr(
        oracle, "_composition_blocks",
        lambda n, m, rows: passes.append((m, n)) or real_blocks(n, m, rows),
    )
    real = oracle.compute_indices_batch
    monkeypatch.setattr(
        oracle, "compute_indices_batch", lambda *args: calls.append(args) or real(*args)
    )
    assert verify.criterion_oracle_equivalence().verdict == "PASS"
    assert passes == [(m, n) for m in (2, 3, 4) for n in range(7)]
    # every grid point here fits one block
    assert len(calls) == 21


@pytest.mark.parametrize("criterion, seed", [
    (verify.criterion_martingale, 20_000_102),
    (verify.criterion_supermartingale, 20_000_103),
])
def test_criteria_8_and_9_make_one_evaluator_call_per_spine_length(monkeypatch, criterion, seed):
    """The one-step means of the 100 random states are one evaluator call
    per distinct spine length, on all m successors of each of its states."""
    shapes = []
    real = oracle.compute_indices_batch
    monkeypatch.setattr(
        oracle, "compute_indices_batch",
        lambda counts, *args: shapes.append(counts.shape) or real(counts, *args),
    )
    assert criterion().verdict == "PASS"
    lengths = Counter(c.m for c in verify._random_states(seed, 100, 20, 100))
    assert sorted(shapes) == sorted((k * m, m) for m, k in lengths.items())


def test_criterion_7_tracemalloc_peak_stays_below_400_kib():
    """The grid and random states run in 5 stacks of at most 4,500 nodes,
    each from its own leaf-count arrays, with BFS rows for their non-pendant
    nodes only; the whole criterion peaks below 400 KiB."""
    verify.criterion_formula_vs_bfs()
    tracemalloc.start()
    try:
        assert verify.criterion_formula_vs_bfs().verdict == "PASS"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 2**10


HOOVER = Fraction("0.4807")


def mc200_summary(hoover=HOOVER, gini=Fraction("0.4827"), elapsed=1.0):
    """A stand-in for the ``mc200`` summary that criteria 1 and 10 read."""
    means = {"hoover": hoover, "gini_degree": gini}
    return SimpleNamespace(mean=means.__getitem__, elapsed_seconds=elapsed)


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_criterion_1_fails_on_a_hoover_mean_2e_3_off_or_a_30_s_run(profile):
    tol = Fraction(verify.HOOVER_TOL[profile])
    for hoover in (HOOVER, HOOVER - tol, HOOVER + tol * Fraction(99, 100)):
        assert verify.criterion_hoover(mc200_summary(hoover), profile).verdict == "PASS"
    for hoover in (HOOVER + Fraction(2, 1000), HOOVER - Fraction(2, 1000),
                   HOOVER + tol * Fraction(101, 100)):
        result = verify.criterion_hoover(mc200_summary(hoover), profile)
        assert (result.verdict, result.actual) == ("FAIL", format(float(hoover), ".6g"))
    assert verify.criterion_hoover(mc200_summary(elapsed=29.9), profile).verdict == "PASS"
    assert verify.criterion_hoover(mc200_summary(elapsed=30.0), profile).verdict == "FAIL"


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_criterion_10_fails_on_a_gini_mean_outside_the_band(profile):
    lo, hi = verify.GINI_BAND[profile]
    for gini in (lo, hi, Fraction("0.4827")):
        assert verify.criterion_gini(mc200_summary(gini=gini), profile).verdict == "PASS"
    for gini in (lo - 1e-3, hi + 1e-3):
        result = verify.criterion_gini(mc200_summary(gini=gini), profile)
        assert result.verdict == "FAIL"
        assert result.actual == f"limit ok; empirical mean {format(gini, '.6g')}"


@pytest.mark.parametrize(
    "shift,failing",
    [(Fraction(1, 10**8), [2]), (Fraction(-1, 10**8), list(range(3, 11)))],
)
def test_criterion_10_fails_on_a_gini_mean_shifted_by_1e_8(monkeypatch, shift, failing):
    """The true gaps are below 1e-8 (-3.3e-9 at m = 10, +2.2e-10 at m = 2), so
    a 1e-8 shift fails exactly the m whose gap it moves away from zero."""
    real = theory.gini_mean

    def shifted(m, n):
        value = real(m, n)
        return dataclasses.replace(value, value=value.value + shift)

    monkeypatch.setattr(theory, "gini_mean", shifted)
    result = verify.criterion_gini(mc200_summary(), "default")
    assert result.verdict == "FAIL"
    assert result.actual == "; ".join(f"limit at m={m}" for m in failing)


def zagreb_summary(z, m=200, n=5000, seed=DEFAULT_SEED):
    """A stand-in for a ``run_mc`` summary whose standardized Zagreb sample is ``z``."""
    mean = float(theory.zagreb_mean(m, n).value)
    sd = math.sqrt(float(theory.zagreb_variance(m, n).value))
    raw = mean + sd * np.asarray(z)
    config = ExperimentConfig(m=m, n=n, replications=len(raw), seed=seed,
                              indices=(IndexSpec("zagreb"),))
    return SimpleNamespace(config=config, sample=lambda key: raw)


# 500 evenly spaced quantiles: standard normal, and unit exponential moved to
# mean 0 (skew 2, excess kurtosis 6), both with mean ~0 and variance ~1.
PROBS = (np.arange(500) + 0.5) / 500
NORMAL = np.array([NormalDist().inv_cdf(p) for p in PROBS])
SKEWED = -np.log1p(-PROBS) - 1


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_criterion_2_fails_on_a_skewed_sample(profile):
    assert verify.criterion_zagreb_clt(zagreb_summary(NORMAL), profile).verdict == "PASS"
    result = verify.criterion_zagreb_clt(zagreb_summary(SKEWED), profile)
    assert result.verdict == "FAIL"
    # mean and variance are in their bands: the shape alone fails it
    shown = r"KS=(\S+) \(crit (\S+)\), JB=(\S+) \(crit (\S+)\), mean=(\S+), var=(\S+)"
    ks, ks_crit, jb, jb_crit, mean, var = map(float, re.fullmatch(shown, result.actual).groups())
    assert ks > ks_crit and jb > jb_crit
    assert abs(mean) < 0.01 and abs(var - 1) < 0.01


@pytest.mark.parametrize("test", ["ks_normality", "jarque_bera"])
def test_criterion_R_fails_when_3_of_20_seeds_reject(monkeypatch, test):
    seed = DEFAULT_SEED
    big = zagreb_summary(NORMAL, seed=seed)
    big.config = dataclasses.replace(big.config, indices=verify.MC200_INDICES)
    ran = []

    def fake_run_mc(cfg):
        zagreb_only = (IndexSpec("zagreb"),)
        assert cfg == dataclasses.replace(big.config, seed=cfg.seed, indices=zagreb_only)
        ran.append(cfg.seed)
        return zagreb_summary(NORMAL, cfg.m, cfg.n, cfg.seed)

    real = getattr(experiments, test)
    rejecting = set()

    def stubbed(z):
        result = real(z)
        # the first decision, before any run_mc, is big's own seed
        return dataclasses.replace(result, reject=(ran[-1] if ran else seed) in rejecting)

    monkeypatch.setattr(verify, "run_mc", fake_run_mc)
    # the one normality decision looks the tests up in experiments
    monkeypatch.setattr(experiments, test, stubbed)
    for rejected, want in (({seed + 2, seed + 9}, ("18/20", "PASS")),
                           ({seed + 2, seed + 9, seed + 19}, ("17/20", "FAIL")),
                           ({seed, seed + 9, seed + 19}, ("17/20", "FAIL"))):
        ran.clear()
        rejecting = rejected
        result = verify.criterion_seed_robustness(big)
        assert (result.actual, result.verdict) == want
        assert ran == list(range(seed + 1, seed + 20))


def test_bfs_matches_the_published_scale_rows(summary_m50):
    """The generic BFS oracle gives the batch Wiener and hyper-Wiener values
    of the first three (50, 2000) replicates (N = 2,050) that criteria 3-4 average."""
    cfg = summary_m50.config
    for r in range(3):
        counts = simulate_counts(cfg.m, cfg.n, RngSeed(cfg.seed, r).generator())
        g = to_adjacency(Caterpillar(cfg.m, tuple(counts)))
        [(total, total_sq)] = oracle.bfs_distance_sums_many([g])
        assert summary_m50.columns["wiener"][r] == total
        assert summary_m50.columns["hyper_wiener"][r] == total + total_sq


def _hand_loop_states(seed, count, m_max, n_max):
    """The leaf draw of criteria 7-9 written out as a loop over single picks."""
    rng = RngSeed(seed).generator()
    for _ in range(count):
        m = int(rng.integers(2, m_max + 1))
        n = int(rng.integers(0, n_max + 1))
        counts = [0] * m
        for i in rng.integers(0, m, size=n):
            counts[i] += 1
        yield Caterpillar(m=m, leaf_counts=tuple(counts))


@pytest.mark.parametrize(
    "args,bare",
    [((20_000_101, 100, 50, 200), 0), ((20_000_102, 100, 20, 100), 1),
     ((20_000_103, 100, 20, 100), 3)],
)
def test_random_states_are_the_hand_loop_states(args, bare):
    """Criteria 7-9's states, the n = 0 ones included: a draw of size 0
    leaves the stream where it was on both sides."""
    states = list(verify._random_states(*args))
    assert states == list(_hand_loop_states(*args))
    assert all(type(x) is int for c in states for x in c.leaf_counts)
    assert sum(c.n == 0 for c in states) == bare


# criterion function -> (cid, the arguments a suite run at seed 7, strict, passes)
CRITERIA = {
    "criterion_hoover": ("1-hoover", ("big", "strict")),
    "criterion_zagreb_clt": ("2-zagreb-clt", ("big", "strict")),
    "criterion_wiener": ("3-wiener", ("small", "strict")),
    "criterion_hyper_wiener": ("4-hyper-wiener", ("small", "strict")),
    "criterion_randic": ("5-randic", ("big", "strict")),
    "criterion_oracle_equivalence": ("6-oracle-equivalence", ()),
    "criterion_formula_vs_bfs": ("7-formula-vs-bfs", ()),
    "criterion_martingale": ("8-martingale", ()),
    "criterion_supermartingale": ("9-supermartingale", ()),
    "criterion_gini": ("10-gini", ("big", "strict")),
    "criterion_determinism": ("11-determinism", ("big", "small", "strict")),
    "criterion_seed_robustness": ("R-seed-robustness", ("big",)),
}
PAPER = ["1-hoover", "2-zagreb-clt", "3-wiener", "4-hyper-wiener", "5-randic"]
ORACLE = ["6-oracle-equivalence", "7-formula-vs-bfs", "8-martingale", "9-supermartingale"]


@pytest.mark.parametrize(
    "suite,want",
    [
        ("oracle", ORACLE),
        ("paper7", PAPER),
        ("montecarlo", [*PAPER, "10-gini", "R-seed-robustness"]),
        ("all", [*PAPER, *ORACLE, "10-gini", "11-determinism", "R-seed-robustness"]),
    ],
)
def test_suite_assembly(monkeypatch, suite, want):
    runs = []
    monkeypatch.setattr(verify, "mc200", lambda seed: runs.append(("mc200", seed)) or "big")
    monkeypatch.setattr(verify, "mc50", lambda seed: runs.append(("mc50", seed)) or "small")
    names = sorted(name for name in dir(verify) if name.startswith("criterion_"))
    assert names == sorted(CRITERIA)

    def fake(cid):
        return lambda *args: verify.CriterionResult(cid, "", "", repr(args), "", True)

    for name, (cid, _) in CRITERIA.items():
        monkeypatch.setattr(verify, name, fake(cid))
    results = verify.run_suite(suite, seed=7, profile="strict")
    assert [r.cid for r in results] == want
    # the suite draws each shared Monte Carlo run once; criteria 11 and R get
    # those runs (test_suite_all_draws_each_replicate_set_at_most_twice counts
    # what they draw on top)
    assert runs == ([] if suite == "oracle" else [("mc200", 7), ("mc50", 7)])
    wanted_args = {cid: repr(args) for cid, args in CRITERIA.values()}
    assert all(r.actual == wanted_args[r.cid] for r in results)
