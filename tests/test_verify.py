"""The verify engine itself: exact criteria can fail, and suites assemble in order.

The acceptance tests only see passing verdicts.  These tests break one
closed form or one formula value and check that criteria 6 and 7 report it,
and run every suite over stub criteria to pin which criteria it runs, in
what order and on which Monte Carlo run.
"""

import dataclasses

import pytest

from catlab import theory, verify


def test_criterion_6_fails_on_a_wrong_closed_form(monkeypatch):
    real = theory.zagreb_mean

    def off_by_one(m, n):
        value = real(m, n)
        return dataclasses.replace(value, value=value.value + 1)

    monkeypatch.setattr(theory, "zagreb_mean", off_by_one)
    result = verify.criterion_oracle_equivalence("default")
    assert result.verdict == "FAIL"
    failures = result.actual.split("; ")
    assert len(failures) == 21 and all(f.startswith("zagreb mean (") for f in failures)
    assert failures[0] == "zagreb mean (2,0)"


def test_criterion_6_fails_when_an_erratum_offset_is_missing(monkeypatch):
    monkeypatch.setattr(theory, "hyper_wiener_mean_paper", theory.hyper_wiener_mean_corrected)
    result = verify.criterion_oracle_equivalence("default")
    assert result.verdict == "FAIL"
    failures = result.actual.split("; ")
    # the published form is +n, so at n = 0 the corrected form still matches
    assert failures == [
        f"hyper_wiener published offset ({m},{n})" for m in (2, 3, 4) for n in range(1, 7)
    ]


def test_criterion_7_fails_on_one_wrong_wiener_value(monkeypatch):
    real = verify.wiener
    monkeypatch.setattr(verify, "wiener", lambda c: real(c) + (c.leaf_counts == (1, 0, 2)))
    result = verify.criterion_formula_vs_bfs("default")
    assert result.verdict == "FAIL"
    assert result.actual == "wiener 3,(1, 0, 2)"


# criterion function -> (cid, the arguments a suite run at seed 7, strict, passes)
CRITERIA = {
    "criterion_hoover": ("1-hoover", ("big", "strict")),
    "criterion_zagreb_clt": ("2-zagreb-clt", ("big", "strict")),
    "criterion_wiener": ("3-wiener", ("small", "strict")),
    "criterion_hyper_wiener": ("4-hyper-wiener", ("small", "strict")),
    "criterion_randic": ("5-randic", ("big", "strict")),
    "criterion_oracle_equivalence": ("6-oracle-equivalence", ("strict",)),
    "criterion_formula_vs_bfs": ("7-formula-vs-bfs", ("strict",)),
    "criterion_martingale": ("8-martingale", ("strict",)),
    "criterion_supermartingale": ("9-supermartingale", ("strict",)),
    "criterion_gini": ("10-gini", ("big", "strict")),
    "criterion_determinism": ("11-determinism", (7, "strict")),
    "criterion_seed_robustness": ("R-seed-robustness", (7, "strict")),
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
    # a suite draws each shared Monte Carlo run at most once
    assert runs == ([] if suite == "oracle" else [("mc200", 7), ("mc50", 7)])
    wanted_args = {cid: repr(args) for cid, args in CRITERIA.values()}
    assert all(r.actual == wanted_args[r.cid] for r in results)
