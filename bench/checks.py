"""Output checks behind ``failed``: every catlab invocation is checked.

Each check returns a list of problems (empty when the output is right) and a
digest of the op's deterministic output.  Digests are compared with the ones
recorded in ``digests.json`` whenever a pass runs at a recorded seed.  The
other checks hold at every seed: integer cells are compared as exact
integers and float cells as the exact rational rounded once, both against
``reference``; oracle means are compared exactly with the ``theory`` closed
forms and with an independent enumeration.  Statistical verdicts are never
a correctness check, because about one seed in ten trips Jarque-Bera.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np

import reference as ref
from catlab import theory
from workloads import OpResult

SIMULATE_COLUMNS = ["gini_degree", "hoover", "zagreb", "randic:1", "wiener", "hyper_wiener"]
PAPER7_IDS = ["1-hoover", "2-zagreb-clt", "3-wiener", "4-hyper-wiener", "5-randic"]
ORACLE_IDS = ["6-oracle-equivalence", "7-formula-vs-bfs", "8-martingale", "9-supermartingale"]
SAMPLED_ROWS = {"simulate": 24, "clt": 4}  # reference-checked rows per output file


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _rows_to_check(seed: int, total: int, count: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(total), min(count, total)))


def _parse_csv(text: str, header: list[str], rows: int) -> tuple[list[list[str]], list[str]]:
    problems = []
    lines = text.split("\n")
    if lines[-1] != "":
        problems.append("csv does not end with a newline")
    lines = lines[:-1]
    if lines[:1] != [",".join(header)]:
        problems.append(f"csv header {lines[:1]!r}")
    table = [line.split(",") for line in lines[1:]]
    if len(table) != rows:
        problems.append(f"csv has {len(table)} rows, expected {rows}")
    if [row[0] for row in table] != [str(r) for r in range(len(table))]:
        problems.append("replicate ids are not 0..R-1 in order")
    if any(len(row) != len(header) for row in table):
        problems.append("ragged csv rows")
    return table, problems


def _argv_value(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_simulate(res: OpResult, sample_all: bool = False) -> tuple[list[str], str]:
    argv = res.op.argv
    m, n = int(_argv_value(argv, "--m")), int(_argv_value(argv, "--n"))
    reps = int(_argv_value(argv, "--replications"))
    data = res.read("csv")
    table, problems = _parse_csv(
        data.decode("utf-8"), ["replicate_id"] + SIMULATE_COLUMNS, reps
    )
    if problems:
        return problems, _sha(data)
    rows = range(reps) if sample_all else _rows_to_check(
        res.seed, reps, SAMPLED_ROWS["simulate"]
    )
    for r in rows:
        counts = ref.draw_counts(res.seed, r, m, n)
        for col, name in enumerate(SIMULATE_COLUMNS, start=1):
            want = ref.csv_cell(ref.INDICES[name](counts))
            if table[r][col] != want:
                problems.append(f"row {r} {name}: got {table[r][col]}, exact {want}")
    return problems, _sha(data)


def check_paper7(res: OpResult, simulate_csv: bytes | None) -> tuple[list[str], str]:
    """paper7 report: structure, verdict/exit-code agreement, and agreement
    of the Hoover and Randic means with the simulate CSV of the same seed
    (two separate code paths over the same substreams)."""
    data = res.read("report")
    problems = []
    report = json.loads(data)
    ids = [r["criterion"] for r in report["results"]]
    if ids != PAPER7_IDS:
        problems.append(f"criteria {ids}")
    if report["seed"] != res.seed or report["suite"] != "paper7":
        problems.append("report header does not match the command")
    all_passed = all(r["passed"] for r in report["results"])
    if report["all_passed"] != all_passed or res.code != (0 if all_passed else 1):
        problems.append(f"exit code {res.code} disagrees with the verdicts")
    if simulate_csv is not None and not problems:
        table = [line.split(",") for line in simulate_csv.decode().splitlines()[1:]]
        hoover = [float(row[2]) for row in table]
        randic = [int(row[4]) for row in table]
        ours = {r["criterion"]: r["ours"] for r in report["results"]}
        want_h = format(math.fsum(hoover) / len(hoover), ".6g")
        want_r = format(float(Fraction(sum(randic), len(randic))) / 5000**2, ".6g")
        if ours["1-hoover"] != want_h:
            problems.append(f"hoover mean {ours['1-hoover']} vs csv {want_h}")
        if ours["5-randic"].split(" ")[0] != want_r:
            problems.append(f"randic mean {ours['5-randic']} vs csv {want_r}")
    return problems, _sha(data)


def check_oracle_suite(res: OpResult) -> tuple[list[str], str]:
    data = res.read("report")
    report = json.loads(data)
    problems = []
    ids = [r["criterion"] for r in report["results"]]
    if ids != ORACLE_IDS:
        problems.append(f"criteria {ids}")
    failed = [r["criterion"] for r in report["results"] if not r["passed"]]
    if failed or res.code != 0:  # exact criteria: any FAIL is a wrong answer
        problems.append(f"exact criteria failed: {failed}, exit {res.code}")
    return problems, _sha(data)


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def check_oracle(res: OpResult) -> tuple[list[str], str]:
    argv = res.op.argv
    m, n = int(_argv_value(argv, "--m")), int(_argv_value(argv, "--n"))
    index = _argv_value(argv, "--index")
    out = json.loads(res.stdout)
    problems = []
    mean, second, support = ref.exact_moments(m, n, index)
    if _frac(out["mean"]) != theory.hyper_wiener_mean_corrected(m, n).value:
        problems.append(f"mean {out['mean']} differs from the closed form")
    if _frac(out["mean"]) != mean or _frac(out["second_moment"]) != second:
        problems.append("moments differ from the reference enumeration")
    if _frac(out["variance"]) != second - mean * mean:
        problems.append("variance is not second moment minus mean squared")
    if out["support_size"] != support or out["history_count"] != m**n:
        problems.append("support size or history count is wrong")
    wanted = "histories" if "--method" in argv else "compositions"
    if out["method"] != wanted:
        problems.append(f"method {out['method']}, expected {wanted}")
    exact = {k: out[k] for k in ("m", "n", "index", "method", "mean", "second_moment",
                                 "variance", "support_size", "history_count")}
    return problems, _sha(json.dumps(exact, sort_keys=True).encode())


def _ks_jb(z: np.ndarray) -> tuple[float, float]:
    x = np.sort(z)
    r = len(x)
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    ks = float(np.max(np.maximum(np.arange(1, r + 1) / r - cdf, cdf - np.arange(r) / r)))
    c = z - z.mean()
    m2 = float(np.mean(c**2))
    skew = float(np.mean(c**3)) / m2**1.5
    kurt = float(np.mean(c**4)) / (m2 * m2)
    return ks, r / 6.0 * (skew * skew + (kurt - 3.0) ** 2 / 4.0)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_clt(res: OpResult) -> tuple[list[str], str]:
    m, n, reps, bins = 200, 5000, 500, 20  # catlab clt defaults
    data, svg = res.read("csv"), res.read("svg")
    table, problems = _parse_csv(
        data.decode("utf-8"), ["replicate_id", "standardized_zagreb"], reps
    )
    out = json.loads(res.stdout)
    if (out["m"], out["n"], out["replications"], out["seed"]) != (m, n, reps, res.seed):
        problems.append("clt summary does not match the command")
    if problems:
        return problems, _sha(data, svg)
    mean = float(theory.zagreb_mean(m, n).value)
    sd = math.sqrt(float(theory.zagreb_variance(m, n).value))
    for r in _rows_to_check(res.seed, reps, SAMPLED_ROWS["clt"]):
        z = ref.zagreb(ref.draw_counts(res.seed, r, m, n))
        want = format((float(z) - mean) / sd, ".17g")
        if table[r][1] != want:
            problems.append(f"row {r}: got {table[r][1]}, exact {want}")
    z = np.array([float(row[1]) for row in table])
    ks, jb = _ks_jb(z)
    for name, got, want in (
        ("mean", out["sample_mean"], float(z.mean())),
        ("variance", out["sample_variance"], float(z.var(ddof=1))),
        ("ks", out["ks"]["statistic"], ks),
        ("jb", out["jarque_bera"]["statistic"], jb),
    ):
        if not _close(got, want):
            problems.append(f"{name} {got} vs {want} from the csv")
    for test in ("ks", "jarque_bera"):
        t = out[test]
        if t["decision"] != ("reject" if t["statistic"] > t["critical"] else "fail_to_reject"):
            problems.append(f"{test} decision disagrees with its statistic")
    root = ET.fromstring(svg)
    tags = [el.tag.rsplit("}", 1)[-1] for el in root]
    if tags.count("rect") != bins + 1 or tags.count("polyline") != 1:
        problems.append("svg does not hold one bar per bin and one density line")
    summary = {k: v for k, v in out.items() if k not in ("sample_csv", "plot_svg")}
    return problems, _sha(data, svg, json.dumps(summary, sort_keys=True).encode())


def check_pass(workload: str, results: list[OpResult]) -> list[tuple[list[str], str]]:
    """Problems and digest for every op of one pass, in order."""
    checked = []
    simulate_csv = None
    if workload == "paper_mc":
        sim = results[1]
        checked_sim = _guard(sim, check_simulate)
        if sim.code == 0 and not checked_sim[0]:
            simulate_csv = sim.read("csv")
        checked = [_guard(results[0], lambda r: check_paper7(r, simulate_csv)), checked_sim]
    elif workload == "clt_sweep":
        checked = [_guard(r, check_clt) for r in results]
    elif workload == "oracle_exact":
        checked = [_guard(results[0], check_oracle_suite)]
        checked += [_guard(r, check_oracle) for r in results[1:]]
    elif workload == "stress_instance":
        checked = [_guard(results[0], lambda r: check_simulate(r, sample_all=True))]
    return checked


def _guard(res: OpResult, check) -> tuple[list[str], str]:
    """Run a check; an exception, a bad exit code or unreadable output is a failure."""
    if res.error is not None:
        return [f"raised {res.error}"], ""
    if res.code not in (0, 1) or (res.code == 1 and res.op.name != "verify"):
        return [f"exit code {res.code}"], ""
    try:
        return check(res)
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError,
            ET.ParseError) as exc:
        return [f"output unreadable: {exc!r}"], ""
