"""The benchmark's workloads: fixed catlab command lists and their seeds.

Each workload is one pass of catlab commands, run in-process through
``catlab.cli.main``.  Only flags that the CLI will keep are passed: no
``--threads``, so the user's default thread count is what gets measured.

Why each workload exists, and what it should and should not move, is
recorded in ``BENCHMARK.json`` at the root of the repository.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

DEFAULT_SEED = 31415  # catlab's documented default seed
HELDOUT_SEED = 271828  # second recorded seed, never used while writing checks
RECORDED_SEEDS = (DEFAULT_SEED, HELDOUT_SEED)
CLT_SEEDS_PER_PASS = 20


@dataclass(frozen=True)
class Op:
    """One catlab invocation and the files it writes."""

    name: str
    argv: tuple[str, ...]
    seed: int = 0
    files: dict[str, str] = field(default_factory=dict)


class OpResult:
    """What one ``catlab.cli.main`` call returned and printed."""

    def __init__(self, op: Op, code, error: str | None, stdout: str):
        self.op = op
        self.seed = op.seed
        self.code = code
        self.error = error
        self.stdout = stdout

    def read(self, key: str) -> bytes:
        with open(self.op.files[key], "rb") as fh:
            return fh.read()


def pass_seed(run_seed: int, pass_index: int) -> int:
    """catlab seed of pass ``pass_index`` in a run started with ``run_seed``.

    Passes 0 and 1 use the two seeds whose output digests were recorded, so
    every run checks byte-identity; later passes vary with the run seed.
    """
    if pass_index < len(RECORDED_SEEDS):
        return RECORDED_SEEDS[pass_index]
    return 1_000_000 + (run_seed % 1_000_000) * 1_000 + CLT_SEEDS_PER_PASS * pass_index


def paper_mc(seed: int, out: str) -> list[Op]:
    report = os.path.join(out, "paper7.json")
    csv = os.path.join(out, "mc200.csv")
    return [
        Op("verify", ("verify", "--suite", "paper7", "--seed", str(seed), "--report", report),
           seed, {"report": report}),
        Op("simulate", ("simulate", "--m", "200", "--n", "5000", "--replications", "500",
                        "--seed", str(seed), "--out", csv), seed, {"csv": csv}),
    ]


def clt_sweep(seed: int, out: str) -> list[Op]:
    ops = []
    for k in range(CLT_SEEDS_PER_PASS):
        csv = os.path.join(out, f"clt{k}.csv")
        svg = os.path.join(out, f"clt{k}.svg")
        ops.append(Op("clt", ("clt", "--seed", str(seed + k), "--out", csv, "--plot", svg),
                      seed + k, {"csv": csv, "svg": svg}))
    return ops


def oracle_exact(seed: int, out: str) -> list[Op]:
    """Exact enumeration and BFS; it has no random input, so ``seed`` is unused."""
    report = os.path.join(out, "oracle.json")
    return [
        Op("verify", ("verify", "--suite", "oracle", "--report", report), files={"report": report}),
        Op("oracle", ("oracle", "--m", "3", "--n", "9", "--method", "histories",
                      "--index", "hyper_wiener")),
        Op("oracle", ("oracle", "--m", "5", "--n", "20", "--index", "hyper_wiener")),
    ]


def stress_instance(seed: int, out: str) -> list[Op]:
    csv = os.path.join(out, "stress.csv")
    return [
        Op("simulate", ("simulate", "--m", "10000", "--n", "1000000", "--replications", "8",
                        "--seed", str(seed), "--out", csv), seed, {"csv": csv}),
    ]


WORKLOADS = {
    "paper_mc": paper_mc,
    "clt_sweep": clt_sweep,
    "oracle_exact": oracle_exact,
    "stress_instance": stress_instance,
}


def warmup(out: str) -> list[Op]:
    """Tiny runs of every command, so lazy imports and first-call costs land in set-up."""
    return [
        Op("simulate", ("simulate", "--m", "3", "--n", "5", "--replications", "3",
                        "--out", os.path.join(out, "warm.csv"))),
        Op("clt", ("clt", "--m", "3", "--n", "40", "--replications", "30",
                   "--out", os.path.join(out, "warm_clt.csv"),
                   "--plot", os.path.join(out, "warm.svg"))),
        Op("oracle", ("oracle", "--m", "2", "--n", "3", "--index", "hyper_wiener")),
    ]
