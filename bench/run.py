"""catlab benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload paper_mc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --record-digests

Each pass of a workload runs in a fresh process (``worker.py``), one after
another.  With ``--trace 0`` passes repeat until ``--seconds`` is used up and
the end-to-end metrics are medians over passes, with the times scaled to a
reference CPU speed (``speed_factor``).  With ``--trace 1`` three
untraced passes are followed by two traced passes at one seed; the per-layer
metrics come from the traced passes, their counts must repeat exactly, and
the tracing overhead is the traced minus the untraced median ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for people, plus ``failed_ratio`` and provenance.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layertrace  # noqa: E402
import workloads  # noqa: E402

DIGESTS = os.path.join(BENCH, "digests.json")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
TIMES = ("setup_s", "wall_s", "cpu_s")
# Median time of speed_probe() at the reference speed: a 2-vCPU Xeon VM with
# quiet neighbours.  Times are reported at this speed (see speed_factor).
PROBE_REFERENCE_S = 0.020
MIN_PASSES = 3
UNTRACED_PASSES = 3
TIME_LIMIT_S = 170  # every run must end well within 180 s


class Budget:
    """Wall-clock limit shared by all worker processes of one run."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def run_worker(workload: str, seed: int, out: str, budget: Budget, check_digests: bool = True,
               trace: bool = False, spans: str | None = None) -> dict:
    """Run one pass in a fresh process; a crash or timeout fails every op of it."""
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    digests = recorded(workload, seed) if check_digests else None
    if digests is not None:
        cmd += ["--digests", json.dumps(digests)]
    if trace:
        cmd += ["--trace"] + (["--spans", spans] if spans else [])
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(budget.left(), 1.0))
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        reason = proc.stderr.strip()[-2000:]
    except subprocess.TimeoutExpired:
        result, reason = None, "timed out"
    shutil.rmtree(out, ignore_errors=True)
    if result is None:
        attempted = len(workloads.WORKLOADS[workload](seed, out))
        result = {"seed": seed, "attempted": attempted, "failed": attempted,
                  "problems": [f"worker failed: {reason}"], "digests": None}
    result["process_s"] = time.perf_counter() - started
    result["probe_s"] = statistics.median(speed_probe() for _ in range(8))
    return result


def speed_probe() -> float:
    """Time of a fixed pure-Python kernel (Fractions, dicts, integer loop).

    It runs in this process, which never imports catlab, so catlab's code
    cannot change it; it measures how fast the machine runs Python now.
    """
    started = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 3000):
        total += Fraction(i % 97, i)
        table[i % 511] = [i] * 4
    acc = 0
    for i in range(100_000):
        acc += (i * i) % 7
    return time.perf_counter() - started


def speed_factor(passes: list[dict]) -> float:
    """PROBE_REFERENCE_S over the run's median probe time.

    On a shared host the CPU speed swings by more than half for minutes at a
    time; the probe, run right after every pass, follows those swings, so
    times multiplied by this factor compare across runs.
    """
    return PROBE_REFERENCE_S / median_of(passes, "probe_s")


def recorded(workload: str, seed: int):
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def provenance(workers: list[dict]) -> dict:
    def read(path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if level in ("2", "3") and kind != "Instruction":
            caches[f"L{level}"] = read(f"{index}/size")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    lines, digest = 0, hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "catlab", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(data)
    versions = next((w["versions"] for w in workers if "versions" in w), {})
    return {
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "git_commit": commit,
        "src_catlab_lines": lines,
        "src_catlab_sha256": digest.hexdigest(),
    }


def median_of(workers: list[dict], key: str) -> float:
    return statistics.median(w[key] for w in workers if key in w)


def measure(workload: str, seed: int, seconds: int, out: str, budget: Budget) -> list[dict]:
    """Passes in fresh processes until ``seconds`` is used up (at least MIN_PASSES)."""
    stop = time.perf_counter() + seconds
    passes = []
    while True:
        pass_seed = workloads.pass_seed(seed, len(passes))
        passes.append(run_worker(workload, pass_seed, os.path.join(out, str(len(passes))),
                                 budget))
        typical = statistics.median(p["process_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() + typical > stop:
            return passes
        if budget.left() < 2 * typical:
            return passes


def traced(workload: str, seed: int, out: str, budget: Budget):
    """Untraced passes, then two traced passes at one seed.

    Returns both sets of passes, the per-layer metrics and the trace's own
    problems (counts that differ, busy time beyond a thread's CPU time).
    """
    plain = [run_worker(workload, workloads.pass_seed(seed, k), os.path.join(out, str(k)),
                        budget)
             for k in range(UNTRACED_PASSES)]
    trace_seed = workloads.pass_seed(seed, UNTRACED_PASSES - 1)
    spans_dir = os.path.join(ROOT, ".bench_run", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    runs = [run_worker(workload, trace_seed, os.path.join(out, f"t{k}"), budget, trace=True,
                       spans=os.path.join(spans_dir, f"{workload}-{k}.jsonl"))
            for k in range(2)]
    problems = []
    if all("layers" in r for r in runs):
        one, two = (r["layers"] for r in runs)
        counts = layertrace.count_metrics()
        problems += [f"count {key} differs between traced runs: {one[key]} vs {two[key]}"
                     for key in counts if one[key] != two[key]]
        for r in runs:
            problems += r["selfcheck"]
        layers = {key: one[key] if key in counts else (one[key] + two[key]) / 2
                  for key in one}
        layers["trace.overhead_s"] = (median_of(runs, "wall_s") - median_of(plain, "wall_s"))
    else:
        problems.append("a traced pass failed")
        layers = {key: 0 for key in layertrace.metric_units()}
    layers["trace.selfcheck_ok"] = int(not problems)
    return plain, runs, layers, problems


def declared_mismatch() -> str:
    """Compare the metric names and units with those BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for key, reported in (("end_to_end", END_TO_END), ("per_layer", layertrace.metric_units())):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != reported:
            return f"{key}: declared {sorted(set(listed) ^ set(reported)) or 'other units'}"
    return ""


def record_digests() -> int:
    """Rewrite digests.json from the current source, at both recorded seeds."""
    budget = Budget(3600)
    table = {}
    for workload in workloads.WORKLOADS:
        for seed in workloads.RECORDED_SEEDS:
            out = os.path.join(ROOT, ".bench_run", f"record-{workload}-{seed}")
            result = run_worker(workload, seed, out, budget, check_digests=False)
            if result["failed"] or result["problems"]:
                print(f"{workload} seed {seed}: {result['problems']}", file=sys.stderr)
                return 1
            table.setdefault(workload, {})[str(seed)] = result["digests"]
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "catlab", "cli.py")):
        print(f"catlab sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    mismatch = declared_mismatch()
    if mismatch:
        print(f"BENCHMARK.json does not match the metrics reported: {mismatch}", file=sys.stderr)
        return 2

    budget = Budget(TIME_LIMIT_S)
    out = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    traced_runs, trace_problems = [], []
    try:
        if args.trace:
            passes, traced_runs, layers, trace_problems = traced(
                args.workload, args.seed, out, budget)
        else:
            passes = measure(args.workload, args.seed, args.seconds, out, budget)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    everything = passes + traced_runs
    attempted = sum(w["attempted"] for w in everything)
    failed = sum(w["failed"] for w in everything)
    problems = [p for w in everything for p in w["problems"]] + trace_problems
    timed = [w for w in passes if "wall_s" in w]
    correct = failed == 0 and not problems and len(timed) == len(passes)

    print(f"workload {args.workload}: {len(passes)} passes at catlab seeds "
          f"{[w['seed'] for w in passes]}")
    end_to_end = {}
    if timed:
        factor = speed_factor(timed)
        print(f"speed factor {factor:.4g} (probe {PROBE_REFERENCE_S} s at reference speed, "
              f"median {median_of(timed, 'probe_s'):.4g} s in this run)")
    for key in END_TO_END if timed else ():
        raw = median_of(timed, key)
        end_to_end[key] = raw * factor if key in TIMES else raw
        print(f"{key:14s} {end_to_end[key]:.6g} {END_TO_END[key]}  (median of {len(timed)}"
              + (f", {raw:.6g} as measured)" if key in TIMES else ")"))
        print(f"  per pass: {' '.join(format(w[key], '.4g') for w in timed)}")
    print(f"{'failed_ratio':14s} {failed / max(attempted, 1):.6g} ratio  ({failed}/{attempted} ops)")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print("provenance " + json.dumps(provenance(everything), sort_keys=True))

    if args.trace:
        units = layertrace.metric_units()
        metrics = {key: {"value": layers[key], "unit": units[key]} for key in units}
        for key in units:
            print(f"{key:40s} {layers[key]:.6g} {units[key]}")
    else:
        metrics = {key: {"value": value, "unit": END_TO_END[key]}
                   for key, value in end_to_end.items()}
        if not timed:
            print("no pass finished; nothing was measured", file=sys.stderr)
            return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
