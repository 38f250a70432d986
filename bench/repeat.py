"""Run the benchmark at several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 bench/repeat.py --workload paper_mc --seeds 1-10 [--seconds 30]
                            [--trace 0] [--save bench/baseline/runs.jsonl]

For every metric it prints the median over runs and the spread, i.e. the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median.  ``--save`` appends one JSON line per
run: the result line, the provenance line and the run's settings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append one JSON line per run to this file")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    all_correct = True
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=200,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        prov = next((json.loads(line.split(" ", 1)[1]) for line in lines
                     if line.startswith("provenance ")), None)
        all_correct &= result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]),
              flush=True)
        if args.save:
            with open(args.save, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "seconds": args.seconds, "trace": args.trace,
                                     "result": result, "provenance": prov},
                                    sort_keys=True) + "\n")
    if len(args.seeds) >= 2:
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{args.workload} {name}: median {med:.6g} spread {spread:.4f} "
                  f"(n={len(vals)})")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
