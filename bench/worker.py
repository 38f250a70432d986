"""One pass of one workload, in a fresh process.

Times set-up (importing ``catlab.cli`` with numpy, then a warm-up that runs
every command once at a tiny size), runs the workload's command list through
``catlab.cli.main`` in-process, then checks every output.  With ``--trace``
the layer wrappers are installed after set-up and the spans are written to
``--spans`` at exit.  Prints one JSON object on its last line.

Usage: python3 bench/worker.py --workload NAME --seed N --out DIR [--trace]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_op(cli_main, op):
    from workloads import OpResult

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(op.argv))
    except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crashed benchmark
        return OpResult(op, None, f"{exc!r} {err.getvalue().strip()}", out.getvalue())
    return OpResult(op, code, None, out.getvalue())


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the trace spans here")
    parser.add_argument("--digests", help="recorded digests of this pass, as JSON")
    args = parser.parse_args()

    os.environ.pop("CATLAB_SEED", None)  # the CLI would read it as a default seed
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)

    started = time.perf_counter()
    import catlab.cli

    if not os.path.abspath(catlab.cli.__file__).startswith(os.path.join(src, "catlab")):
        raise SystemExit(f"catlab was imported from {catlab.cli.__file__}, not from {src}")
    import workloads

    for op in workloads.warmup(args.out):
        code = run_op(catlab.cli.main, op).code
        if code != 0:
            raise SystemExit(f"warm-up {op.argv} exited with {code}")
    setup_s = time.perf_counter() - started

    import numpy

    import checks

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()

    ops = workloads.WORKLOADS[args.workload](args.seed, args.out)
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    results = [run_op(catlab.cli.main, op) for op in ops]
    wall_s = time.perf_counter() - wall0
    cpu_s = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked = checks.check_pass(args.workload, results)
    recorded = json.loads(args.digests) if args.digests else None
    problems, failed = [], 0
    for i, (op_problems, digest) in enumerate(checked):
        if recorded is not None and digest != recorded[i]:
            op_problems = op_problems + ["digest differs from the one recorded at this seed"]
        failed += bool(op_problems)
        problems += [f"{ops[i].argv[0]} #{i}: {p}" for p in op_problems]

    result = {
        "seed": args.seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "digests": [digest for _, digest in checked],
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["selfcheck"] = tracer.busy_within_cpu()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
