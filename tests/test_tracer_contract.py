"""The benchmark's layer tracer still finds every catlab name it wraps.

``bench/layertrace.py`` wraps catlab functions by name and reads a few
config fields, so deleting or renaming one breaks traced benchmark runs.
The check runs in a fresh interpreter so the wrappers never leak into
this test session.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import io, json, sys, tempfile
from contextlib import redirect_stderr, redirect_stdout

import catlab.cli
import layertrace
import workloads

tracer = layertrace.Tracer()
tracer.install()
codes = []
with tempfile.TemporaryDirectory() as out:
    for op in workloads.warmup(out):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes.append(catlab.cli.main(list(op.argv)))
metrics = tracer.metrics()
print(json.dumps({
    "codes": codes,
    "missing": [k for k in layertrace.count_metrics() if k not in metrics],
    "selfcheck": tracer.busy_within_cpu(),
    "run_mc_calls": metrics["experiments.run_mc.calls"],
    "threads": metrics["experiments.run_mc.threads"],
}))
"""


def test_tracer_installs_and_traces_warmup():
    path = [str(ROOT / "src"), str(ROOT / "bench"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("CATLAB_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["missing"] == []
    assert result["selfcheck"] == []
    assert result["run_mc_calls"] == 1 and result["threads"] == 1
