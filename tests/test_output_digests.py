"""The benchmark's recorded output digests hold for paper_mc and stress_instance.

``bench/digests.json`` pins the SHA-256 of every benchmark op's output at
the seeds 31415 and 271828.  This runs the ``paper_mc`` ops (the paper7
report and the m=200, n=5000 simulate CSV, both on the int64 batch path)
and the ``stress_instance`` op (m=10^4, n=10^6, on the exact scalar path)
through ``catlab.cli.main`` and compares their digests with the recorded
ones, so an output byte that drifts fails here rather than only in the
benchmark.  The benchmark files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from catlab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _sha(*parts: bytes) -> str:
    """Length-prefixed SHA-256, as ``bench/checks.py`` computes it."""
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


@pytest.mark.parametrize(
    "workload,seed", [("paper_mc", 31415), ("paper_mc", 271828), ("stress_instance", 31415)]
)
def test_outputs_match_recorded_digests(tmp_path, capsys, monkeypatch, workload, seed):
    monkeypatch.delenv("CATLAB_SEED", raising=False)
    recorded = json.loads((BENCH / "digests.json").read_text())[workload][str(seed)]
    digests = []
    for op in _workloads(monkeypatch).WORKLOADS[workload](seed, str(tmp_path)):
        assert main(list(op.argv)) == 0, op.argv
        capsys.readouterr()
        (path,) = op.files.values()
        digests.append(_sha(Path(path).read_bytes()))
    assert digests == recorded
