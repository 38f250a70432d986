"""The benchmark's recorded output digests hold for every workload.

``bench/digests.json`` pins the SHA-256 of every benchmark op's output at
the seeds 31415 and 271828.  This runs the ``paper_mc`` ops (the paper7
report and the m=200, n=5000 simulate CSV) and the ``stress_instance`` op
(m=10^4, n=10^6, where hyper-Wiener reaches 8.5e18) at both seeds
through ``catlab.cli.main`` and compares their digests with the recorded
ones, so an output byte that drifts fails here rather than only in the
benchmark.  The ``clt_sweep`` ops (20 CLT figures) and the ``oracle_exact``
ops (the oracle suite report and two exact enumerations) go through the
benchmark's own ``check_pass``, whose digests cover stdout too.  The
benchmark files are only read.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from catlab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench(monkeypatch, name):
    """``bench/<name>.py`` as module ``name``, which the benchmark's own
    imports find; it leaves ``sys.modules`` when the test ends."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
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
    "workload,seed",
    [
        ("paper_mc", 31415),
        ("paper_mc", 271828),
        ("stress_instance", 31415),
        ("stress_instance", 271828),
    ],
)
def test_outputs_match_recorded_digests(tmp_path, capsys, monkeypatch, workload, seed):
    monkeypatch.delenv("CATLAB_SEED", raising=False)
    recorded = json.loads((BENCH / "digests.json").read_text())[workload][str(seed)]
    digests = []
    for op in _bench(monkeypatch, "workloads").WORKLOADS[workload](seed, str(tmp_path)):
        assert main(list(op.argv)) == 0, op.argv
        capsys.readouterr()
        (path,) = op.files.values()
        digests.append(_sha(Path(path).read_bytes()))
    assert digests == recorded


@pytest.mark.parametrize("workload,seed", [("clt_sweep", 31415), ("oracle_exact", 31415)])
def test_benchmark_checks_pass_with_recorded_digests(
    tmp_path, capsys, monkeypatch, workload, seed
):
    monkeypatch.delenv("CATLAB_SEED", raising=False)
    recorded = json.loads((BENCH / "digests.json").read_text())[workload][str(seed)]
    workloads = _bench(monkeypatch, "workloads")
    _bench(monkeypatch, "reference")
    checks = _bench(monkeypatch, "checks")
    results = []
    for op in workloads.WORKLOADS[workload](seed, str(tmp_path)):
        code = main(list(op.argv))
        results.append(workloads.OpResult(op, code, None, capsys.readouterr().out))
    checked = checks.check_pass(workload, results)
    assert [problems for problems, _ in checked] == [[]] * len(results)
    assert [digest for _, digest in checked] == recorded
