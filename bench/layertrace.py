"""Outside-in layer trace: spans recorded by wrappers around catlab's functions.

The wrappers are installed from the benchmark's own files; nothing under
``src/catlab`` changes.  Several catlab modules import functions by name
(``from .caterpillar import simulate_counts``), so each wrapper replaces the
function under every name that any loaded catlab module binds to it.

A thread-local span stack attributes each span to its parent on the same
thread.  A span's busy time is ``time.thread_time`` (CPU of that thread
only) and its wait time is its wall time minus its busy time, i.e. time
spent waiting for the GIL or the scheduler; both are self times, with the
child spans' share removed.  Spans are kept in memory and written at exit.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

INDEX_KINDS = ("gini_degree", "hoover", "zagreb", "randic", "wiener", "hyper_wiener")
CLI_COMMANDS = ("simulate", "verify", "clt", "oracle")
CRITERIA = ("1-hoover", "2-zagreb-clt", "3-wiener", "4-hyper-wiener", "5-randic",
            "6-oracle-equivalence", "7-formula-vs-bfs", "8-martingale", "9-supermartingale")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}

    def add(prefix, *keys):
        for key in keys:
            units[f"{prefix}.{key}"] = _UNIT[key]

    add("caterpillar.generator", "calls", "busy_s", "wait_s")
    add("caterpillar.draw", "calls", "busy_s", "wait_s", "leaves")
    add("caterpillar.to_adjacency", "calls", "busy_s", "nodes")
    for kind in INDEX_KINDS:
        add(f"indices.{kind}", "calls", "busy_s", "wait_s")
    add("indices", "values_over_2p53", "max_value_bits")
    add("experiments.run_mc", "calls", "replicates", "threads", "busy_s", "wait_s")
    add("experiments.tests", "busy_s")
    add("experiments.density", "busy_s")
    add("theory", "calls", "busy_s")
    add("oracle.enumerate", "calls", "busy_s", "states_histories", "states_compositions",
        "useful_ratio")
    add("oracle.bfs", "calls", "busy_s", "nodes")
    add("oracle.one_step", "busy_s")
    add("oracle", "guard_refusals")
    for cid in CRITERIA:
        add(f"verify.{cid}", "busy_s")
    add("verify", "criteria_failed")
    add("svg", "busy_s", "bytes")
    for cmd in CLI_COMMANDS:
        add(f"cli.{cmd}", "calls", "busy_s", "bytes_written")
    add("cli", "exit_nonzero")
    add("trace", "overhead_s", "spans", "selfcheck_ok")
    return units


def count_metrics() -> list[str]:
    """Metrics that are not times: they must repeat exactly at one seed."""
    return [name for name, unit in metric_units().items() if unit != "s"]


_UNIT = {
    "calls": "count", "busy_s": "s", "wait_s": "s", "leaves": "count", "nodes": "count",
    "values_over_2p53": "count", "max_value_bits": "bits", "replicates": "count",
    "threads": "count", "states_histories": "count", "states_compositions": "count",
    "useful_ratio": "ratio", "guard_refusals": "count", "criteria_failed": "count",
    "bytes": "bytes", "bytes_written": "bytes", "exit_nonzero": "count",
    "overhead_s": "s", "spans": "count", "selfcheck_ok": "bool",
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Span recorder; ``install`` wraps catlab's layer functions."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._threads = itertools.count(1)
        self._lock = threading.Lock()
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def raise_max(self, key: str, value: int) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, fn, label, after=None):
        """Record a span around ``fn``.

        ``label`` is a string or a function of the result; ``after`` gets the
        call's arguments and its result (or exception) for counters.
        """
        local, ids, spans = self._local, self._ids, self.spans
        perf, cpu = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                # OS thread ids are reused by later pools; number threads ourselves
                stack = local.stack = []
                local.serial = next(self._threads)
            frame = [next(ids), 0.0, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            result = error = None
            # the clocks are read in the same order at both ends, so each
            # interval holds one read of the other clock and neither is biased
            w0, c0 = perf(), cpu()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                w1, c1 = perf(), cpu()
                stack.pop()
                busy, wall = c1 - c0, w1 - w0
                if stack:
                    stack[-1][1] += busy
                    stack[-1][2] += wall
                name = label if isinstance(label, str) else label(result, fn)
                spans.append((name, local.serial, frame[0], parent, w0, w1,
                              busy - frame[1], wall - frame[2], c0, c1))
                if after is not None:
                    after(args, kwargs, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer function of the loaded catlab modules."""
        from catlab import caterpillar, cli, experiments, indices, oracle, svg, theory, verify

        def replace(owner, attr, label, after=None):
            original = getattr(owner, attr)
            wrapped = self.wrap(original, label, after)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                return
            for name, module in list(sys.modules.items()):
                if name == "catlab" or name.startswith("catlab."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

        replace(caterpillar.RngSeed, "generator", "caterpillar.generator")
        for attr in ("simulate_counts", "sample_direct_counts"):
            replace(caterpillar, attr, "caterpillar.draw",
                    lambda a, k, r, e: self.add("caterpillar.draw.leaves", _arg(a, k, 1, "n")))
        replace(caterpillar, "to_adjacency", "caterpillar.to_adjacency",
                lambda a, k, r, e: r is not None and self.add(
                    "caterpillar.to_adjacency.nodes", r.node_count))
        for attr, kind in (("degree_gini_exact", "gini_degree"), ("hoover_exact", "hoover"),
                           ("zagreb", "zagreb"), ("randic", "randic"),
                           ("wiener", "wiener"), ("hyper_wiener", "hyper_wiener")):
            replace(indices, attr, f"indices.{kind}", self._count_value)

        replace(experiments, "run_mc", "experiments.run_mc", self._count_run_mc)
        for attr in ("standardize_zagreb", "ks_normality", "jarque_bera"):
            replace(experiments, attr, "experiments.tests")
        for attr in ("histogram", "kde", "ecdf"):
            replace(experiments, attr, "experiments.density")

        for attr in theory.__all__:
            if inspect.isfunction(getattr(theory, attr)):
                replace(theory, attr, "theory")

        replace(oracle, "enumerate_exact", "oracle.enumerate", self._count_enumerate)
        for attr in ("wiener_bfs", "hyper_wiener_bfs"):
            replace(oracle, attr, "oracle.bfs",
                    lambda a, k, r, e: self.add("oracle.bfs.nodes", _arg(a, k, 0, "g").node_count))
        replace(oracle, "one_step_successors", "oracle.one_step")

        for attr in dir(verify):
            if attr.startswith("criterion_"):
                replace(verify, attr, self._criterion_label, self._count_criterion)

        replace(svg, "histogram_kde_svg", "svg",
                lambda a, k, r, e: r is not None and self.add("svg.bytes", len(r.encode())))

        for cmd in CLI_COMMANDS:
            replace(cli, f"cmd_{cmd}", f"cli.{cmd}", self._count_cli(cmd))

    # -- counters ----------------------------------------------------------

    def _count_value(self, args, kwargs, result, error):
        if isinstance(result, int):
            if abs(result) > 2**53:
                self.add("indices.values_over_2p53")
            self.raise_max("indices.max_value_bits", abs(result).bit_length())

    def _count_run_mc(self, args, kwargs, result, error):
        cfg = _arg(args, kwargs, 0, "cfg")
        self.add("experiments.run_mc.replicates", cfg.replications)
        self.raise_max("experiments.run_mc.threads", cfg.threads)

    def _count_enumerate(self, args, kwargs, result, error):
        from catlab.errors import ResourceLimitError
        from catlab.oracle import choose_method, enumerate_exact

        bound = inspect.signature(enumerate_exact).bind(*args, **kwargs)
        bound.apply_defaults()
        args = bound.arguments
        if isinstance(error, ResourceLimitError):
            self.add("oracle.guard_refusals")
            return
        if error is not None:
            return
        m, n = args["m"], args["n"]
        distinct = math.comb(n + m - 1, m - 1)
        if choose_method(m, n, args["method"], args["guard"]) == "histories":
            self.add("oracle.enumerate.states_histories", m**n)
        else:
            self.add("oracle.enumerate.states_compositions", distinct)
        self.add("oracle.enumerate.distinct_states", distinct)

    @staticmethod
    def _criterion_label(result, fn):
        cid = getattr(result, "cid", None)
        return f"verify.{cid}" if cid else f"verify.{fn.__name__}"

    def _count_criterion(self, args, kwargs, result, error):
        if error is not None or not result.passed:
            self.add("verify.criteria_failed")

    def _count_cli(self, cmd):
        def after(args, kwargs, result, error):
            ns = _arg(args, kwargs, 0, "args")
            # the benchmark gives every command a fresh in-memory stdout
            written = len(sys.stdout.getvalue().encode("utf-8"))
            for attr in ("out", "plot", "report"):
                path = getattr(ns, attr, None)
                if path and os.path.exists(path):
                    written += os.path.getsize(path)
            self.add(f"cli.{cmd}.bytes_written", written)
            if error is not None or result != 0:
                self.add("cli.exit_nonzero")

        return after

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counters recorded so far."""
        values = {name: 0 for name in metric_units()}
        for name, _tid, _id, _parent, _w0, _w1, busy, wall, _c0, _c1 in self.spans:
            for key, amount in (("calls", 1), ("busy_s", busy), ("wait_s", wall - busy)):
                if f"{name}.{key}" in values:
                    values[f"{name}.{key}"] += amount
        for key, value in list(self.counts.items()) + list(self.maxima.items()):
            if key in values:
                values[key] = value
        visited = (self.counts["oracle.enumerate.states_histories"]
                   + self.counts["oracle.enumerate.states_compositions"])
        if visited:
            values["oracle.enumerate.useful_ratio"] = (
                self.counts["oracle.enumerate.distinct_states"] / visited
            )
        values["trace.spans"] = len(self.spans)
        return values

    def busy_within_cpu(self) -> list[str]:
        """On each thread, summed self busy time must not exceed that thread's
        CPU time over the interval its spans cover."""
        by_thread = defaultdict(lambda: [0.0, math.inf, -math.inf])
        for _n, tid, _i, _p, _w0, _w1, busy, _wall, c0, c1 in self.spans:
            acc = by_thread[tid]
            acc[0] += busy
            acc[1] = min(acc[1], c0)
            acc[2] = max(acc[2], c1)
        return [
            f"thread {tid}: busy {busy:.6f} s > cpu {hi - lo:.6f} s"
            for tid, (busy, lo, hi) in by_thread.items()
            if busy > (hi - lo) + 1e-6
        ]

    def write(self, path: str) -> None:
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "thread", "id", "parent", "start_s", "end_s",
                                 "self_busy_s", "self_wall_s"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span[:8]) + "\n")
