"""Command-line front end: simulate, theory, verify, clt, oracle.

Option precedence is flags > config file (``key=value`` lines, ``--config``)
> environment (``CATLAB_SEED``) > built-in defaults; ``theory`` and
``oracle`` use no randomness and take no seed.  A config key must be
one of the command's option names (``tolerance_profile`` for
``--tolerance-profile``); output paths and ``--index``/``--exact`` are flags
only, and any other key is a usage error.  Config values are parsed by the
same parser as flags (``m = 3`` is ``--m=3``, placed before the command
line's own flags), so they get the same types, choices and defaults, and a
bad value is the same usage error.  Exit codes: 0 success,
1 verification failure, 2 usage or domain error (an unwritable output path
included), 3 resource guard exceeded.
All emitted data files are byte-identical across runs for a fixed
configuration; the manifest sidecar carries the wall-clock timestamp.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__, theory
from .errors import DomainError, ResourceLimitError, ValidityError
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    jarque_bera,
    ks_normality,
    replicate_rows,
    run_mc,
    standardize_zagreb,
)
from .indices import IndexSpec
from .oracle import choose_method, enumerate_exact
from .svg import histogram_kde_svg
from .verify import SUITES, render_table, report_json, run_suite

__all__ = ["main"]

DEFAULT_INDICES = "gini_degree,hoover,zagreb,randic:1,wiener,hyper_wiener"


def _fmt_value(v) -> str:
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".17g")


@dataclass
class RunManifest:
    """Reproducibility sidecar: everything needed to regenerate an output."""

    command: str
    config: dict
    verdicts: list | None = None
    tool: str = "catlab"
    version: str = __version__
    timestamp: str = field(
        default_factory=lambda: datetime.datetime.now(datetime.timezone.utc).isoformat()
    )

    def to_json(self) -> str:
        payload = {
            "tool": self.tool,
            "version": self.version,
            "command": self.command,
            "config": self.config,
            "timestamp": self.timestamp,
            "verdicts": self.verdicts,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_manifest(out_path: str, manifest: RunManifest) -> None:
    _write_text(out_path + ".manifest.json", manifest.to_json())


# parsed arguments that commands read from the command line only
_FLAG_ONLY = {"command", "config", "func", "out", "report", "plot", "index", "exact"}


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The ``--config`` file's ``key=value`` lines as ``--key=value`` flags."""
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read config file {args.config}: {exc.strerror or exc}") from None
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"bad config line (expected key=value): {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    unknown = sorted(set(values) - (set(vars(args)) - _FLAG_ONLY))
    if unknown:
        raise DomainError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]


def _parse_indices(text: str) -> tuple[IndexSpec, ...]:
    specs = tuple(IndexSpec.parse(part) for part in text.split(",") if part.strip())
    if not specs:
        raise DomainError("no indices requested")
    return specs


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        m=args.m, n=args.n, replications=args.replications, seed=args.seed,
        indices=_parse_indices(args.indices), sampler=args.sampler,
    )
    columns = ["replicate_id"] + [str(spec) for spec in cfg.indices]
    rows = [[r] + values for r, values in enumerate(replicate_rows(cfg))]

    if args.format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt_value(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {"columns": columns, "rows": [[_json_number(v) for v in row] for row in rows]},
            indent=2,
            sort_keys=True,
        ) + "\n"

    config = {
        "m": cfg.m, "n": cfg.n, "seed": cfg.seed, "replications": cfg.replications,
        "sampler": cfg.sampler, "indices": columns[1:], "format": args.format,
    }
    if args.out:
        _write_text(args.out, text)
        _write_manifest(args.out, RunManifest(command="simulate", config=config))
    else:
        sys.stdout.write(text)
    return 0


def _json_number(v):
    return v if isinstance(v, int) else float(v)


def cmd_theory(args: argparse.Namespace) -> int:
    m, n = args.m, args.n
    value = theory.evaluate(args.index, m, n)
    if args.scaled == "n2":
        if n == 0:
            raise DomainError("cannot scale by n^2 at n = 0")
        value = value.scaled(Fraction(n * n))
    payload = {
        "index": args.index,
        "m": m,
        "n": n,
        "scaled": args.scaled,
        "value": float(value.value),
        "numerator": str(value.numerator),
        "denominator": str(value.denominator),
        "validity": value.validity.value,
        "source": value.source,
    }
    if args.exact:
        payload["exact"] = f"{value.numerator}/{value.denominator}"
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suite, seed, profile = args.suite, args.seed, args.tolerance_profile
    results = run_suite(suite, seed=seed, profile=profile)
    sys.stdout.write(render_table(results) + "\n")
    passed = sum(r.passed for r in results)
    sys.stdout.write(f"{passed}/{len(results)} criteria passed\n")
    report = report_json(suite, seed, profile, results)
    if args.report:
        with open(args.report, "wb") as fh:
            fh.write(report)
        _write_manifest(
            args.report,
            RunManifest(
                command="verify",
                config={"suite": suite, "seed": seed, "tolerance_profile": profile},
                verdicts=[
                    {"criterion": r.cid, "verdict": r.verdict} for r in results
                ],
            ),
        )
    return 0 if passed == len(results) else 1


def cmd_clt(args: argparse.Namespace) -> int:
    m, n, replications, bins, seed = args.m, args.n, args.replications, args.bins, args.seed
    summary = run_mc(
        ExperimentConfig(
            m=m, n=n, replications=replications, seed=seed,
            indices=(IndexSpec("zagreb"),),
        )
    )
    z = standardize_zagreb(summary.sample("zagreb"), m, n)
    ks = ks_normality(z)
    jb = jarque_bera(z)

    lines = ["replicate_id,standardized_zagreb"]
    lines += [f"{r},{format(v, '.17g')}" for r, v in enumerate(z)]
    # built before any write, so a figure that cannot be drawn leaves no file
    svg = histogram_kde_svg(z, bins=bins) if args.plot else None
    _write_text(args.out, "\n".join(lines) + "\n")
    config = {"m": m, "n": n, "seed": seed, "replications": replications, "bins": bins}
    _write_manifest(args.out, RunManifest(command="clt", config=config))

    if args.plot:
        _write_text(args.plot, svg)
        _write_manifest(args.plot, RunManifest(command="clt", config=config))

    payload = {
        "m": m,
        "n": n,
        "replications": replications,
        "seed": seed,
        "bins": bins,
        "sample_csv": args.out,
        "plot_svg": args.plot,
        "sample_mean": float(z.mean()),
        "sample_variance": float(z.var(ddof=1)),
        "ks": {
            "statistic": ks.statistic,
            "critical": ks.critical,
            "alpha": ks.alpha,
            "decision": ks.decision,
        },
        "jarque_bera": {
            "statistic": jb.statistic,
            "critical": jb.critical,
            "alpha": jb.alpha,
            "decision": jb.decision,
        },
    }
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    m, n = args.m, args.n
    resolved = choose_method(m, n, args.method)
    moments = enumerate_exact(m, n, args.index, method=args.method)
    payload = {
        "m": m,
        "n": n,
        "index": args.index,
        "method": resolved,
        "mean": f"{moments.mean.numerator}/{moments.mean.denominator}",
        "mean_float": float(moments.mean),
        "second_moment": f"{moments.second_moment.numerator}/{moments.second_moment.denominator}",
        "variance": f"{moments.variance.numerator}/{moments.variance.denominator}",
        "variance_float": float(moments.variance),
        "support_size": moments.support_size,
        "history_count": moments.history_count,
    }
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catlab",
        description="simulation and verification laboratory for random caterpillars",
    )
    parser.add_argument("--version", action="version", version=f"catlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--config", help="key=value config file")
        if seeded:
            p.add_argument("--seed", type=int, default=os.environ.get("CATLAB_SEED", DEFAULT_SEED),
                           help=f"RNG seed (default $CATLAB_SEED, else {DEFAULT_SEED})")

    p_sim = sub.add_parser("simulate", help="sample caterpillars and print index values")
    common(p_sim)
    p_sim.add_argument("--m", type=int, help="spine size (>= 2)")
    p_sim.add_argument("--n", type=int, help="number of leaves to attach")
    p_sim.add_argument("--replications", type=int, default=1,
                       help="independent replicates (default %(default)s)")
    p_sim.add_argument("--indices", default=DEFAULT_INDICES,
                       help="comma list (default %(default)s)")
    p_sim.add_argument("--sampler", choices=["sequential", "direct"], default="sequential")
    p_sim.add_argument("--out", help="output file (default stdout)")
    p_sim.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_th = sub.add_parser("theory", help="evaluate a closed-form mean/variance/limit")
    common(p_th, seeded=False)
    p_th.add_argument("--index", required=True, choices=sorted(theory.EVALUATORS))
    p_th.add_argument("--m", type=int)
    p_th.add_argument("--n", type=int)
    p_th.add_argument("--scaled", choices=["none", "n2"], default="none")
    p_th.add_argument("--exact", action="store_true", help="include p/q string")
    p_th.set_defaults(func=cmd_theory)

    p_ver = sub.add_parser("verify", help="run an acceptance-criteria suite")
    common(p_ver)
    p_ver.add_argument("--suite", choices=list(SUITES), default="all")
    p_ver.add_argument("--tolerance-profile", choices=["default", "strict"], default="default")
    p_ver.add_argument("--report", help="write the JSON report here")
    p_ver.set_defaults(func=cmd_verify)

    p_clt = sub.add_parser("clt", help="standardized-Zagreb sample, tests, figure")
    common(p_clt)
    p_clt.add_argument("--m", type=int, default=200)
    p_clt.add_argument("--n", type=int, default=5000)
    p_clt.add_argument("--replications", type=int, default=500)
    p_clt.add_argument("--bins", type=int, default=20)
    p_clt.add_argument("--plot", help="write histogram+KDE SVG here")
    p_clt.add_argument("--out", default="clt_sample.csv",
                       help="standardized sample CSV (default %(default)s)")
    p_clt.set_defaults(func=cmd_clt)

    p_or = sub.add_parser("oracle", help="exact enumeration moments of an index")
    common(p_or, seeded=False)
    p_or.add_argument("--m", type=int)
    p_or.add_argument("--n", type=int)
    p_or.add_argument("--index", required=True)
    p_or.add_argument("--method", choices=["auto", "histories", "compositions"], default="auto")
    p_or.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config entries come first, so a flag on the command line wins
            args = parser.parse_args([args.command, *_config_flags(args), *argv[1:]])
        if "m" in vars(args) and None in (args.m, args.n):
            raise DomainError(f"{args.command} requires --m and --n")
        return args.func(args)
    except (DomainError, ValidityError, ValueError, OSError) as exc:
        print(f"catlab: error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"catlab: resource guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
