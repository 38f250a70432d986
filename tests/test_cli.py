"""CLI surface: subcommands, formats, exit codes, precedence, manifests."""

import json
import shlex
from pathlib import Path

import pytest

from catlab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_hand_row(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--m", "3", "--n", "0",
        "--replications", "1", "--indices", "zagreb,wiener",
    )
    assert code == 0
    assert out.splitlines() == ["replicate_id,zagreb,wiener", "0,6,4"]


def test_simulate_deterministic_bytes(capsys):
    args = ("simulate", "--m", "2", "--n", "5", "--seed", "7", "--replications", "2")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simulate_keeps_hyper_wiener_exact(tmp_path, capsys):
    """A cell above 2^53 is the exact integer of the same substream."""
    from catlab.caterpillar import Caterpillar, RngSeed, simulate_counts
    from catlab.experiments import DEFAULT_SEED
    from catlab.indices import hyper_wiener

    out = tmp_path / "hw.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--m", "5000", "--n", "100000",
        "--indices", "hyper_wiener", "--out", str(out),
    )
    assert code == 0
    rng = RngSeed(DEFAULT_SEED, 0).generator()
    expected = hyper_wiener(Caterpillar(5000, tuple(simulate_counts(5000, 100000, rng))))
    assert expected > 2**53 and float(expected) != expected  # a float cast would show
    assert out.read_text().splitlines() == ["replicate_id,hyper_wiener", f"0,{expected}"]


def test_simulate_rejects_short_spine(capsys):
    code, _, err = run_cli(capsys, "simulate", "--m", "1", "--n", "3")
    assert code == 2
    assert "m must be >= 2" in err


def test_simulate_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--m", "3", "--n", "0", "--format", "json",
        "--indices", "zagreb",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["replicate_id", "zagreb"]
    assert payload["rows"] == [[0, 6]]


def test_simulate_out_file_and_manifest(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--m", "2", "--n", "3", "--seed", "5",
        "--out", str(out), "--indices", "zagreb",
    )
    assert code == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["tool"] == "catlab"
    assert manifest["config"]["m"] == 2
    assert manifest["config"]["seed"] == 5
    # the manifest config reproduces the file byte-for-byte
    text1 = out.read_text()
    code, _, _ = run_cli(
        capsys, "simulate", "--m", "2", "--n", "3", "--seed", "5",
        "--out", str(out), "--indices", "zagreb",
    )
    assert out.read_text() == text1


def test_simulate_direct_sampler(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--m", "4", "--n", "100", "--sampler", "direct",
        "--indices", "zagreb,hoover", "--replications", "3",
    )
    assert code == 0
    assert len(out.splitlines()) == 4


def test_theory_values(capsys):
    code, out, _ = run_cli(capsys, "theory", "--index", "zagreb_mean", "--m", "2", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 11.0
    assert payload["numerator"] == "11"
    assert payload["validity"] == "all_m"

    code, out, _ = run_cli(
        capsys, "theory", "--index", "wiener_mean", "--m", "50", "--n", "2000",
        "--scaled", "n2", "--exact",
    )
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(9.77204125)
    assert payload["exact"] == "7817633/800000"


def test_theory_hyper_wiener_erratum_flag(capsys):
    _, out, _ = run_cli(
        capsys, "theory", "--index", "hyper_wiener_mean_paper", "--m", "3", "--n", "1"
    )
    payload = json.loads(out)
    assert payload["value"] == 29.0
    assert payload["validity"] == "erratum_paper_form"

    _, out, _ = run_cli(
        capsys, "theory", "--index", "hyper_wiener_mean_corrected", "--m", "3", "--n", "1"
    )
    assert json.loads(out)["value"] == 28.0


def test_theory_randic_m2_validity_error(capsys):
    code, _, err = run_cli(capsys, "theory", "--index", "randic_mean", "--m", "2", "--n", "5")
    assert code == 2
    assert "m = 2" in err


def test_verify_oracle_suite(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle", "--report", str(report)
    )
    assert code == 0
    assert "4/4 criteria passed" in out
    payload = json.loads(report.read_text())
    assert payload["all_passed"] is True
    assert len(payload["results"]) == 4


def test_verify_report_bytes_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "verify", "--suite", "oracle", "--report", str(a))
    run_cli(capsys, "verify", "--suite", "oracle", "--report", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_clt_outputs(tmp_path, capsys):
    out = tmp_path / "z.csv"
    plot = tmp_path / "fig.svg"
    code, stdout, _ = run_cli(
        capsys, "clt", "--m", "20", "--n", "400", "--replications", "64",
        "--out", str(out), "--plot", str(plot), "--bins", "1",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ks"]["decision"] in ("reject", "fail_to_reject")
    lines = out.read_text().splitlines()
    assert len(lines) == 65  # header + R rows
    svg = plot.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") >= 2  # background + single bar
    assert (tmp_path / "z.csv.manifest.json").exists()
    assert (tmp_path / "fig.svg.manifest.json").exists()


def test_clt_zero_variance_rejected(capsys):
    code, _, err = run_cli(
        capsys, "clt", "--m", "3", "--n", "0", "--replications", "30"
    )
    assert code == 2
    assert "variance is zero" in err


def test_clt_failure_writes_no_file(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "clt", "--m", "3", "--n", "4", "--replications", "30", "--bins", "0",
        "--out", str(tmp_path / "s.csv"), "--plot", str(tmp_path / "p.svg"),
    )
    assert code == 2
    assert out == ""
    assert "bins must be >= 1" in err
    assert list(tmp_path.iterdir()) == []


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--m", "2", "--n", "2", "--index", "zagreb")
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == "11/1"
    assert payload["variance"] == "1/1"

    code, out, _ = run_cli(capsys, "oracle", "--m", "3", "--n", "1", "--index", "hyper_wiener")
    assert json.loads(out)["mean"] == "28/1"


def test_oracle_guard_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "oracle", "--m", "2", "--n", "40", "--index", "zagreb",
        "--method", "histories",
    )
    assert code == 3
    assert "guard" in err
    # auto engages the composition path and succeeds
    code, out, _ = run_cli(capsys, "oracle", "--m", "2", "--n", "40", "--index", "zagreb")
    assert code == 0
    assert json.loads(out)["method"] == "compositions"


def test_unseeded_commands_reject_seed(tmp_path, capsys):
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("seed = 3\n")
    code, out, err = run_cli(
        capsys, "oracle", "--config", str(cfg), "--m", "2", "--n", "1", "--index", "zagreb"
    )
    assert code == 2
    assert out == ""
    assert "unknown config key" in err and "seed" in err
    for argv in (("oracle", "--m", "2", "--n", "1", "--index", "zagreb"),
                 ("theory", "--index", "zagreb_mean", "--m", "2", "--n", "1")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "3"])
        assert exc.value.code == 2


def test_config_file_and_env_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m = 3\nn = 0  # comment\nseed = 11\n")
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--indices", "zagreb"
    )
    assert code == 0
    assert out.splitlines()[1] == "0,6"

    # flag beats config
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--m", "4", "--indices", "zagreb"
    )
    assert out.splitlines()[1] == "0,10"  # bare 4-spine: 1+4+4+1

    # env seed is used when neither flag nor config provides one
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text("m = 2\nn = 50\n")
    monkeypatch.setenv("CATLAB_SEED", "123")
    _, out_env, _ = run_cli(
        capsys, "simulate", "--config", str(cfg2), "--indices", "zagreb"
    )
    _, out_flag, _ = run_cli(
        capsys, "simulate", "--config", str(cfg2), "--seed", "123", "--indices", "zagreb"
    )
    assert out_env == out_flag
    # config seed beats env
    cfg3 = tmp_path / "run3.cfg"
    cfg3.write_text("m = 2\nn = 50\nseed = 9\n")
    _, out_cfg, _ = run_cli(
        capsys, "simulate", "--config", str(cfg3), "--indices", "zagreb"
    )
    _, out_cfg_flag, _ = run_cli(
        capsys, "simulate", "--config", str(cfg3), "--seed", "9", "--indices", "zagreb"
    )
    assert out_cfg == out_cfg_flag


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--bogus-flag"])
    assert exc.value.code == 2


def test_bad_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--m", "2", "--n", "1")
    assert code == 2
    assert "key=value" in err


def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing.cfg", tmp_path):  # absent, and a directory
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--m", "2", "--n", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("catlab: error: cannot read config file")


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_simulate_rejects_non_finite_randic_exponent(capsys, alpha):
    code, out, err = run_cli(capsys, "simulate", "--m", "3", "--n", "4", "--indices", f"randic:{alpha}")
    assert code == 2
    assert out == ""
    assert "Randic exponent must be finite" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--m", "3", "--n", "4", "--out"),
    ("verify", "--suite", "oracle", "--report"),
], ids=["simulate", "verify"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing_dir" / "x.out"
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert err.startswith("catlab: error: ") and str(path) in err
    assert not path.parent.exists()


def test_simulate_rejects_duplicate_index(capsys):
    code, out, err = run_cli(capsys, "simulate", "--m", "3", "--n", "4", "--indices", "zagreb,zagreb")
    assert code == 2
    assert out == ""
    assert "duplicate index" in err


def test_simulate_memory_cap_exit_code(capsys):
    # refused before any draw: 10^8 replicates of six indices
    code, out, err = run_cli(capsys, "simulate", "--m", "2", "--n", "0", "--replications", "100000000")
    assert code == 3
    assert out == ""
    assert err.startswith("catlab: resource guard: raw-sample retention needs")


@pytest.mark.parametrize("line", ["threads = 4", "replication = 500", "out = x.csv"])
def test_config_file_rejects_unknown_keys(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"m = 3\nn = 0\n{line}\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "unknown config key" in err and line.split()[0] in err


@pytest.mark.parametrize("line", ["format = xml", "m = abc"])
def test_config_values_are_checked_like_flags(tmp_path, capsys, line):
    key, _, value = line.partition(" = ")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"m = 3\nn = 0\n{line}\n")
    for argv in (["simulate", "--config", str(cfg)],
                 ["simulate", "--m", "3", "--n", "0", f"--{key}", value]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--{key}" in err and value in err


@pytest.mark.parametrize("argv", [
    ("theory", "--index", "zagreb_mean", "--exact"),
    ("oracle", "--index", "zagreb"),
], ids=["theory", "oracle"])
def test_unseeded_commands_take_m_n_from_config(tmp_path, capsys, argv):
    cfg = tmp_path / "mn.cfg"
    cfg.write_text("m = 3\nn = 2\n")
    code, out_cfg, _ = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0
    code, out_flag, _ = run_cli(capsys, *argv, "--m", "3", "--n", "2")
    assert code == 0
    assert out_cfg == out_flag


@pytest.mark.parametrize("argv", [
    ("simulate",),
    ("theory", "--index", "zagreb_mean"),
    ("oracle", "--index", "zagreb"),
], ids=["simulate", "theory", "oracle"])
def test_m_and_n_required_from_flags_or_config(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--n", "3")
    assert code == 2
    assert out == ""
    assert f"{argv[0]} requires --m and --n" in err


def test_readme_cli_examples_parse():
    """Every ``catlab ...`` line of the README's CLI block parses with the CLI's parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("catlab ")]
    assert {argv[0] for argv in commands} == {"simulate", "theory", "oracle", "clt", "verify"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: catlab {shlex.join(argv)}")
