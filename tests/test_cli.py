import dataclasses
import hashlib
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dirichletlab import cli, experiments
from dirichletlab.cli import main, read_config_file
from dirichletlab.errors import ValidationError
from dirichletlab.experiments import (
    BuEventConfig,
    ExceedanceConfig,
    NoZeroConfig,
    SignChangeConfig,
)


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(tmp_path, *args):
    return main(list(args) + ["--out", str(tmp_path)])


def only_json(tmp_path, prefix):
    files = sorted(tmp_path.glob(f"{prefix}_*.json"))
    assert files, f"no {prefix} report written"
    return json.loads(files[-1].read_text())


def test_eval_writes_report(tmp_path, capsys):
    assert run_cli(tmp_path, "eval", "--seq", "naturals", "--sigma", "1.0") == 0
    out = capsys.readouterr().out
    assert "F(1)" in out
    data = only_json(tmp_path, "eval")
    assert data["kind"] == "eval"
    assert "partial_sum" in data


def test_scan_subcommand(tmp_path, capsys):
    code = run_cli(
        tmp_path, "scan", "--seq", "naturals", "--seed", "7",
        "--sigma-lo", "0.6", "--sigma-hi", "2.0",
    )
    assert code == 0
    data = only_json(tmp_path, "scan")
    assert data["kind"] == "sign_scan"
    assert "sign changes" in capsys.readouterr().out


def test_inequalities_success_exit(tmp_path, capsys):
    code = run_cli(tmp_path, "inequalities", "--n", "8", "--instances", "10")
    assert code == 0
    assert "0 violations" in capsys.readouterr().out


def test_clt_csv(tmp_path, capsys):
    code = main([
        "clt", "--seq", "naturals", "--sigma", "0.6", "--cutoff", "1e5",
        "--trials", "50", "--out", str(tmp_path), "--csv",
    ])
    assert code == 0
    assert "KS distance" in capsys.readouterr().out
    csvs = list(tmp_path.glob("clt_*.csv"))
    assert csvs and csvs[0].read_text().startswith("sample\n")


def test_exit_codes(tmp_path, capsys):
    # validation error -> 1
    assert run_cli(tmp_path, "scan", "--sigma-lo", "3.0", "--sigma-hi", "1.0") == 1
    # an initial grid outside [2, 20000] -> validation, not a silent clamp
    assert run_cli(tmp_path, "scan", "--grid", "0") == 1
    assert run_cli(tmp_path, "scan", "--grid", "-3") == 1
    # at or below 1/2 a divergent sequence is refused before its certificate
    # is built, so no divergence error (exit 3) reaches the user
    assert run_cli(tmp_path, "scan", "--seq", "naturals", "--sigma-lo", "0.4") == 1
    assert run_cli(tmp_path, "no-zeros", "--seq", "naturals", "--sigma-lo", "0.4",
                   "--trials", "2") == 1
    # a worker count below 1 -> validation, not a silent single worker
    for workers in ("0", "-3"):
        assert run_cli(tmp_path, "no-zeros", "--workers", workers) == 1
        assert "argument --workers" in capsys.readouterr().err
    # resource budget error -> 2 (scale rule far past any term budget)
    assert run_cli(tmp_path, "variance-profile", "--seq", "naturals",
                   "--sigmas", "0.505") == 2
    # a scale that overflows a float is over budget too, and names the
    # smallest workable sigma instead of an internal OverflowError
    capsys.readouterr()
    assert run_cli(tmp_path, "variance-profile", "--seq", "naturals",
                   "--sigmas", "0.5001") == 2
    assert "minimal feasible sigma is about 0.527918" in capsys.readouterr().err
    # the weights one round holds count against the budget: 20000 exponents
    # at 1e4 terms each are refused before any array is formed
    assert run_cli(tmp_path, "scan", "--grid", "20000") == 2
    assert "operation needs 200000000 terms" in capsys.readouterr().err
    # unknown flag -> validation, not resource
    assert main(["eval", "--bogus-flag"]) == 1
    capsys.readouterr()
    # malformed or out-of-range values -> validation naming the key
    for args in (
        ["exceedance", "--trials", "abc"],
        ["exceedance", "--trials", "2.7"],
        ["char-fn", "--t-points", "0"],
        ["inequalities", "--n", "0"],
        ["variance-profile", "--sigmas", ""],
        ["inequalities", "--instances", "-1"],
        ["inequalities", "--lambdas", "0"],
        ["bu-event", "--bound-counts", "2.7"],
    ):
        assert run_cli(tmp_path, *args) == 1
        key = args[1][2:].replace("-", "_")
        assert f"validation error: bad value {args[2]!r} for {key}" in (
            capsys.readouterr().err
        )
    # non-finite cutoffs -> validation, not a hang or an internal error
    for args in (
        ["eval", "--seq", "weighted:2.0", "--cutoff", "inf"],
        ["eval", "--seq", "naturals", "--cutoff", "inf"],
        ["eval", "--seq", "naturals", "--cutoff", "nan"],
        ["clt", "--cutoff", "inf"],
        ["scan", "--seq", "primes", "--cutoff", "inf"],
    ):
        assert run_cli(tmp_path, *args) == 1
        assert "validation error: cutoff must be finite" in capsys.readouterr().err
    # non-finite exponents and t -> validation, not a NaN payload
    for args in (
        ["eval", "--sigma", "nan"],
        ["eval", "--sigma0", "nan"],
        ["clt", "--sigma", "nan"],
        ["clt", "--sigma", "inf"],
        ["char-fn", "--sigma", "nan"],
        ["char-fn", "--t-max", "inf"],
        ["char-fn", "--t-max", "nan"],
        ["bu-event", "--threshold", "nan"],
        ["bu-event", "--threshold", "inf"],
        ["exceedance", "--level", "nan"],
        ["scan", "--resolution", "nan"],
        ["scan", "--sigma-lo", "nan"],
        ["scan", "--sigma-hi", "inf"],
        ["sign-changes", "--sigma-hi", "nan"],
    ):
        assert run_cli(tmp_path, *args) == 1
        key = args[1][2:].replace("-", "_")
        assert f"validation error: {key} must be finite, got {args[2]}" in (
            capsys.readouterr().err
        )
    # out-of-range values that parse -> validation naming the rule
    for args, message in (
        # a certificate where the tail diverges is bad input, not a crash
        (["eval", "--seq", "naturals", "--sigma0", "0.5"],
         "tail diverges at exponent 1.0"),
        (["eval", "--seq", "primes", "--sigma0", "0.5"],
         "tail diverges at exponent 1.0"),
        (["sign-changes", "--ladder", "0.5001", "--trials", "1"],
         "smallest ladder value needs cutoff inf > heuristic_max_cutoff"),
        (["scan", "--resolution", "-1"], "resolution must be positive"),
        (["sign-changes", "--ladder", "2.5"], "ladder values must lie in"),
        (["sign-changes", "--sigma-hi", "0.6", "--ladder", "0.7"],
         "ladder values must lie in"),
        # non-finite values that would reach the report as NaN or Infinity,
        # which JSON has no spelling for, or a NaN index
        (["sign-changes", "--max-cutoff", "nan", "--trials", "1", "--ladder",
          "0.8,0.7"], "heuristic_max_cutoff must be finite, got nan"),
        (["sign-changes", "--max-cutoff", "inf", "--trials", "1", "--ladder",
          "0.8,0.7"], "heuristic_max_cutoff must be finite, got inf"),
        (["bu-event", "--horizon", "nan"], "horizon_factor must be finite, got nan"),
        (["eval", "--seq", "weighted:inf"],
         "weighted-naturals exponent must be finite, got inf"),
        # weights that overflow a float are bad input, not an internal error
        (["clt", "--sigma", "-200", "--cutoff", "100", "--trials", "3"],
         "the powers p**200 are not finite"),
        (["eval", "--seq", "explicit:2,3,5", "--sigma", "-2000", "--sigma0",
          "-2000", "--cutoff", "10"], "the powers p**2000 are not finite"),
        (["scan", "--seq", "explicit:2,3,5", "--sigma-lo", "-2000",
          "--sigma-hi", "1", "--cutoff", "10"],
         "the powers p**2000 are not finite"),
        (["clt", "--seq", "explicit:2,3,5", "--sigma", "-2000", "--cutoff",
          "10", "--trials", "2"], "the powers p**2000 are not finite"),
    ):
        # an overflow is reported as the validation error alone, without a
        # numpy warning ahead of it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(tmp_path, *args) == 1
        assert f"validation error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_explicit_sequence_file(tmp_path, capsys):
    # one positive real per line; '#' comments and blank lines are skipped
    seq_file = tmp_path / "seq.txt"
    seq_file.write_text("# the first primes\n2\n\n3  # odd\n5\n")
    assert run_cli(tmp_path, "eval", "--seq", f"explicit@{seq_file}") == 0
    assert "F(1) = 0.633333 +- 0 [exact, eta=0]" in capsys.readouterr().out
    # a file that cannot be read as text is bad input, not an internal error
    utf16 = tmp_path / "utf16.txt"
    utf16.write_bytes(b"\xff\xfe2\x003\x00")
    for bad in (tmp_path / "missing.txt", tmp_path, utf16):
        assert run_cli(tmp_path, "eval", "--seq", f"explicit@{bad}") == 1
        assert f"validation error: cannot read {bad}" in capsys.readouterr().err
    assert len(list(tmp_path.glob("eval_*.json"))) == 1


@pytest.mark.parametrize("args, summary, written", [
    (["no-zeros", "--trials", "2", "--cutoff", "1e4"],
     "no-zeros: certified ", ("json",)),
    (["sign-changes", "--trials", "1", "--ladder", "0.8,0.7", "--max-cutoff",
      "1e6", "--svg", "--csv"],
     "sign-changes mean counts: sigma=0.8: ", ("csv", "json", "svg")),
    (["bu-event", "--trials", "3"], "bu-event: U=100: freq ", ("json",)),
])
def test_experiment_summaries(tmp_path, capsys, args, summary, written):
    assert run_cli(tmp_path, *args) == 0
    assert capsys.readouterr().out.startswith(summary)
    files = sorted(tmp_path.glob(f"{args[0]}_*"))
    assert [f.suffix[1:] for f in files] == list(written)
    if "svg" in written:
        assert files[-1].read_text().startswith("<svg")


def test_bu_event_bound_ladder_is_checked_before_any_trial(
    tmp_path, capsys, monkeypatch
):
    # a ladder the sequence has no analytic bound for, and a count below
    # the bound's range, are refused before the first trial runs
    def no_trial(cfg, shared, path):
        raise AssertionError("a trial ran")

    setup, _trial, aggregate = experiments._KINDS["bu_event"]
    monkeypatch.setitem(experiments._KINDS, "bu_event",
                        (setup, no_trial, aggregate))
    for args, message in (
        (["bu-event", "--seq", "explicit:2,3,5,7,11", "--bound-counts",
          "10,100", "--trials", "3"],
         "bound_count_ladder needs a weighted sequence"),
        (["bu-event", "--bound-counts", "1", "--trials", "200"],
         "count too small for the analytic bound"),
    ):
        assert run_cli(tmp_path, *args) == 1
        assert f"validation error: {message}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# exceedance study\n"
        "seq = naturals\n"
        "trials = 8\n"
        "level = 1.5\n"
        "scales = 100,1000\n"
    )
    code = main([
        "exceedance", "--config", str(cfg), "--trials", "5",
        "--out", str(tmp_path),
    ])
    assert code == 0
    data = only_json(tmp_path, "exceedance")
    assert data["config"]["trials"] == 5  # flag wins
    assert data["config"]["level"] == 1.5  # file wins over default
    assert data["config"]["scales"] == [100.0, 1000.0]


# one non-default text value per option of any subcommand
_OPTION_TEXT = {
    "seq": "explicit:1,2,3", "seed": "7", "trial": "3", "trials": "9",
    "sigma": "0.9", "sigma0": "0.8", "sigma_lo": "0.7", "sigma_hi": "1.5",
    "cutoff": "5000", "cert_cutoff": "4000", "max_cutoff": "1e6",
    "eta": "0.02", "grid": "8", "grid_points": "12", "resolution": "0.01",
    "ladder": "0.8,0.7", "scales": "10,100",
    "sigmas": "0.9,0.8", "t_max": "2", "t_points": "5", "n": "4",
    "instances": "3", "lambdas": "5", "horizon": "10", "threshold": "0.5",
    "bound_counts": "1,2", "level": "0.5", "input": "report.json",
}


@pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
def test_config_file_and_flags_parse_alike(tmp_path, capsys, subcommand):
    opts = cli._SUBCOMMANDS[subcommand][0]
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {_OPTION_TEXT[key]}\n" for key in opts))
    flags = [x for key in opts
             for x in ("--" + key.replace("_", "-"), _OPTION_TEXT[key])]
    plans = []
    for args in (["--config", str(cfg)], flags, []):
        assert main([subcommand, "--dry-run", *args]) == 0
        plans.append(capsys.readouterr().out)
    assert plans[0] == plans[1] != plans[2]


def test_config_file_values_are_not_retyped(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seq = explicit:1,2,3\n")
    assert run_cli(tmp_path, "eval", "--config", str(cfg)) == 0
    assert only_json(tmp_path, "eval")["config"]["seq"] == "explicit:1,2,3"
    cfg.write_text("trials = 2.7\n")  # rejected, not truncated to 2
    assert run_cli(tmp_path, "exceedance", "--config", str(cfg)) == 1
    assert "validation error: bad value '2.7' for trials" in (
        capsys.readouterr().err
    )


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 3\n")
    assert main(["exceedance", "--config", str(cfg)]) == 1


def test_read_config_file_errors(tmp_path):
    p = tmp_path / "broken.cfg"
    p.write_text("just a line without equals\n")
    with pytest.raises(ValidationError, match="broken.cfg:1"):
        read_config_file(str(p))
    with pytest.raises(ValidationError, match="missing.cfg"):
        read_config_file(str(tmp_path / "missing.cfg"))


def test_dry_run_prints_plan_without_output(tmp_path, capsys):
    code = run_cli(tmp_path, "no-zeros", "--trials", "99", "--dry-run")
    assert code == 0
    out = capsys.readouterr().out
    assert "dry-run" in out and '"trials": 99' in out
    assert not list(tmp_path.glob("no-zeros_*"))
    # the strict casts still take every valid spelling
    assert run_cli(tmp_path, "bu-event", "--bound-counts", "1e3", "--dry-run") == 0
    assert '"bound_counts": [1000]' in capsys.readouterr().out


@pytest.mark.parametrize("subcommand, default", [
    ("no-zeros", NoZeroConfig()),
    ("sign-changes", SignChangeConfig()),
    ("bu-event", BuEventConfig()),
    ("exceedance", ExceedanceConfig()),
])
def test_experiment_defaults_are_config_defaults(
    tmp_path, monkeypatch, subcommand, default
):
    handed = []

    class Stop(Exception):
        pass

    def fake_run(cfg, workers=1):
        handed.append(cfg)
        raise Stop  # the run itself is not under test

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert run_cli(tmp_path, subcommand) == 3
    assert handed == [default]


_EXPERIMENTS = {
    "no-zeros": NoZeroConfig,
    "sign-changes": SignChangeConfig,
    "bu-event": BuEventConfig,
    "exceedance": ExceedanceConfig,
}


def _other_text(value):
    """Flag text for a value unlike ``value``, a config default."""
    if isinstance(value, str):
        return "weighted:3.0"
    if isinstance(value, tuple):
        return ",".join([*map(str, value), "7"])
    return str(value + 1)


@pytest.mark.parametrize("subcommand", list(_EXPERIMENTS))
def test_experiment_flags_and_config_fields_match_one_to_one(
    tmp_path, monkeypatch, subcommand
):
    # each flag, given alone, moves exactly one field off its default, and
    # every init field of the config is moved by exactly one flag
    cls = _EXPERIMENTS[subcommand]
    default = cls()
    handed = []

    class Stop(Exception):
        pass

    def fake_run(cfg, workers=1):
        handed.append(cfg)
        raise Stop  # the run itself is not under test

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    set_by = {f.name: [] for f in dataclasses.fields(cls) if f.init}
    for flag, (_cast, value, _help) in cli._SUBCOMMANDS[subcommand][0].items():
        handed.clear()
        option = "--" + flag.replace("_", "-")
        assert run_cli(tmp_path, subcommand, option, _other_text(value)) == 3
        (cfg,) = handed
        moved = [name for name in set_by
                 if getattr(cfg, name) != getattr(default, name)]
        assert len(moved) == 1, (flag, moved)
        set_by[moved[0]].append(flag)
    assert all(len(flags) == 1 for flags in set_by.values()), set_by


def test_char_fn_payload_golden(tmp_path):
    # sha256 of the report captured before char_function took whole grids
    assert run_cli(tmp_path, "char-fn", "--seq", "primes") == 0
    (report,) = tmp_path.glob("char-fn_*.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "7b6b9d5df991052089d124143e68f848b730ee18c7fa41b02e78c25880c5018a")


@pytest.mark.parametrize("args, digest", [
    pytest.param(["scan", "--seq", "weighted:2.0", "--seed", "3"],
                 "e070b02e8327cc8abb2068b2657ec749eae385190f52ab1b9c7b93942ac4b355",
                 id="scan"),
    pytest.param(["eval", "--seq", "naturals"],
                 "be109532ba224684fc11716194dfda8fcdcaa2775af096086161fc307987138d",
                 id="eval"),
])
def test_scan_and_eval_payload_golden(tmp_path, args, digest):
    # sha256 of the reports: eval's captured before scans took their
    # certificate, scan's at schema 4
    assert run_cli(tmp_path, *args) == 0
    (report,) = tmp_path.glob(f"{args[0]}_*.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_same_invocation_same_payload(tmp_path):
    args = ["exceedance", "--trials", "6", "--out"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(args + [str(d1)]) == 0
    assert main(args + [str(d2)]) == 0
    f1 = sorted(d1.glob("*.json"))[0]
    f2 = sorted(d2.glob("*.json"))[0]
    assert f1.name == f2.name
    assert f1.read_bytes() == f2.read_bytes()


def test_workers_flag_payload_identical(tmp_path):
    base = ["exceedance", "--trials", "10", "--out"]
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    assert main(base + [str(d1), "--workers", "1"]) == 0
    assert main(base + [str(d2), "--workers", "3"]) == 0
    b1 = sorted(d1.glob("*.json"))[0].read_bytes()
    b2 = sorted(d2.glob("*.json"))[0].read_bytes()
    assert b1 == b2


def test_report_subcommand(tmp_path, capsys):
    assert run_cli(tmp_path, "exceedance", "--trials", "4") == 0
    f = sorted(tmp_path.glob("exceedance_*.json"))[0]
    assert main(["report", "--input", str(f), "--out", str(tmp_path)]) == 0
    assert "kind=exceedance" in capsys.readouterr().out


def test_report_bad_input_is_validation_error(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for path in (tmp_path / "missing.json", garbled, listed):
        assert main(["report", "--input", str(path)]) == 1
        assert "validation error" in capsys.readouterr().err


def test_svg_emission(tmp_path):
    code = main([
        "variance-profile", "--seq", "primes", "--out", str(tmp_path),
        "--svg", "--csv",
    ])
    assert code == 0
    svg = sorted(tmp_path.glob("variance-profile_*.svg"))
    assert svg and svg[0].read_text().startswith("<svg")


def test_console_script_version():
    # the child imports the package this test imported, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "dirichletlab.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"


def _readme_commands():
    """The argument lists of the ``dirichletlab ...`` lines in the README's
    CLI code block."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("dirichletlab ")]


def test_readme_commands_run(tmp_path, capsys):
    # the documented commands parse and resolve: a renamed or dropped flag
    # fails here instead of silently breaking the docs
    commands = _readme_commands()
    assert {args[0] for args in commands} == set(cli._SUBCOMMANDS)
    for args in commands:
        assert run_cli(tmp_path, *args, "--dry-run") == 0, args
        assert capsys.readouterr().out.startswith(f"dry-run {args[0]}: ")
