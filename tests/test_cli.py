import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import jackpaths
from jackpaths import _kernels, cli

# the child process imports the jackpaths that this one imported
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(jackpaths.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(*argv, module="jackpaths.cli", timeout=None):
    return subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=CHILD_ENV,
                          timeout=timeout)


def test_moments_value():
    out = run_cli("moments", "--ell", "4", "--g", "1/2", "--plancherel")
    assert out.returncode == 0
    assert out.stdout.strip() == "9/4"


def test_moments_symbolic_json():
    out = run_cli("moments", "--ell", "2", "--symbolic", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data == [{"monomial": {"v1": 1}, "coeff": "1"}]


def test_moments_symbolic_json_beyond_enumeration():
    # ell = 14 took minutes by listing paths; the transfer DP answers at once
    from jackpaths.limitshape import jacobi_moment_symbolic

    out = run_cli("moments", "--ell", "14", "--symbolic", "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout) == jacobi_moment_symbolic(14).to_json()


@pytest.mark.parametrize("ell, json_flag, digest", [
    (1, False, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    (1, True, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    (6, False, "69436ea18f204cd6097a8ae28c5b592f4dbd30468b057e103c71a3f9d1c044bf"),
    (6, True, "0d03678ec595e13125e5242ed77db67b78989c36ebcf4cddbac81718074b7e05"),
    (10, False, "77d460b44298220e05973b2d1de2b084a6abea968aba2be0d5d0c61e5a781d70"),
    (10, True, "452c0b5519e12518ffeb09c0cd672dcae1596d0d5e439ec96bcb07138cacb00c"),
])
def test_moments_symbolic_output_is_pinned(ell, json_flag, digest, capsys):
    argv = ["moments", "--ell", str(ell), "--symbolic"] + ["--json"] * json_flag
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_moments_symbolic_json_builds_no_text(monkeypatch, capsys):
    from jackpaths.polynomials import Poly

    def refuse(self):
        raise AssertionError("repr built under --json")

    monkeypatch.setattr(Poly, "__repr__", refuse)
    assert cli.main(["moments", "--ell", "6", "--symbolic", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)


def test_python_dash_m_runs_the_cli():
    out = run_cli("moments", "--ell", "4", "--g", "1/2", "--plancherel",
                  module="jackpaths")
    assert out.returncode == 0
    assert out.stdout.strip() == "9/4"


def test_finite_expectation_and_cumulant():
    out = run_cli("finite-expectation", "--lengths", "2", "2", "--alpha", "2",
                  "--u", "2", "--v", "1", "--json")
    assert json.loads(out.stdout) == {"value": "3/2"}
    out2 = run_cli("finite-expectation", "--lengths", "2", "2", "--alpha", "2",
                   "--u", "2", "--v", "1", "--cumulant")
    assert out2.stdout.strip() == "1/2"
    out3 = run_cli("finite-expectation", "--lengths", "2", "--alpha", "2",
                   "--u", "2", "--v", "1", "--d", "5")
    assert out3.stdout.strip() == "5/2"


def test_finite_expectation_refuses_cumulant_with_d(capsys):
    # --d used to win silently and print the fixed-size expectation
    assert cli.main(["finite-expectation", "--lengths", "2", "--alpha", "1",
                     "--u", "1", "--d", "3", "--cumulant"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cumulant" in captured.err and "--d" in captured.err


def test_finite_expectation_beyond_enumeration(capsys):
    # total 14 was the enumeration cap (exit 2); the transfer takes it
    from fractions import Fraction

    from jackpaths.exactnum import format_rational
    from jackpaths.paths import RIBBON_DP_LIMIT, finite_expectation

    assert cli.main(["finite-expectation", "--lengths", "7", "7", "--alpha",
                     "2", "--u", "3", "--v", "1", "1/2", "--json"]) == 0
    want = finite_expectation((7, 7), 2, 3, [1, Fraction(1, 2)])
    assert json.loads(capsys.readouterr().out) == {"value": format_rational(want)}
    assert cli.main(["finite-expectation", "--lengths", str(RIBBON_DP_LIMIT + 1),
                     "--alpha", "2", "--u", "3"]) == 2
    assert "exceeds the ribbon limit" in capsys.readouterr().err


def test_covariances_run_past_the_ribbon_limit(capsys):
    # the covariances read the operator column, not the ribbon transfer, so
    # a total length of 32 runs where the finite formulas exit 2
    from fractions import Fraction

    from jackpaths.exactnum import format_rational
    from jackpaths.paths import afp_cov, clt_cov

    g, v = Fraction(1, 2), [1, Fraction(1, 3)]
    for cmd, want in (("clt", clt_cov(16, 16, g, v)),
                      ("afp", afp_cov(16, 16, g, v, {}))):
        assert cli.main([cmd, "--cov", "16", "16", "--g", "1/2",
                         "--v", "1", "1/3"]) == 0
        assert capsys.readouterr().out.strip() == format_rational(want)


FINITE_ARGS = ["finite-expectation", "--lengths", "3"]


def test_finite_expectation_negative_d_exits_2(capsys):
    assert cli.main(FINITE_ARGS + ["--alpha", "2", "--u", "3", "--d", "-1"]) == 2
    assert "error: d must be >= 0, got -1" in capsys.readouterr().err


def test_finite_expectation_zero_alpha_exits_2(capsys):
    assert cli.main(FINITE_ARGS + ["--alpha", "0", "--u", "3"]) == 2
    assert "alpha must be positive" in capsys.readouterr().err


def test_finite_expectation_zero_u_exits_2(capsys):
    assert cli.main(FINITE_ARGS + ["--alpha", "2", "--u", "0"]) == 2
    assert "u must be positive" in capsys.readouterr().err


def test_bessel_zeros_values():
    out = run_cli("bessel-zeros", "--g", "-1/4", "-n", "3", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert abs(data["zeros"][0] + 1.086) < 1e-3
    assert abs(data["edges"][0] - 1.336) < 1e-3


def test_bessel_zeros_edges_are_the_same_for_both_signs_of_g(capsys):
    # the staircase is built from |g|, so the zeros z_k and the edges
    # k|g| - z_k do not depend on the sign of g
    out = {}
    for g in ("1/4", "-1/4"):
        assert cli.main(["bessel-zeros", "--g", g, "-n", "3", "--json"]) == 0
        out[g] = json.loads(capsys.readouterr().out)
    assert out["1/4"] == out["-1/4"]
    assert all(abs(e - t) < 1e-3
               for e, t in zip(out["1/4"]["edges"], (1.336, 0.924, 0.647), strict=True))


def test_sample_reproducible_bytes(tmp_path: Path):
    args = ("sample", "--ensemble", "plancherel", "--alpha", "1/2", "--d",
            "6", "--n", "5", "--seed", "9")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    out_file = tmp_path / "s.jsonl"
    c = run_cli(*args, "--out", str(out_file))
    assert c.returncode == 0
    assert out_file.read_text().count("\n") == 6  # header + 5 draws


def test_limit_shape_files(tmp_path: Path):
    csv = tmp_path / "shape.csv"
    svg = tmp_path / "shape.svg"
    corners = tmp_path / "corners.json"
    out = run_cli("limit-shape", "--g", "-1/4", "--n-steps", "4",
                  "--csv", str(csv), "--svg", str(svg),
                  "--json-out", str(corners))
    assert out.returncode == 0
    assert csv.read_text().startswith("x,omega")
    assert "<svg" in svg.read_text()
    data = json.loads(corners.read_text())
    assert len(data["minima"]) == 4


def test_render(tmp_path: Path):
    svg = tmp_path / "p.svg"
    out = run_cli("render", "--partition", "4,3,1,1", "--w", "2", "--h",
                  "1/2", "--svg", str(svg))
    assert out.returncode == 0
    assert "polyline" in svg.read_text()


def test_verify_suite_and_exit_codes():
    out = run_cli("verify", "--suite", "clt-anchors")
    assert out.returncode == 0
    assert "[PASS] clt-anchors" in out.stdout
    bad = run_cli("verify", "--suite", "no-such-suite")
    assert bad.returncode == 2


@pytest.mark.parametrize("d", ["-1", "0"])
def test_verify_d_below_one_exits_2(d, capsys):
    assert cli.main(["verify", "--suite", "normalization", "--d", d]) == 2
    captured = capsys.readouterr()
    assert "--d must be >= 1" in captured.err and captured.out == ""


def test_verify_d_no_named_suite_takes_exits_2(capsys):
    for suites in (["clt-anchors"], ["depoissonized", "eigenrelation"]):
        assert cli.main(["verify", "--suite", *suites, "--d", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "normalization" in captured.err


def test_verify_d_sets_the_cap_of_the_suite_that_takes_it(capsys):
    assert cli.main(["verify", "--suite", "clt-anchors", "normalization",
                     "--d", "2"]) == 0
    assert "d <= 2" in capsys.readouterr().out


def test_verify_out_no_named_suite_takes_exits_2(tmp_path: Path, capsys):
    out = tmp_path / "overlay"
    assert cli.main(["verify", "--suite", "clt-anchors", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "lln-low-temperature" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("make, message", [
    ("file", "cannot make directory"), ("under-a-file", "cannot make directory"),
    ("read-only", "cannot write to directory")])
def test_verify_unusable_out_exits_2_before_the_suite(make, message, tmp_path: Path,
                                                      capsys, monkeypatch):
    from jackpaths import verify

    def not_run(**kwargs):
        raise AssertionError("suite ran")

    monkeypatch.setitem(verify.SUITES, "lln-low-temperature", not_run)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = {"file": blocker, "under-a-file": blocker / "overlay",
           "read-only": tmp_path}[make]
    if make == "read-only":  # a permission bit does not stop root
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert cli.main(["verify", "--suite", "lln-low-temperature",
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out: {message} {out}")


def test_verify_json_names_the_growth_kernel_of_growth_suites(capsys, monkeypatch):
    from jackpaths import sampler, verify

    monkeypatch.setitem(verify.SUITES, "sampler-law", lambda: (True, "stub"))
    monkeypatch.setattr(sampler, "usable_cpus", lambda: 3)
    assert cli.main(["verify", "--suite", "clt-anchors", "sampler-law",
                     "--json"]) == 0
    captured = capsys.readouterr()
    entries = json.loads(captured.out)  # the JSON array and nothing else
    assert [line.split()[1] for line in captured.err.splitlines()] == [
        "clt-anchors", "sampler-law"]
    assert [e["suite"] for e in entries] == ["clt-anchors", "sampler-law"]
    assert "growth" not in entries[0]
    assert set(entries[0]) == {"suite", "passed", "detail", "seconds"}
    assert entries[1]["growth"] == {"backend": _kernels.BACKEND,
                                    "numba": _kernels.HAVE_NUMBA,
                                    "validated": True, "cpus": 3}


def test_sample_negative_d_exits_2(capsys):
    assert cli.main(["sample", "--d", "-2"]) == 2
    err = capsys.readouterr().err
    assert "error: d must be >= 0, got -2" in err


def test_sample_conditional_thoma_above_the_cap_exits_2():
    # the ensemble lists no partition before the cap refuses its size
    out = run_cli("sample", "--ensemble", "conditional_thoma", "--d", "30",
                  "--v", "1", "1/2", timeout=60)
    assert out.returncode == 2
    assert "above the exact-sampling cap" in out.stderr


def test_sample_above_the_cap_points_to_growth_for_plancherel_only(capsys):
    # the growth method draws the plancherel variant only
    assert cli.main(["sample", "--ensemble", "schur_weyl", "--K", "2", "--d", "30"]) == 2
    err = capsys.readouterr().err
    assert "above the exact-sampling cap" in err and "growth" not in err
    assert cli.main(["sample", "--ensemble", "plancherel", "--d", "30"]) == 2
    assert "above the exact-sampling cap 25; use growth_sample" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bessel_zeros_bad_tol_exits_2(tol):
    out = run_cli("bessel-zeros", "--g", "-1/4", "-n", "1", "--tol", tol,
                  timeout=60)
    assert out.returncode == 2
    assert "tol must be finite and positive" in out.stderr
    assert out.stdout == ""


def test_hundred_bessel_zeros_exit_0_spaced_at_least_g():
    # spaced at least |g| apart, also where the excess over |g| is below
    # double precision
    out = run_cli("bessel-zeros", "--g", "-1/4", "-n", "100", "--json",
                  timeout=60)
    assert out.returncode == 0
    zeros = json.loads(out.stdout)["zeros"]
    assert len(zeros) == 100
    assert all(b - a >= 0.25 for a, b in zip(zeros, zeros[1:]))


def test_long_limit_shape_stops_at_the_resolvable_corners():
    out = run_cli("limit-shape", "--g", "-1/4", "--n-steps", "1200",
                  timeout=60)
    assert out.returncode == 0
    assert "truncated to 16 resolvable corners" in out.stderr
    assert len(json.loads(out.stdout)["maxima"]) == 16


def test_usage_errors_exit_2(tmp_path: Path, capsys):
    out = run_cli("moments", "--ell", "4", "--g", "nonsense")
    assert out.returncode == 2
    out2 = run_cli("clt", "--g", "1/2")  # neither --mean nor --cov
    assert out2.returncode == 2
    assert out2.stderr == "error: choose exactly one of --mean/--cov\n"
    for argv in (["afp", "--g", "1/2"], ["clt", "--mean", "3", "--cov", "2", "2"],
                 ["afp", "--mean", "3", "--cov", "2", "2"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: choose exactly one of --mean/--cov\n")
    # a part that is no integer is named by its argument
    svg = tmp_path / "p.svg"
    for parts in ("3,x", "2.5,1"):
        assert cli.main(["render", "--partition", parts, "--svg", str(svg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --partition: ")
        assert repr(parts) in err
    assert not svg.exists()


def test_config_file_defaults(tmp_path: Path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"g": "1/2", "ell": 4, "plancherel": True}))
    out = run_cli("--config", str(cfg), "moments", "--ell", "4")
    assert out.returncode == 0
    assert out.stdout.strip() == "9/4"
    # flags override the config
    out2 = run_cli("--config", str(cfg), "moments", "--ell", "4", "--g", "0")
    assert out2.stdout.strip() == "2"


def test_equals_form_flag_overrides_config(tmp_path: Path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"alpha": "3"}))
    out_file = tmp_path / "s.jsonl"
    out = run_cli("--config", str(cfg), "sample", "--alpha=2", "--d", "4",
                  "--out", str(out_file))
    assert out.returncode == 0
    header = json.loads(out_file.read_text().splitlines()[0])
    assert header["config"]["alpha"] == "2"
    # an abbreviated flag beats the config too
    assert cli.main(["--config", str(cfg), "sample", "--alph", "2", "--d", "4",
                     "--out", str(out_file)]) == 0
    assert json.loads(out_file.read_text().splitlines()[0])["config"]["alpha"] == "2"
    # a later call without --config, in the same process, gets the parser's
    # own default back
    assert cli.main(["sample", "--d", "4", "--out", str(out_file)]) == 0
    assert json.loads(out_file.read_text().splitlines()[0])["config"]["alpha"] == "1"


def test_config_choice_is_checked(tmp_path: Path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"ensemble": "thoma"}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "sample", "--d", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'thoma'" in err
    for valid in ("plancherel", "schur_weyl", "conditional_thoma"):
        assert valid in err


def test_config_value_goes_through_the_option_type(tmp_path: Path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"n": "2"}))
    assert cli.main(["--config", str(cfg), "sample", "--d", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_config_value_the_type_refuses_exits_2(tmp_path: Path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"n": "two"}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "sample", "--d", "3"])
    assert exc.value.code == 2
    assert "invalid int value: 'two'" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path: Path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):  # absent; a directory
        assert cli.main(["--config", str(path), "moments", "--ell", "4"]) == 2
        assert "error: --config: cannot read" in capsys.readouterr().err


def test_config_that_is_not_a_table_exits_2(tmp_path: Path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text("[1, 2]")
    assert cli.main(["--config", str(cfg), "moments", "--ell", "4"]) == 2
    assert "must be a table, not list" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("json", "false"), ("symbolic", "no"),
                                        ("plancherel", 1)])
def test_config_switch_takes_only_true_or_false(key, value, tmp_path: Path,
                                                capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({key: value}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "moments", "--ell", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --{key}: expected true or false" in err
    cfg.write_text(json.dumps({key: False}))
    assert cli.main(["--config", str(cfg), "moments", "--ell", "4", "--g",
                     "1/2", "--plancherel"]) == 0
    assert capsys.readouterr().out.strip() == "9/4"


@pytest.mark.parametrize("vkl", ['[1]', '"x"', '{"2,2,2": 1}', '{"2": 1}',
                                 '{"2,2": [1]}', '{"2,2": true}', "{2: 1}"])
def test_vkl_that_is_not_a_table_exits_2(vkl, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["afp", "--cov", "4", "4", "--g", "1/2", "--vkl", vkl])
    assert exc.value.code == 2
    assert "argument --vkl: " in capsys.readouterr().err


def test_vkl_from_config_means_the_json_object(tmp_path: Path, capsys):
    argv = ["afp", "--cov", "4", "4", "--g", "1/2", "--v", "1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip() == "5/6"
    assert cli.main(argv + ["--vkl", '{"2,2": "1/3"}']) == 0
    assert capsys.readouterr().out.strip() == "11/12"
    json_cfg, toml_cfg = tmp_path / "conf.json", tmp_path / "conf.toml"
    json_cfg.write_text(json.dumps({"vkl": {"2,2": "1/3"}}))
    toml_cfg.write_text('[vkl]\n"2,2" = "1/3"\n')
    for cfg in (json_cfg, toml_cfg):
        assert cli.main(["--config", str(cfg)] + argv) == 0
        assert capsys.readouterr().out.strip() == "11/12"
    json_cfg.write_text(json.dumps({"vkl": [1]}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(json_cfg)] + argv)
    assert exc.value.code == 2
    assert "--config: argument --vkl: " in capsys.readouterr().err


def _readme_commands():
    """Every ``jackpaths ...`` line of the README's sh blocks, as words."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["jackpaths"]:
                commands.append(words)
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert commands
    parser = cli.build_parser()
    for words in commands:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(words)}")


def test_unwritable_output_path_exits_2(tmp_path: Path, capsys):
    out = tmp_path / "no-such-dir" / "x.jsonl"
    assert cli.main(["sample", "--d", "3", "--out", str(out)]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--profile-csv", "--svg"])
def test_mean_profile_of_no_draws_exits_2(flag, tmp_path: Path, capsys):
    out = tmp_path / "mean.out"
    assert cli.main(["sample", "--d", "3", "--n", "0", flag, str(out)]) == 2
    assert ("error: a mean profile needs at least one draw"
            in capsys.readouterr().err)
    assert not out.exists()


def test_missing_ensemble_key_exits_2():
    out = run_cli("sample", "--ensemble", "conditional_thoma", "--d", "3")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "'v'" in out.stderr


def test_sample_offers_only_drawable_ensembles(capsys):
    # thoma and jack_measure have no fixed size, and character needs a
    # table the command line cannot pass: argparse refuses them
    for name in ("thoma", "jack_measure", "character"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sample", "--ensemble", name, "--d", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        for valid in ("plancherel", "schur_weyl", "conditional_thoma"):
            assert valid in err
    assert cli.main(["sample", "--ensemble", "conditional_thoma", "--alpha", "2",
                     "--d", "4", "--v", "1", "1/4", "1/8", "--n", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_negative_sample_count_exits_2():
    out = run_cli("sample", "--d", "3", "--n", "-3")
    assert out.returncode == 2


def test_sample_refuses_what_its_method_would_ignore():
    for extra in (["--ensemble", "schur_weyl", "--K", "2"],
                  ["--ensemble", "conditional_thoma", "--v", "1"]):
        out = run_cli("sample", *extra, "--alpha", "1", "--method", "growth",
                      "--d", "12")
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "plancherel" in out.stderr
        assert out.stdout == ""


def test_growth_sample_file_is_the_same_bytes_for_any_worker_count(
        tmp_path: Path, monkeypatch):
    from jackpaths import sampler

    files = []
    for cpus in (1, 2):
        monkeypatch.setattr(sampler, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"g{cpus}.jsonl"
        assert cli.main(["sample", "--method", "growth", "--alpha", "1/3",
                         "--d", "80", "--n", "5", "--seed", "4",
                         "--out", str(out)]) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    assert len(files[0].splitlines()) == 6


def test_growth_header_records_provenance(tmp_path: Path):
    out_file = tmp_path / "g.jsonl"
    out = run_cli("sample", "--method", "growth", "--alpha", "1/2", "--d", "30",
                  "--n", "2", "--out", str(out_file))
    assert out.returncode == 0
    header = json.loads(out_file.read_text().splitlines()[0])
    assert header["backend"] == _kernels.BACKEND == (
        "numba" if _kernels.HAVE_NUMBA else "python")
    assert header["numba_available"] is _kernels.HAVE_NUMBA
    assert header["growth_validated"] is True
    assert header["version"] == jackpaths.__version__
    exact_file = tmp_path / "e.jsonl"
    out = run_cli("sample", "--d", "3", "--out", str(exact_file))
    assert out.returncode == 0
    header = json.loads(exact_file.read_text().splitlines()[0])
    assert header["backend"] is None and header["growth_validated"] is None
    assert header["version"] == jackpaths.__version__


def test_parsers_keep_their_own_subcommands():
    first, second = cli.build_parser(), cli.build_parser()
    assert first.subcommands["moments"] is not second.subcommands["moments"]


# command line -> sha256 of "exit code NUL stdout NUL stderr", run in a
# directory holding PINNED_CONFIG as conf.json, with help and usage text
# wrapped at 80 columns and the seconds cut out of verify's lines
PINNED_CONFIG = {"g": "1/2", "alpha": "3", "n": 2}
PINNED_CALLS = [
    # the README's commands
    ("verify --suite all",
     "1a0e34659227691dc506688b1aae655878ed0f09e6c53a0540e38ac70b75f494"),
    ("verify --suite normalization eigenrelation",
     "7517af203f5ebbe2b69c8793977f6ed98aecca52b6dea35f5a408867cef20775"),
    ("verify --suite normalization --d 6",
     "8ae30815c28114d999ae389baaac1b44950250b0191865af2163de51a8889ca4"),
    ("moments --ell 4 --g 1/2 --plancherel",
     "1428c79ee9c7df8fb2e1869c4ddde9e35bf04b4c503ece747e7d71e1c53eaec7"),
    ("moments --ell 5 --symbolic --json",
     "3c981f2cb40b33877c5808450758a50373526ecf291638f6bfa007f729f37320"),
    ("finite-expectation --lengths 2 2 --alpha 2 --u 2 --v 1 1/2",
     "8ebd49832c9c81e919a4ce42d638521467abefdf419cba74628decaa48fbe7e3"),
    ("finite-expectation --lengths 2 --alpha 2 --u 2 --v 1 --d 5",
     "e5c15d3de7a8c8bff2e4f9b77d606f7fc350044dfa190ae1cde62614eccb30a7"),
    ("clt --cov 2 2 --g 0 --v 1",
     "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de"),
    ("afp --cov 4 4 --g 1/2 --v 1 --vkl '{\"2,2\": \"1/3\"}'",
     "ac651af1c78e5d7e069e56688c769b203182cba875ee2009c46db3e8665cc038"),
    ("bessel-zeros --g -1/4 -n 3",
     "5ae4834cd56ff4d43de03e2531a40e0ff8c5c3c86d284ba0be1d64c69e34f5d7"),
    ("limit-shape --g -1/4 --n-steps 8 --csv shape.csv --svg shape.svg",
     "b0efbbc43054beee753cd10fab49ea0fe2fabdba420e72d0ba74fe2a0222dbf9"),
    ("sample --ensemble plancherel --alpha 1/100 --d 1600 --n 200 --seed 1 "
     "--method growth --out samples.jsonl",
     "b0efbbc43054beee753cd10fab49ea0fe2fabdba420e72d0ba74fe2a0222dbf9"),
    ("render --partition 4,3,1,1 --w 2 --h 1/2 --svg diagram.svg",
     "b0efbbc43054beee753cd10fab49ea0fe2fabdba420e72d0ba74fe2a0222dbf9"),
    # growth draws on stdout
    ("sample --method growth --alpha 1/100 --d 1600 --n 6 --seed 11",
     "7628a351c1e95f17caf4a005caca5d5573b318072a62c62a15ea401911d6064d"),
    # a config file, in each spelling of the option
    ("--config conf.json moments --ell 4 --plancherel",
     "1428c79ee9c7df8fb2e1869c4ddde9e35bf04b4c503ece747e7d71e1c53eaec7"),
    ("--config=conf.json sample --d 4 --seed 3",
     "e9426b7734b354f5951f68761ba905686ef15758c41d822c80d4cd772deff47e"),
    ("--conf conf.json moments --ell 4 --plancherel",
     "1428c79ee9c7df8fb2e1869c4ddde9e35bf04b4c503ece747e7d71e1c53eaec7"),
    # usage errors of the top-level parser and of a subcommand's
    ("--config -x moments --ell 4",
     "2a8c1d5e5b2303165ee23f484b824dc312c88237c3a360bce70d0cefe685dded"),
    ("--config",
     "2a8c1d5e5b2303165ee23f484b824dc312c88237c3a360bce70d0cefe685dded"),
    ("--config conf.json",
     "36b4aa6188612c27705a35508b1bd0eed767780751e5a5fe178cb20343ee628d"),
    ("moments --ell 4 --config conf.json",
     "1a2263d6bbdc52c957f2187a5e4807a7d6c377e35032151dd8ac041c86064f0c"),
    ("moments --ell 4 --=x",
     "9214e92086d81f65dd1de7ffe954e07dab8d0bcebd1362d935eda7cbebf61c73"),
    ("moments --ell 4 extra",
     "fc6bdb27c4783f1bb387b124330e736fe486d91fba8254fcedfff68fac39fa93"),
    ("nosuch",
     "9da2438059305f460b64958f91a8850ca2331bda88bed37c9c3d8ffa0c2ba946"),
    ("",
     "36b4aa6188612c27705a35508b1bd0eed767780751e5a5fe178cb20343ee628d"),
    ("moments --ell x",
     "5e9503f93a5d19f897d2585156fc54de0dbcf656fddb5f9965a2f0f6712a20e0"),
    ("moments",
     "42a1e60c14a4c39faeb3679eaab7a5daa9f5133691ab93a014e7401118cb60de"),
    # help
    ("-h",
     "708eaf06824af9d2881478f5939e7b161753b18bd0b3593ce53669a8d33f36ef"),
    ("moments --help",
     "589b8d6e2e1d6f4670333d9bb773f925a2f9980f981f91e294738ef1f883193e"),
    ("verify --help",
     "40af1ee6995a3d22d5dbcf85f1ae6d2a588ce6a8d0e5fd163ffb12b6f3257580"),
]


def _call(argv, capsys):
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("line, digest", PINNED_CALLS,
                         ids=[line or "(no arguments)" for line, _ in PINNED_CALLS])
def test_cli_calls_are_pinned(line, digest, tmp_path: Path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    (tmp_path / "conf.json").write_text(json.dumps(PINNED_CONFIG))
    code, out, err = _call(shlex.split(line), capsys)
    out = re.sub(r" +\d+\.\d\ds  ", "  ", out)
    blob = f"{code}\0{out}\0{err}".encode()
    assert hashlib.sha256(blob).hexdigest() == digest, (code, out, err)


def test_pinned_calls_cover_the_readme():
    pinned = {tuple(shlex.split(line)) for line, _ in PINNED_CALLS}
    assert {tuple(words[1:]) for words in _readme_commands()} <= pinned


def test_importing_the_package_builds_no_parser():
    # the parser's first use imports locale (through gettext); a benchmark
    # worker imports these modules as set-up, so a parser built at import
    # would move its cost out of the timed call
    code = ("import argparse, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import jackpaths, jackpaths.cli, jackpaths.sampler, jackpaths.verify\n"
            "print('locale' in sys.modules, len(built))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=CHILD_ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "0"]
    # the check can see both: a parser imports locale and is counted
    out = subprocess.run([sys.executable, "-c", code.replace(
        "import jackpaths,", "jackpaths = __import__('jackpaths.cli').cli."
        "build_parser(); import jackpaths,")], capture_output=True, text=True,
        env=CHILD_ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[0] == "True" and int(out.stdout.split()[1]) > 0


def test_a_call_builds_only_the_subcommand_it_names(tmp_path: Path, monkeypatch,
                                                    capsys):
    built = []
    real = cli._parser

    def spy(names):
        parser = real(names)
        built.append(sorted(parser.subcommands))
        return parser

    monkeypatch.setattr(cli, "_parser", spy)
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"g": "1/2"}))
    for argv in (["moments", "--ell", "4"], ["--config", str(cfg), "moments", "--ell", "4"],
                 [f"--config={cfg}", "moments", "--ell", "4"]):
        built.clear()
        assert cli.main(argv) == 0
        assert built == [["moments"]]
    everything = sorted(cli._COMMANDS)
    assert len(everything) == 9
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert built == [everything]
    built.clear()
    assert cli.main(["--conf", str(cfg), "moments", "--ell", "4"]) == 0
    assert built == [everything]
    # a usage error of the top level is reported by the full parser
    built.clear()
    with pytest.raises(SystemExit):
        cli.main(["moments", "--ell", "4", "extra"])
    assert built == [["moments"], everything]
    capsys.readouterr()
