import json
import subprocess
import sys
from pathlib import Path

import pytest

import jackpaths
from jackpaths import _kernels, cli


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "jackpaths.cli", *argv],
                          capture_output=True, text=True)


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


def test_python_dash_m_runs_the_cli():
    out = subprocess.run([sys.executable, "-m", "jackpaths", "moments", "--ell",
                          "4", "--g", "1/2", "--plancherel"],
                         capture_output=True, text=True)
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


FINITE_ARGS = ["finite-expectation", "--lengths", "3"]


def test_finite_expectation_negative_d_exits_2(capsys):
    assert cli.main(FINITE_ARGS + ["--alpha", "2", "--u", "3", "--d", "-1"]) == 2
    assert "d must be a nonnegative integer" in capsys.readouterr().err


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


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bessel_zeros_bad_tol_exits_2(tol):
    out = subprocess.run([sys.executable, "-m", "jackpaths.cli", "bessel-zeros",
                          "--g", "-1/4", "-n", "1", "--tol", tol],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "tol must be finite and positive" in out.stderr
    assert out.stdout == ""


def test_usage_errors_exit_2():
    out = run_cli("moments", "--ell", "4", "--g", "nonsense")
    assert out.returncode == 2
    out2 = run_cli("clt", "--g", "1/2")  # neither --mean nor --cov
    assert out2.returncode == 2


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
    out = run_cli("sample", "--d", "3", "--backend", "python")
    assert out.returncode == 2 and "growth method only" in out.stderr


def test_growth_header_records_provenance(tmp_path: Path):
    out_file = tmp_path / "g.jsonl"
    out = run_cli("sample", "--method", "growth", "--alpha", "1/2", "--d", "30",
                  "--n", "2", "--out", str(out_file))
    assert out.returncode == 0
    header = json.loads(out_file.read_text().splitlines()[0])
    assert header["backend"] == ("numba" if _kernels.HAVE_NUMBA else "python")
    assert header["numba_available"] is _kernels.HAVE_NUMBA
    assert header["growth_validated"] is True
    assert header["version"] == jackpaths.__version__
    exact_file = tmp_path / "e.jsonl"
    out = run_cli("sample", "--d", "3", "--out", str(exact_file))
    assert out.returncode == 0
    header = json.loads(exact_file.read_text().splitlines()[0])
    assert header["backend"] is None and header["growth_validated"] is None
    assert header["version"] == jackpaths.__version__


@pytest.mark.skipif(_kernels.HAVE_NUMBA, reason="numba is available here")
def test_unavailable_numba_backend_exits_2():
    out = run_cli("sample", "--method", "growth", "--d", "5", "--backend", "numba")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr


def test_parsers_keep_their_own_subcommands(tmp_path: Path, capsys):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"g": "1/2", "plancherel": True}))
    first, second = cli.build_parser(), cli.build_parser()
    assert first.subcommands["moments"] is not second.subcommands["moments"]
    argv = ["--config", str(cfg), "moments", "--ell", "4"]
    for parser in (first, second, first):
        assert cli.main(argv, parser=parser) == 0
        assert capsys.readouterr().out.strip() == "9/4"
    # an explicit flag still beats the config on a parser used before
    assert cli.main(argv + ["--g=0"], parser=second) == 0
    assert capsys.readouterr().out.strip() == "2"
