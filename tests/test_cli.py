import json
import subprocess
import sys
from pathlib import Path


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


def test_missing_ensemble_key_exits_2():
    out = run_cli("sample", "--ensemble", "thoma", "--d", "3", "--u", "1")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "'v'" in out.stderr


def test_negative_sample_count_exits_2():
    out = run_cli("sample", "--d", "3", "--n", "-3")
    assert out.returncode == 2
