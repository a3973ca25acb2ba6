"""Tests of the benchmark itself: run with
``python3 -m pytest perfbench/tests -q`` from the repository root."""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jackpaths  # noqa: E402
from jackpaths import cli, paths, polynomials, sampler, serialize, verify  # noqa: E402,F401

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bindings():
    """Every module attribute and class attribute of the package, by id."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "jackpaths" or name.startswith("jackpaths.")):
            continue
        for attr, value in list(vars(mod).items()):
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    out[(name, attr, cattr)] = id(cvalue)
    return out


def test_uninstall_restores_every_wrapped_function():
    before = _bindings()
    tracer = Tracer()
    tracer.install(layers.targets(), layers.PACKAGE)
    try:
        # wrapped where defined, where imported by name, and under aliases
        assert getattr(jackpaths.partitions.j_alpha, "__traced__", False)
        assert getattr(verify.j_alpha, "__traced__", False)
        assert getattr(jackpaths.j_alpha, "__traced__", False)
        assert getattr(polynomials.Poly.__radd__, "__traced__", False)
        assert _bindings() != before
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert not hasattr(jackpaths.partitions.j_alpha, "__traced__")


def test_self_times_add_up_and_spans_have_parents():
    paths.limit_moment_poly.cache_clear()
    tracer = Tracer()
    tracer.install(layers.targets(), layers.PACKAGE)
    try:
        with tracer.span("op", op=True):
            paths.finite_expectation((3, 2), Fraction(2), Fraction(3), [1, Fraction(1, 2)])
            paths.limit_moment_poly(5)
    finally:
        tracer.uninstall()
    (op_span,) = [s for s in tracer.spans if s[1] == "op"]
    assert sum(tracer.layer_self.values()) == pytest.approx(op_span[5] - op_span[4],
                                                            abs=1e-9)
    kept = {s[0] for s in tracer.spans}
    assert all(s[2] == 0 or s[2] in kept for s in tracer.spans)
    assert all(parent in kept for parent, _, _ in tracer.aggregates)
    assert tracer.by_name["paths.finite_expectation"][0] == 1
    assert tracer.by_name["polynomials.mul"][0] > 0


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counters = layers.cache_counters()
    names = set(layers.per_layer_metrics(Tracer(), counters, counters, 1.0, 1.0))
    names |= {"sampler.validate_growth.self_s", "sampler.validate_growth.total_s",
              "trace.overhead_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_measure_stops_when_repetitions_keep_failing(monkeypatch):
    def spawn_failing_traced(spec):
        if spec["trace"]:
            return {"error": "traced repetition failed"}
        return {"attempted": 2, "failed": 0, "errors": [], "total_s": 0.01}

    monkeypatch.setattr(run, "spawn", spawn_failing_traced)
    m = run.measure("limits", 1, {}, seconds=3600, trace=True)
    assert len(m["plain"]) == 1 and not m["traced"]
    assert len(m["errors"]) == run.MAX_ERRORS_IN_ROW

    calls = []

    def spawn_slow_every_other_fails(spec):
        calls.append(spec)
        time.sleep(0.1)
        if len(calls) % 2:
            return {"attempted": 2, "failed": 0, "errors": [], "total_s": 0.1}
        return {"error": "repetition failed"}

    monkeypatch.setattr(run, "spawn", spawn_slow_every_other_fails)
    m = run.measure("limits", 1, {}, seconds=0.25, trace=False)
    assert len(m["plain"]) < run.MIN_REPS and m["elapsed_s"] < 1


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 7) == workloads.make_inputs(w, 7)
    seeds = {json.dumps(workloads.make_inputs("growth", s)) for s in range(5)}
    assert len(seeds) == 5


def test_smoke_runs_every_workload_with_checks():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for w in workloads.WORKLOADS:
        assert f"smoke {w:<10} trace=1 ok" in proc.stdout


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_reports_regressions_and_unresolved(tmp_path, capsys):
    def record(wall, setup):
        return {"workload": "growth", "metrics": {"wall_s": wall, "setup_s": setup,
                                                  "peak_rss_mb": 40.0}}

    old = tmp_path / "old.jsonl"
    new = tmp_path / "new.jsonl"
    old.write_text("".join(json.dumps(record(w, s)) + "\n" for w, s in
                           ((1.00, 0.40), (1.01, 0.41), (0.99, 0.30), (1.00, 0.50))))
    new.write_text("".join(json.dumps(record(w, s)) + "\n" for w, s in
                           ((1.50, 0.40), (1.52, 0.41), (1.49, 0.30), (1.51, 0.50))))
    assert run.compare(str(old), str(new)) == 1
    out = capsys.readouterr().out
    assert "wall_s" in out and "REGRESSED" in out
    assert "peak_rss_mb" in out and "within bound" in out
    assert "setup_s" in out and "unresolved" in out
