"""The jackpaths benchmark: one command that runs a workload, checks every
output and prints every metric by name and unit.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --compare before.jsonl after.jsonl
    python3 perfbench/run.py --write-reference

Run it from the root of a source checkout; it imports jackpaths from src/.

Load model: closed loop, one client, one process, one thread.  Each timed
repetition runs in a fresh interpreter, because every CLI call and every
verify run starts with cold module caches; caches fill as the repetition
runs.  Repetitions repeat until --seconds have passed (at least three if the
time allows), and the run reports medians:

- setup_s: interpreter start until the first operation can begin (import,
  the exact growth-law validation, numba compilation where present), the
  median over every untraced repetition;
- wall_s: wall seconds of one repetition's operations and checks;
- peak_rss_mb: peak resident memory of a repetition's process.

On a shared host the speed of the machine drifts by 20% and more within
minutes, which swamps the differences a change to the program makes.  So
each repetition also times two probes that do not depend on the program,
and each sample is scaled to the speed at which its probe takes a reference
time: wall_s by a fixed piece of pure-Python rational arithmetic
(worker.speed_probe, REF_PROBE_S), and setup_s by a fixed set of
standard-library imports in a fresh interpreter started just before the
repetition (IMPORT_PROBE, REF_IMPORT_PROBE_S).  Set-up is loading code, not
arithmetic, and its speed drifts apart from the arithmetic's.  The raw
times are printed and kept in the result file as raw_setup_s and
raw_wall_s.

fail_ratio (wrong or raising operations over attempted ones) is printed
with the other metrics and carried by "failed" and "attempted" in the last
line; it is not a gated metric, because it is 0 on a correct program.

With --trace 1 the run alternates untraced and traced repetitions.  The
traced ones wrap the program's functions (see layers.py), report the
per-layer metrics as medians over traced repetitions, print a self-time
table and write their spans to perfbench/out/spans/.  trace.overhead_s is
the median traced wall time minus the median untraced one, both at the
reference machine speed.

Every run appends a record (samples, metrics, environment) to
perfbench/out/results.jsonl; --compare reads two such files.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

MIN_REPS = 3          # untraced repetitions per run, unless the time runs out
MAX_ERRORS_IN_ROW = 3
REP_TIMEOUT_S = 150
# The speed probe's duration at the reference speed, close to its median on
# a 2-vCPU 2.1 GHz VM; setup_s and wall_s are reported at that speed.
REF_PROBE_S = 0.25
# Program-independent set-up work: start an interpreter and load modules;
# REF_IMPORT_PROBE_S is close to its median on the same VM.
IMPORT_PROBE = ("import argparse, asyncio, csv, decimal, email.parser, fractions, "
                "http.client, json, logging.handlers, sqlite3, unittest, xml.dom.minidom")
REF_IMPORT_PROBE_S = 0.15


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def source_present() -> bool:
    return (ROOT / "src" / "jackpaths" / "__init__.py").is_file()


# --- repetitions ---------------------------------------------------------------

def spawn(spec: dict) -> dict:
    """Time the import probe, then run one worker interpreter; returns its
    result with setup_s, total_s and import_probe_s added, or {"error": ...}."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spec = {"root": str(ROOT), "scratch": str(OUT / "tmp"), **spec}
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    # no timeout: with one, wait() polls and rounds the time to 50 ms steps
    subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE], check=True)
    import_probe_s = time.monotonic() - t0
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], cwd=ROOT,
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"repetition exceeded {REP_TIMEOUT_S} s"}
    t1 = time.monotonic()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {err.strip()[-1500:]}"}
    result = json.loads(lines[-1])
    if "t_ready" in result:
        result["setup_s"] = result["t_ready"] - t0
    result["total_s"] = t1 - t0
    result["import_probe_s"] = import_probe_s
    return result


def measure(workload: str, seed: int, inputs: dict, seconds: float, trace: bool) -> dict:
    """Repeat the workload until ``seconds`` pass; collect every sample.  The
    loop also ends at the deadline when too few repetitions succeeded, and
    after MAX_ERRORS_IN_ROW failed repetitions in a row."""
    start = time.monotonic()
    deadline = start + seconds
    plain, traced, errors = [], [], []
    attempted = failed = 0
    ops_per_rep = 1
    errors_in_row = 0
    while True:
        want_traced = trace and len(traced) < len(plain)
        spec = {"workload": workload, "inputs": inputs, "trace": want_traced}
        if want_traced:
            spans = OUT / "spans" / f"{workload}-seed{seed}-rep{len(traced)}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spec["spans_path"] = str(spans)
        res = spawn(spec)
        if "error" in res:
            attempted += ops_per_rep
            failed += ops_per_rep
            errors.append(res["error"])
            errors_in_row += 1
        else:
            ops_per_rep = res["attempted"]
            attempted += res["attempted"]
            failed += res["failed"]
            errors += res["errors"]
            errors_in_row = 0
            (traced if want_traced else plain).append(res)
        done = len(plain) >= (1 if trace else MIN_REPS) and (
            not trace or len(traced) >= 1)
        reps = plain + traced
        typical = statistics.median(r["total_s"] for r in reps) if reps else 0.0
        now = time.monotonic()
        if errors_in_row >= MAX_ERRORS_IN_ROW or now >= deadline:
            break
        if done and now + typical > deadline:
            break
    return {"plain": plain, "traced": traced, "errors": errors,
            "attempted": attempted, "failed": failed,
            "elapsed_s": time.monotonic() - start}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def scaled(reps, key):
    """Each repetition's ``key`` time at the reference machine speed."""
    if key == "setup_s":
        return [r[key] * REF_IMPORT_PROBE_S / r["import_probe_s"] for r in reps]
    return [r[key] * REF_PROBE_S / r["probe_s"] for r in reps]


def samples(m: dict) -> dict:
    """Every end-to-end sample of a run, raw and at reference speed."""
    return {"setup_s": scaled(m["plain"], "setup_s"),
            "wall_s": scaled(m["plain"], "wall_s"),
            "peak_rss_mb": [r["peak_rss_mb"] for r in m["plain"]],
            "raw_setup_s": [r["setup_s"] for r in m["plain"]],
            "raw_wall_s": [r["wall_s"] for r in m["plain"]],
            "probe_s": [r["probe_s"] for r in m["plain"]],
            "import_probe_s": [r["import_probe_s"] for r in m["plain"]],
            "traced_wall_s": [r["wall_s"] for r in m["traced"]]}


def summarize(m: dict, trace: bool) -> dict:
    """{metric: value} for the run: end-to-end medians, or with tracing the
    per-layer medians over traced repetitions."""
    if not trace:
        return {name: statistics.median(vals) for name, vals in samples(m).items()
                if name in ("setup_s", "wall_s", "peak_rss_mb")}
    out = {name: statistics.median(r["layers"][name][0] for r in m["traced"])
           for name in m["traced"][0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(scaled(m["traced"], "wall_s"))
                               - statistics.median(scaled(m["plain"], "wall_s")))
    return out


def environment(first_rep: dict) -> dict:
    env = dict(first_rep.get("env", {}))
    env["nproc"] = len(os.sched_getaffinity(0))
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        env["git_commit"] = proc.stdout.strip() or None
    env["src_lines"] = sum(len(p.read_text().splitlines())
                           for p in sorted((ROOT / "src").rglob("*.py")))
    return env


def print_report(workload, seed, m, values, trace, units):
    reps = len(m["plain"]) + len(m["traced"])
    print(f"workload {workload}  seed {seed}  {reps} repetitions "
          f"({len(m['traced'])} traced), "
          f"{m['elapsed_s']:.1f} s")
    if not trace:
        for name, vals in samples(m).items():
            if not vals:
                continue
            q1, q3 = quartiles(vals)
            print(f"  {name:<13} {statistics.median(vals):12.4f} "
                  f"{units.get(name.removeprefix('raw_'), 's'):<6} median of "
                  f"{len(vals)}, quartiles {q1:.4f} .. {q3:.4f}")
    ratio = m["failed"] / m["attempted"] if m["attempted"] else 1.0
    print(f"  {'fail_ratio':<12} {ratio:12.4f} {'':<6} "
          f"{m['failed']} of {m['attempted']} operations failed")
    for err in m["errors"][:10]:
        print(f"    error: {err}")
    if trace and m["traced"]:
        rep = m["traced"][0]
        print(f"  wall at reference speed: traced "
              f"{statistics.median(scaled(m['traced'], 'wall_s')):.3f} s, untraced "
              f"{statistics.median(scaled(m['plain'], 'wall_s')):.3f} s, overhead "
              f"{values['trace.overhead_s']:+.3f} s")
        print(f"  self time by layer and span, first traced repetition "
              f"(wall {rep['wall_s']:.3f} s):")
        for kind, name, secs, share in rep["table"]:
            print(f"    {kind:<5} {name:<40} {secs:9.4f} s {100 * share:6.1f} %")
        print(f"    sum of layer self times {sum(r[2] for r in rep['table'] if r[0] == 'layer'):.4f} s")
        for name, value in sorted(values.items()):
            print(f"  {name:<44} {value:14.6g} {units.get(name, '')}")


def run(args) -> int:
    spec = load_spec()
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {x["name"]: x["unit"] for x in spec["end_to_end"] + spec["per_layer"]}
    inputs = workloads.make_inputs(args.workload, args.seed)
    m = measure(args.workload, args.seed, inputs, args.seconds, trace)
    ok_reps = m["traced"] if trace else m["plain"]
    if not ok_reps or not m["plain"]:
        print(f"no repetition of {args.workload} completed", file=sys.stderr)
        for err in m["errors"][:5]:
            print(f"  {err}", file=sys.stderr)
        return 1
    values = summarize(m, trace)
    missing = [x["name"] for x in wanted if x["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    print_report(args.workload, args.seed, m, values, trace, units)
    correct = m["failed"] == 0
    record = {"workload": args.workload, "seed": args.seed, "trace": int(trace),
              "seconds": args.seconds,
              "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
              "env": environment(ok_reps[0]), "inputs": inputs,
              "samples": samples(m),
              "metrics": values, "attempted": m["attempted"], "failed": m["failed"],
              "correct": correct, "errors": m["errors"][:20]}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": m["attempted"],
                      "failed": m["failed"],
                      "metrics": {x["name"]: {"value": values[x["name"]], "unit": x["unit"]}
                                  for x in wanted}}))
    return 0 if correct else 1


# --- compare -------------------------------------------------------------------

def load_runs(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verdict(old, new, better, bound):
    """Per the benchmark's rule: a metric whose run-to-run spread exceeds its
    bound on either side is unresolved, unless every new run beats every
    old one; otherwise it regressed if the median got worse by more than
    the bound."""
    if bound is None:
        return "no bound"
    if len(old) < 2 or len(new) < 2:
        return "unresolved (fewer than 2 runs)"
    sign = 1 if better == "lower" else -1
    o_med, n_med = statistics.median(old), statistics.median(new)
    worse = sign * (n_med - o_med) / o_med if o_med else 0.0
    spread = max(((quartiles(v)[1] - quartiles(v)[0]) / statistics.median(v)
                  for v in (old, new) if statistics.median(v)), default=0.0)
    all_better = all(sign * (n - o) < 0 for n in new for o in old)
    if spread > bound and not all_better:
        return "unresolved (spread above bound)"
    if worse > bound:
        return "REGRESSED"
    return "better" if all_better else "within bound"


def compare(old_path: str, new_path: str) -> int:
    spec = load_spec()
    metrics = ([(x["name"], x["unit"], x["better"], x["bound"]) for x in spec["end_to_end"]]
               + [(x["name"], x["unit"], x["better"], None) for x in spec["per_layer"]])
    old, new = load_runs(old_path), load_runs(new_path)
    regressed = False
    for workload in workloads.WORKLOADS:
        print(f"== {workload}")
        for name, unit, better, bound in metrics:
            a = [r["metrics"][name] for r in old
                 if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name] for r in new
                 if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            v = verdict(a, b, better, bound)
            regressed |= v == "REGRESSED"
            am, bm = statistics.median(a), statistics.median(b)
            (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
            delta = (bm - am) / am if am else float("nan")
            limit = f"bound {bound:.0%}" if bound is not None else ""
            print(f"  {name:<40} {unit:<6} old {am:.6g} [{a1:.6g}, {a3:.6g}] n={len(a)}"
                  f"  new {bm:.6g} [{b1:.6g}, {b3:.6g}] n={len(b)}"
                  f"  delta {delta:+.1%} {limit}  {v}")
    return 1 if regressed else 0


# --- smoke and reference ---------------------------------------------------------

def smoke() -> int:
    """Every workload once at tiny sizes, untraced and traced, all checks on.
    Every per-layer metric must read non-zero on at least one workload, so a
    renamed function or a mistyped span name does not pass as a steady 0.
    Exempt are trace.overhead_s, which only a full run measures, and
    sampler.dyadic_extensions, which is 0 unless a draw falls within 2^-128
    of a cumulative mass; its numerator is a wrapped method (install fails
    if that is gone) and its denominator is sampler.exact_sample.calls."""
    per_layer = {x["name"] for x in load_spec()["per_layer"]} - {
        "trace.overhead_s", "sampler.dyadic_extensions"}
    seen = set()
    ok = True
    for workload in workloads.WORKLOADS:
        inputs = workloads.make_inputs(workload, 0, size="smoke")
        for trace in (False, True):
            spans = OUT / "spans" / f"smoke-{workload}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            res = spawn({"workload": workload, "inputs": inputs, "trace": trace,
                         "spans_path": str(spans)})
            problems = [res["error"]] if "error" in res else list(res["errors"])
            if "error" not in res:
                if res["failed"] or not res["attempted"]:
                    problems.append(f"{res['failed']} of {res['attempted']} failed")
                if trace:
                    seen |= {name for name, (value, _) in res["layers"].items() if value}
            ok &= not problems
            print(f"smoke {workload:<10} trace={int(trace)} "
                  f"{'ok' if not problems else 'FAILED'}"
                  + ("" if "error" in res else
                     f"  {res['attempted']} ops, wall {res['wall_s']:.3f} s"))
            for p in problems:
                print(f"  {p}")
    if per_layer - seen:
        ok = False
        print(f"per-layer metrics 0 on every workload: {sorted(per_layer - seen)}")
    return 0 if ok else 1


def write_reference() -> int:
    """Recompute reference.json: digests of every exact output for every
    pool entry of every workload, at both sizes."""
    sys.path.insert(0, str(ROOT / "src"))
    import ops

    values = {}
    for workload in workloads.WORKLOADS:
        for size in workloads.SIZES:
            for inputs in workloads.reference_inputs(workload, size):
                session = ops.Session(workload, {}, record=values)
                with tempfile.TemporaryDirectory(dir=OUT) as workdir:
                    ops.RUNNERS[workload](session, inputs, workdir)
                if session.failed:
                    print("\n".join(session.errors), file=sys.stderr)
                    return 1
                print(f"{workload} {size}: {session.attempted} ops recorded")
    commit = environment({}).get("git_commit")
    with open(BENCH / "reference.json", "w") as fh:
        json.dump({"commit": commit, "values": values}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not source_present():
        print(f"error: no jackpaths source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
