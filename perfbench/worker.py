"""One repetition of one workload in a fresh interpreter.

Reads a JSON spec on stdin, does the set-up every user of the package pays
(import, the exact growth-law validation, numba compilation where numba is
present), runs the workload's operations and prints one JSON line with the
time set-up ended, the repetition's wall and CPU time, peak memory, the
operation counts, a machine-speed probe timed before and after the
operations and, when traced, the per-layer metrics.

Run by run.py; by hand: echo '{"workload": "limits", "inputs": {...}}' |
PYTHONPATH=src python3 perfbench/worker.py
"""

import json
import os
import resource
import shutil
import sys
import tempfile
import time


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def speed_probe() -> float:
    """Seconds for a fixed piece of pure-Python rational arithmetic, the kind
    of work that dominates the package.  It does not depend on the program,
    so it measures how fast the machine runs at the moment."""
    from fractions import Fraction

    t0 = time.monotonic()
    acc = Fraction(0)
    for i in range(1, 40000):
        acc += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
    return time.monotonic() - t0


def import_package():
    """Import every module the workloads use; the first part of set-up."""
    import jackpaths  # noqa: F401
    from jackpaths import _kernels, cli, sampler, serialize, verify  # noqa: F401


def setup():
    """The rest of the set-up a user pays on every run."""
    from jackpaths import _kernels, sampler

    if not sampler.validate_growth():
        raise RuntimeError("growth chain failed its exact validation")
    if _kernels.HAVE_NUMBA:
        _kernels.growth_draw_parts(16, 1.0, 1)  # compile the kernel


def environment(root: str) -> dict:
    import importlib.util
    import platform

    from jackpaths import _kernels

    return {"python": platform.python_version(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "growth_backend": "numba" if _kernels.HAVE_NUMBA else "numpy",
            "jackpaths_file": os.path.relpath(sys.modules["jackpaths"].__file__, root)}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    root = spec["root"]
    trace = spec.get("trace", False)
    setup_tracer = None
    import_package()
    if trace:
        import layers
        from tracer import Tracer

        setup_tracer = Tracer()
        setup_tracer.install(layers.targets(), layers.PACKAGE)
        try:
            with setup_tracer.span("setup", op=True):
                setup()
        finally:
            setup_tracer.uninstall()
    else:
        setup()
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "env": environment(root)}
    probe = speed_probe()

    import layers
    import ops

    with open(os.path.join(os.path.dirname(__file__), "reference.json")) as fh:
        reference = json.load(fh)["values"]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(layers.targets(), layers.PACKAGE)
        cache_before = layers.cache_counters()
    session = ops.Session(spec["workload"], reference, tracer=tracer)
    workdir = tempfile.mkdtemp(prefix="rep-", dir=spec["scratch"])
    try:
        cpu0 = _cpu_s()
        t0 = time.monotonic()
        ops.RUNNERS[spec["workload"]](session, spec["inputs"], workdir)
        wall = time.monotonic() - t0
        cpu = _cpu_s() - cpu0
        probe = (probe + speed_probe()) / 2
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(wall_s=wall, cpu_s=cpu, probe_s=probe,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  attempted=session.attempted, failed=session.failed,
                  errors=session.errors[:20])
    result["env"].update(session.env)
    if tracer is not None:
        metrics = layers.per_layer_metrics(tracer, cache_before, layers.cache_counters(),
                                           wall, cpu)
        validate = setup_tracer.by_name.get("sampler.validate_growth", (0, 0.0, 0.0))
        metrics["sampler.validate_growth.self_s"] = (validate[2], "s")
        metrics["sampler.validate_growth.total_s"] = (validate[1], "s")
        result["layers"] = metrics
        result["table"] = layers.self_time_table(tracer, wall)
        if spec.get("spans_path"):
            setup_tracer.write_spans(spec["spans_path"], phase="setup")
            tracer.write_spans(spec["spans_path"], phase="rep", append=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
