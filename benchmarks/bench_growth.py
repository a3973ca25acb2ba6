"""Benchmark the growth-chain kernel: the numba-compiled backend vs the same
kernel source run as plain Python (the one selected by JACKPATHS_NO_NUMBA=1),
on identical seeds.

Usage: python benchmarks/bench_growth.py [--d 1600] [--draws 50] [--alpha 1/100]
"""

import argparse
import time
from fractions import Fraction

import jackpaths._kernels as kernels
from jackpaths.rng import substream_seed


def bench(backend, d, alpha, draws, seed):
    # warm-up draw so numba's compile time is not billed to the loop
    kernels.growth_draw_parts(min(d, 64), alpha, 1, backend=backend)
    first_rows = []
    t0 = time.perf_counter()
    for i in range(draws):
        parts = kernels.growth_draw_parts(d, alpha, substream_seed(seed, i),
                                          backend=backend)
        first_rows.append(parts[0])
    elapsed = time.perf_counter() - t0
    return elapsed, first_rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--d", type=int, default=1600)
    ap.add_argument("--draws", type=int, default=50)
    ap.add_argument("--alpha", default="1/100")
    ap.add_argument("--seed", type=int, default=20260809)
    args = ap.parse_args()
    alpha = float(Fraction(args.alpha))

    results = {}
    backends = ["python"] + (["numba"] if kernels.HAVE_NUMBA else [])
    if not kernels.HAVE_NUMBA:
        print("numba unavailable (or disabled via JACKPATHS_NO_NUMBA); "
              "benchmarking the python backend only")
    for backend in backends:
        elapsed, rows = bench(backend, args.d, alpha, args.draws, args.seed)
        mean_row = sum(rows) / len(rows)
        results[backend] = (elapsed, mean_row)
        print(f"{backend:>6}: {elapsed:8.3f}s for {args.draws} draws at "
              f"d={args.d}  ({1e3 * elapsed / args.draws:7.2f} ms/draw), "
              f"mean first row {mean_row:.2f}")
    if len(results) == 2:
        speedup = results["python"][0] / results["numba"][0]
        drift = abs(results["python"][1] - results["numba"][1])
        print(f"numba speedup: {speedup:.1f}x; "
              f"mean-first-row drift between backends: {drift:.3f}")


if __name__ == "__main__":
    main()
