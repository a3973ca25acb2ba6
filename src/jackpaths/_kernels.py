"""The corner-growth kernel of the large-scale sampler.

The growth chain is the only runtime-dominant inner loop in the package.
Its kernel is written once, as plain loops over indexable buffers: when
numba can be imported, ``numba.njit`` compiles that source over numpy
arrays (backend "numba"); otherwise, or with JACKPATHS_NO_NUMBA=1, the same
source runs as Python over lists (backend "python").  Both backends consume
the same counter-based uniform stream and perform the same float operations
in the same order.  numpy is imported only on the numba path.

The per-state corner masses are one helper, :func:`_corner_masses`, called
by the draw loop and exposed through :func:`corner_masses` so that the
exact-law validation checks the arithmetic that the draws use.
"""

from __future__ import annotations

import math
import os

from .rng import _MIX1, _MIX2, GAMMA, stream_word

INV53 = 2.0 ** -53


def numba_disabled_by_env() -> bool:
    return os.environ.get("JACKPATHS_NO_NUMBA", "").lower() in ("1", "true", "yes")


def _try_numba():
    if numba_disabled_by_env():
        return None
    try:
        import numba
    except ImportError:
        return None
    return numba


def state_capacity(d: int) -> int:
    """Distinct part values of a partition of d are distinct positive
    integers summing to at most d, so there are at most ~sqrt(2d) of them."""
    return int(math.isqrt(2 * d)) + 3


# ---------------------------------------------------------------------------
# The kernel source (plain loops; compiled by numba or run as Python)
# ---------------------------------------------------------------------------


def _corners(alpha, vals, cnts, m, xs, ys):
    """Profile corners of the state with m groups (descending part values
    vals, multiplicities cnts) at width alpha: minima xs[0..m] and maxima
    ys[0..m-1], descending."""
    rows = 0
    for k in range(m):
        xs[k] = alpha * vals[k] - rows
        rows += cnts[k]
        ys[k] = alpha * vals[k] - rows
    xs[m] = -float(rows)


def _corner_masses(m, xs, ys, ms):
    """Unnormalised transition masses of the m + 1 addable corners into
    ms[0..m]; returns their sum.  Corner i is the minimum xs[i]."""
    total = 0.0
    for i in range(m + 1):
        xi = xs[i]
        val = 1.0
        # ordered-ratio product: every factor lies in (0, 1]
        for j in range(i):
            val *= (xi - ys[j]) / (xi - xs[j])
        for j in range(i + 1, m + 1):
            val *= (xi - ys[j - 1]) / (xi - xs[j])
        ms[i] = val
        total += val
    return total


def _uniform(seed, counter):
    """Uniform double in [0, 1) from word #counter of the seed's stream."""
    return (stream_word(seed, counter) >> 11) * INV53


def _make_draw(corners, corner_masses, uniform):
    """The draw loop over the given helpers (closure variables, so numba
    can compile the loop against its own compiled helpers)."""

    def growth_draw(d, alpha, seed, vals, cnts, xs, ys, ms):
        """Grow d boxes from the empty diagram; the state is left in
        vals/cnts and the number of groups is returned."""
        m = 0
        counter = 0
        for _ in range(d):
            pick = 0
            if m > 0:
                corners(alpha, vals, cnts, m, xs, ys)
                total = corner_masses(m, xs, ys, ms)
                u = uniform(seed, counter)
                counter += 1
                acc = 0.0
                pick = m
                for i in range(m + 1):
                    acc += ms[i] / total
                    if u < acc:
                        pick = i
                        break
            # apply growth at the picked corner (pick == m: a new bottom row)
            if pick == m:
                if m > 0 and vals[m - 1] == 1:
                    cnts[m - 1] += 1
                else:
                    vals[m] = 1
                    cnts[m] = 1
                    m += 1
            else:
                v = vals[pick]
                if pick > 0 and vals[pick - 1] == v + 1:
                    cnts[pick - 1] += 1
                    cnts[pick] -= 1
                    if cnts[pick] == 0:
                        for j in range(pick, m - 1):
                            vals[j] = vals[j + 1]
                            cnts[j] = cnts[j + 1]
                        vals[m - 1] = 0
                        cnts[m - 1] = 0
                        m -= 1
                elif cnts[pick] == 1:
                    vals[pick] = v + 1
                else:
                    cnts[pick] -= 1
                    for j in range(m, pick, -1):
                        vals[j] = vals[j - 1]
                        cnts[j] = cnts[j - 1]
                    vals[pick] = v + 1
                    cnts[pick] = 1
                    m += 1
        return m

    return growth_draw


# ---------------------------------------------------------------------------
# Backends: (draw loop, corners, corner masses, buffer factory, seed cast)
# ---------------------------------------------------------------------------


def _python_backend():
    def buffers(n, dtype):
        return [0] * n if dtype == "int" else [0.0] * n

    return (_make_draw(_corners, _corner_masses, _uniform), _corners,
            _corner_masses, buffers, int)


def _numba_backend(numba):
    import numpy as np

    njit = numba.njit(cache=True)
    gamma = np.uint64(GAMMA)
    m1, m2 = np.uint64(_MIX1), np.uint64(_MIX2)
    one = np.uint64(1)
    s30, s27, s31, s11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)
    inv53 = INV53

    @njit
    def uniform(seed, counter):
        # rng.stream_word in wrapping uint64 arithmetic
        z = seed + (np.uint64(counter) + one) * gamma
        z = (z ^ (z >> s30)) * m1
        z = (z ^ (z >> s27)) * m2
        z = z ^ (z >> s31)
        return float(z >> s11) * inv53

    corners = njit(_corners)
    corner_masses = njit(_corner_masses)

    def buffers(n, dtype):
        return np.zeros(n, dtype=np.int64 if dtype == "int" else np.float64)

    return (njit(_make_draw(corners, corner_masses, uniform)), corners,
            corner_masses, buffers, np.uint64)


_numba = _try_numba()
HAVE_NUMBA = _numba is not None
_BACKENDS = {"python": _python_backend()}
if HAVE_NUMBA:
    _BACKENDS["numba"] = _numba_backend(_numba)


def resolve_backend(backend: str | None = None) -> str:
    """The backend a call with ``backend`` runs on: "numba" by default when
    numba is importable and not disabled by JACKPATHS_NO_NUMBA, else
    "python"."""
    if backend is None:
        return "numba" if HAVE_NUMBA else "python"
    if backend == "numba" and not HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not importable "
                         "or is disabled by JACKPATHS_NO_NUMBA")
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    return backend


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def growth_draw_parts(d: int, alpha: float, seed: int, backend: str | None = None):
    """One growth-chain draw at size d; returns the partition as a list of
    parts (descending).  Backend "numba" or "python"; see
    :func:`resolve_backend` for the default."""
    draw, _, _, buffers, cast = _BACKENDS[resolve_backend(backend)]
    cap = state_capacity(d)
    vals = buffers(cap, "int")
    cnts = buffers(cap, "int")
    xs, ys, ms = (buffers(cap + 1, "float") for _ in range(3))
    m = draw(d, float(alpha), cast(seed), vals, cnts, xs, ys, ms)
    parts = []
    for k in range(m):
        parts.extend([int(vals[k])] * int(cnts[k]))
    return parts


def corner_masses(values, counts, alpha: float):
    """The kernel's normalised transition masses at the state with the
    given groups (descending part values and their multiplicities), in
    kernel order: index i is the minimum xs[i], descending, so index m is
    the new bottom row.  Computed by the default backend's helpers (the
    compiled ones when numba is present); the python backend runs the same
    source uncompiled."""
    _, corners, masses, buffers, _ = _BACKENDS[resolve_backend()]
    m = len(values)
    vals = buffers(m + 1, "int")
    cnts = buffers(m + 1, "int")
    for k in range(m):
        vals[k] = values[k]
        cnts[k] = counts[k]
    xs, ys, ms = (buffers(m + 1, "float") for _ in range(3))
    corners(float(alpha), vals, cnts, m, xs, ys)
    total = masses(m, xs, ys, ms)
    return [float(ms[i] / total) for i in range(m + 1)]
