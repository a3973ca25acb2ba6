"""The corner-growth kernel of the large-scale sampler.

The growth chain is the only runtime-dominant inner loop in the package.
Its kernel is written once, as plain loops over indexable buffers: when
numba can be imported, ``numba.njit`` compiles that source over numpy
arrays (backend "numba"); otherwise the same source runs as Python over
lists (backend "python").  The backend is fixed at import (:data:`BACKEND`)
and is the only one that runs.  Both consume the same counter-based uniform
stream and perform the same float operations in the same order.  A draw
fills its d - 1 uniforms from the stream once, before its loop (one Python
loop with the mix inline, or one compiled uint64 loop), and the loop reads
them in order; the first box needs none, so the loop starts past it with no
per-step test.  numpy is imported only on the numba path.

The state is the groups of equal parts (vals, cnts) and the masses ms[i] of
its addable corners, the residues of Kerov's transition function
G(z) = prod(z - y_j) / prod(z - x_i) at the profile minima x_i.  Adding a
box at the minimum x multiplies G by (z - x)(z - x - alpha + 1) /
((z - x - alpha)(z - x + 1)), also where a new minimum cancels a maximum.
So :func:`add_box` multiplies every surviving corner's mass by that factor
at z = x_i.  The only new poles are x + alpha and x - 1, and their residues
are the old (z - x) G(z) there, times 1 / (1 + alpha) and alpha / (1 + alpha):
ordered-ratio products of the corner differences that the same pass forms
for the factors.  So one pass over the groups prices every corner, and a
step costs O(m) for m groups.  The fresh masses come from the state, not
from the old masses, so their rounding does not build up along a draw.
The draw loop and :func:`child_state` both go through that helper; the
exact-law validation grows each state from one parent by the latter, a
chain that meets every kind of update, so it checks the arithmetic that
the draws use.
"""

from __future__ import annotations

import math

from .rng import _MIX1, _MIX2, GAMMA, MASK64

INV53 = 2.0 ** -53


def state_capacity(d: int) -> int:
    """Distinct part values of a partition of d are distinct positive
    integers summing to at most d, so there are at most ~sqrt(2d) of them."""
    return int(math.isqrt(2 * d)) + 3


# ---------------------------------------------------------------------------
# The kernel source (plain loops; compiled by numba or run as Python)
#
# A state with m groups has descending part values vals[0..m-1] with
# multiplicities cnts[0..m-1], and vals[k] = cnts[k] = 0 for k >= m.  Corner
# k <= m is the minimum x_k = alpha * vals[k] - (rows above group k), so
# corner m (value 0) is the new bottom row.  Differences of corners are
# taken as alpha * (integer) - (integer), never as differences of rounded
# positions.  Every buffer holds floats: vals and cnts hold integers, exact
# below 2^53, so the loops do float arithmetic only (interpreted, an int
# operand costs a generic operation) and every difference is still exact.
# ---------------------------------------------------------------------------


def add_box(alpha, vals, cnts, ms, m, pick):
    """Add a box at corner ``pick`` of the state with m groups, updating
    vals, cnts and the corner masses ms[0..m] in place; returns the new
    number of groups and the new sum of the masses."""
    # every surviving corner k gains the factor t(t + 1 - alpha) /
    # ((t - alpha)(t + 1)) = 1 + alpha / ((t - alpha)(t + 1)) of the new G at
    # t = x_k - x = p + s, with p = alpha * (vals[k] - v) and s the signed
    # rows between the two.  The same differences price the new poles: ra
    # and rb are (z - x) times the old G at z = x + alpha and z = x - 1, as
    # ordered-ratio products pairing each other corner with the maximum next
    # to it on the side of the pick.  Every sum adds terms of one sign, and
    # every factor of ra and rb lies in [0, 1].  The row count s is a float
    # that holds an integer exactly (below 2^53), so s + 1.0 is exact
    v = vals[pick]
    total = 0.0
    ra = 1.0
    rb = 1.0
    s = 0.0
    s1 = 1.0
    for k in range(pick - 1, -1, -1):
        p = alpha * (vals[k] - v)
        q = p - alpha
        a0 = q + s
        b0 = p + s1
        s += cnts[k]
        s1 = s + 1.0
        a = q + s
        b = p + s1
        ra *= a0 / a
        rb *= b0 / b
        w = ms[k] * (1.0 + alpha / (a * b))
        ms[k] = w
        total += w
    s = 0.0
    p = 0.0
    q = -alpha
    for k in range(pick + 1, m + 1):
        # the maximum above corner k sits at the value p of group k - 1,
        # and q = p - alpha is carried from there
        s -= cnts[k - 1]
        s1 = s + 1.0
        a0 = q + s
        b0 = p + s1
        p = alpha * (vals[k] - v)
        q = p - alpha
        a = q + s
        b = p + s1
        ra *= a0 / a
        rb *= b0 / b
        w = ms[k] * (1.0 + alpha / (a * b))
        ms[k] = w
        total += w
    fresh_a = ra / (1.0 + alpha)
    fresh_b = alpha * rb / (1.0 + alpha)
    # the new groups: x + alpha is a corner where the picked one moves
    # right, splits or starts a row, x - 1 where it moves down, splits or
    # starts a row.  Where either meets a maximum its residue is 0, and the
    # pass gives exactly 0 (a factor with zero numerator), so the total
    # gains both
    if pick == m:
        if m > 0 and vals[m - 1] == 1.0:    # the bottom corner moves down
            cnts[m - 1] += 1.0
            ms[m] = fresh_b
        else:                               # a new bottom row starts
            vals[m] = 1.0
            cnts[m] = 1.0
            ms[m] = fresh_a
            ms[m + 1] = fresh_b
            m += 1
    elif pick > 0 and vals[pick - 1] == v + 1.0:
        cnts[pick - 1] += 1.0
        cnts[pick] -= 1.0
        if cnts[pick] > 0.0:                # the corner moves down a row
            ms[pick] = fresh_b
        else:                               # the corner is removed
            for j in range(pick, m):
                vals[j] = vals[j + 1]
                cnts[j] = cnts[j + 1]
                ms[j] = ms[j + 1]
            m -= 1
    elif cnts[pick] == 1.0:                 # the corner moves right
        vals[pick] = v + 1.0
        ms[pick] = fresh_a
    else:                                   # the group splits in two
        cnts[pick] -= 1.0
        for j in range(m, pick, -1):
            vals[j] = vals[j - 1]
            cnts[j] = cnts[j - 1]
            ms[j + 1] = ms[j]
        vals[pick] = v + 1.0
        cnts[pick] = 1.0
        ms[pick] = fresh_a
        ms[pick + 1] = fresh_b
        m += 1
    return m, total + fresh_a + fresh_b


def stream_uniforms(seed, n):
    """Uniform doubles in [0, 1) from words 0..n-1 of the seed's stream:
    rng.stream_word with its mix written inline, the counter's multiple of
    GAMMA carried as a running sum."""
    gamma, m1, m2, mask, inv53 = GAMMA, _MIX1, _MIX2, MASK64, INV53
    us = [0.0] * n
    z = seed & mask
    for c in range(n):
        z = (z + gamma) & mask
        x = ((z ^ (z >> 30)) * m1) & mask
        x = ((x ^ (x >> 27)) * m2) & mask
        us[c] = ((x ^ (x >> 31)) >> 11) * inv53
    return us


def _make_draw(add_box, fill):
    """The draw loop over the given helpers (closure variables, so numba
    can compile the loop against its own compiled helpers): ``add_box`` and
    ``fill(seed, n)``, the first n uniforms of the seed's stream."""

    def growth_draw(d, alpha, seed, vals, cnts, ms):
        """Grow d boxes from the empty diagram (vals, cnts zero); the state
        and its corner masses are left in vals/cnts/ms and the number of
        groups is returned."""
        ms[0] = 1.0
        if d == 0:
            return 0
        # the empty diagram has one corner, so the first box takes no word
        # and every later state has at least one group
        m, total = add_box(alpha, vals, cnts, ms, 0, 0)
        for u in fill(seed, d - 1):
            target = u * total
            acc = 0.0
            pick = m
            for i in range(m + 1):
                acc += ms[i]
                if target < acc:
                    pick = i
                    break
            m, total = add_box(alpha, vals, cnts, ms, m, pick)
        return m

    return growth_draw


# ---------------------------------------------------------------------------
# Backends: (draw loop, add-a-box helper, stream fill, buffer factory,
# seed cast)
# ---------------------------------------------------------------------------


def _python_backend():
    def buffers(n):
        return [0.0] * n

    return (_make_draw(add_box, stream_uniforms), add_box, stream_uniforms,
            buffers, int)


def _numba_backend(numba):
    import numpy as np

    njit = numba.njit(cache=True)
    gamma = np.uint64(GAMMA)
    m1, m2 = np.uint64(_MIX1), np.uint64(_MIX2)
    one = np.uint64(1)
    s30, s27, s31, s11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)
    inv53 = INV53

    @njit
    def fill(seed, n):
        # rng.stream_word in wrapping uint64 arithmetic
        us = np.empty(n, np.float64)
        for c in range(n):
            z = seed + (np.uint64(c) + one) * gamma
            z = (z ^ (z >> s30)) * m1
            z = (z ^ (z >> s27)) * m2
            z = z ^ (z >> s31)
            us[c] = float(z >> s11) * inv53
        return us

    compiled_add_box = njit(add_box)

    def buffers(n):
        return np.zeros(n)

    return (njit(_make_draw(compiled_add_box, fill)), compiled_add_box, fill,
            buffers, np.uint64)


# the one backend this process runs, chosen once by what can be imported
try:
    import numba as _numba
except ImportError:
    _numba = None
HAVE_NUMBA = _numba is not None
BACKEND = "numba" if HAVE_NUMBA else "python"
_draw, _add_box, _fill, _buffers, _cast = (
    _numba_backend(_numba) if HAVE_NUMBA else _python_backend())


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def _draw_state(d: int, alpha: float, seed: int):
    """Run one draw on the backend's own buffers; returns (m, vals, cnts,
    ms): the number of groups, the groups and the corner masses the draw
    loop ends with (unnormalised)."""
    _, _, vals, cnts, ms = empty_state(d)
    return _draw(d, float(alpha), _cast(seed), vals, cnts, ms), vals, cnts, ms


def growth_draw_parts(d: int, alpha: float, seed: int):
    """One growth-chain draw at size d; returns the partition as a list of
    parts (descending)."""
    m, vals, cnts, _ = _draw_state(d, alpha, seed)
    parts = []
    for k in range(m):
        parts.extend([int(vals[k])] * int(cnts[k]))
    return parts


def empty_state(d: int):
    """The state (m, total, vals, cnts, ms) of the empty diagram, on new
    buffers of the backend with room for every state of size <= d."""
    cap = state_capacity(d)
    ms = _buffers(cap + 1)
    ms[0] = 1.0
    return 0, 1.0, _buffers(cap), _buffers(cap), ms


def child_state(state, alpha: float, pick: int):
    """``state`` with a box added at its corner ``pick``, on copies of its
    buffers, through the draws' add-a-box helper (compiled under numba)."""
    vals, cnts, ms = (buf.copy() for buf in state[2:])
    return (*_add_box(alpha, vals, cnts, ms, state[0], pick), vals, cnts, ms)


def state_masses(state):
    """A state's normalised transition masses in kernel order: index i is
    the i-th minimum, descending, so the last index is the new bottom row."""
    m, total, _, _, ms = state
    return [float(ms[i] / total) for i in range(m + 1)]
