"""Random generation of Young diagrams: exact inverse-CDF sampling against
exact masses, a corner-growth chain for large sizes (validated exactly
against the fixed-size law before use), and empirical-statistics helpers.

A growth run splits its draws over the CPUs of the process's affinity mask
(:func:`usable_cpus`): the parent draws the first contiguous chunk and one
forked child draws each further chunk.  There is no setting; draw i always
uses the substream (seed, i), so the draws do not depend on the CPU count.
With numba, the parent compiles the kernel before it forks.
"""

from __future__ import annotations

import bisect
import math
import os
from fractions import Fraction

from . import _kernels
from .diagrams import StaircaseShape, _residues, corners
from .ensembles import Ensemble, _is_negative, ensemble_from_config
from .exactnum import _int_arg, _positive_arg, parse_rational
from .partitions import Partition, _hook_pairs, partitions_of
from .rng import SplitMix64, dyadic_fraction

EXACT_SAMPLE_CAP = 25
GROWTH_VALIDATION_ALPHAS = (Fraction(1, 3), Fraction(1), Fraction(2))
GROWTH_VALIDATION_SIZE = 8
KERNEL_REL_TOL = 1e-12

_growth_validated: bool | None = None


class GrowthUnavailableError(RuntimeError):
    """The growth chain failed its exact-law validation and is disabled."""


# ---------------------------------------------------------------------------
# Exact growth chain
# ---------------------------------------------------------------------------


def growth_transitions(lam: Partition, alpha):
    """Exact one-step law: [(next partition, probability)], probabilities
    given by the transition-measure atoms of the width-alpha profile."""
    alpha = _positive_arg(alpha, "alpha")
    return [(Partition(nxt), Fraction(num, rest))
            for nxt, num, rest in _one_step(lam.parts, alpha.numerator, alpha.denominator)]


def _one_step(parts, a: int, q: int):
    """The one-step law at ``parts`` for alpha = a/q in integers, [(next parts,
    num, rest)], from the corners of the (a, q) diagram: the minima ascend, so
    atom i, num/rest, adds a box to the i-th addable row taken bottom up."""
    masses = _residues(*corners(parts, a, q))
    parts = tuple(parts)
    grown = [parts + (1,)] + [parts[:r] + (parts[r] + 1,) + parts[r + 1:]
                              for r in range(len(parts) - 1, -1, -1)
                              if r == 0 or parts[r - 1] > parts[r]]
    return [(nxt, num, rest) for nxt, (num, rest) in zip(grown, masses, strict=True)]


def growth_distribution(alpha, d: int) -> dict:
    """Exact distribution on partitions of d of the growth process started
    from the empty diagram, pushed one box at a time by the chain rule."""
    dist = {Partition(): Fraction(1)}
    for _ in range(_int_arg(d, "d", 0)):
        nxt: dict = {}
        for lam, p in dist.items():
            for mu, q in growth_transitions(lam, alpha):
                nxt[mu] = nxt.get(mu, Fraction(0)) + p * q
        dist = nxt
    return dist


def _masses_match(floats, law) -> bool:
    """Whether the float kernel's masses (minima descending) agree with the
    exact one-step law (ascending) to KERNEL_REL_TOL relative."""
    exact = [num / rest for _, num, rest in law]  # int division rounds correctly
    return len(floats) == len(exact) and all(
        abs(f - mass) <= KERNEL_REL_TOL * mass for f, mass in zip(floats[::-1], exact))


def validate_growth() -> bool:
    """Exact validation contract, for every alpha in GROWTH_VALIDATION_ALPHAS:
    the induced distribution must equal the fixed-size deformed-Plancherel
    law at every size <= GROWTH_VALIDATION_SIZE, and the float kernel's
    corner masses must match the exact one-step law at every state of those
    sizes.  The kernel is the one the draws run (``_kernels.BACKEND``, fixed
    at import), so this checks the arithmetic that the draws use.  The
    result is cached per process."""
    global _growth_validated
    if _growth_validated is None:
        _growth_validated = all(map(_chain_keeps_law, GROWTH_VALIDATION_ALPHAS))
    return _growth_validated


def _chain_keeps_law(alpha: Fraction) -> bool:
    """Both legs of :func:`validate_growth` at one alpha = a/q, in integers.
    With N = j_lam q^(2n) the law alpha^n n!/j_lam at lam of size n is
    a^n q^n n!/N, so by induction on n the chain reproduces it iff at every
    lam of size n >= 1, N * sum of num/(N_mu rest) = a q n, summed over the
    parents mu of lam and their atoms num/rest that add lam's box.  The
    kernel grows each state from its first parent: atom i is corner m - i."""
    a, q = alpha.numerator, alpha.denominator
    sums = {}  # parts -> (s, t): the sum over the parents so far is s/t
    states = {(): _kernels.empty_state(GROWTH_VALIDATION_SIZE)}
    for n in range(GROWTH_VALIDATION_SIZE + 1):
        pushed = {}
        for lam in partitions_of(n):
            hooks = _hook_pairs(lam.parts, a, q)
            s, t = sums.pop(lam.parts, (0, 1))
            law, state = _one_step(lam.parts, a, q), states.pop(lam.parts, None)
            if n and hooks * s != a * q * n * t or not _masses_match(
                    _kernels.state_masses(state), law):
                return False
            if n == GROWTH_VALIDATION_SIZE:
                continue  # no state past the last size is checked
            for i, (nxt, num, rest) in enumerate(law):
                if nxt not in pushed:
                    states[nxt] = _kernels.child_state(state, float(alpha), state[0] - i)
                s, t = pushed.get(nxt, (0, 1))
                pushed[nxt] = (s * hooks * rest + num * t, t * hooks * rest)
        if sums:  # the chain reached a state that is no partition of n
            return False
        sums = pushed
    return True


def _growth_args(alpha, d):
    """Refuse a growth draw's size d and alpha unless d is an int >= 1 and
    alpha positive and finite as a float, and refuse to draw at all unless
    :func:`validate_growth` passed; returns d as an int and alpha as the
    kernel's float."""
    d = _int_arg(d, "d", 1)
    try:
        x = float(alpha)
    except OverflowError:
        x = math.inf
    if not 0 < x < math.inf:  # also refuses NaN and an alpha a float rounds to 0
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not validate_growth():
        raise GrowthUnavailableError(
            "growth chain failed exact validation; use exact_sample")
    return d, x


def growth_sample(alpha, d: int, rng: SplitMix64) -> Partition:
    """Draw one partition of size d from the growth chain (floating-point
    masses; the law itself is certified by :func:`validate_growth`)."""
    d, x = _growth_args(alpha, d)
    return Partition(_kernels.growth_draw_parts(d, x, rng.next_u64()))


def usable_cpus() -> int:
    """The number of CPUs this process may run on, which is the most
    processes a growth run draws with; 1 where the platform has no
    affinity mask or no fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def _draw_chunk(d: int, x: float, seeds) -> list:
    return [_kernels.growth_draw_parts(d, x, seed) for seed in seeds]


def _child_draws(fd: int, d: int, x: float, seeds):
    """The body of a forked worker: draw the chunk, write one line of parts
    per draw to ``fd`` and leave through ``os._exit`` (0 when done, 1 on any
    exception), so it never unwinds into the caller's frames or flushes the
    parent's stdio buffers."""
    code = 1
    try:
        data = memoryview("\n".join(" ".join(map(str, parts))
                                    for parts in _draw_chunk(d, x, seeds)).encode())
        while data:
            data = data[os.write(fd, data):]
        code = 0
    finally:
        os._exit(code)


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _growth_draws(d: int, x: float, seeds, workers: int) -> list:
    """Draw the partitions of the given seeds, in their order, with
    ``workers`` processes: this one draws the first contiguous chunk while
    a forked child draws each further chunk and pipes its parts back.  Every
    child is reaped before this returns or raises; on any failure the
    children still running are killed first."""
    bounds = [len(seeds) * k // workers for k in range(workers + 1)]
    children = []  # (pid, read end, number of draws) per chunk, in order
    try:
        for k in range(1, workers):
            chunk = seeds[bounds[k]:bounds[k + 1]]
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child_draws(w, d, x, chunk)
            os.close(w)
            children.append((pid, r, len(chunk)))
        out = _draw_chunk(d, x, seeds[:bounds[1]])
        while children:
            pid, r, n = children[0]
            lines = _read_to_end(r).decode().split("\n")
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            os.close(r)
            if code != 0 or len(lines) != n:
                raise RuntimeError(f"growth worker {pid} failed (exit code {code})")
            out.extend([int(p) for p in line.split()] for line in lines)
        return out
    finally:
        for pid, r, _ in children:
            os.kill(pid, 9)  # SIGKILL, without importing signal
            os.waitpid(pid, 0)
            os.close(r)


# ---------------------------------------------------------------------------
# Exact categorical sampling
# ---------------------------------------------------------------------------


def exact_sample(ensemble: Ensemble, rng: SplitMix64) -> Partition:
    """Draw a partition with exactly the ensemble's mass, by refining a
    dyadic uniform against the exact cumulative masses (starting at 128
    bits, so no float boundary bias is possible)."""
    if ensemble.d is None:
        raise ValueError("exact_sample needs a fixed-size ensemble")
    if ensemble.d > EXACT_SAMPLE_CAP:
        raise ValueError(
            f"d = {ensemble.d} above the exact-sampling cap "
            f"{EXACT_SAMPLE_CAP}; use growth_sample")
    lams, cum = _cumulative(ensemble)
    n, bits = rng.next_dyadic()
    while True:
        lo = dyadic_fraction(n, bits)
        hi = dyadic_fraction(n + 1, bits)
        idx = bisect.bisect_right(cum, lo)  # cum[-1] == 1 > lo
        if hi <= cum[idx]:
            return lams[idx]
        n, bits = rng.extend_dyadic(n, bits)


def _cumulative(ensemble: Ensemble):
    hit = getattr(ensemble, "_cumulative_cache", None)
    if hit is not None:
        return hit
    lams = sorted(partitions_of(ensemble.d))
    cum = []
    acc = Fraction(0)
    for lam in lams:
        m = ensemble.mass(lam)
        if _is_negative(m):
            raise ValueError(f"cannot sample a signed measure (mass at {lam})")
        acc = acc + m
        cum.append(acc)
    if cum[-1] != 1:
        raise ValueError("masses do not sum to 1")
    ensemble._cumulative_cache = (lams, cum)
    return lams, cum


# ---------------------------------------------------------------------------
# Sample runs and empirical statistics
# ---------------------------------------------------------------------------


class SampleRun:
    """A reproducible batch of draws: identical (config, seed) give
    identical output.  The constructor takes the request only; the draws go
    into ``collected`` ([] at first), and :func:`run_sampler` sets the other
    three attributes of a growth run.  ``backend`` is the growth kernel's
    backend that ran, ``_kernels.BACKEND`` (None for exact draws), and
    ``growth_validated`` the result of :func:`validate_growth` for growth
    runs (None for exact draws); a completed growth run always records
    True, because it refuses to draw otherwise.  ``workers`` is the number
    of processes that drew: 1 for exact runs, max(1, min(count,
    :func:`usable_cpus`)) for growth runs, so a growth run of count 0
    records 1 and forks nothing."""

    def __init__(self, config: dict, seed: int, count: int, method: str):
        self.config, self.seed, self.count, self.method = config, seed, count, method
        self.backend, self.growth_validated, self.workers = None, None, 1
        self.collected = []


def run_sampler(config: dict, seed: int, count: int,
                method: str = "exact") -> SampleRun:
    """Draw ``count`` partitions; draw i uses the substream (seed, i), so
    runs extend deterministically and do not depend on how many processes
    drew them.  The growth method draws the Jack-Plancherel chain only, so
    it refuses any other variant; it checks its arguments once and then
    splits the draws over max(1, min(count, :func:`usable_cpus`))
    processes (see :func:`_growth_draws`): with count 0 it forks nothing.
    Exact runs draw in this process."""
    seed, count = _int_arg(seed, "seed", None), _int_arg(count, "count", 0)
    root = SplitMix64(seed)
    run = SampleRun(config, seed, count, method)
    if method == "exact":
        ensemble = ensemble_from_config(config)
        for i in range(count):
            run.collected.append(exact_sample(ensemble, root.substream(i)))
    elif method == "growth":
        variant = config.get("variant")
        if variant != "plancherel":
            raise ValueError(f"the growth method samples the plancherel "
                             f"variant only, not {variant!r}; use exact")
        d, x = _growth_args(parse_rational(config["alpha"]), config["d"])
        seeds = [root.substream(i).next_u64() for i in range(count)]
        run.backend = _kernels.BACKEND
        run.growth_validated = True
        run.workers = max(1, min(count, usable_cpus()))
        if _kernels.HAVE_NUMBA and run.workers > 1:
            _kernels.growth_draw_parts(1, x, 0)  # compile once, before the fork
        run.collected = [Partition(parts) for parts in
                         _growth_draws(d, x, seeds, run.workers)]
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    return run


def empirical_stats(run: SampleRun, observables) -> dict:
    """Per-observable mean and variance over a run; ``observables`` is a
    list of (name, callable on Partition) pairs."""
    table = {}
    n = len(run.collected)
    for name, func in observables:
        vals = [float(func(lam)) for lam in run.collected]
        mean = sum(vals) / n if n else float("nan")
        var = sum((v - mean) ** 2 for v in vals) / (n - 1) if n > 1 else 0.0
        table[name] = {"mean": mean, "variance": var, "count": n}
    return table


def scaled_profile(lam: Partition, alpha, d: int) -> StaircaseShape:
    """Profile of the balanced rescaling (box sqrt(alpha/d) x 1/sqrt(alpha d)),
    with float corners (the scale factors are irrational in general)."""
    d = _int_arg(d, "d", 1)
    w = math.sqrt(float(alpha) / d)
    h = 1.0 / math.sqrt(float(alpha) * d)
    return StaircaseShape(*corners(lam.parts, w, h))


def mean_profile(run: SampleRun, alpha, d: int, grid) -> list:
    """Average scaled profile over the run's draws, evaluated on a grid of
    u-values; returns [(u, mean omega(u))]."""
    if not run.collected:
        raise ValueError("a mean profile needs at least one draw")
    shapes = [scaled_profile(lam, alpha, d) for lam in run.collected]
    out = []
    for u in grid:
        out.append((u, sum(s.evaluate(u) for s in shapes) / len(shapes)))
    return out
