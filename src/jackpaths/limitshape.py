"""High/low-temperature limit shapes: banded-operator moments, the
Cauchy-transform functional equation, real-order Bessel evaluation and
order-zero finding, semi-infinite staircase construction, and truncated
transition-measure atoms."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite

import mpmath

from .diagrams import DiscreteMeasure, StaircaseShape
from .paths import enumerate_motzkin, limit_moment_poly
from .polynomials import Poly


# ---------------------------------------------------------------------------
# Banded operator moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobiOperator:
    """Banded generator with entries (i, j) = i*g*delta_{ij} + v_{j-i},
    where v_{-1} = 1, v_0 = 0 and v_{-l} = 0 for l >= 2 (lower bandwidth 1).
    ``g`` may be a Fraction or a Poly; ``v`` is a sequence/dict/callable."""

    g: object
    v: object

    def entry(self, i: int, j: int):
        out = 0
        if i == j:
            out = self.g * i if isinstance(self.g, Poly) else Fraction(self.g) * i
            return out
        k = j - i
        if k == -1:
            return Fraction(1)
        if k < -1:
            return Fraction(0)
        return self._vget(k)

    def _vget(self, k: int):
        v = self.v
        if callable(v):
            return v(k)
        if isinstance(v, dict):
            return v.get(k, Fraction(0))
        seq = list(v)
        return seq[k - 1] if k <= len(seq) else Fraction(0)


def plancherel_operator(g) -> JacobiOperator:
    """The tridiagonal case v = (1, 0, 0, ...)."""
    return JacobiOperator(g, [Fraction(1)])


def jacobi_moment(op: JacobiOperator, ell: int):
    """(J^ell)_{0,0} computed on the exact (ell+1) x (ell+1) truncation,
    which is sufficient because the lower bandwidth is 1."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    n = ell + 1
    vec = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(ell):
        new = []
        for i in range(n):
            acc = 0
            for j in range(max(0, i - 1), n):
                e = op.entry(i, j)
                term = e * vec[j]
                if isinstance(term, Poly) or term != 0:
                    acc = acc + term
            new.append(acc)
        vec = new
    return vec[0]


def jacobi_moment_symbolic(ell: int) -> Poly:
    """(J^ell)_{0,0} with g and every v_k symbolic."""
    op = JacobiOperator(Poly.var("g"), lambda k: Poly.var(f"v{k}"))
    out = jacobi_moment(op, ell)
    return out if isinstance(out, Poly) else Poly.const(out)


# ---------------------------------------------------------------------------
# Motzkin moments and the functional equation
# ---------------------------------------------------------------------------


def motzkin_moment_poly(ell: int) -> Poly:
    """Sum over Motzkin paths of prod (i*g)^{#horizontal at height i}."""
    if ell == 0:
        return Poly.const(1)
    g = Poly.var("g")
    total = Poly.const(0)
    for exc in enumerate_motzkin(ell):
        term = Poly.const(1)
        prev = 0
        for y in exc.heights[1:]:
            if y == prev:
                term = term * (y * g)
            prev = y
        total = total + term
    return total


def moment_consistency(g, L: int) -> bool:
    """Triple agreement, as exact polynomials in g, of the Plancherel-case
    moments computed from (a) the tridiagonal operator, (b) Motzkin paths,
    (c) Lukasiewicz paths with v = (1, 0, 0, ...); also evaluated at g."""
    g = Fraction(g)
    plancherel_sub = {"v1": Poly.const(1)}
    for ell in range(0, L + 1):
        mz = motzkin_moment_poly(ell)
        jac = jacobi_moment(plancherel_operator(Poly.var("g")), ell)
        jac = jac if isinstance(jac, Poly) else Poly.const(jac)
        if jac != mz:
            return False
        if ell >= 1:
            luk = limit_moment_poly(ell)
            sub = dict(plancherel_sub)
            for name in luk.variables():
                if name.startswith("v") and name != "v1":
                    sub[name] = Poly.const(0)
            if luk.subs(sub) != mz:
                return False
        if mz.evaluate({"g": g}) != jac.evaluate({"g": g}):
            return False
    return True


def functional_equation_check(g, L: int) -> bool:
    """Verify z*G(z) - 1 = G(z) G(z - g) for the Plancherel-case Cauchy
    transform, as formal power series in 1/z through order z^{-L}, exactly
    as polynomials in g (the numeric g is checked by evaluation too)."""
    if L < 2:
        raise ValueError("L must be >= 2")
    g = Fraction(g)
    gv = Poly.var("g")
    moments = [motzkin_moment_poly(ell) for ell in range(0, L + 1)]
    # coefficient of z^{-k} in G(z) is moments[k-1]
    G = [Poly.const(0)] + moments[:L]
    # G(z-g): coefficient of z^{-k} is sum_{m<k} M_m * C(k-1, k-1-m) g^{k-1-m}
    G_shift = [Poly.const(0)]
    for k in range(1, L + 1):
        acc = Poly.const(0)
        for m in range(0, k):
            acc = acc + comb(k - 1, k - 1 - m) * moments[m] * gv ** (k - 1 - m)
        G_shift.append(acc)
    for k in range(0, L + 1):
        lhs = moments[k] if k >= 1 else Poly.const(0)  # [z^-k](zG - 1)
        rhs = Poly.const(0)
        for i in range(1, k):
            rhs = rhs + G[i] * G_shift[k - i]
        if lhs != rhs:
            return False
        if lhs.evaluate({"g": g}) != rhs.evaluate({"g": g}):
            return False
    return True


# ---------------------------------------------------------------------------
# Bessel functions of real order
# ---------------------------------------------------------------------------

def bessel_j_mp(nu, x, dps: int = 50):
    """Bessel function of the first kind of real order as an mpmath float,
    from ``mpmath.besselj``.  Working precision is raised above dps to
    absorb the cancellation at negative orders."""
    if x <= 0:
        raise ValueError("x must be positive")
    work = dps + 10 + (0 if nu >= 0 else int(1.5 * float(-nu)) + 10)
    with mpmath.workdps(work):
        return mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x))


def bessel_j(nu: float, x: float, dps: int | None = None) -> float:
    return float(bessel_j_mp(nu, x, dps=dps or 50))


@dataclass
class BesselZeroList:
    """Increasing zeros, in the order variable, of nu -> J_{-z/|g|}(2/|g|)."""

    g: Fraction
    zeros: list
    precision: float


class SearchError(RuntimeError):
    pass


def bessel_order_zeros(g, n: int, tol: float = 1e-10, dps: int | None = None,
                       max_scan: int = 4000) -> BesselZeroList:
    """Locate the n smallest zeros of z -> J_{-z/|g|}(2/|g|) by sign-change
    scanning with step |g|/4 from z = -2/|g| (safe: the zeros are spaced at
    least |g| apart, so no zero is skipped), refined by bisection to tol.

    With ``dps`` set, the refinement runs in mpmath arithmetic at that many
    digits and the zeros are returned as mpmath floats; this is needed to
    resolve the exponentially narrow excess of the deep zero spacings over
    |g| that double precision flattens out.
    """
    g = Fraction(g)
    if g == 0:
        raise ValueError("g must be nonzero")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if n > max_scan // 4 + 1:
        # n zeros span at least (n - 1) |g|, which is 4 (n - 1) scan steps
        raise ValueError(f"n = {n} zeros are beyond the {max_scan}-step scan "
                         f"window; at most {max_scan // 4 + 1} can be found")
    ag = abs(float(g))
    arg = 2.0 / ag

    def f(z):
        return bessel_j(-z / ag, arg)

    step = ag / 4.0
    z = -arg
    fz = f(z)
    brackets = []
    scans = 0
    while len(brackets) < n:
        z2 = z + step
        fz2 = f(z2)
        if fz == 0.0:
            brackets.append((z, z))
        elif fz * fz2 < 0:
            brackets.append((z, z2))
        z, fz = z2, fz2
        scans += 1
        if scans > max_scan:
            raise SearchError(f"scan window exhausted before {n} zeros")

    if dps is None:
        zeros = [_bisect_float(f, lo, hi, tol) for lo, hi in brackets[:n]]
        return BesselZeroList(g, zeros, tol)

    ag_mp = mpmath.mpf(abs(float(g)))
    arg_mp = 2 / ag_mp

    def f_mp(z):
        return bessel_j_mp(-z / ag_mp, arg_mp, dps=dps + 10)

    zeros = []
    with mpmath.workdps(dps + 10):
        tol_mp = mpmath.mpf(tol)
        for lo, hi in brackets[:n]:
            lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
            if lo == hi:
                zeros.append(lo)
                continue
            zeros.append(mpmath.findroot(f_mp, (lo, hi), solver="anderson",
                                         tol=tol_mp ** 2))
    return BesselZeroList(g, zeros, tol)


def _bisect_float(f, lo, hi, tol):
    if lo == hi:
        return lo
    flo = f(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # no float left between the endpoints
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# The Plancherel staircase limit shape
# ---------------------------------------------------------------------------


def plancherel_limit_shape(g, n_steps: int = 8, tol: float = 1e-10,
                           dps: int | None = None) -> StaircaseShape:
    """The semi-infinite staircase limit profile of Plancherel-type random
    diagrams at parameter g != 0, truncated after n_steps corners of each
    kind.  For |g| the local minima sit at l_i - |g| and the maxima at l_i,
    where l_i are the Bessel order-zeros for |g|; the g < 0 shape is the
    mirror image u -> -u.  Pass ``dps`` to carry the corners at that many
    digits (the deep corner gaps shrink below double precision
    exponentially fast)."""
    g = Fraction(g)
    if g == 0:
        raise ValueError("g must be nonzero")
    ag = abs(g)
    zeros = bessel_order_zeros(ag, n_steps, tol=tol, dps=dps).zeros
    gf = mpmath.mpf(ag.numerator) / ag.denominator if dps else float(ag)
    # deep zeros approach exact |g| spacing exponentially fast, which makes
    # consecutive corners coincide at finite precision; truncate there
    keep = len(zeros)
    for i in range(len(zeros) - 1):
        gap = zeros[i + 1] - zeros[i] - gf
        if gap <= 64 * tol * max(1.0, abs(zeros[i + 1])):
            keep = i + 1
            break
    if keep < n_steps:
        warnings.warn(f"staircase truncated to {keep} resolvable corners",
                      RuntimeWarning)
    zeros = zeros[:keep]
    shape = StaircaseShape([z - gf for z in zeros], zeros, "extends_to_+inf")
    return shape.reflect() if g < 0 else shape


@dataclass
class TruncatedAtoms:
    """Truncated-product transition-measure atoms with a per-atom
    truncation-sensitivity estimate."""

    measure: DiscreteMeasure
    sensitivity: list


def staircase_transition_atoms(shape: StaircaseShape, n: int, N_trunc: int,
                               warn_threshold: float = 1e-6) -> TruncatedAtoms:
    """Masses mu_i = prod_{j<=N}(x_i - y_j)/prod_{j<=N, j!=i}(x_i - x_j) of
    the first n atoms at truncation level N_trunc, with the difference
    between levels N and N-1 reported as a sensitivity estimate."""
    if n < 1 or N_trunc < n:
        raise ValueError("need N_trunc >= n >= 1")
    xs, ys = list(shape.minima), list(shape.maxima)
    if shape.orientation == "extends_to_-inf":
        xs, ys = xs[::-1], ys[::-1]  # walk outward from the anchored side

    def masses(N):
        # pair the j-th maximum with the (j+1)-th minimum: their gap decays,
        # so every truncated factor tends to 1 and the product converges
        npairs = min(N, len(ys), len(xs) - 1)
        out = []
        for i in range(min(n, len(xs))):
            xi = xs[i]
            val = 1  # promoted to the corner data's type on first multiply
            for j in range(npairs):
                k = j if j < i else j + 1
                val = val * (xi - ys[j]) / (xi - xs[k])
            out.append(val)
        return out

    cur = masses(N_trunc)
    prev = masses(N_trunc - 1)
    sens = [abs(a - b) for a, b in zip(cur, prev)]
    if any(s > warn_threshold for s in sens):
        warnings.warn(f"atom masses not stabilized at N={N_trunc}: {max(sens):.3g}",
                      RuntimeWarning)
    exact = all(isinstance(x, Fraction) for x in xs) and \
        all(isinstance(y, Fraction) for y in ys)
    atoms = sorted(zip(xs[:len(cur)], cur))
    return TruncatedAtoms(DiscreteMeasure(atoms, exact=exact), sens)
