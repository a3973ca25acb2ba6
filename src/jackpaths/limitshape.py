"""High/low-temperature limit shapes: banded-operator moments (an integer
column at a rational point, with its tangent, and a symbolic column), the
Cauchy-transform functional equation, real-order Bessel evaluation,
staircase corners (the Bessel order-zeros) as eigenvalues of the
Plancherel operator, semi-infinite staircase construction, and truncated
transition-measure atoms.  mpmath is loaded only by ``bessel_j*`` and by
the corner searches with ``dps`` set, inside the functions that use it."""

from __future__ import annotations

import sys
import warnings
from contextlib import nullcontext
from fractions import Fraction
from itertools import islice
from math import comb, isfinite, lcm, prod

from ._records import Frozen, Record
from .diagrams import DiscreteMeasure, StaircaseShape
from .exactnum import _int_arg
from .jack import Specialization
from .paths import enumerate_motzkin, limit_moment_poly
from .polynomials import Poly


# ---------------------------------------------------------------------------
# Banded operator moments
# ---------------------------------------------------------------------------


class JacobiOperator(Frozen):
    """Banded generator with entries (i, j) = i*g*delta_{ij} + v_{j-i},
    where v_{-1} = 1, v_0 = 0 and v_{-l} = 0 for l >= 2 (lower bandwidth 1).
    ``g`` is a rational; ``v`` is a sequence/dict/callable."""

    g: object
    v: object

    def __init__(self, g, v):
        # a callable v is kept as it is, so an operator equals one built
        # from the same callable; any other v is read once, so a generator
        # is read in full
        super().__init__(g, v if callable(v) else Specialization.of(v))


def plancherel_operator(g) -> JacobiOperator:
    """The tridiagonal case v = (1, 0, 0, ...)."""
    return JacobiOperator(g, [Fraction(1)])


def _operator_column(g, v, ell: int, dg, dv):
    """D, then the ints m_t = D^t (J^t)_{0,0} for t = 0..ell at the point
    (g, v), then their tangents dm_t along (dg, dv): dv maps an offset k to
    the change of v_k (k >= 1) or of the lower band J_{i,i+k} (k <= -1; 1
    at k = -1, else 0), and D is the common denominator of g, dg and the
    bands read.  With low the deepest lower offset in dv (1 if none), step t
    makes rows 0..t+low and the last step row 0 only; upper bands are read
    up to ell + low - 2, each once, and a band zero in J and dv is skipped."""
    g, dg = Fraction(g), Fraction(dg)
    low = max([1] + [-k for k in dv])
    bands = [(k, Fraction(k == -1 if k < 0 else v(k)), Fraction(dv.get(k, 0)))
             for k in range(-low, ell + low - 1) if k]
    bands = [b for b in bands if b[1] or b[2]]
    D = lcm(g.denominator, dg.denominator,
            *(x.denominator for _, *xs in bands for x in xs))
    G, dG = D // g.denominator * g.numerator, D // dg.denominator * dg.numerator
    bands = [(k, D // x.denominator * x.numerator, D // dx.denominator * dx.numerator)
             for k, x, dx in bands]
    col, dcol, m, dm = [1] + [0] * (low - 1), [0] * low, [1], [0]
    for t in range(ell):
        new, dnew = [], []
        for i in range(t + low + 1 if t + 1 < ell else 1):
            acc = dacc = 0
            if 0 < i < len(col):
                acc = i * G * col[i]
                dacc = i * (G * dcol[i] + dG * col[i])
            for k, x, dx in bands:
                j = i + k
                if j >= len(col):
                    break
                if j >= 0:
                    acc += x * col[j]
                    dacc += x * dcol[j] + dx * col[j]
            new.append(acc)
            dnew.append(dacc)
        col, dcol = new, dnew
        m.append(col[0])
        dm.append(dcol[0])
    return D, m, dm


def jacobi_moment(op: JacobiOperator, ell: int) -> Fraction:
    """(J^ell)_{0,0} at a rational point: the top of the operator column."""
    ell = _int_arg(ell, "ell", 0)
    D, m, _ = _operator_column(op.g, op.v, ell, 0, {})
    return Fraction(m[ell], D ** ell)


def jacobi_moment_symbolic(ell: int) -> Poly:
    """(J^ell)_{0,0} with g and every v_k symbolic: the operator column
    over int dicts, keyed by exponents as digits in base ell + 1 (g the units, v_k
    the (ell + 1)^k digit).  The diagonal multiplies by i and bumps g."""
    ell = _int_arg(ell, "ell", 0)
    base = ell + 1
    col = [{0: 1}]
    for t in range(ell):
        new = []
        for i in range(t + 2 if t + 1 < ell else 1):
            row = dict(col[i - 1]) if i else {}
            for k in range(0 if i else 1, t - i + 1):
                dkey, factor = base ** k, (1 if k else i)
                for key, c in col[i + k].items():
                    key += dkey
                    row[key] = row.get(key, 0) + c * factor
            new.append(row)
        col = new
    terms = {}
    for key, c in col[0].items():
        digits = ((f"v{k}" if k else "g", key // base ** k % base) for k in range(ell))
        terms[tuple(sorted((name, e) for name, e in digits if e))] = Fraction(c)
    return Poly._of(terms)


# ---------------------------------------------------------------------------
# Motzkin moments and the functional equation
# ---------------------------------------------------------------------------


def motzkin_moment_poly(ell: int) -> Poly:
    """Sum over the listed Motzkin paths of prod (i*g)^{#horizontal at
    height i}, as {g exponent: int product of the flat heights}."""
    ell = _int_arg(ell, "ell", 0)
    if ell == 0:
        return Poly.const(1)
    total = {}
    for exc in enumerate_motzkin(ell):
        h = exc.heights  # no flat step at height 0, so no weight is 0
        flats = [y for x, y in zip(h, h[1:]) if x == y]
        total[len(flats)] = total.get(len(flats), 0) + prod(flats)
    return Poly._of({(("g", e),) if e else (): Fraction(c)
                     for e, c in total.items()})


def moment_consistency(L: int) -> bool:
    """Triple agreement, as exact polynomials, of the moments of order
    1..L: the operator column equals the Lukasiewicz sum in g and every v_k,
    and the Lukasiewicz sum at v = (1, 0, 0, ...) equals the Motzkin sum."""
    for ell in range(1, _int_arg(L, "L", 1) + 1):
        luk = limit_moment_poly(ell)
        if jacobi_moment_symbolic(ell) != luk:
            return False
        sub = {name: Poly.const(1 if name == "v1" else 0)
               for name in luk.variables() - {"g"}}
        if luk.subs(sub) != motzkin_moment_poly(ell):
            return False
    return True


def functional_equation_check(L: int) -> bool:
    """Verify z*G(z) - 1 = G(z) G(z - g) for the Plancherel-case Cauchy
    transform, as formal power series in 1/z through order z^{-L}, exactly
    as polynomials in g."""
    L = _int_arg(L, "L", 2)
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
    return True


# ---------------------------------------------------------------------------
# Bessel functions of real order
# ---------------------------------------------------------------------------

BESSEL_DPS = 50  # the digits bessel_j_mp is accurate to


def bessel_j_mp(nu, x):
    """Bessel function of the first kind of real order as an mpmath float,
    from ``mpmath.besselj``, to BESSEL_DPS digits.  Working precision is
    raised above that to absorb the cancellation at negative orders."""
    import mpmath

    if x <= 0:
        raise ValueError("x must be positive")
    work = BESSEL_DPS + 10 + (0 if nu >= 0 else int(1.5 * float(-nu)) + 10)
    with mpmath.workdps(work):
        return mpmath.besselj(mpmath.mpf(nu), mpmath.mpf(x))


def bessel_j(nu: float, x: float) -> float:
    return float(bessel_j_mp(nu, x))


class BesselZeroList(Record):
    """Increasing zeros, in the order variable, of nu -> J_{-z/|g|}(2/|g|),
    bisected to the width ``precision``: tol, or 10^-dps as an mpmath float
    when the search ran at dps digits."""

    g: Fraction
    zeros: list
    precision: object


# ---------------------------------------------------------------------------
# Staircase corners as eigenvalues of the Plancherel operator
# ---------------------------------------------------------------------------


def _sturm_count(ag, x) -> int:
    """Eigenvalues below x of the semi-infinite T = tridiag(1, k|g|, 1),
    k = 0, 1, ..., as the number of negative LDL^T pivots of T - x.  Once a
    pivot is >= 1 and the next diagonal entry of T - x is >= 2, every later
    pivot is >= 1, so the count is exact for the infinite operator."""
    count, k, d = 0, 0, -x
    while True:
        count += d < 0
        k += 1
        diag = k * ag - x
        if d >= 1 and diag >= 2:
            return count
        d = diag - 1 / (d or 1e-300)  # a zero pivot: shift x by a hair


def _corners(ag, width):
    """Yield the staircase corners (l_k, l_k + |g|), k = 0, 1, ..., where
    l_k is the k-th eigenvalue of T, bisected on its Sturm count to width.
    l_0 > -2, l_k >= l_{k-1} + |g| (the zeros are at least |g| apart) and
    l_k < k|g| + 2 (Gershgorin on the leading (k+1) x (k+1) block)."""
    lo, k = -2, 0
    while True:
        hi = k * ag + 2
        while hi - lo > width:
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:  # no float left between the endpoints
                break
            if _sturm_count(ag, mid) > k:
                hi = mid
            else:
                lo = mid
        lam = (lo + hi) / 2
        lo, k = lam + ag, k + 1
        yield lam, lo


def _corner_scale(g, tol: float, dps: int | None):
    """Check g and tol; return |g| and the bisection width, as floats or,
    with dps, as mpmath floats of the current context."""
    g = Fraction(g)
    if g == 0:
        raise ValueError("g must be nonzero")
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if dps is None:
        return float(abs(g)), tol
    import mpmath

    return mpmath.mpf(abs(g.numerator)) / g.denominator, mpmath.mpf(10) ** -dps


def _working_precision(dps: int | None):
    if dps is None:
        return nullcontext()
    import mpmath

    return mpmath.workdps(_int_arg(dps, "dps", 1) + 10)


def bessel_order_zeros(g, n: int, tol: float = 1e-10,
                       dps: int | None = None) -> BesselZeroList:
    """The n smallest zeros of z -> J_{-z/|g|}(2/|g|): z_k = l_k + |g|,
    where l_k is the k-th eigenvalue of the Plancherel operator
    tridiag(1, k|g|, 1) (a_k = (-1)^k J_{k-nu}(2/|g|) satisfies its
    eigen-recurrence), found by Sturm-count bisection to tol.

    With ``dps`` set, the bisection runs in mpmath arithmetic at dps + 10
    digits to a width of 10^-dps, and the zeros are returned as mpmath
    floats; this is needed to resolve the exponentially narrow excess of the
    deep zero spacings over |g| that double precision flattens out.
    """
    n = _int_arg(n, "n", 1)
    with _working_precision(dps):
        ag, width = _corner_scale(g, tol, dps)
        zeros = [z for _, z in islice(_corners(ag, width), n)]
    return BesselZeroList(Fraction(g), zeros, width)


# ---------------------------------------------------------------------------
# The Plancherel staircase limit shape
# ---------------------------------------------------------------------------


def plancherel_limit_shape(g, n_steps: int = 8, tol: float = 1e-10,
                           dps: int | None = None) -> StaircaseShape:
    """The semi-infinite staircase limit profile of Plancherel-type random
    diagrams at parameter g != 0, truncated after n_steps corners of each
    kind.  For |g| the local minima are the eigenvalues l_i of the
    Plancherel operator and the maxima are l_i + |g| (the Bessel
    order-zeros of ``bessel_order_zeros``); the g < 0 shape is the mirror
    image u -> -u.  Pass ``dps`` to carry the corners at that many digits
    (the deep corner gaps shrink below double precision exponentially
    fast).  The staircase stops, with a RuntimeWarning, at the first gap
    within 64 times the width the bisection reached, times the corner's
    size when that is above 1."""
    g = Fraction(g)
    n_steps = _int_arg(n_steps, "n_steps", 1)
    minima, maxima = [], []
    with _working_precision(dps):
        ag, width = _corner_scale(g, tol, dps)
        # the width the bisection reaches: 10^-dps, or in floats tol but
        # never below the double spacing
        reached = width if dps is not None else max(width, sys.float_info.epsilon)
        for lam, z in islice(_corners(ag, width), n_steps):
            # deep corners approach exact |g| spacing exponentially fast,
            # which makes consecutive ones coincide at finite precision;
            # truncate there
            if maxima and lam - maxima[-1] <= 64 * reached * max(1.0, abs(z)):
                warnings.warn(f"staircase truncated to {len(maxima)} "
                              "resolvable corners", RuntimeWarning)
                break
            minima.append(lam)
            maxima.append(z)
        shape = StaircaseShape(minima, maxima, "extends_to_+inf")
        # inside the context: mpmath rounds even a negation to its precision
        return shape.reflect() if g < 0 else shape


class TruncatedAtoms(Record):
    """Truncated-product transition-measure atoms with a per-atom
    truncation-sensitivity estimate."""

    measure: DiscreteMeasure
    sensitivity: list


def staircase_transition_atoms(shape: StaircaseShape, n: int, N_trunc: int,
                               warn_threshold: float = 1e-6) -> TruncatedAtoms:
    """Masses mu_i = prod_{j<=N}(x_i - y_j)/prod_{j<=N, j!=i}(x_i - x_j) of
    the first n atoms at truncation level N_trunc, with the difference
    between levels N and N-1 reported as a sensitivity estimate."""
    n = _int_arg(n, "n", 1)
    N_trunc = _int_arg(N_trunc, "N_trunc", n)
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
    atoms = sorted(zip(xs[:len(cur)], cur))
    return TruncatedAtoms(DiscreteMeasure(atoms), sens)
