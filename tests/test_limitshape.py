import math
import random
import warnings
from fractions import Fraction
from math import comb

import mpmath
import pytest

from jackpaths import limitshape, paths
from jackpaths.diagrams import AnisotropicDiagram, transition_measure
from jackpaths.limitshape import (JacobiOperator, bessel_j, bessel_j_mp,
                                  bessel_order_zeros,
                                  functional_equation_check, jacobi_moment,
                                  jacobi_moment_symbolic, moment_consistency,
                                  motzkin_moment_poly, plancherel_limit_shape,
                                  plancherel_operator,
                                  staircase_transition_atoms)
from jackpaths.partitions import Partition
from jackpaths.jack import Specialization
from jackpaths.paths import (afp_cov, afp_mean, clt_cov, clt_mean,
                             enumerate_motzkin, limit_moment, limit_moment_poly,
                             moment_duality_check)
from jackpaths.polynomials import Poly


def test_jacobi_moment_examples():
    op = plancherel_operator(Fraction(1, 2))
    assert jacobi_moment(op, 0) == 1
    assert jacobi_moment(op, 2) == 1
    assert jacobi_moment(op, 4) == 2 + Fraction(1, 4)
    banded = JacobiOperator(Fraction(0), [Fraction(1), Fraction(1, 3)])
    assert jacobi_moment(banded, 3) == Fraction(1, 3)  # single degree-2 path
    # a callable v is kept as it is, but its floats are read as rationals
    floats = JacobiOperator("1/3", lambda k: 0.5 if k == 2 else (1 if k == 1 else 0))
    got = jacobi_moment(floats, 4)
    assert got == Fraction(47, 18) and type(got) is Fraction


def test_jacobi_operator_reads_every_form_of_v_alike():
    v = [Fraction(1), Fraction(1, 3), Fraction(1, 5)]
    want = jacobi_moment(JacobiOperator(Fraction(1, 2), v), 6)
    assert want == Fraction(4033, 240)
    for form in [(x for x in v), {"1": 1, "2": "1/3", "3": "1/5"},
                 {1: 1, 2: Fraction(1, 3), 3: Fraction(1, 5)},
                 lambda k: v[k - 1] if k <= 3 else 0]:
        assert jacobi_moment(JacobiOperator(Fraction(1, 2), form), 6) == want


def test_jacobi_equals_lukasiewicz_symbolically():
    for ell in range(0, 17):
        jac = jacobi_moment_symbolic(ell)
        if ell == 0:
            assert jac == Poly.const(1)
        else:
            assert jac == limit_moment_poly(ell)


# (g, v, ell, (J^ell)_00) as the dense (ell+1) x (ell+1) product gave them:
# odd ell with a square v_1, g = 0, and v with zeros
JACOBI_VALUES = [
    (Fraction(1, 2), (Fraction(9, 4), Fraction(1, 3)), 7, Fraction(23417, 96)),
    (Fraction(-1, 3), (4, 0, Fraction(1, 5)), 9, Fraction(-687151018, 54675)),
    (Fraction(0), (1, Fraction(1, 3)), 8, Fraction(154, 9)),
    (Fraction(0), (1,), 7, Fraction(0)),
    (Fraction(2, 5), (0, 1), 6, Fraction(99, 25)),
    (Fraction(-2, 3), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                       Fraction(1, 16)), 10, Fraction(-74178307, 1679616)),
    (Fraction(1, 3), (2, Fraction(-1, 5), Fraction(3, 7)), 11,
     Fraction(1176075023371, 120558375)),
    (Fraction(0), (Fraction(9, 4), 0, -1), 5, Fraction(0)),
    (Fraction(1, 2), (Fraction(9, 4),), 0, Fraction(1)),
    (Fraction(-1, 3), (1, Fraction(1, 3)), 1, Fraction(0)),
]


@pytest.mark.parametrize("g, v, ell, want", JACOBI_VALUES)
def test_jacobi_moment_keeps_its_values(g, v, ell, want):
    got = jacobi_moment(JacobiOperator(g, v), ell)
    assert got == want and type(got) is type(want)


# the (g, v) at which the Cauchy-transform equation is checked
CAUCHY_POINTS = [
    (Fraction(1, 2), (Fraction(1),)),
    (Fraction(-1, 4), (Fraction(1), Fraction(1, 3))),
    (Fraction(1, 3), (Fraction(2), Fraction(-1, 5), Fraction(3, 7))),
    (Fraction(-2, 3), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8),
                       Fraction(1, 16))),
]


def _cauchy_sides(g, v, L, sign):
    """The coefficients of w^0..w^L, w = 1/z, of z G(z) - 1 and of
    G(z) * sum_j v_j prod_{i=1..j} G(z - sign*i*g), with G(z) = sum_n M_n
    z^{-n-1} and M_n = jacobi_moment(JacobiOperator(g, v), n)."""
    M = [jacobi_moment(JacobiOperator(g, v), n) for n in range(L + 1)]

    def shifted(a):
        # G(z - a) = sum_n M_n z^{-n-1} (1 - a/z)^{-n-1}
        return [Fraction(0)] + [sum(M[n] * comb(k - 1, n) * a ** (k - 1 - n)
                                    for n in range(k)) for k in range(1, L + 1)]

    def times(p, q):
        out = [Fraction(0)] * (L + 1)
        for i, x in enumerate(p):
            for j in range(L + 1 - i):
                out[i + j] += x * q[j]
        return out

    prod, rhs = shifted(0), [Fraction(0)] * (L + 1)
    for j, vj in enumerate(v, 1):
        prod = times(prod, shifted(sign * j * g))
        rhs = [r + vj * p for r, p in zip(rhs, prod)]
    return [Fraction(0)] + M[1:], rhs


def _at(poly, g, v):
    v = Specialization.of(v)
    return poly.evaluate({"g": Fraction(g), **{name: v(int(name[1:]))
                                               for name in poly.variables() - {"g"}}})


def test_jacobi_moment_symbolic_equals_the_generic_operator():
    """The int-dict column, evaluated, against jacobi_moment at each point."""
    points = [(g, v) for g, v, _, _ in JACOBI_VALUES] + CAUCHY_POINTS
    for ell in range(0, 13):
        poly = jacobi_moment_symbolic(ell)
        for g, v in points:
            assert _at(poly, g, v) == jacobi_moment(JacobiOperator(g, v), ell)


# v_1 = 9/4 is a square, so odd ell normalize in rationals; v_3 = 0; every
# entry is a float exactly
LIMIT_V = (Fraction(9, 4), Fraction(1, 2), Fraction(0), Fraction(-1, 4))
V_FORMS = {
    "list": lambda: list(LIMIT_V),
    "dict of strings": lambda: {str(k): str(x) for k, x in enumerate(LIMIT_V, 1)},
    "generator": lambda: (x for x in LIMIT_V),
    "callable of floats": lambda: (
        lambda k: float(LIMIT_V[k - 1]) if k <= len(LIMIT_V) else 0.0),
}


def test_limit_moment_is_the_lukasiewicz_polynomial_at_the_point():
    for g in (Fraction(-1, 3), Fraction(1, 2)):
        for ell in range(1, 15):
            want = Fraction(2, 3) ** ell * _at(limit_moment_poly(ell), g, LIMIT_V)
            for form, make in V_FORMS.items():
                got = limit_moment(ell, g, make())
                assert got == want and type(got) is Fraction, (g, ell, form)
    got = limit_moment(4, "1/3", lambda k: 0.5 if k == 2 else (1 if k == 1 else 0))
    assert got == Fraction(47, 18) and type(got) is Fraction


def test_numeric_moments_do_not_run_the_lukasiewicz_transfer(monkeypatch):
    wanted = {"limit_moment": lambda: limit_moment(9, Fraction(1, 2), LIMIT_V),
              "jacobi_moment_symbolic": lambda: jacobi_moment_symbolic(9),
              "motzkin_moment_poly": lambda: motzkin_moment_poly(9),
              "clt_mean": lambda: clt_mean(9, Fraction(1, 2), 3, LIMIT_V),
              "afp_mean": lambda: afp_mean(9, Fraction(1, 2), 3, V, [0, 1, 2]),
              "afp_cov": lambda: afp_cov(4, 5, Fraction(1, 2), V, {(2, 3): 1})}
    want = {name: call() for name, call in wanted.items()}

    def refuse(*args):
        raise AssertionError("the Lukasiewicz transfer ran")

    monkeypatch.setattr(paths, "limit_moment_poly", refuse)
    monkeypatch.setattr(paths, "_luk_transfer", refuse)
    for name, call in wanted.items():
        assert call() == want[name], name


@pytest.mark.parametrize("g, v", CAUCHY_POINTS)
def test_cauchy_transform_equation_at_every_v(g, v):
    """z G(z) - 1 = G(z) sum_j v_j prod_{i=1..j} G(z - i g) through z^-12;
    with the shifts taken at z + i g instead it fails."""
    lhs, rhs = _cauchy_sides(g, v, 12, 1)
    assert lhs == rhs
    lhs, rhs = _cauchy_sides(g, v, 12, -1)
    assert lhs != rhs


G, V = Fraction(1, 2), [Fraction(1), Fraction(1, 3)]
ORDER_CHECKS = {  # name: (a call of one order, its argument, the least order)
    "jacobi_moment": (lambda ell: jacobi_moment(plancherel_operator(G), ell), "ell", 0),
    "jacobi_moment_symbolic": (jacobi_moment_symbolic, "ell", 0),
    "motzkin_moment_poly": (motzkin_moment_poly, "ell", 0),
    "limit_moment_poly": (limit_moment_poly, "ell", 1),
    "limit_moment": (lambda ell: limit_moment(ell, G, V), "ell", 1),
    "moment_duality_check": (moment_duality_check, "ell", 1),
    "clt_mean": (lambda ell: clt_mean(ell, G, 3, V), "ell", 2),
    "afp_mean": (lambda ell: afp_mean(ell, G, 3, V, [0, 1]), "ell", 2),
    "clt_cov_k": (lambda k: clt_cov(k, 3, G, V), "k", 1),
    "clt_cov_l": (lambda l: clt_cov(3, l, G, V), "l", 1),
    "afp_cov_k": (lambda k: afp_cov(k, 3, G, V, {}), "k", 2),
    "afp_cov_l": (lambda l: afp_cov(3, l, G, V, {}), "l", 2),
}


@pytest.mark.parametrize("name", ORDER_CHECKS)
def test_moment_legs_refuse_an_ell_that_is_not_a_nonnegative_int(name):
    moment, arg, least = ORDER_CHECKS[name]
    moment(3)  # first, so that a cache holding 3 is tried with 3.0
    for bad in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match=f"^{arg} must be an int, got {bad!r}$"):
            moment(bad)
    with pytest.raises(ValueError, match=f"^{arg} must be >= {least}, got {least - 1}$"):
        moment(least - 1)


def test_triple_moment_consistency():
    assert moment_consistency(8)


def test_functional_equation():
    assert functional_equation_check(8)
    with pytest.raises(ValueError):
        functional_equation_check(1)


def test_bessel_closed_forms():
    assert bessel_j(0.5, math.pi / 2) == pytest.approx(2 / math.pi, abs=1e-12)
    # integer-order reflection at the acceptance argument
    assert bessel_j(-1.0, 8.0) == pytest.approx(-bessel_j(1.0, 8.0), abs=1e-10)
    assert bessel_j(0.0, 1e-12) == pytest.approx(1.0, abs=1e-9)
    for nu in (-9.7, -12.3, 3.25):
        assert bessel_j(nu, 8.0) == pytest.approx(
            float(mpmath.besselj(nu, 8.0)), abs=1e-8, rel=1e-8)
    with pytest.raises(ValueError):
        bessel_j(1.0, -1.0)


def _bessel_series(nu, x, dps=50):
    """The direct power series of J_nu(x): 1/Gamma once, at the first term
    that is not zero (at a negative integer order -n the terms below m = n
    sit on its poles), and each later term the previous one times
    -(x/2)^2 / (m (m + nu)).  It stops on a test that is absolute once
    |J| is tiny, so it is only an oracle where |J| is not."""
    work = dps + 10 + (0 if nu >= 0 else int(1.5 * float(-nu)) + 10)
    with mpmath.workdps(work):
        half = mpmath.mpf(x) / 2
        half2 = half ** 2
        nu_mp = mpmath.mpf(nu)
        m0 = int(-nu_mp) if nu_mp < 0 and nu_mp == int(nu_mp) else 0
        term = ((-1) ** m0 * mpmath.rgamma(m0 + nu_mp + 1)
                * half ** (2 * m0 + nu_mp) / math.factorial(m0))
        total = mpmath.mpf(0)
        eps = mpmath.mpf(10) ** (-(work - 5))
        for m in range(m0, 300):
            if m > m0:
                term *= -half2 / (m * (m + nu_mp))
            total += term
            # past the hump around m ~ -nu the terms decay monotonically
            past_hump = (m + 1) * (m + 1 + nu_mp) > half2
            if past_hump and abs(term) < eps * (abs(total) + 1):
                return +total
    raise AssertionError("series did not converge")


def test_bessel_series_against_mpmath():
    rng = random.Random(20231)
    with mpmath.workdps(60):
        for _ in range(40):
            nu = rng.uniform(-20, 20)
            x = rng.uniform(0.1, 20)
            want = mpmath.besselj(nu, x)
            assert abs(bessel_j_mp(nu, x) - want) <= 1e-40 * abs(want), (nu, x)
            assert abs(_bessel_series(nu, x) - want) <= 1e-40 * abs(want), (nu, x)
        # integer orders: the series skips the poles of 1/Gamma
        for n in range(1, 13):
            for x in (0.5, 3.0, 8.0, 17.5):
                jn = bessel_j_mp(n, x)
                assert abs(bessel_j_mp(-n, x) - (-1) ** n * jn) <= 1e-40 * abs(jn)
                assert abs(_bessel_series(-n, x) - (-1) ** n * jn) <= 1e-40 * abs(jn)


def test_tiny_bessel_values_are_accurate():
    # the series' absolute stopping test returned 1.268e-175 here, and
    # 2.2% and 0.4% too much at the other two points
    for nu, x in ((200, 20), (45, 2), (60, 1)):
        with mpmath.workdps(200):
            want = mpmath.besselj(nu, x)
        got = bessel_j(nu, x)
        assert abs(got - want) <= 1e-15 * abs(want), (nu, x)


def test_bessel_zeros_bisection_ends_below_float_spacing():
    # a tol below the float spacing ends once the midpoint hits an endpoint
    tiny = bessel_order_zeros(Fraction(-1, 4), 1, tol=1e-300).zeros[0]
    exact = bessel_order_zeros(Fraction(-1, 4), 1, dps=30).zeros[0]
    assert abs(tiny - exact) < 1e-13


def test_bessel_zero_examples_and_spacing():
    zl = bessel_order_zeros(Fraction(-1, 4), 6, tol=1e-10)
    assert zl.zeros[0] == pytest.approx(-1.086, abs=1e-3)
    assert zl.zeros[1] == pytest.approx(-0.424, abs=1e-3)
    assert zl.zeros[2] == pytest.approx(0.102, abs=1e-3)
    # support points l_i - g are spaced at least |g| apart
    for i in range(5):
        assert zl.zeros[i + 1] - zl.zeros[i] >= 0.25 - 1e-9
    # the same zeros serve g > 0 (they depend on |g| only)
    zp = bessel_order_zeros(Fraction(1, 4), 3, tol=1e-10)
    assert zp.zeros[0] == pytest.approx(zl.zeros[0], abs=1e-9)


def _scan_zeros(ag, n, tol=1e-10):
    """The zeros of z -> J_{-z/|g|}(2/|g|) by the direct search: a
    sign-change scan with step |g|/4 from z = -2/|g| (the zeros are at least
    |g| apart, so none is skipped), each bracket bisected to tol."""
    ag = float(ag)

    def f(z):
        return bessel_j(-z / ag, 2.0 / ag)

    step = ag / 4.0
    z = -2.0 / ag
    fz = f(z)
    brackets = []
    while len(brackets) < n:
        z2 = z + step
        fz2 = f(z2)
        if fz == 0.0:
            brackets.append((z, z))
        elif fz * fz2 < 0:
            brackets.append((z, z2))
        z, fz = z2, fz2
    zeros = []
    for lo, hi in brackets:
        flo = f(lo)
        while lo < hi and hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            fm = f(mid)
            if fm == 0.0:
                lo = hi = mid
            elif flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        zeros.append(0.5 * (lo + hi))
    return zeros


ORACLE_G = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
            Fraction(2, 3), Fraction(1)]


@pytest.fixture(scope="module")
def scan_oracle():
    return {ag: _scan_zeros(ag, 12) for ag in ORACLE_G}


def _resolvable(zeros, ag, tol=1e-10):
    """How many corners the staircase keeps: up to the first pair of zeros
    whose spacing exceeds |g| by no more than 64 tol max(1, |z|)."""
    for i in range(len(zeros) - 1):
        if zeros[i + 1] - zeros[i] - ag <= 64 * tol * max(1.0, abs(zeros[i + 1])):
            return i + 1
    return len(zeros)


def test_corners_match_the_scan_oracle(scan_oracle):
    for ag, zeros in scan_oracle.items():
        for n in (3, 8, 12):
            keep = _resolvable(zeros[:n], float(ag))
            got = bessel_order_zeros(ag, n).zeros
            assert got == pytest.approx(zeros[:n], rel=0, abs=1e-10), (ag, n)
            for g in (ag, -ag):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    shape = plancherel_limit_shape(g, n_steps=n)
                if g < 0:
                    shape = shape.reflect()
                assert len(shape.minima) == len(shape.maxima) == keep, (g, n)
                assert shape.maxima == pytest.approx(zeros[:keep], rel=0,
                                                     abs=1e-10), (g, n)
                assert shape.minima == pytest.approx(
                    [z - float(ag) for z in zeros[:keep]], rel=0,
                    abs=1e-10), (g, n)
    # the deep spacings of |g| = 1 fall below 64 tol after eight corners
    assert _resolvable(scan_oracle[Fraction(1)], 1.0) == 8


@pytest.mark.parametrize("g, n, tol, keep", [
    (Fraction(1, 4), 22, 1e-12, 18), (Fraction(1, 10), 22, 1e-12, 22),
    (Fraction(1), 12, 1e-10, 8), (Fraction(1, 4), 10, 1e-10, 10),
    (Fraction(1, 3), 12, 1e-10, 12)])
def test_resolvable_corner_truncation(g, n, tol, keep):
    for sign in (1, -1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            shape = plancherel_limit_shape(sign * g, n_steps=n, tol=tol)
        assert len(shape.minima) == len(shape.maxima) == keep
        assert bool(caught) == (keep < n)


def test_float_truncation_keeps_only_gaps_above_double_spacing():
    # below double resolution the floats bisect to the spacing, not to tol:
    # every gap kept must still be the gap of a 30-digit search
    g = Fraction(1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        floats = plancherel_limit_shape(g, n_steps=40, tol=1e-25)
        digits = plancherel_limit_shape(g, n_steps=40, tol=1e-25, dps=30)
    assert 1 < len(floats.minima) < len(digits.minima)
    with mpmath.workdps(40):
        for k in range(1, len(floats.minima)):
            gap = floats.minima[k] - floats.maxima[k - 1]
            want = digits.minima[k] - digits.maxima[k - 1]
            assert abs(gap / want - 1) < 1e-3, k


def _order_zeros_80_digits(g, zeros):
    """Each zero of z -> J_{-z/|g|}(2/|g|) refined by findroot at 80 digits
    with g exact, from a bracket of 1e-9 around a scan-oracle zero."""
    with mpmath.workdps(80):
        ag = mpmath.mpf(g.numerator) / g.denominator

        def f(z):
            return mpmath.besselj(-z / ag, 2 / ag)

        eps = mpmath.mpf("1e-9")
        return [mpmath.findroot(f, (z - eps, z + eps), solver="anderson")
                for z in map(mpmath.mpf, zeros)]


@pytest.mark.parametrize("g", [Fraction(1, 10), Fraction(1, 4),
                               Fraction(1, 3), Fraction(1)])
def test_dps_zeros_match_an_80_digit_oracle(g, scan_oracle):
    zeros = bessel_order_zeros(g, 8, dps=30).zeros
    want = _order_zeros_80_digits(g, scan_oracle[g][:8])
    assert len(zeros) == 8
    with mpmath.workdps(80):
        assert all(abs(z - w) < mpmath.mpf("1e-28") for z, w in zip(zeros, want))


def test_zero_list_records_the_bisection_width():
    assert bessel_order_zeros(Fraction(-1, 4), 2).precision == 1e-10
    zl = bessel_order_zeros(Fraction(-1, 4), 2, tol=1e-6)
    assert zl.precision == 1e-6
    zl = bessel_order_zeros(Fraction(-1, 4), 2, dps=30)
    assert isinstance(zl.precision, mpmath.mpf)
    with mpmath.workdps(80):
        assert abs(zl.precision / mpmath.mpf("1e-30") - 1) < mpmath.mpf("1e-35")


def test_dps_corners_are_exactly_g_apart():
    # the minima are carried at the maxima's precision, also when the caller
    # works at mpmath's default 15 digits
    for g in (Fraction(-1, 4), Fraction(1, 3), Fraction(-1, 10)):
        shape = plancherel_limit_shape(g, n_steps=8, dps=30)
        with mpmath.workdps(80):
            ag = mpmath.mpf(abs(g.numerator)) / g.denominator
            for lo, hi in zip(shape.minima, shape.maxima):
                assert abs(abs(hi - lo) - ag) < mpmath.mpf("1e-28"), g


def test_corners_need_no_bessel_evaluation(monkeypatch):
    # the Sturm count needs no Bessel value, and no count of zeros is refused
    def boom(*args, **kwargs):
        raise AssertionError("Bessel function evaluated")

    monkeypatch.setattr(limitshape, "bessel_j", boom)
    monkeypatch.setattr(limitshape, "bessel_j_mp", boom)
    zeros = bessel_order_zeros(Fraction(-1, 4), 100).zeros
    assert len(zeros) == 100
    assert all(b - a >= 0.25 for a, b in zip(zeros, zeros[1:]))
    # the staircase stops at the first unresolvable gap, as at n_steps = 60
    with pytest.warns(RuntimeWarning, match="truncated to 16"):
        shape = plancherel_limit_shape(Fraction(-1, 4), n_steps=1200)
    assert len(shape.maxima) == 16


def test_edge_values():
    zl = bessel_order_zeros(Fraction(-1, 4), 3, tol=1e-10)
    edges = [-zl.zeros[i] - (i + 1) * (-0.25) for i in range(3)]
    assert edges[0] == pytest.approx(1.336, abs=1e-3)
    assert edges[1] == pytest.approx(0.924, abs=1e-3)
    assert edges[2] == pytest.approx(0.647, abs=1e-3)


def test_limit_shape_duality_reflection():
    lo = plancherel_limit_shape(Fraction(-1, 4), n_steps=6)
    hi = plancherel_limit_shape(Fraction(1, 4), n_steps=6)
    refl = lo.reflect()
    assert refl.orientation == hi.orientation == "extends_to_+inf"
    assert refl.minima == hi.minima and refl.maxima == hi.maxima
    # slopes are +-1 by construction: successive corner values differ by
    # exactly the u-distance
    for u1, u2 in zip(lo.minima, lo.maxima):
        assert lo.evaluate(u2) - lo.evaluate(u1) == pytest.approx(abs(u1 - u2))


def test_first_descending_segment():
    shape = plancherel_limit_shape(Fraction(-1, 4), n_steps=5)
    # the outermost descending segment sits on [-l1, -l1 - g]
    top_max, top_min = shape.maxima[-1], shape.minima[-1]
    assert top_max == pytest.approx(1.086, abs=1e-3)
    assert top_min == pytest.approx(1.336, abs=1e-3)


def test_staircase_atoms_finite_exact_match():
    d = AnisotropicDiagram(Partition([4, 3, 1, 1]), 2, Fraction(1, 2))
    s = d.profile()
    tr = staircase_transition_atoms(s, n=4, N_trunc=4)
    assert tr.measure.exact
    assert tr.measure.atoms == transition_measure(s).atoms
    assert max(tr.sensitivity) == 0  # full truncation is already exact


def test_staircase_atoms_stabilization_and_moments():
    g = Fraction(-1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        shape = plancherel_limit_shape(g, n_steps=22, tol=1e-12)
    n = len(shape.minima) - 1
    assert n >= 14
    atoms = staircase_transition_atoms(shape, n=n, N_trunc=n,
                                       warn_threshold=1e-5)
    meas = atoms.measure
    assert meas.total_mass() == pytest.approx(1.0, abs=1e-6)
    assert all(m > 0 for _, m in meas.atoms)
    # Cauchy-sequence stabilization of the first atom
    prev = None
    deltas = []
    for N in range(6, n + 1, 2):
        a = staircase_transition_atoms(shape, n=3, N_trunc=N,
                                       warn_threshold=1.0)
        first = a.measure.atoms[-1][1]
        if prev is not None:
            deltas.append(abs(first - prev))
        prev = first
    assert deltas[-1] < 1e-6
    assert deltas[-1] < deltas[0]
    # mean of the first-n truncation tends to zero as n grows
    m_small = staircase_transition_atoms(shape, n=6, N_trunc=n,
                                         warn_threshold=1.0).measure.mean()
    assert abs(meas.mean()) < abs(m_small)
    # reconstructed moments match the path formula
    for ell in range(1, 7):
        target = float(limit_moment(ell, g, [1]))
        assert meas.moment(ell) == pytest.approx(target, abs=1e-4)


def test_motzkin_moment_poly():
    assert motzkin_moment_poly(3) == Poly.var("g")
    p4 = motzkin_moment_poly(4)
    assert p4.evaluate({"g": Fraction(1, 2)}) == Fraction(9, 4)


def test_motzkin_moment_poly_equals_one_product_per_step():
    g = Poly.var("g")
    for ell in range(1, 13):
        want = Poly.const(0)
        for exc in enumerate_motzkin(ell):
            term, prev = Poly.const(1), 0
            for y in exc.heights[1:]:
                if y == prev:
                    term = term * (y * g)
                prev = y
            want = want + term
        got = motzkin_moment_poly(ell)
        assert got.terms == want.terms, ell
        assert all(type(c) is Fraction for c in got.terms.values())
