import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest

from jackpaths import limitshape
from jackpaths.diagrams import AnisotropicDiagram, transition_measure
from jackpaths.limitshape import (JacobiOperator, bessel_j, bessel_j_mp,
                                  bessel_order_zeros,
                                  functional_equation_check, jacobi_moment,
                                  jacobi_moment_symbolic, moment_consistency,
                                  motzkin_moment_poly, plancherel_limit_shape,
                                  plancherel_operator,
                                  staircase_transition_atoms)
from jackpaths.partitions import Partition
from jackpaths.paths import limit_moment, limit_moment_poly
from jackpaths.polynomials import Poly


def test_jacobi_moment_examples():
    op = plancherel_operator(Fraction(1, 2))
    assert jacobi_moment(op, 0) == 1
    assert jacobi_moment(op, 2) == 1
    assert jacobi_moment(op, 4) == 2 + Fraction(1, 4)
    banded = JacobiOperator(Fraction(0), [Fraction(1), Fraction(1, 3)])
    assert jacobi_moment(banded, 3) == Fraction(1, 3)  # single degree-2 path


def test_jacobi_equals_lukasiewicz_symbolically():
    for ell in range(0, 17):
        jac = jacobi_moment_symbolic(ell)
        if ell == 0:
            assert jac == Poly.const(1)
        else:
            assert jac == limit_moment_poly(ell)


def test_triple_moment_consistency():
    assert moment_consistency(Fraction(1, 2), 8)


def test_functional_equation():
    assert functional_equation_check(Fraction(1, 2), 8)
    assert functional_equation_check(Fraction(0), 8)  # the Catalan case
    with pytest.raises(ValueError):
        functional_equation_check(Fraction(1), 1)


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


def test_bessel_zero_counts_beyond_the_scan_are_refused_unevaluated(monkeypatch):
    # the zeros are at least |g| (four scan steps) apart, so more than
    # max_scan // 4 + 1 of them cannot lie in the scan window
    def boom(*args, **kwargs):
        raise AssertionError("bessel_j evaluated")

    monkeypatch.setattr(limitshape, "bessel_j", boom)
    for n, max_scan in ((1002, 4000), (1200, 4000), (4, 8)):
        with pytest.raises(ValueError, match="scan window"):
            bessel_order_zeros(Fraction(-1, 4), n, max_scan=max_scan)
    with pytest.raises(ValueError, match="scan window"):
        plancherel_limit_shape(Fraction(-1, 4), n_steps=1200)


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
