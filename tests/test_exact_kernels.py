"""The cleared-integer kernels against the literal cell-by-cell Fraction
formulas they replace, which are kept here as oracles."""

from fractions import Fraction

import pytest

from jackpaths import series
from jackpaths.diagrams import (AnisotropicDiagram, DiscreteMeasure,
                                StaircaseShape, observable_family,
                                transition_measure)
from jackpaths.ensembles import JackSchurWeyl, JackThoma
from jackpaths.jack import theta_coefficient
from jackpaths.partitions import Partition, j_alpha, partitions_of

ALPHAS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3),
          Fraction(7, 2), Fraction(1, 100)]


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def literal_j_alpha(p, alpha):
    conj = p.conjugate()
    out = Fraction(1)
    for i, j in p.cells():
        arm = p.parts[i - 1] - j
        leg = conj.parts[j - 1] - i
        out *= (alpha * arm + leg + 1) * (alpha * arm + leg + alpha)
    return out


def literal_principal_jack_value(lam, alpha, u0, c):
    prod = Fraction(1)
    for i, j in lam.cells():
        prod *= u0 / c + alpha * (j - 1) - (i - 1)
    return c ** lam.size() * prod


def literal_schur_weyl_mass(lam, alpha, K, dual):
    d = lam.size()
    prod = Fraction(1)
    for i, j in lam.cells():
        if dual:
            prod *= (K + 1 - j) * alpha + (i - 1)
        else:
            prod *= K + (j - 1) * alpha - (i - 1)
    if dual:
        return _factorial(d) * prod / (Fraction(K) ** d * literal_j_alpha(lam, alpha))
    return (_factorial(d) * alpha ** d * prod
            / (Fraction(K) ** d * literal_j_alpha(lam, alpha)))


def literal_transition_measure(shape):
    xs, ys = shape.minima, shape.maxima
    atoms = []
    for i, x in enumerate(xs):
        num = Fraction(1)
        for y in ys:
            num *= x - y
        den = Fraction(1)
        for j, x2 in enumerate(xs):
            if j != i:
                den *= x - x2
        atoms.append((x, num / den))
    return atoms


def literal_series_inv(a, order):
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / Fraction(a[0])
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if k < len(a) and a[k]:
                acc += Fraction(a[k]) * inv[n - k]
        inv[n] = -acc / Fraction(a[0])
    return inv


def _upto(n):
    return [lam for d in range(n + 1) for lam in partitions_of(d)]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_j_alpha_matches_cell_product(alpha):
    for lam in _upto(12):
        got = j_alpha(lam, alpha)
        assert type(got) is Fraction
        assert got == literal_j_alpha(lam, alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_principal_jack_value_matches_cell_product(alpha):
    u = Fraction(3, 2)
    for c in (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7), Fraction(-2)):
        ens = JackThoma(alpha, u, lambda k: c ** (k - 1), check_positivity=False)
        assert ens._principal == (Fraction(1), c)
        for lam in _upto(12):
            want = literal_principal_jack_value(lam, alpha, u, c)
            assert ens.rational_mass(lam) == \
                want * u ** lam.size() / literal_j_alpha(lam, alpha)


def theta_loop_jack_value(lam, alpha, u, vget):
    """J_lam at the scaled sequence u*v by its power-sum expansion:
    sum_mu theta_mu(lam) prod_i u*v_{mu_i}, with vget the lookup k -> v_k."""
    total = Fraction(0)
    for mu in partitions_of(lam.size()):
        th = theta_coefficient(lam, mu, alpha)
        if th:
            val = th
            for part in mu.parts:
                val *= u * vget(part)
            total += val
    return total


GENERIC_V = [
    ([Fraction(1), Fraction(1, 2), Fraction(-1, 3)],
     lambda k: [Fraction(1), Fraction(1, 2), Fraction(-1, 3)][k - 1] if k <= 3 else 0),
    ({1: 2, 3: Fraction(1, 5)}, lambda k: {1: 2, 3: Fraction(1, 5)}.get(k, 0)),
    (lambda k: Fraction(1, k * k), lambda k: Fraction(1, k * k)),
]


@pytest.mark.parametrize("alpha", [Fraction(2, 3), Fraction(2)])
@pytest.mark.parametrize("v, vget", GENERIC_V, ids=["list", "dict", "callable"])
def test_generic_thoma_mass_matches_theta_loop(alpha, v, vget):
    u = Fraction(3, 2)
    ens = JackThoma(alpha, u, v, check_positivity=False)
    assert ens._principal is None
    assert ens.exponent == u ** 2 * vget(1) / alpha
    for lam in _upto(8):
        want = (theta_loop_jack_value(lam, alpha, u, vget) * u ** lam.size()
                / literal_j_alpha(lam, alpha))
        assert ens.rational_mass(lam) == want


@pytest.mark.parametrize("alpha", [Fraction(2, 3), Fraction(7, 2)])
def test_schur_weyl_mass_matches_cell_product(alpha):
    for d in range(1, 8):
        for dual in (False, True):
            ens = JackSchurWeyl(alpha, d, K=3, dual=dual)
            for lam in partitions_of(d):
                assert ens.mass(lam) == literal_schur_weyl_mass(lam, alpha, 3, dual)


def test_transition_measure_with_fractional_maxima_only():
    # lambda = (2,1) at w = h = 1/2: integer minima, half-integer maxima
    shape = AnisotropicDiagram(Partition([2, 1]), Fraction(1, 2),
                               Fraction(1, 2)).profile()
    assert all(x.denominator == 1 for x in shape.minima)
    assert any(y.denominator > 1 for y in shape.maxima)
    m = transition_measure(shape)
    assert m.atoms == literal_transition_measure(shape)
    assert m.total_mass() == 1 and m.mean() == 0


def test_transition_measure_matches_partial_fractions():
    for w, h in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 3), Fraction(5, 4)),
                 (Fraction(7, 2), Fraction(1, 3)), (Fraction(1), Fraction(1, 6))):
        for lam in _upto(8):
            shape = AnisotropicDiagram(lam, w, h).profile()
            assert transition_measure(shape).atoms == \
                literal_transition_measure(shape)
    ints = StaircaseShape([-3, 0, 4], [-1, 2])
    assert transition_measure(ints).atoms == literal_transition_measure(ints)


def test_observable_family_moments_match_atom_sums():
    measures = [DiscreteMeasure([(Fraction(-1, 3), Fraction(2, 5)),
                                 (Fraction(4), Fraction(3, 5))]),
                DiscreteMeasure([(-2, Fraction(1, 4)), (0, Fraction(-1, 2)),
                                 (Fraction(5, 6), Fraction(5, 4))])]
    for lam in _upto(6):
        measures.append(transition_measure(
            AnisotropicDiagram(lam, Fraction(2, 3), Fraction(3, 5)).profile()))
    for m in measures:
        want = [sum(mass * pos ** k for pos, mass in m.atoms) for k in range(1, 9)]
        assert observable_family(m, "moment", 8) == want


def test_series_inv_matches_fraction_recursion():
    cases = [
        [Fraction(3, 2), Fraction(0), Fraction(-5, 7), Fraction(0), Fraction(2)],
        [Fraction(-4, 9), Fraction(1, 3), Fraction(0), Fraction(0), Fraction(7, 5)],
        [2, 0, 0, 1],
        [Fraction(1), Fraction(0), Fraction(0)],
    ]
    for a in cases:
        for order in (0, 1, 3, 8):
            got = series.series_inv(a, order)
            assert got == literal_series_inv(a, order)
            assert all(type(x) is Fraction for x in got)
    with pytest.raises(ZeroDivisionError):
        series.series_inv([0, 1], 3)
