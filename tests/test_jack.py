import hashlib
import json
from fractions import Fraction

import pytest

from jackpaths.diagrams import AnisotropicDiagram, observable_family, transition_measure
from jackpaths.exactnum import SqrtExt, alpha_half_power, sqrt_ext
from jackpaths.jack import (PowerSumPoly, Specialization,
                            duality_character_check, hall_inner,
                            irreducible_character, jack_basis,
                            jack_polynomial, normalized_character, ns_apply,
                            omega_dual, theta_coefficient)
from jackpaths.partitions import (Partition, content_product, j_alpha,
                                  partitions_of)

ALPHA = Fraction(5, 7)


def test_power_sum_arithmetic():
    p1, p2 = PowerSumPoly.p(1), PowerSumPoly.p(2)
    sq = p1 * p1
    assert sq.coefficient(Partition([1, 1])) == 1
    assert (sq - sq).is_zero()
    assert sq.diff_p(1) == p1.scale(2)
    assert p2.lower(2, ALPHA) == PowerSumPoly.one().scale(2 * ALPHA)
    assert (p1 * p2).coefficient(Partition([2, 1])) == 1


def test_power_sum_derivatives_refuse_a_k_that_is_not_an_int():
    sq = PowerSumPoly.p(2) * PowerSumPoly.p(2)
    assert sq.diff_p(2) == PowerSumPoly.p(2).scale(2)
    for bad in (2.5, True, 2.0, "2"):
        with pytest.raises(ValueError, match=f"^k must be an int, got {bad!r}$"):
            sq.diff_p(bad)
        with pytest.raises(ValueError, match=f"^k must be an int, got {bad!r}$"):
            sq.lower(bad, ALPHA)
    with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
        sq.diff_p(0)


def test_jack_degree_two():
    assert jack_polynomial(Partition([1]), ALPHA) == PowerSumPoly.p(1)
    J2 = jack_polynomial(Partition([2]), ALPHA)
    assert J2 == PowerSumPoly({Partition([1, 1]): 1, Partition([2]): ALPHA})
    J11 = jack_polynomial(Partition([1, 1]), ALPHA)
    assert J11 == PowerSumPoly({Partition([1, 1]): 1, Partition([2]): -1})


def test_hall_inner_examples():
    p2 = PowerSumPoly.p(2)
    assert hall_inner(p2, p2, ALPHA) == 2 * ALPHA
    p11 = PowerSumPoly.p(1) * PowerSumPoly.p(1)
    assert hall_inner(p11, p2, ALPHA) == 0
    J2 = jack_polynomial(Partition([2]), ALPHA)
    assert hall_inner(J2, J2, ALPHA) == j_alpha(Partition([2]), ALPHA)


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(2)])
def test_orthogonality_and_norms(alpha):
    for d in range(0, 6):
        basis = jack_basis(d, alpha)
        lams = list(basis)
        for i, lam in enumerate(lams):
            assert hall_inner(basis[lam], basis[lam], alpha) == j_alpha(lam, alpha)
            for nu in lams[i + 1:]:
                assert hall_inner(basis[lam], basis[nu], alpha) == 0


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3)])
def test_cauchy_identity_per_degree(alpha):
    # sum_lam theta_mu(lam) theta_nu(lam)/j_lam == delta_{mu nu}/(alpha^l z_mu)
    for d in range(1, 7):
        parts = list(partitions_of(d))
        for mu in parts:
            for nu in parts:
                acc = Fraction(0)
                for lam in parts:
                    acc += (theta_coefficient(lam, mu, alpha)
                            * theta_coefficient(lam, nu, alpha)
                            / j_alpha(lam, alpha))
                want = (1 / (alpha ** mu.length() * mu.z_factor())
                        if mu == nu else Fraction(0))
                assert acc == want, (d, mu, nu)


def test_theta_normalization():
    for d in range(1, 6):
        ones = Partition([1] * d)
        for lam in partitions_of(d):
            assert theta_coefficient(lam, ones, ALPHA) == 1


def test_omega_dual_generator_and_jack():
    p2 = PowerSumPoly.p(2)
    assert omega_dual(p2, ALPHA) == p2.scale(-1 / ALPHA)
    p111 = PowerSumPoly.monomial(Partition([1, 1, 1]))
    assert omega_dual(p111, ALPHA) == p111.scale(ALPHA ** -3)
    for d in range(1, 6):
        for lam in partitions_of(d):
            lhs = omega_dual(jack_polynomial(lam, 1 / ALPHA), ALPHA)
            rhs = jack_polynomial(lam.conjugate(), ALPHA).scale(ALPHA ** -d)
            assert lhs == rhs


def test_irreducible_character_values():
    # chi(1^d) = 1 always
    for d in range(1, 6):
        ones = Partition([1] * d)
        for lam in partitions_of(d):
            assert irreducible_character(lam, ones, ALPHA) == 1
    # degree-2 hand values, at a square alpha so sqrt collapses
    assert irreducible_character(Partition([2]), Partition([2]), Fraction(4)) == 2
    assert irreducible_character(Partition([1, 1]), Partition([2]),
                                 Fraction(4)) == Fraction(-1, 2)
    # at non-square alpha the values live in Q(sqrt(alpha))
    val = irreducible_character(Partition([2]), Partition([2]), Fraction(2))
    assert isinstance(val, SqrtExt) and val == sqrt_ext(0, 1, 2)
    with pytest.raises(ValueError):
        irreducible_character(Partition([2]), Partition([1]), ALPHA)


def test_normalized_character():
    for d in range(1, 6):
        for lam in partitions_of(d):
            assert normalized_character(Partition(), lam, ALPHA) == 1
            assert normalized_character(Partition([1]), lam, ALPHA) == d
    assert normalized_character(Partition([2]), Partition([1]), ALPHA) == 0


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1), Fraction(2)])
def test_character_duality(alpha):
    for d in range(1, 7):
        for lam in partitions_of(d):
            for mu in partitions_of(d):
                assert duality_character_check(lam, mu, alpha)


def test_ns_apply_examples():
    p1 = PowerSumPoly.p(1)
    assert ns_apply(1, p1, ALPHA) == p1.scale(ALPHA * (ALPHA - 1))
    for lam in partitions_of(3):
        J = jack_polynomial(lam, ALPHA)
        assert ns_apply(0, J, ALPHA) == J.scale(3 * ALPHA)


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(2)])
def test_ns_eigenrelation(alpha):
    for d in range(1, 5):
        for lam, J in jack_basis(d, alpha).items():
            tm = transition_measure(AnisotropicDiagram(lam, alpha, 1).profile())
            booleans = observable_family(tm, "boolean", 6)
            for ell in range(0, 4):
                assert ns_apply(ell, J, alpha) == J.scale(booleans[ell + 1])


def test_specializations():
    pl = Specialization.plancherel(Fraction(3))
    assert pl(1) == 3 and pl(2) == 0
    assert pl.on_partition(Partition([1, 1])) == 9
    pr = Specialization.principal(Fraction(2), Fraction(1, 2))
    assert pr(3) == 2 * Fraction(1, 4)
    J2 = jack_polynomial(Partition([2]), ALPHA)
    assert pl.apply(J2) == 9  # only the p_1^2 term survives


def test_alpha_half_power():
    assert alpha_half_power(Fraction(4), -3) == Fraction(1, 8)
    v = alpha_half_power(Fraction(2), -1)
    assert isinstance(v, SqrtExt)
    assert v * v == Fraction(1, 2)


def test_powersum_json():
    J2 = jack_polynomial(Partition([2]), ALPHA)
    data = J2.to_json()
    assert {"p_mu": [1, 1], "coeff": "1"} in data
    assert {"p_mu": [2], "coeff": "5/7"} in data
    assert "p1" in J2.pretty()


def test_specialization_of_reads_every_form_alike():
    vals = [Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(3, 7)]
    want = vals + [Fraction(0)] * 4
    forms = [vals, tuple(vals), (x for x in vals), ["1", "-1/2", 0, "3/7"],
             {1: 1, 2: Fraction(-1, 2), 4: Fraction(3, 7)},
             {"1": 1, "2": "-1/2", "4": "3/7"},
             lambda k: vals[k - 1] if k <= len(vals) else 0,
             Specialization(lambda k: vals[k - 1] if k <= len(vals) else 0)]
    for form in forms:
        spec = Specialization.of(form)
        got = [spec(k) for k in range(1, 9)]
        assert got == want
        assert all(type(x) is Fraction for x in got)
        assert spec.on_partition(Partition([4, 2, 1])) == Fraction(-3, 14)
    spec = Specialization.of(vals)
    assert Specialization.of(spec) is spec
    assert [spec(k) for k in range(1, 9)] == want  # read more than once



class _FractionSubclass(Fraction):
    pass


@pytest.mark.parametrize("value", [3, -2.5, True, Fraction(-3, 7),
                                   _FractionSubclass(5, 4)])
def test_specialization_returns_a_fraction_of_any_rule_value(value):
    got = Specialization(lambda k: value)(2)
    assert type(got) is Fraction and got == Fraction(value)
    if type(value) is Fraction:
        assert got is value


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1), Fraction(7, 2)])
def test_content_product_is_the_principal_jack_value(alpha):
    # Stanley's alpha-content formula against the power-sum expansion of J_lam
    for x in (Fraction(3, 2), Fraction(-2, 5), Fraction(4)):
        for c in (Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 4),
                  Fraction(0)):
            spec = Specialization(lambda k: x * c ** (k - 1))
            for d in range(7):
                basis = jack_basis(d, alpha)
                for lam in partitions_of(d):
                    got = content_product(lam, alpha, x, c)
                    assert type(got) is Fraction
                    assert got == spec.apply(basis[lam])


PIN_ALPHAS = (Fraction(1, 3), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2),
              Fraction(7, 2))
JACK_BASIS_PIN = "27913ac4b447a23ae504f4db0da7bd38ab206fa7467d734ec6547d870fcdfcfd"


def test_jack_basis_is_pinned():
    """Every Jack element of degree <= 10 at six alphas, one line per
    element in basis order, [alpha, lam, [{p_mu, coeff}]] with the terms in
    PowerSumPoly.to_json order, digests to the value the Fraction tables of
    the recursion gave."""
    lines = []
    for alpha in PIN_ALPHAS:
        for d in range(11):
            for lam, J in jack_basis(d, alpha).items():
                assert all(type(c) is Fraction for c in J.terms.values())
                lines.append(json.dumps([str(alpha), list(lam.parts), J.to_json()]))
    assert len(lines) == 6 * sum(len(partitions_of(d)) for d in range(11))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == JACK_BASIS_PIN
