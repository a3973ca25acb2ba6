"""The sparse-term core shared by Poly and PowerSumPoly: the checking
constructor on outside input, the ring laws, and the invariant every ring
result keeps (nonzero Fraction coefficients on normalised keys)."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jackpaths.jack import PowerSumPoly, omega_dual
from jackpaths.partitions import Partition
from jackpaths.polynomials import Poly, _SparseTerms, _normal_monomial

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)

# outside monomials: unsorted, with repeated variables and zero exponents
raw_monomials = st.lists(st.tuples(st.sampled_from(["g", "v1", "v2"]),
                                   st.integers(0, 2)), max_size=4).map(tuple)
polys = st.dictionaries(raw_monomials, coeffs, max_size=4).map(Poly)

partition_keys = st.lists(st.integers(1, 3), max_size=3).map(
    lambda xs: tuple(sorted(xs, reverse=True)))
power_sums = st.dictionaries(partition_keys, coeffs, max_size=4).map(PowerSumPoly)


def assert_clean(x):
    for key, c in x.terms.items():
        assert type(c) is Fraction and c != 0
        if isinstance(x, Poly):
            assert key == _normal_monomial(key) and all(e > 0 for _, e in key)
        else:
            assert type(key) is Partition


def ring_results(x, y):
    out = [x + y, x - y, x * y, -x, x + x * y - y]
    if isinstance(x, Poly):
        out += [x ** 2, x.derivative("g"), x.derivative("v2"), x + 1, 2 - x, x * 0,
                Poly.const(Fraction(1, 3)), Poly.var("v1", 2)]
    else:
        out += [x.scale(Fraction(-2, 3)), x.scale(0), x.diff_p(1), x.lower(2, 3),
                omega_dual(x, Fraction(2, 3)), PowerSumPoly.p(2), PowerSumPoly.one()]
    return out


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(polys, polys, polys),
                 st.tuples(power_sums, power_sums, power_sums)))
def test_ring_laws(xyz):
    x, y, z = xyz
    zero = x - x
    assert zero.is_zero() and x + zero == x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z and x - y == x + (-y)
    assert hash(x + y) == hash(y + x)
    one = Poly.const(1) if isinstance(x, Poly) else PowerSumPoly.one()
    assert x * one == x


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(polys, polys), st.tuples(power_sums, power_sums)))
def test_ring_results_are_clean_and_skip_the_checking_constructor(xy):
    x, y = xy
    assert_clean(x)
    with mock.patch.object(_SparseTerms, "__init__", side_effect=AssertionError(
            "a ring result went through the checking constructor")):
        results = ring_results(x, y)
    for r in results:
        assert_clean(r)
        assert list(type(r)(r.terms).terms.items()) == list(r.terms.items())


def test_poly_constructor_sums_keys_that_coincide_after_sorting():
    p = Poly({(("a", 1), ("b", 1)): 1, (("b", 1), ("a", 1)): 2})
    assert p.terms == {(("a", 1), ("b", 1)): Fraction(3)}
    assert Poly({(("g", 1),): 1, (("g", 1), ("v1", 0)): -1}).is_zero()


def test_poly_constructor_merges_a_repeated_variable():
    p = Poly({(("g", 1), ("g", 1)): 1})
    assert p == Poly.var("g", 2) and repr(p * 1) == "1*g^2"


def test_poly_constructor_drops_zero_exponents():
    assert Poly({(("g", 0),): 1}) == Poly.const(1)
    assert Poly.var("g", 0) == Poly.const(1)


def test_poly_refuses_a_negative_exponent():
    with pytest.raises(ValueError):
        Poly.var("g", -1)
    with pytest.raises(ValueError):
        Poly({(("g", 2), ("v1", -1)): 1})


def test_power_sum_constructor_keys_terms_by_partition():
    f = PowerSumPoly({(2, 1): 1, Partition([2, 1]): 2, (): -1})
    assert f.coefficient(Partition([2, 1])) == 3
    assert f == PowerSumPoly.monomial(Partition([2, 1]), 3) - PowerSumPoly.one()
    with pytest.raises(ValueError):
        PowerSumPoly({(1, 2): 1})
