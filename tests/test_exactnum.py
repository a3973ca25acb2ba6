import itertools
from fractions import Fraction

import pytest

from jackpaths.exactnum import SqrtExt, sqrt_ext

ELEMENTS = [Fraction(0), Fraction(3), Fraction(-2, 5), sqrt_ext(1, 2, 3),
            sqrt_ext(1, -2, 3), sqrt_ext(Fraction(-1, 2), Fraction(1, 7), 3),
            sqrt_ext(0, -1, 3), sqrt_ext(Fraction(5, 4), Fraction(-3, 8), 3)]


def _parts(x):
    return (x.a, x.b) if isinstance(x, SqrtExt) else (x, Fraction(0))


def _holds_invariant(x):
    # a Fraction, or a SqrtExt with b != 0 over the one non-square alpha
    return type(x) is Fraction or (type(x) is SqrtExt and x.b != 0 and x.alpha == 3
                                   and all(type(z) is Fraction for z in (x.a, x.b)))


def test_sums_and_products_match_the_checked_builder():
    # results built inside one extension equal sqrt_ext of their parts,
    # which checks alpha again, in value and type
    for x, y in itertools.product(ELEMENTS, repeat=2):
        (a, b), (c, d) = _parts(x), _parts(y)
        want = {"+": sqrt_ext(a + c, b + d, 3), "-": sqrt_ext(a - c, b - d, 3),
                "*": sqrt_ext(a * c + 3 * b * d, a * d + b * c, 3)}
        for op, got in (("+", x + y), ("-", x - y), ("*", x * y)):
            assert got == want[op] and type(got) is type(want[op]), (x, op, y)
            assert _holds_invariant(got), (x, op, y)
        if y != 0:
            quotient = x / y
            assert quotient * y == x and _holds_invariant(quotient), (x, y)
        assert ((x < y) - (x > y)) == ((float(x) < float(y)) - (float(x) > float(y)))


def test_a_sum_whose_sqrt_parts_cancel_is_a_fraction():
    total = SqrtExt(1, 2, 3) + SqrtExt(Fraction(1, 2), -2, 3)
    assert type(total) is Fraction and total == Fraction(3, 2)
    assert type(SqrtExt(1, 2, 3) - SqrtExt(0, 2, 3)) is Fraction
    assert type(SqrtExt(0, 1, 3) * SqrtExt(0, 2, 3)) is Fraction


def test_mixing_extensions_and_degenerate_elements_are_refused():
    with pytest.raises(ValueError, match="^mixing different quadratic extensions$"):
        SqrtExt(0, 1, 2) + SqrtExt(0, 1, 3)
    with pytest.raises(ValueError, match="^mixing different quadratic extensions$"):
        SqrtExt(0, 1, 2) < SqrtExt(0, 1, 3)
    for a, b, alpha in ((1, 0, 2), (1, 1, 4), (1, 1, Fraction(9, 4)), (1, 1, -2), (1, 1, 0)):
        with pytest.raises(ValueError, match="use sqrt_ext$"):
            SqrtExt(a, b, alpha)
    assert sqrt_ext(1, 1, Fraction(9, 4)) == Fraction(5, 2)
    assert sqrt_ext(1, 0, 2) == 1
