"""Exact scalar arithmetic: rationals rendered "p/q" and the quadratic
extension Q(sqrt(alpha)) needed by Jack character identities.  The package
reads numbers at its boundary here: "p/q" text by :func:`parse_rational`,
integer arguments (orders, sizes, lengths, counts, parts) by
:func:`_int_arg` and positive rational parameters (alpha, u, box sides,
tail targets) by :func:`_positive_arg`; each refusal is a ValueError whose
message starts with the argument's name."""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def _int_arg(x, name: str, least):
    """x as an int: any value with ``__index__`` but a bool (so ints and
    numpy integers, not floats, Fractions or text), refused below ``least``
    (None for no bound)."""
    if type(x) is not int:
        if isinstance(x, bool) or not hasattr(x, "__index__"):
            raise ValueError(f"{name} must be an int, got {x!r}")
        x = operator.index(x)
    if least is not None and x < least:
        raise ValueError(f"{name} must be >= {least}, got {x}")
    return x


def _positive_arg(x, name: str) -> Fraction:
    """Fraction(x), refused unless it converts and is > 0."""
    try:
        q = Fraction(x)
    except (TypeError, ValueError, ArithmeticError):
        q = None
    if q is None or q <= 0:
        raise ValueError(f"{name} must be positive, got {x}")
    return q


def parse_rational(text) -> Fraction:
    """Parse "p/q" (or "p", or a float-looking string) into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num.strip()), int(den.strip()))
    if "." in s or "e" in s or "E" in s:
        return Fraction(s)
    return Fraction(int(s))


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def sqrt_exact(q: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("square root of negative rational")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class SqrtExt:
    """Number a + b*sqrt(alpha) with a, b, alpha rational, alpha > 0 not a
    perfect square and b != 0 (those cases collapse to Fraction via
    :func:`sqrt_ext`).  Supports field arithmetic and exact comparison."""

    __slots__ = ("a", "b", "alpha")

    def __init__(self, a, b, alpha):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.alpha = Fraction(alpha)

    # -- helpers ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SqrtExt):
            if other.alpha != self.alpha:
                raise ValueError("mixing different quadratic extensions")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return -1 if b < 0 else 1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2*alpha
        lhs, rhs = a * a, b * b * self.alpha
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if lhs < rhs else (-1 if lhs > rhs else 0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return sqrt_ext(self.a + co[0], self.b + co[1], self.alpha)

    __radd__ = __add__

    def __neg__(self):
        return SqrtExt(-self.a, -self.b, self.alpha)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return sqrt_ext(self.a - co[0], self.b - co[1], self.alpha)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        c, d = co
        return sqrt_ext(self.a * c + self.b * d * self.alpha,
                        self.a * d + self.b * c, self.alpha)

    __rmul__ = __mul__

    def inverse(self):
        den = self.a * self.a - self.b * self.b * self.alpha
        if den == 0:
            raise ZeroDivisionError("zero element of Q(sqrt(alpha))")
        return sqrt_ext(self.a / den, -self.b / den, self.alpha)

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        if co[1] == 0:
            if co[0] == 0:
                raise ZeroDivisionError
            return sqrt_ext(self.a / co[0], self.b / co[0], self.alpha)
        return self * SqrtExt(co[0], co[1], self.alpha).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Fraction(1)
        base = self
        while n:
            if n & 1:
                out = base * out
            base = base * base
            n >>= 1
        return out

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        # b != 0 and alpha not a square, so equality with a rational is impossible
        return self.a == co[0] and self.b == co[1]

    def __hash__(self):
        return hash((self.a, self.b, self.alpha))

    def _cmp(self, other) -> int:
        co = self._coerce(other)
        if co is None:
            raise TypeError(f"cannot compare SqrtExt with {type(other)!r}")
        return sqrt_ext_sign(self.a - co[0], self.b - co[1], self.alpha)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions --------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(float(self.alpha))

    def __repr__(self):
        return (f"({format_rational(self.a)} + {format_rational(self.b)}"
                f"*sqrt({format_rational(self.alpha)}))")


def sqrt_ext(a, b, alpha):
    """Build a + b*sqrt(alpha), collapsing to Fraction whenever possible."""
    a, b, alpha = Fraction(a), Fraction(b), Fraction(alpha)
    if b == 0:
        return a
    root = sqrt_exact(alpha)
    if root is not None:
        return a + b * root
    return SqrtExt(a, b, alpha)


def sqrt_ext_sign(a, b, alpha) -> int:
    val = sqrt_ext(a, b, alpha)
    if isinstance(val, Fraction):
        return -1 if val < 0 else (1 if val > 0 else 0)
    return val.sign()


def alpha_half_power(alpha, k: int):
    """alpha**(k/2) as an exact value, k any integer."""
    alpha, k = _positive_arg(alpha, "alpha"), _int_arg(k, "k", None)
    if k % 2 == 0:
        return alpha ** (k // 2)
    return sqrt_ext(0, alpha ** ((k - 1) // 2), alpha)
