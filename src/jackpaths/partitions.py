"""Integer partitions (Young diagrams) and the exact quantities attached to
them: conjugation, the z_mu factor, the alpha-deformed hook-like product
j_alpha that normalizes the Jack basis, and the alpha-content product that
gives a Jack polynomial at a principal specialization."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactnum import _int_arg, _positive_arg


class Partition:
    """Weakly decreasing tuple of positive integers; the empty partition is
    allowed.  Immutable and hashable, usable as a dict key everywhere."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple([_int_arg(p, "parts", 1) for p in parts])
        for i in range(1, len(parts)):
            if parts[i - 1] < parts[i]:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        self.parts = parts

    @classmethod
    def _of(cls, parts: tuple):
        """Wrap a tuple of parts that is already a partition, unchecked."""
        out = cls.__new__(cls)
        out.parts = parts
        return out

    # -- basic statistics ------------------------------------------------

    def size(self) -> int:
        return sum(self.parts)

    def length(self) -> int:
        return len(self.parts)

    def weight(self) -> int:
        """|mu| - l(mu), the exponent tracked by character dualities."""
        return self.size() - self.length()

    def multiplicity(self, i: int) -> int:
        return self.parts.count(_int_arg(i, "i", None))

    def multiplicities(self) -> dict:
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def z_factor(self) -> int:
        """z_mu = prod_i m_i! * i^{m_i}."""
        out = 1
        for i, m in self.multiplicities().items():
            out *= _factorial(m) * i ** m
        return out

    # -- structure ---------------------------------------------------------

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def cells(self):
        """Yield (i, j) with 1-based row i and column j."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield i, j

    def union(self, other: "Partition") -> "Partition":
        """Product of partitions: the multiset union of parts."""
        return Partition(sorted(self.parts + other.parts, reverse=True))

    def contains(self, other: "Partition") -> bool:
        if other.length() > self.length():
            return False
        return all(o <= s for s, o in zip(self.parts, other.parts))

    def dominates(self, other: "Partition") -> bool:
        """Dominance order: partial sums of self bound those of other."""
        if self.size() != other.size():
            raise ValueError("dominance compares partitions of equal size")
        acc_s = acc_o = 0
        for k in range(max(self.length(), other.length())):
            acc_s += self.parts[k] if k < self.length() else 0
            acc_o += other.parts[k] if k < other.length() else 0
            if acc_s < acc_o:
                return False
        return True

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        # lexicographic; a linear extension of dominance on each Y_d
        return self.parts < other.parts

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def to_json(self):
        return list(self.parts)

    @staticmethod
    def from_json(data):
        return Partition(data)


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def falling_factorial(n, k: int):
    """n(n-1)...(n-k+1); exact for int or Fraction n."""
    acc = 1
    for i in range(_int_arg(k, "k", 0)):
        acc *= n - i
    return acc


@lru_cache(maxsize=None, typed=True)
def partitions_of(n: int):
    """All partitions of n, ascending lexicographically (a linear extension
    of dominance order, smallest (1^n) first).  The cache is typed, so a
    value that is no int (3.0, True) never reaches the entry of an int."""
    n = _int_arg(n, "n", 0)

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    parts = sorted(gen(n, n))
    return tuple(Partition(p) for p in parts)


def j_alpha(p: Partition, alpha) -> Fraction:
    """The norm-square product over cells of p:
    prod (alpha*arm + leg + 1)(alpha*arm + leg + alpha), arm/leg taken
    from the cell's row rest and column rest.  Strictly positive.

    With alpha = a/q each factor is (x + q)(x + a)/q^2 for the integer
    x = a*arm + q*leg, so the product runs over ints and divides once."""
    alpha = _positive_arg(alpha, "alpha")
    q = alpha.denominator
    return Fraction(_hook_pairs(p.parts, alpha.numerator, q), q ** (2 * sum(p.parts)))


def _hook_pairs(parts, a: int, q: int) -> int:
    """j_alpha times q^(2|parts|) for alpha = a/q: the integer product over
    cells of (x + q)(x + a), x = a*arm + q*leg."""
    cols = [0] * (parts[0] if parts else 0)
    for row in parts:
        for j in range(row):
            cols[j] += 1
    num = 1
    for i, row in enumerate(parts, start=1):
        for j in range(row):
            x = a * (row - j - 1) + q * (cols[j] - i)
            num *= (x + q) * (x + a)
    return num


def content_product(p: Partition, alpha, x, c):
    """J_p at the principal specialization p_k -> x c^{k-1}, by Stanley's
    alpha-content formula: the product over cells (i, j) of
    x + c (alpha (j-1) - (i-1)), for alpha, x and c ints or Fractions.
    At c = 0 it is x^|p|, in the type of x; otherwise a Fraction.

    Over L = lcm(den x, den c * den alpha) every factor is an integer, so
    the product runs over ints and divides once."""
    size = sum(p.parts)
    if not c:
        return x ** size
    a, q = alpha.numerator, alpha.denominator
    L, base, scale = _cleared_content(alpha, x, c)
    num = 1
    for i, row in enumerate(p.parts):
        start = base - scale * q * i
        for j in range(row):
            num *= start + scale * a * j
    return Fraction(num, L ** size)


def _cleared_content(alpha, x, c):
    """(L, base, scale) with L = lcm(den x, den c * den alpha), so that
    x + c (alpha j - i) = (base - scale q i + scale a j) / L for alpha = a/q
    and all integers i, j."""
    q = alpha.denominator
    L = math.lcm(x.denominator, c.denominator * q)
    base = x.numerator * (L // x.denominator)
    return L, base, c.numerator * (L // (c.denominator * q))
