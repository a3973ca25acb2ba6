"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are tuples of (variable, exponent) pairs sorted by variable name;
coefficients are Fractions.  This is the carrier for the symbolic forms of
all asymptotic path formulas (variables "g", "gp", "v2", "v3", ...), with
numeric evaluation as a thin layer on top.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import format_rational

Monomial = tuple  # tuple[tuple[str, int], ...]

_EMPTY: Monomial = ()


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    d = dict(m1)
    for var, exp in m2:
        d[var] = d.get(var, 0) + exp
    return tuple(sorted((v, e) for v, e in d.items() if e != 0))


class Poly:
    """Immutable sparse polynomial over Q."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in dict(terms).items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    clean[tuple(sorted(mono))] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        return Poly({_EMPTY: c} if c else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        if exp == 0:
            return Poly.const(1)
        return Poly({((name, exp),): Fraction(1)})

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, Fraction(0)) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                acc = out.get(mono, Fraction(0)) + c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus and evaluation ------------------------------------------

    def derivative(self, name: str) -> "Poly":
        out = {}
        for mono, coeff in self.terms.items():
            d = dict(mono)
            exp = d.get(name, 0)
            if exp == 0:
                continue
            if exp == 1:
                d.pop(name)
            else:
                d[name] = exp - 1
            new = tuple(sorted(d.items()))
            out[new] = out.get(new, Fraction(0)) + coeff * exp
        return Poly(out)

    def subs(self, assignment: dict) -> "Poly":
        """Substitute variables (values may be Fractions or Polys)."""
        result = Poly.const(0)
        for mono, coeff in self.terms.items():
            term = Poly.const(coeff)
            for var, exp in mono:
                if var in assignment:
                    val = assignment[var]
                    val = val if isinstance(val, Poly) else Poly.const(val)
                    term = term * val ** exp
                else:
                    term = term * Poly.var(var, exp)
            result = result + term
        return result

    def evaluate(self, assignment: dict) -> Fraction:
        """Full numeric evaluation; every variable must be assigned."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            val = coeff
            for var, exp in mono:
                val *= Fraction(assignment[var]) ** exp
            total += val
        return total

    def variables(self):
        vs = set()
        for mono in self.terms:
            vs.update(v for v, _ in mono)
        return vs

    # -- formatting --------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            factors = [] if coeff != 1 or not mono else ["1"]
            if coeff != 1 or not mono:
                factors.append(format_rational(coeff))
            for var, exp in mono:
                factors.append(var if exp == 1 else f"{var}^{exp}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def to_json(self):
        """JSON-friendly list of {"monomial": {...}, "coeff": "p/q"} records."""
        records = []
        for mono, coeff in sorted(self.terms.items()):
            records.append({"monomial": {v: e for v, e in mono},
                            "coeff": format_rational(coeff)})
        return records
