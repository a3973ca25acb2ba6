"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are tuples of (variable, exponent) pairs sorted by variable name;
coefficients are Fractions.  This is the carrier for the symbolic forms of
all asymptotic path formulas (variables "g", "gp", "v2", "v3", ...), with
numeric evaluation as a thin layer on top.  Its term storage and ring
arithmetic (:class:`_SparseTerms`) also carry ``jack.PowerSumPoly``.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import _int_arg, format_rational

Monomial = tuple  # tuple[tuple[str, int], ...]

_EMPTY: Monomial = ()


def _normal_monomial(pairs) -> Monomial:
    """(variable, exponent) pairs sorted by variable, a repeated variable's
    exponents added and zero exponents dropped; a negative one is refused."""
    exps = {}
    for var, exp in pairs:
        if exp < 0:
            raise ValueError(f"negative exponent {exp} of {var}")
        exps[var] = exps.get(var, 0) + exp
    return tuple(sorted((v, e) for v, e in exps.items() if e))


class _SparseTerms:
    """The storage and ring arithmetic shared by :class:`Poly` and
    ``jack.PowerSumPoly``: ``terms`` maps a normalised monomial key to a
    nonzero Fraction.  A subclass sets ``_key`` (outside key -> normalised
    key) and ``_join`` (the key of a product of two monomials).  The checking
    constructor is for outside input; every ring result is wrapped by
    :meth:`_of`, which trusts its terms."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in dict(terms or {}).items():
            key = self._key(key)
            clean[key] = clean.get(key, 0) + Fraction(coeff)
        self.terms = {key: c for key, c in clean.items() if c}

    @classmethod
    def _of(cls, terms: dict):
        """Wrap terms whose keys are normalised and whose coefficients are
        nonzero Fractions."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def _coerce(self, other):
        return other if isinstance(other, type(self)) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        return self._of(out)

    def __neg__(self):
        return self._of({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        join = self._join
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = join(k1, k2)
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return self._of(out)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms


class Poly(_SparseTerms):
    """Immutable sparse polynomial over Q."""

    __slots__ = ()
    _key = staticmethod(_normal_monomial)
    _join = staticmethod(lambda m1, m2: _normal_monomial(m1 + m2))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        return Poly._of({_EMPTY: c} if c else {})

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        return Poly._of({_normal_monomial(((name, exp),)): Fraction(1)})

    # -- ring operations --------------------------------------------------
    # perfbench/layers.py traces these in Poly's own namespace.

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    __add__ = __radd__ = _SparseTerms.__add__
    __neg__ = _SparseTerms.__neg__
    __sub__ = _SparseTerms.__sub__
    __mul__ = __rmul__ = _SparseTerms.__mul__

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, n: int):
        n = _int_arg(n, "n", 0)
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- calculus and evaluation ------------------------------------------

    def derivative(self, name: str) -> "Poly":
        out = {}
        for mono, coeff in self.terms.items():
            exp = dict(mono).get(name, 0)
            if exp:
                lowered = ((v, e - 1) if v == name else (v, e) for v, e in mono)
                out[tuple((v, e) for v, e in lowered if e)] = coeff * exp
        return Poly._of(out)

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
