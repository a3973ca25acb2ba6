"""Symmetric functions in the power-sum basis at rational alpha: the
deformed Hall product, the Jack basis from Stanley's triangular recursion
in the monomial basis, irreducible/normalized characters, specializations,
and the band-operator transfer construction acting on the Jack basis."""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from functools import lru_cache

from .exactnum import (SqrtExt, _int_arg, _positive_arg, alpha_half_power,
                       format_rational)
from .partitions import Partition, falling_factorial, partitions_of, _factorial
from .polynomials import _SparseTerms

DEGREE_CAP = 12

_cache_lock = threading.Lock()
_basis_cache: dict = {}


class PowerSumPoly(_SparseTerms):
    """Element of Q[p_1, p_2, ...] stored as {exponent partition: coeff};
    the monomial p_mu is keyed by mu, the constant 1 by the empty partition.
    The checking constructor reads an outside key as Partition(key).  Zero
    coefficients are never stored."""

    __slots__ = ()
    _key = staticmethod(Partition)
    _join = staticmethod(Partition.union)

    @staticmethod
    def zero() -> "PowerSumPoly":
        return PowerSumPoly._of({})

    @staticmethod
    def one() -> "PowerSumPoly":
        return PowerSumPoly._of({Partition(): Fraction(1)})

    @staticmethod
    def p(k: int) -> "PowerSumPoly":
        return PowerSumPoly._of({Partition([_int_arg(k, "k", 1)]): Fraction(1)})

    @staticmethod
    def monomial(mu: Partition, coeff=1) -> "PowerSumPoly":
        return PowerSumPoly({mu: coeff})

    def coefficient(self, mu: Partition) -> Fraction:
        return self.terms.get(mu, Fraction(0))

    def degree(self) -> int:
        return max((mu.size() for mu in self.terms), default=0)

    def scale(self, c) -> "PowerSumPoly":
        c = Fraction(c)
        return PowerSumPoly._of({mu: coeff * c for mu, coeff in self.terms.items()}
                                if c else {})

    # -- operators ---------------------------------------------------------

    def diff_p(self, k: int) -> "PowerSumPoly":
        """Partial derivative with respect to p_k."""
        k, out = _int_arg(k, "k", 1), {}
        for mu, coeff in self.terms.items():
            m = mu.multiplicity(k)
            if m:
                reduced = list(mu.parts)
                reduced.remove(k)
                out[Partition(reduced)] = coeff * m
        return PowerSumPoly._of(out)

    def lower(self, k: int, alpha) -> "PowerSumPoly":
        """The annihilation operator p_{-k} = alpha*k*d/dp_k."""
        return self.diff_p(k).scale(Fraction(alpha) * k)

    # -- formatting ----------------------------------------------------------

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for mu in sorted(self.terms, key=lambda m: (m.size(), m.parts)):
            c = self.terms[mu]
            mono = "*".join(f"p{part}" for part in mu.parts) or "1"
            chunks.append(f"({format_rational(c)})*{mono}")
        return " + ".join(chunks)

    def to_json(self):
        return [{"p_mu": list(mu.parts), "coeff": format_rational(c)}
                for mu, c in sorted(self.terms.items(),
                                    key=lambda kv: (kv[0].size(), kv[0].parts))]

    def __repr__(self):
        return f"PowerSumPoly({self.pretty()})"


# ---------------------------------------------------------------------------
# Hall product and basis changes
# ---------------------------------------------------------------------------


def hall_inner(f: PowerSumPoly, g: PowerSumPoly, alpha):
    """Deformed Hall product: <p_mu, p_nu> = delta * alpha^{l(mu)} z_mu."""
    alpha = _positive_arg(alpha, "alpha")
    total = Fraction(0)
    small, large = (f.terms, g.terms) if len(f.terms) <= len(g.terms) else (g.terms, f.terms)
    for mu, c in small.items():
        c2 = large.get(mu)
        if c2 is not None:
            total += c * c2 * alpha ** mu.length() * mu.z_factor()
    return total


@lru_cache(maxsize=None)
def _powersum_in_monomials(d: int):
    """The integer matrix R of p_mu = sum R[mu][kappa] m_kappa, |mu| = d,
    indexed as partitions_of(d), as (cols, diag): cols[k] lists the nonzero
    (j, R[j][k]) above the diagonal diag[k] (R is triangular in dominance
    order).  R[mu][kappa] counts the maps from the parts of mu onto the rows
    of kappa that fill each row; the parts sent to the last row s form a
    partition S of s, in prod_v C(m_v(mu), m_v(S)) ways, and the rest is
    counted by the table of degree d - s."""
    if not d:
        return [[]], [1]
    tuples = [[lam.parts for lam in partitions_of(n)] for n in range(d + 1)]
    index = [{mu: j for j, mu in enumerate(ts)} for ts in tuples]
    cols, diag = [], []
    for kappa in tuples[d]:
        s = kappa[-1]
        low, (low_cols, low_diag) = tuples[d - s], _powersum_in_monomials(d - s)
        i, acc = index[d - s][kappa[:-1]], {}
        for j, c in low_cols[i] + [(i, low_diag[i])]:
            if s == 1:  # the one S = (1,), so mu is low[j] with a 1 appended
                mu = low[j] + (1,)
                acc[index[d][mu]] = acc.get(index[d][mu], 0) + c * mu.count(1)
                continue
            for S in tuples[s]:
                mu, w = tuple(sorted(low[j] + S, reverse=True)), c
                for v in set(S):
                    w *= math.comb(mu.count(v), S.count(v))
                acc[index[d][mu]] = acc.get(index[d][mu], 0) + w
        diag.append(acc.pop(len(cols)))
        cols.append(sorted(acc.items()))
    return cols, diag


@lru_cache(maxsize=None)
def _recursion_tables(d: int):
    """The alpha-free data of Stanley's recursion at degree d, indexed as
    partitions_of(d): rho_mu = A[mu] - (2/alpha) B[mu] with
    A = sum mu_i(mu_i - 1) and B = sum (i - 1) mu_i, and the raisings of
    each mu as [(index of nu, summed weight mu_i - mu_j + 2t)] over
    nu = sort(mu + t(e_i - e_j)), i < j, 1 <= t <= mu_j.  Distinct values
    u = mu_i >= v = mu_j and t give distinct nu, so each pair of values is
    taken once, its weight times the number of pairs (i, j) holding it."""
    index = {lam.parts: k for k, lam in enumerate(partitions_of(d))}
    rho_a = [sum(x * (x - 1) for x in mu) for mu in index]
    rho_b = [sum(i * x for i, x in enumerate(mu)) for mu in index]
    raisings = []
    for mu in index:
        vals, out = sorted(set(mu), reverse=True), []
        for n, u in enumerate(vals):
            for v in vals[n:]:
                pairs = mu.count(u) * mu.count(v) if v < u else math.comb(mu.count(u), 2)
                for t in range(1, v + 1) if pairs else ():
                    nu = sorted(mu + (u + t, v - t), reverse=True)
                    nu.remove(u)
                    nu.remove(v)
                    out.append((index[tuple(filter(None, nu))], pairs * (u - v + 2 * t)))
        raisings.append(out)
    return rho_a, rho_b, raisings


def _monomial_row(d: int, k: int, a: int, q: int) -> list:
    """Integer multiples s*c_mu, indexed as partitions_of(d), of the
    monomial coefficients of the Jack element of lam = partitions_of(d)[k]
    at alpha = a/q, with c_lam = 1.  Walking mu down in lex order,
    (rho_lam - rho_mu) c_mu = (2/alpha) sum w c_nu over the raisings nu of
    mu, times a, is the integer equation (a dA - 2q dB) c_mu = 2q sum w c_nu;
    the common factor s grows only by what each c_mu needs."""
    rho_a, rho_b, raisings = _recursion_tables(d)
    row = [0] * len(rho_a)
    row[k] = 1
    for i in range(k - 1, -1, -1):
        x = 0
        for j, w in raisings[i]:
            x += w * row[j]
        if not x:
            continue  # mu is not dominated by lam, nor is any raising of it
        x, den = 2 * q * x, a * (rho_a[k] - rho_a[i]) - 2 * q * (rho_b[k] - rho_b[i])
        if not den:
            raise ArithmeticError(f"rho_lam = rho_mu at lam, mu = "
                                  f"{partitions_of(d)[k]}, {partitions_of(d)[i]}")
        if den < 0:
            x, den = -x, -den
        g = math.gcd(x, den)
        if g != den:
            for j in range(i + 1, k + 1):
                row[j] *= den // g
        row[i] = x // g
    return row


@lru_cache(maxsize=None)
def _theta_rows(d: int, a: int, q: int) -> list:
    """The Jack basis of degree d at alpha = a/q in integers, indexed as
    partitions_of(d): row k is theta with theta R = c, c the
    :func:`_monomial_row` of k, by forward substitution down the columns of
    R; its lead theta[0] times the element is theta in power sums.  Degrees
    above DEGREE_CAP are refused."""
    if d > DEGREE_CAP:
        raise ValueError(f"degree {d} above cap {DEGREE_CAP}")
    cols, diag = _powersum_in_monomials(d)
    rows = []
    for k in range(len(diag)):
        tau, theta = 1, []
        for ck, col, r in zip(_monomial_row(d, k, a, q), cols, diag):
            y = tau * ck
            for j, rjk in col:
                y -= theta[j] * rjk
            g = math.gcd(y, r)
            if g != r:
                tau *= r // g
                theta = [t * (r // g) for t in theta]
            theta.append(y // g)
        rows.append(tuple(theta))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Jack basis
# ---------------------------------------------------------------------------


def jack_basis(d: int, alpha):
    """All Jack elements of degree d in the power-sum basis, memoized per
    (d, alpha).  Each comes from Stanley's triangular recursion for the
    eigenfunctions of the Laplace-Beltrami operator in the monomial basis,
    then a triangular solve back to power sums, in integers
    (:func:`_theta_rows`); it is normalized so the coefficient of p_{1^d}
    equals 1.  Degrees above DEGREE_CAP are refused."""
    d, alpha = _int_arg(d, "d", 0), _positive_arg(alpha, "alpha")
    with _cache_lock:
        basis = _basis_cache.get((d, alpha))
    if basis is None:
        parts, rows = partitions_of(d), _theta_rows(d, alpha.numerator, alpha.denominator)
        basis = {lam: PowerSumPoly._of({mu: Fraction(t, theta[0])
                                        for mu, t in zip(parts, theta) if t})
                 for lam, theta in zip(parts, rows)}
        with _cache_lock:
            _basis_cache[d, alpha] = basis
    return basis


def jack_polynomial(lam: Partition, alpha) -> PowerSumPoly:
    return jack_basis(lam.size(), alpha)[lam]


def theta_coefficient(lam: Partition, mu: Partition, alpha) -> Fraction:
    """Coefficient of p_mu in the Jack element of lam (|mu| = |lam|)."""
    if mu.size() != lam.size():
        return Fraction(0)
    return jack_polynomial(lam, alpha).coefficient(mu)


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


def irreducible_character(lam: Partition, mu: Partition, alpha):
    """alpha^{-w(mu)/2} * z_mu/d! * theta_mu(lam): exact in Q(sqrt(alpha)).
    Always 1 on mu = (1^d)."""
    if lam.size() != mu.size():
        raise ValueError("character needs |lam| = |mu|")
    d = lam.size()
    r = Fraction(mu.z_factor(), _factorial(d)) * theta_coefficient(lam, mu, alpha)
    return alpha_half_power(alpha, -mu.weight()) * r


def normalized_character(mu: Partition, lam: Partition, alpha):
    """Falling-factorial-normalized character: |lam|_(|mu|) times the
    irreducible character at mu padded with 1's; zero when |lam| < |mu|."""
    if lam.size() < mu.size():
        return Fraction(0)
    padded = mu.union(Partition([1] * (lam.size() - mu.size())))
    return falling_factorial(lam.size(), mu.size()) * irreducible_character(lam, padded, alpha)


def duality_character_check(lam: Partition, mu: Partition, alpha) -> bool:
    """Exact check of chi_lam^(alpha)(mu) == (-1)^w(mu) chi_lam'^(1/alpha)(mu)."""
    lhs = irreducible_character(lam, mu, alpha)
    rhs = irreducible_character(lam.conjugate(), mu, Fraction(1) / Fraction(alpha))
    sign = -1 if mu.weight() % 2 else 1
    rhs = rhs * sign if isinstance(rhs, SqrtExt) else sign * rhs
    if isinstance(lhs, SqrtExt) or isinstance(rhs, SqrtExt):
        # compare through the common field Q(sqrt(alpha), sqrt(1/alpha));
        # sqrt(1/alpha) = sqrt(alpha)/alpha, so both embed in Q(sqrt(alpha))
        return _embed(lhs, alpha) == _embed(rhs, alpha)
    return lhs == rhs


def _embed(x, alpha):
    alpha = Fraction(alpha)
    if isinstance(x, SqrtExt):
        if x.alpha == alpha:
            return x.a, x.b
        if x.alpha == 1 / alpha:
            # sqrt(1/alpha) = (1/alpha) * sqrt(alpha)
            return x.a, x.b / alpha
        raise ValueError("value from an unrelated extension")
    return Fraction(x), Fraction(0)


# ---------------------------------------------------------------------------
# Automorphism and band-operator transfer
# ---------------------------------------------------------------------------


def omega_dual(f: PowerSumPoly, alpha) -> PowerSumPoly:
    """The automorphism p_r -> (-1)^{r-1} alpha^{-1} p_r extended
    multiplicatively over p-monomials."""
    alpha = _positive_arg(alpha, "alpha")
    return PowerSumPoly._of({mu: c * (-1) ** mu.weight() * alpha ** -mu.length()
                             for mu, c in f.terms.items()})


def ns_apply(ell: int, f: PowerSumPoly, alpha) -> PowerSumPoly:
    """Apply P L^ell P+ where row P multiplies by p_k, column P+ is
    alpha*k*d/dp_k, and L_{i,j} = p_{j-i} + delta_{ij} i(alpha-1) with p_0 = 0
    and negative indices acting as annihilations.  Height-truncated at
    ell + deg(f) + 1, which is exact on fixed-degree input."""
    ell, alpha = _int_arg(ell, "ell", 0), _positive_arg(alpha, "alpha")
    size = ell + f.degree() + 1
    vec = [f.lower(k, alpha) for k in range(1, size + 1)]
    pk = [PowerSumPoly.p(k) for k in range(1, size + 1)]
    for _ in range(ell):
        new = []
        for i in range(1, size + 1):
            acc = vec[i - 1].scale(Fraction(i) * (alpha - 1))
            for j in range(i + 1, size + 1):
                if not vec[j - 1].is_zero():
                    acc = acc + pk[j - i - 1] * vec[j - 1]
            for j in range(1, i):
                if not vec[j - 1].is_zero():
                    acc = acc + vec[j - 1].lower(i - j, alpha)
            new.append(acc)
        vec = new
    out = PowerSumPoly.zero()
    for k in range(1, size + 1):
        if not vec[k - 1].is_zero():
            out = out + pk[k - 1] * vec[k - 1]
    return out


# ---------------------------------------------------------------------------
# Specializations
# ---------------------------------------------------------------------------


class Specialization:
    """Unital algebra homomorphism determined by the values rho(p_k).  A
    geometric rule v_k = u * c^(k-1) made by :meth:`principal` or
    :meth:`plancherel` carries its ``form`` (u, c); any other rule has form
    None."""

    __slots__ = ("rule", "label", "form")

    def __init__(self, rule, label="custom", form=None):
        self.rule = rule
        self.label = label
        self.form = form

    @staticmethod
    def of(v) -> "Specialization":
        """p_k -> v_k, for v a Specialization, a callable k -> v_k, a dict
        {k: v_k} or a sequence (v_1, v_2, ...); a dict or sequence is zero
        where it has no entry.  A dict key is an int or its decimal text
        (a JSON key)."""
        if isinstance(v, Specialization):
            return v
        if callable(v):
            return Specialization(v)
        if isinstance(v, dict):
            table = {_int_arg(int(k) if isinstance(k, str) and k.isdecimal() else k,
                              "key", 1): Fraction(x) for k, x in v.items()}
            return Specialization(lambda k: table.get(k, 0), "table")
        seq = tuple(Fraction(x) for x in v)
        return Specialization(lambda k: seq[k - 1] if k <= len(seq) else 0,
                              "sequence")

    @staticmethod
    def plancherel(u):
        u = Fraction(u)
        return Specialization(lambda k: u if k == 1 else Fraction(0),
                              f"plancherel({format_rational(u)})", (u, Fraction(0)))

    @staticmethod
    def principal(u, c):
        """rho(p_k) = u * c^{k-1} (geometric in k)."""
        u, c = Fraction(u), Fraction(c)
        return Specialization(lambda k: u * c ** (k - 1),
                              f"principal({format_rational(u)},{format_rational(c)})",
                              (u, c))

    def __call__(self, k: int) -> Fraction:
        x = self.rule(_int_arg(k, "k", 1))
        return x if type(x) is Fraction else Fraction(x)

    def on_partition(self, mu: Partition) -> Fraction:
        return math.prod((self(part) for part in mu.parts), start=Fraction(1))

    def apply(self, f: PowerSumPoly) -> Fraction:
        return sum((c * self.on_partition(mu) for mu, c in f.terms.items()),
                   Fraction(0))

    def __repr__(self):
        return f"Specialization({self.label})"
