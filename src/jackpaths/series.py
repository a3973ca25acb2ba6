"""Truncated power-series arithmetic over exact rationals, the moment /
Boolean-cumulant / free-cumulant / shape-functional transforms defined
through Cauchy-transform generating functions, and joint cumulants."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .exactnum import _int_arg


def series_mul(a, b, order):
    order = _int_arg(order, "order", 0)
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def series_inv(a, order):
    """Coefficients 0..order of 1/a, exactly.

    With a_k = A_k/D over integers, the integers T_0 = 1,
    T_n = -sum_k A_k A_0^{k-1} T_{n-k} give [t^n] 1/a = D T_n / A_0^{n+1},
    so the recursion runs over ints and each coefficient divides once."""
    order = _int_arg(order, "order", 0)
    if a[0] == 0:
        raise ZeroDivisionError("series has no inverse (zero constant term)")
    coeffs = a[: order + 1]
    den = math.lcm(*(x.denominator for x in coeffs))
    big = [x.numerator * (den // x.denominator) for x in coeffs]
    powers = [1]  # powers[n] = A_0^n
    for _ in range(order + 1):
        powers.append(powers[-1] * big[0])
    terms = [(k, big[k] * powers[k - 1]) for k in range(1, len(big)) if big[k]]
    ts = [1]
    for n in range(1, order + 1):
        acc = 0
        for k, c in terms:
            if k > n:
                break
            acc += c * ts[n - k]
        ts.append(-acc)
    return [Fraction(den * t, powers[n + 1]) for n, t in enumerate(ts)]


def series_log(a, order):
    """log of a series with constant term 1, via log(a) = integral of a'/a."""
    order = _int_arg(order, "order", 0)
    if a[0] != 1:
        raise ValueError("series_log needs constant term 1")
    if order == 0:
        return [Fraction(0)]
    padded = [Fraction(a[k]) if k < len(a) else Fraction(0) for k in range(order + 1)]
    deriv = [Fraction(k) * padded[k] for k in range(1, order + 1)]  # coeff of t^{k-1}
    inv = series_inv(padded, order - 1)
    prod = series_mul(deriv, inv, order - 1)
    out = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        out[n] = prod[n - 1] / n
    return out


def boolean_from_moments(moments):
    """Boolean cumulants B_1..B_L from moments M_1..M_L.

    With Mhat(t) = 1 + sum M_l t^l, the Boolean generating relation
    B(z) = z - 1/G(z) becomes sum B_l t^l = 1 - 1/Mhat(t).
    """
    order = len(moments)
    mhat = [Fraction(1)] + [Fraction(m) for m in moments]
    inv = series_inv(mhat, order)
    return [-inv[k] for k in range(1, order + 1)]


def moments_from_boolean(booleans):
    """Inverse of :func:`boolean_from_moments`: Mhat = 1/(1 - Bhat)."""
    order = len(booleans)
    one_minus = [Fraction(1)] + [-Fraction(b) for b in booleans]
    mhat = series_inv(one_minus, order)
    return [mhat[k] for k in range(1, order + 1)]


def shape_functionals_from_moments(moments):
    """Fundamental functionals S_1..S_L from moments: S-series = log Mhat."""
    order = len(moments)
    mhat = [Fraction(1)] + [Fraction(m) for m in moments]
    lg = series_log(mhat, order)
    return [lg[k] for k in range(1, order + 1)]


def free_from_moments(moments):
    """Free cumulants R_1..R_L from moments M_1..M_L by inverting
    :func:`moments_from_free` order by order: M_l is R_l plus a polynomial
    in R_1..R_{l-1}, so R_l = M_l - M_l(R_1, ..., R_{l-1}, 0)."""
    cumulants = []
    for m in moments:
        cumulants.append(Fraction(0))
        cumulants[-1] = Fraction(m) - moments_from_free(cumulants)[-1]
    return cumulants


def moments_from_free(cumulants):
    """Moments M_1..M_L from free cumulants R_1..R_L by degree-truncated
    inversion of the Cauchy transform: with w = (1 + c(z))/z and
    c(z) = sum R_l z^l, the identity G(w) = z reads
    sum_m M_m z^m (1+c)^{-(m+1)} = 1, solved for M_ell order by order."""
    order = len(cumulants)
    cs = [Fraction(0)] + [Fraction(c) for c in cumulants]
    one_plus_c = [Fraction(1)] + cs[1:]
    inv = series_inv(one_plus_c, order)
    moments = [Fraction(0)] * (order + 1)
    moments[0] = Fraction(1)
    # iterate: M_ell = -(sum_{m<ell} M_m z^m (1+c)^{-(m+1)})[z^ell] with the
    # m=ell term contributing exactly M_ell
    powers = [inv[:]]
    for _ in range(order):
        powers.append(series_mul(powers[-1], inv, order))
    for ell in range(1, order + 1):
        acc = Fraction(0)
        for m in range(0, ell):
            acc += moments[m] * powers[m][ell - m]
        moments[ell] = -acc
    return moments[1:]


def joint_cumulant(items, moment):
    """The joint cumulant kappa(S) of the tuple S = items from the joint
    moments moment(sub) of its sub-tuples (in item order), by the recursion
    over the block B of the first item: kappa(S) = m(S) - sum over B != S of
    kappa(B) m(S minus B).  Each sub-tuple's moment and cumulant is computed
    once, m(S) first; values stay in the moments' number type."""
    items = tuple(items)
    if not items:
        raise ValueError("a joint cumulant needs at least one item")
    m = cache(moment)

    @cache
    def kappa(sub):
        first, rest = sub[0], sub[1:]
        total = m(sub)
        for mask in range(2 ** len(rest) - 1):  # every B but S itself
            block = [first] + [x for i, x in enumerate(rest) if mask >> i & 1]
            others = [x for i, x in enumerate(rest) if not mask >> i & 1]
            total -= kappa(tuple(block)) * m(tuple(others))
        return total

    return kappa(items)
