"""Anisotropic Young diagrams, their staircase profiles in Russian
coordinates, exact transition measures, and the four observable families
(moments, Boolean cumulants, free cumulants, fundamental shape functionals).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import _int_arg, _positive_arg, format_rational
from .partitions import Partition
from . import series


class InterlacingError(ValueError):
    """Raised when minima/maxima fail to interlace strictly."""


class DiscreteMeasure:
    """Finitely supported signed measure with exact atom data.

    Atoms are (position, mass) pairs with strictly increasing positions.
    ``exact`` is true exactly when every position and mass is an int or a
    Fraction; then sums are Fractions and JSON is rational.  Any other
    number (a float or mpf of the limit-shape numerics) makes the measure
    inexact, with sums in that number type.
    """

    __slots__ = ("atoms", "exact")

    def __init__(self, atoms):
        atoms = [(pos, mass) for pos, mass in atoms]
        for k in range(1, len(atoms)):
            if not atoms[k - 1][0] < atoms[k][0]:
                raise ValueError("atom positions must be strictly increasing")
        self.atoms = atoms
        self.exact = all(isinstance(x, (int, Fraction))
                         for atom in atoms for x in atom)

    def total_mass(self):
        return sum((m for _, m in self.atoms), Fraction(0) if self.exact else 0.0)

    def mean(self):
        return sum((p * m for p, m in self.atoms), Fraction(0) if self.exact else 0.0)

    def moment(self, ell: int):
        ell = _int_arg(ell, "ell", 0)
        return sum((m * p ** ell for p, m in self.atoms),
                   Fraction(0) if self.exact else 0.0)

    def to_json(self):
        if self.exact:
            return [{"pos": format_rational(p), "mass": format_rational(m)}
                    for p, m in self.atoms]
        return [{"pos": float(p), "mass": float(m)} for p, m in self.atoms]

    @staticmethod
    def from_json(data):
        """Inverse of :meth:`to_json`: a JSON float stays a float, so an
        inexact measure comes back inexact; strings and ints are rationals."""
        from .exactnum import parse_rational

        def num(x):
            return x if isinstance(x, float) else parse_rational(x)

        return DiscreteMeasure([(num(rec["pos"]), num(rec["mass"])) for rec in data])

    def __repr__(self):
        inner = " + ".join(f"{m}*d[{p}]" for p, m in self.atoms)
        return f"DiscreteMeasure({inner})"


class StaircaseShape:
    """Piecewise-slope +-1 profile given by its interlacing local minima and
    maxima (both ascending).  ``orientation`` is "finite" (diagram profile,
    one more minimum than maxima), "extends_to_-inf" or "extends_to_+inf"
    (truncated semi-infinite staircases with equally many of each)."""

    __slots__ = ("minima", "maxima", "orientation")

    def __init__(self, minima, maxima, orientation="finite"):
        minima = list(minima)
        maxima = list(maxima)
        if orientation not in ("finite", "extends_to_-inf", "extends_to_+inf"):
            raise ValueError(f"bad orientation {orientation!r}")
        extra = int(orientation == "finite")
        if len(minima) != len(maxima) + extra:
            raise InterlacingError(
                f"a {orientation} profile needs {len(maxima) + extra} minima "
                f"for {len(maxima)} maxima, got {len(minima)}")
        if not minima:
            raise InterlacingError(f"a {orientation} staircase needs a corner")
        # the corners alternate in kind, a maximum first only for a
        # staircase extending to -inf
        first, second = ((maxima, minima) if orientation == "extends_to_-inf"
                         else (minima, maxima))
        merged = first + second
        merged[::2], merged[1::2] = first, second
        if not all(a < b for a, b in zip(merged, merged[1:])):
            raise InterlacingError(
                f"extrema do not interlace strictly: {minima} / {maxima}")
        self.minima = minima
        self.maxima = maxima
        self.orientation = orientation

    def reflect(self) -> "StaircaseShape":
        flip = {"finite": "finite",
                "extends_to_-inf": "extends_to_+inf",
                "extends_to_+inf": "extends_to_-inf"}
        return StaircaseShape([-x for x in reversed(self.minima)],
                              [-y for y in reversed(self.maxima)],
                              flip[self.orientation])

    def corners(self):
        """All corners as (u, omega(u), kind) ascending in u."""
        out = [(x, self.evaluate(x), "min") for x in self.minima]
        out += [(y, self.evaluate(y), "max") for y in self.maxima]
        out.sort(key=lambda t: t[0])
        return out

    def evaluate(self, u):
        """Profile value omega(u) by Kerov's formula: with
        K(u) = sum_i |u - x_i| - sum_j |u - y_j| over the minima x_i and the
        maxima y_j and s = sum_i x_i - sum_j y_j, omega is K + s for a finite
        profile, K + s + u for a staircase extending to -inf and K - s - u
        for one extending to +inf.  On the anchored side, right of the last
        minimum (left of the first for extends_to_+inf), omega(u) = |u| is
        returned as u or -u itself."""
        xs, ys = self.minima, self.maxima
        if self.orientation == "extends_to_+inf":
            if u <= xs[0]:
                return -u
        elif u >= xs[-1]:
            return u
        # K summed pairwise, each term bounded by one corner gap; a finite
        # profile's last minimum has no partner
        kerov = sum([abs(u - x) - abs(u - y) for x, y in zip(xs, ys)])
        shift = sum(xs) - sum(ys)
        if self.orientation == "finite":
            return kerov + abs(u - xs[-1]) + shift
        if self.orientation == "extends_to_-inf":
            return kerov + shift + u
        return kerov - shift - u

    def __repr__(self):
        return (f"StaircaseShape(minima={self.minima}, maxima={self.maxima}, "
                f"orientation={self.orientation!r})")


class AnisotropicDiagram:
    """A partition whose boxes are stretched to width w and height h."""

    __slots__ = ("base", "w", "h")

    def __init__(self, base: Partition, w, h):
        self.base = base
        self.w = _positive_arg(w, "w")
        self.h = _positive_arg(h, "h")

    def profile(self) -> StaircaseShape:
        return profile(self)

    def transition_measure(self) -> DiscreteMeasure:
        return transition_measure(self.profile())

    def __repr__(self):
        return f"AnisotropicDiagram({self.base!r}, w={self.w}, h={self.h})"


def corners(parts, w, h):
    """(minima, maxima), both ascending, of the profile of the (w, h) diagram
    of the partition ``parts`` in Russian coordinates u = x - y: a minimum
    w*parts[r] - h*r at each addable cell and a maximum w*parts[r] - h*(r+1)
    at each removable cell, rows r counted from 0 and parts[len] = 0.  The
    arithmetic is that of w and h (Fraction, int or float)."""
    minima, maxima = [], []
    below = 0
    for r in range(len(parts), 0, -1):
        part = parts[r - 1]
        if part > below:  # row r is addable and row r - 1 removable
            minima.append(w * below - h * r)
            maxima.append(w * part - h * r)
            below = part
    minima.append(w * below - h * 0)  # row 0, in the arithmetic of w and h
    return minima, maxima


def profile(diagram: AnisotropicDiagram) -> StaircaseShape:
    """Local minima/maxima of the boundary of the stretched diagram in
    Russian coordinates u = x - y.  The empty diagram has one minimum at 0."""
    return StaircaseShape(*corners(diagram.base.parts, diagram.w, diagram.h))


def transition_measure(shape: StaircaseShape) -> DiscreteMeasure:
    """Exact partial-fraction decomposition of prod(z - y_j)/prod(z - x_i):
    the atom at x_i has mass prod_j (x_i - y_j) / prod_{j != i} (x_i - x_j).

    All extrema are scaled by one common denominator to integers X_i, Y_j;
    with one maximum fewer than minima its powers cancel from each mass,
    which is the integer ratio prod_j (X_i - Y_j) / prod_{j != i} (X_i - X_j).
    """
    if shape.orientation != "finite":
        raise ValueError("exact transition measures need a finite profile")
    xs, ys = shape.minima, shape.maxima
    den = math.lcm(*(x.denominator for x in xs), *(y.denominator for y in ys))
    big_x = [x.numerator * (den // x.denominator) for x in xs]
    big_y = [y.numerator * (den // y.denominator) for y in ys]
    return DiscreteMeasure(zip(xs, (Fraction(*pair) for pair in _residues(big_x, big_y))))


def _residues(big_x, big_y):
    """The atom masses prod_j (X_i - Y_j) / prod_{j != i} (X_i - X_j), as
    unreduced int pairs, of integer minima X_i and maxima Y_j, one fewer."""
    masses = []
    for i, xi in enumerate(big_x):
        num = 1
        for yj in big_y:
            num *= xi - yj
        rest = 1
        for j, xj in enumerate(big_x):
            if j != i:
                rest *= xi - xj
        masses.append((num, rest))
    return masses


def _cleared(w, h):
    """(W, H, den): the positive rationals w and h over den = lcm(den w,
    den h), as ints."""
    w, h = _positive_arg(w, "w"), _positive_arg(h, "h")
    den = math.lcm(w.denominator, h.denominator)
    return (w.numerator * (den // w.denominator),
            h.numerator * (den // h.denominator), den)


def _mul_div(nums, a, b, c, d):
    """The coefficients of T, T^2, ... of the power series -1 + sum_n
    nums[n - 1] T^n times (1 - aT)(1 - bT) / ((1 - cT)(1 - dT)), truncated
    at the same order, as a new list, in one pass over the coefficients."""
    prev = mid = out = -1  # the input, times (1 - aT)/(1 - cT), output
    new = []
    for cur in nums:
        nxt = cur - a * prev + c * mid
        out = nxt - b * mid + d * out
        new.append(out)
        prev, mid = cur, nxt
    return new


def boolean_numerators(parts, w, h, ell: int):
    """Integers (nums, den) with B_l = nums[l - 1] / den**l, l = 1..ell, the
    Boolean cumulants of the transition measure of the (w, h) diagram of the
    partition ``parts``; den = lcm(den w, den h) depends only on (w, h).

    Kerov's G(z) = prod(z - y_j)/prod(z - x_i) over the profile maxima y_j
    and minima x_i gives sum B_l t^l = 1 - prod(1 - x_i t)/prod(1 - y_j t).
    On the corners X_i = den x_i, Y_j = den y_j and T = t/den the series is
    multiplied by each (1 - X_i T) and divided by each (1 - Y_j T) over ints.
    :func:`_boolean_pricer` gives the same numerators, carried along a walk.
    """
    big_w, big_h, den = _cleared(w, h)
    return _corner_series(parts, big_w, big_h, _int_arg(ell, "ell", 0)), den


def _corner_series(parts, big_w, big_h, ell):
    """The nums of :func:`boolean_numerators` to order ell, from the corners
    of ``parts`` on the cleared sides W, H, taken two at a time."""
    xs, ys = corners(parts, big_w, big_h)
    ys.append(0)  # one minimum more than maxima
    if len(xs) % 2:  # a factor pair (1 - 0T)/(1 - 0T)
        xs.append(0)
        ys.append(0)
    nums = [0] * ell
    for k in range(0, len(xs), 2):
        nums = _mul_div(nums, xs[k], xs[k + 1], ys[k], ys[k + 1])
    return nums


def _boolean_pricer(w, h, ell: int):
    """A function parts -> ``boolean_numerators(parts, w, h, ell)``.

    Adding the cell (i, j) at the cleared profile minimum X = W j - H i
    multiplies prod(1 - X_i T)/prod(1 - Y_j T) by
    (1 - (X - H)T)(1 - (X + W)T) / ((1 - XT)(1 - (X + W - H)T)), applied in
    one pass over the parent's coefficients by :func:`_mul_div`, which also
    builds the corner series two corners at a time.  The pricer keeps the
    series of a chain of partitions of increasing size, the last-box
    ancestors of the last one priced, and prices a partition from
    its parent (the last row one box shorter) when the parent is on the
    chain; any other partition is priced from its corners.  A pre-order walk
    of the last-box tree, such as :meth:`JackThoma.support`, always finds
    the parent there.  The nums list returned is the one the chain keeps:
    read it, do not change it.
    """
    big_w, big_h, den = _cleared(w, h)
    ell = _int_arg(ell, "ell", 0)
    chain = []  # (size, parts, nums), sizes strictly increasing

    def price(parts):
        parts = tuple(parts)
        size = sum(parts)
        while chain and chain[-1][0] >= size:
            chain.pop()
        nums = None
        if parts and chain:
            i, j = len(parts) - 1, parts[-1] - 1  # the last box
            _, parent, series = chain[-1]
            if parent == (parts[:-1] + (j,) if j else parts[:-1]):
                x = big_w * j - big_h * i
                nums = _mul_div(series, x - big_h, x + big_w, x, x + big_w - big_h)
        if nums is None:
            nums = _corner_series(parts, big_w, big_h, ell)
        chain.append((size, parts, nums))
        return nums, den

    return price


def diagram_booleans(lam: Partition, w, h, ell: int):
    """Boolean cumulants B_1..B_ell of the (w, h) diagram of lam, equal to
    ``observable_family(transition_measure(profile), "boolean", ell)``."""
    nums, den = boolean_numerators(lam.parts, w, h, ell)
    return [Fraction(c, den ** l) for l, c in enumerate(nums, start=1)]


_KINDS = ("moment", "boolean", "free", "fundamental")


def observables(measure: DiscreteMeasure, kind: str, ell: int):
    """The ell-th observable of an exact measure: raw moment, Boolean
    cumulant, free cumulant, or fundamental shape functional."""
    return observable_family(measure, kind, _int_arg(ell, "ell", 1))[-1]


def observable_family(measure: DiscreteMeasure, kind: str, ell: int):
    """All observables of the given kind up to order ell, converted from the
    moments :meth:`DiscreteMeasure.moment` gives (cheaper than calling
    :func:`observables` per order)."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    moments = [measure.moment(k) for k in range(1, _int_arg(ell, "ell", 0) + 1)]
    if kind == "moment":
        return moments
    if kind == "boolean":
        return series.boolean_from_moments(moments)
    if kind == "fundamental":
        return series.shape_functionals_from_moments(moments)
    return series.free_from_moments(moments)


def rescale_observable(x, ell: int, c):
    """Scaling rule X_ell(T_{cw,ch} lambda) = c^ell X_ell(T_{w,h} lambda)."""
    return _positive_arg(c, "c") ** _int_arg(ell, "ell", 1) * x
