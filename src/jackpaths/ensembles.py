"""Probability measures on partitions: the deformed Plancherel and
Schur-Weyl families, Poissonized and size-conditioned Thoma measures,
general character measures in closed form, positive specializations and
asymptotic-regime parameter sequences, conditional cumulants, and a
tail-certified Poisson truncation oracle."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from operator import mul

from ._records import Frozen, Record
from .exactnum import (SqrtExt, _int_arg, _positive_arg, alpha_half_power,
                       parse_rational, sqrt_exact)
from .jack import Specialization, _factorial, _theta_rows, jack_basis
from .partitions import (Partition, _cleared_content, _content_ints, _hook_pairs,
                         content_product, j_alpha, partitions_of)
from .series import joint_cumulant


class PositivityError(ValueError):
    """A constructed ensemble produced a negative mass."""


class DomainError(ValueError):
    """Partition outside the ensemble's support domain."""


# ---------------------------------------------------------------------------
# Poisson-scaled exact values
# ---------------------------------------------------------------------------


class PoissonScaled(Frozen):
    """Exact value rational * exp(-exponent); the transcendental prefactor
    is carried symbolically so per-degree identities stay rational."""

    rational: Fraction
    exponent: Fraction

    def __float__(self):
        return float(self.rational) * math.exp(-float(self.exponent))

    def __repr__(self):
        return f"PoissonScaled({self.rational} * exp(-{self.exponent}))"


# ---------------------------------------------------------------------------
# Specializations with positivity structure
# ---------------------------------------------------------------------------


class ThomaPoint(Frozen):
    """Triple (a, b, c): weakly decreasing nonnegative tuples a, b with
    sum(a) + sum(b) <= c."""

    a: tuple
    b: tuple
    c: Fraction

    def __init__(self, a, b, c):
        for seq in (a, b):
            for i, x in enumerate(seq):
                if x < 0 or (i and seq[i - 1] < x):
                    raise ValueError("a and b must be weakly decreasing, nonnegative")
        if sum(a) + sum(b) > c:
            raise ValueError("Thoma cone inequality sum(a)+sum(b) <= c violated")
        super().__init__(a, b, c)

    @staticmethod
    def make(a=(), b=(), c=0) -> "ThomaPoint":
        return ThomaPoint(tuple(Fraction(x) for x in a),
                          tuple(Fraction(x) for x in b), Fraction(c))


def thoma_specialization(point: ThomaPoint, alpha) -> Specialization:
    """rho(p_1) = c and rho(p_k) = sum a_i^k + (-alpha)^{1-k} sum b_i^k."""
    alpha = _positive_arg(alpha, "alpha")
    a, b, c = point.a, point.b, point.c

    def rule(k):
        if k == 1:
            return c
        return (sum((x ** k for x in a), Fraction(0))
                + (-alpha) ** (1 - k) * sum((x ** k for x in b), Fraction(0)))

    return Specialization(rule, f"thoma(a={list(a)}, b={list(b)}, c={c})")


def totally_positive_spec(a, c) -> Specialization:
    """rho(p_1) = c, rho(p_k) = sum a_i^k; positive on the Jack basis for
    every alpha (the b = 0 ray of the Thoma cone)."""
    a = tuple(Fraction(x) for x in a)
    c = Fraction(c)
    if sum(a) > c:
        raise ValueError("need sum(a) <= c for total positivity")
    point = ThomaPoint.make(a=a, b=(), c=c)
    spec = thoma_specialization(point, Fraction(1))  # b = 0: alpha irrelevant
    spec.label = f"totally_positive(a={list(a)}, c={c})"
    return spec


# ---------------------------------------------------------------------------
# v-sequences
# ---------------------------------------------------------------------------


def _principal_form(v: Specialization):
    """Detect v_k = v1 * c^{k-1}: returns (v1, c) or None.  Plancherel is
    the c = 0 case.  A rule that carries its form is read from it; any
    other is probed, and only geometric tails within k <= 80 count.  Each
    v_k is read once and checked against N/D = v1 c^{k-1} in ints."""
    if v.form is not None:
        return v.form if v.form[0] else None
    v1 = v(1)
    if v1 == 0:
        return None
    c = v(2) / v1
    p, q = c.numerator, c.denominator
    N, D = v1.numerator * p, v1.denominator * q
    for k in range(3, 81):  # at c = 0, N = 0 and this asks v_k = 0
        x = v(k)
        N, D = N * p, D * q
        if x.numerator * D != x.denominator * N:
            return None
    return v1, c


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------


# validate_positivity checks a Poissonized ensemble's masses up to this size
POSITIVITY_DEGREE = 6


class Ensemble:
    """Base class: a (possibly signed) measure on partitions with exact
    masses at a positive rational alpha.  Fixed-size variants (``sized``)
    live on partitions of size d, an int >= 0; the others leave d None."""

    variant = "abstract"
    sized = True
    d: int | None = None

    def __init__(self, alpha, d):
        self.alpha = _positive_arg(alpha, "alpha")
        if self.sized:
            self.d = _int_arg(d, "d", 0)

    def mass(self, lam: Partition):
        raise NotImplementedError

    def _check_domain(self, lam: Partition):
        if self.d is not None and lam.size() != self.d:
            raise DomainError(f"{self.variant} lives on partitions of {self.d}")

    def masses(self):
        if self.d is None:
            raise DomainError("masses() needs a fixed-size ensemble")
        return {lam: self.mass(lam) for lam in partitions_of(self.d)}

    def validate_positivity(self):
        """Raise PositivityError if any mass within reach (up to
        POSITIVITY_DEGREE for a Poissonized ensemble) is negative."""
        sizes = range(POSITIVITY_DEGREE + 1) if self.d is None else (self.d,)
        for dd in sizes:
            for lam in partitions_of(dd):
                if _is_negative(self.mass(lam)):
                    raise PositivityError(f"{self.variant}: negative mass at {lam}")


def _is_negative(value) -> bool:
    if isinstance(value, PoissonScaled):
        return value.rational < 0
    if isinstance(value, SqrtExt):
        return value.sign() < 0
    return value < 0


def _conditioned_principal(lam: Partition, alpha: Fraction, ratio) -> Fraction:
    """The mass alpha^d d! J_lam(p_k -> ratio^{k-1}) / j_lam, d = |lam|, of the
    principal Jack-Thoma measure of v_k = ratio^{k-1} conditioned on size d
    (:func:`content_product` is 1 at ratio 0).  With alpha = a/q, j_lam is
    H / q^(2d) for the hook product H and J_lam is C / L^d for the cleared
    content product C, so the mass is one Fraction a^d q^d d! C / (L^d H)."""
    parts, a, q = lam.parts, alpha.numerator, alpha.denominator
    d = sum(parts)
    C, L = _content_ints(parts, alpha, 1, ratio) if ratio else (1, 1)
    return Fraction((a * q) ** d * _factorial(d) * C, L ** d * _hook_pairs(parts, a, q))


class JackPlancherel(Ensemble):
    """Mass alpha^d d! / j_lambda on partitions of d: the Jack-Thoma
    measure JackThoma(alpha, u, [1]) conditioned on |lambda| = d."""

    variant = "plancherel"

    def mass(self, lam: Partition) -> Fraction:
        self._check_domain(lam)
        return _conditioned_principal(lam, self.alpha, 0)


class JackSchurWeyl(Ensemble):
    """Schur-Weyl-type measure parametrized by the positive integer
    K = N*sqrt(alpha) (or, with dual=True, K = -N/sqrt(alpha)); in either
    case the masses are exact rationals.  It is a principal Jack-Thoma
    measure conditioned on |lambda| = d: of v = 1 (u = K) in the first
    case, and of v_k = (-1/(alpha K))^{k-1} (u = 1) in the dual one."""

    variant = "schur_weyl"

    def __init__(self, alpha, d: int, K: int, dual: bool = False):
        super().__init__(alpha, d)
        self.K = _int_arg(K, "K", 1)
        self.dual = dual

    def mass(self, lam: Partition) -> Fraction:
        self._check_domain(lam)
        ratio = -1 / (self.alpha * self.K) if self.dual else Fraction(1, self.K)
        return _conditioned_principal(lam, self.alpha, ratio)

    def character(self, mu: Partition):
        """The multiplicative character N^{-w(mu)} in Q(sqrt(alpha))."""
        w = mu.weight()
        if self.dual:
            return ((-1) ** w * alpha_half_power(self.alpha, -w)
                    * Fraction(1, self.K ** w))
        return alpha_half_power(self.alpha, w) * Fraction(1, self.K ** w)


class CharacterMeasure(Ensemble):
    """Measure whose normalized character table is chi, a dict on the
    partitions of d, from the closed form of :meth:`_solve` (Jack
    orthogonality).  May be signed when chi is not a true character."""

    variant = "character"

    def __init__(self, alpha, d: int, chi):
        super().__init__(alpha, d)
        missing = [mu for mu in partitions_of(self.d) if mu not in chi]
        if missing:
            raise ValueError(f"character table lacks the partition {missing[0]}")
        self.chi = {mu: chi[mu] for mu in partitions_of(self.d)}
        if self.chi[Partition([1] * self.d)] != 1:
            raise ValueError("character tables must have chi(1^d) = 1")
        self._solution = self._solve()

    def _solve(self):
        """{lam: alpha^d d!/j_lam sum_mu theta_mu(lam) chi(mu) alpha^{-w(mu)/2}},
        exact in Q(sqrt(alpha)) (chi's values are rational or in
        Q(sqrt(alpha))).  chi is cleared once to the ints x_mu, y_mu over one
        denominator D; a mass is two integer dot products of x and y with
        lam's integer row of :func:`jack._theta_rows`, over its lead and D.
        With alpha = a/q and lam's hook product H (j_lam = H / q^(2d)), each
        part of a mass is one Fraction a^d q^d d! x / (H lead D); whether
        alpha is a square is decided once."""
        alpha, d = self.alpha, self.d
        a, q = alpha.numerator, alpha.denominator
        split = []  # per mu: ints (x, y, den), the parts over 1 and over sqrt(alpha)
        for mu, c in self.chi.items():
            if isinstance(c, SqrtExt) and c.alpha != alpha:
                raise ValueError("character value from another extension")
            ca, cb = (c.a, c.b) if isinstance(c, SqrtExt) else (Fraction(c), 0)
            # alpha^{-w/2} is (q/a)^k for w = 2k and (q/a)^k sqrt(alpha) for w = 2k - 1
            w = mu.weight()
            k = (w + 1) // 2
            s, t = ca.numerator * cb.denominator * q ** k, cb.numerator * ca.denominator
            den = ca.denominator * cb.denominator * a ** k
            split.append((t * a * q ** (k - 1), s, den) if w % 2 else (s, t * q ** k, den))
        D = math.lcm(*(den for _, _, den in split))
        xs = [x * (D // den) for x, _, den in split]
        ys = [y * (D // den) for _, y, den in split]
        top, root, solution = (a * q) ** d * _factorial(d), sqrt_exact(alpha), {}
        for lam, theta in zip(partitions_of(d), _theta_rows(d, a, q)):
            x, y = sum(map(mul, theta, xs)), sum(map(mul, theta, ys))
            den = _hook_pairs(lam.parts, a, q) * theta[0] * D
            if root is not None:  # alpha = root^2, so the mass is rational
                solution[lam] = Fraction(top * (x * root.denominator + y * root.numerator),
                                         den * root.denominator)
            elif y:
                solution[lam] = SqrtExt._of(Fraction(top * x, den), Fraction(top * y, den),
                                            alpha)
            else:
                solution[lam] = Fraction(top * x, den)
        return solution

    def mass(self, lam: Partition):
        self._check_domain(lam)
        return self._solution[lam]


class ConditionalJackThoma(CharacterMeasure):
    """The Thoma measure conditioned on |lambda| = d; requires v_1 = 1.
    Masses are exact in Q(sqrt(alpha)): the character measure of the
    table chi(mu) = prod v_{mu_i}."""

    variant = "conditional_thoma"

    def __init__(self, alpha, d: int, v):
        Ensemble.__init__(self, alpha, d)  # the table and masses wait for mass()
        self._v = Specialization.of(v)
        if self._v(1) != 1:
            raise ValueError("conditional Thoma measures require v_1 = 1")

    chi = cached_property(lambda self: conditional_thoma_character(self._v, self.d))
    _solution = cached_property(lambda self: self._solve())

    # perfbench/layers.py traces this name in the class's own namespace
    mass = CharacterMeasure.mass


# The Poisson exponent sums the interaction coefficients rho_1(p_k) rho_2(p_k)
# over k <= CROSS_WINDOW; beyond it they must vanish.
CROSS_WINDOW = 64


class JackMeasure(Ensemble):
    """General two-specialization measure.  The interaction coefficients
    rho_1(p_k) rho_2(p_k) must vanish beyond ``CROSS_WINDOW`` so the
    Poisson exponent is an exact rational."""

    variant = "jack_measure"
    sized = False

    def __init__(self, alpha, rho1: Specialization, rho2: Specialization):
        super().__init__(alpha, None)
        self.rho1 = rho1
        self.rho2 = rho2
        self.cross = self._cross()
        self.exponent = sum((t / (k * self.alpha) for k, t in self.cross.items()),
                            Fraction(0))

    def _cross(self) -> dict:
        """{k: rho_1(p_k) rho_2(p_k)} over the nonzero k <= CROSS_WINDOW."""
        cross = {}
        for k in range(1, CROSS_WINDOW + 1):
            t = self.rho2(k)  # rho_1 is read only where rho_2 is nonzero
            if t:
                t *= self.rho1(k)
                if t:
                    cross[k] = t
        return cross

    def rational_mass(self, lam: Partition) -> Fraction:
        poly = jack_basis(lam.size(), self.alpha)[lam]
        return (self.rho1.apply(poly) * self.rho2.apply(poly)
                / j_alpha(lam, self.alpha))

    def mass(self, lam: Partition) -> PoissonScaled:
        return PoissonScaled(self.rational_mass(lam), self.exponent)

    def sector_mass_rational(self, d: int) -> Fraction:
        """[t^d] exp(sum_k cross_k t^k/(k alpha)), exactly, by the standard
        derivative recursion for exp of a constant-free polynomial."""
        d = _int_arg(d, "d", 0)
        gen = {k: t / (k * self.alpha) for k, t in self.cross.items() if k <= d}
        out = [Fraction(0)] * (d + 1)
        out[0] = Fraction(1)
        for n in range(1, d + 1):
            out[n] = sum((k * c * out[n - k] for k, c in gen.items() if k <= n),
                         Fraction(0)) / n
        return out[d]


class JackThoma(JackMeasure):
    """The Jack measure of rho_1(p_k) = u*v_k and rho_2 the Plancherel
    specialization at u: a Poissonized measure on all partitions whose
    masses carry the exp(-u^2 v_1/alpha) prefactor symbolically.  v is a
    sequence, dict or callable, read by :meth:`Specialization.of`."""

    variant = "thoma"

    def __init__(self, alpha, u, v, check_positivity: bool = True):
        u = _positive_arg(u, "u")
        v = Specialization.of(v)
        self.u = u
        self.v1 = v(1)
        super().__init__(alpha, Specialization(lambda k: u * v(k)),
                         Specialization.plancherel(u))
        self._principal = _principal_form(v)
        if check_positivity:
            self.validate_positivity()

    def _cross(self) -> dict:
        """rho_2 is Plancherel at u, so only k = 1 can interact: u^2 v_1."""
        t = self.u * self.u * self.v1
        return {1: t} if t else {}

    def rational_mass(self, lam: Partition) -> Fraction:
        """J_lam(u*v) J_lam(Plancherel(u)) / j_lam.  In the principal form
        v_k = v1 c^{k-1}, J_lam(u*v) is the alpha-content product
        :func:`content_product` at x = u v1."""
        if self._principal is None:
            return super().rational_mass(lam)
        v1, c = self._principal
        return (content_product(lam, self.alpha, self.u * v1, c)
                * self.u ** lam.size() / j_alpha(lam, self.alpha))

    def support(self, D: int):
        """Yield (lam, rational_mass(lam)) for every nonzero mass with
        |lam| <= D, an int >= 0, in the order of :meth:`_walk`."""
        for parts, num, den in self._walk(D):
            yield Partition._of(parts), Fraction(num, den)

    def _walk(self, D: int):
        """Yield (parts, num, den) for every nonzero mass num/den of a
        partition with |parts| <= D: the parts tuple and the mass in lowest
        terms, den > 0.

        In the principal form the mass is a product of cell factors, so a
        diagram holding a zero cell stays zero in every larger one: the
        support is a down-set of Young's lattice.  It is walked row by row,
        each child one box (i, j) past its parent, and a row stops growing
        at its first zero cell factor.  A child is priced from its parent in
        ints: the content product gains the one cell factor, and j_alpha
        q^(2|lam|) gains the new hook factors of row i (which telescope to
        one pair) and of the i cells above the box, whose legs grow by one.
        Only the root's mass comes from :meth:`rational_mass`.  Otherwise
        masses need not vanish on a down-set and every partition is visited.
        """
        D = _int_arg(D, "D", 0)
        if self._principal is None:
            for d in range(D + 1):
                for lam in partitions_of(d):
                    rm = self.rational_mass(lam)
                    if rm:
                        yield lam.parts, rm.numerator, rm.denominator
            return
        a, q = self.alpha.numerator, self.alpha.denominator
        v1, c = self._principal
        L, base, scale = _cleared_content(self.alpha, self.u * v1, c)
        # a partition of n has mass num / (den * hooks): hooks = q^(2n) j_alpha,
        # den = (L u_den)^n, and each box multiplies num by its cleared cell
        # factor (which is L times the cell's x + c (alpha j - i)) and u_num q^2
        box_num, box_den = self.u.numerator * q * q, self.u.denominator * L

        def below(rows, room, num, den, hooks):
            # the support partitions that extend rows by further rows, from
            # the three ints of rows
            i = len(rows)
            start = base - scale * q * i
            for j in range(min(rows[-1] if rows else room, room)):
                factor = start + scale * a * j
                if not factor:
                    break
                old = new = 1
                for r in range(i):  # the cells above the box: leg + 1
                    x = a * (rows[r] - j - 1) + q * (i - r - 1)
                    old *= (x + q) * (x + a)
                    new *= (x + 2 * q) * (x + q + a)
                num, den = num * factor * box_num, den * box_den
                hooks = hooks // old * new * (a * j + q) * (a * j + a)
                parts, whole = rows + (j + 1,), den * hooks
                g = math.gcd(num, whole)
                yield parts, num // g, whole // g
                yield from below(parts, room - j - 1, num, den, hooks)

        root = self.rational_mass(Partition())
        yield (), root.numerator, root.denominator
        yield from below((), D, 1, 1, 1)


def mass(ensemble: Ensemble, lam: Partition):
    """Exact probability mass of lam under the ensemble."""
    return ensemble.mass(lam)


def character_measure(alpha, d: int, chi) -> dict:
    """Solve the character expansion and return {lambda: exact mass}."""
    return CharacterMeasure(alpha, d, chi).masses()


def conditional_thoma_character(v, d: int) -> dict:
    """The multiplicative table chi(mu) = prod v_{mu_i} on partitions of d,
    each value one Fraction of the products of the numerators and of the
    denominators of v_1..v_d."""
    v, d = Specialization.of(v), _int_arg(d, "d", 0)
    vs = [v(k) for k in range(1, d + 1)]
    table = {}
    for mu in partitions_of(d):
        num = den = 1
        for part in mu.parts:
            num *= vs[part - 1].numerator
            den *= vs[part - 1].denominator
        table[mu] = Fraction(num, den)
    return table


# ---------------------------------------------------------------------------
# Asymptotic regimes
# ---------------------------------------------------------------------------


class AsymptoticRegime(Frozen):
    """Regime parameters (g, g', v) with the positivity data (a, c) that
    makes (g, v) (or (-g, +-v)) an admissible pair."""

    g: Fraction
    gp: Fraction
    a: tuple
    c: Fraction

    @property
    def flavor(self) -> str:
        if self.g > 0:
            return "high"
        if self.g < 0:
            return "low"
        return "fixed"

    @staticmethod
    def make(g, a=(), c=1, gp=0) -> "AsymptoticRegime":
        a = tuple(Fraction(x) for x in a)
        c = Fraction(c)
        if sum(a) > c:
            raise ValueError("admissibility needs sum(a) <= c")
        return AsymptoticRegime(Fraction(g), Fraction(gp), a, c)


def regime_sequences(regime: AsymptoticRegime, d: int):
    """The explicit parameter sequences (alpha(d), u(d), v^(d)) realizing
    the regime at size d.  Values are exact, living in Q(sqrt(d)) when d is
    not a perfect square."""
    g = regime.g
    if g == 0:
        raise ValueError("fixed-temperature sequences are caller-supplied")
    d = _int_arg(d, "d", 1)
    if g > 0:
        alpha = g ** 2 * d
        u = Fraction(math.ceil(g * d))
    else:
        alpha = 1 / (g ** 2 * d)
        u = Fraction(math.ceil(-g * d)) / (g ** 2 * d)
    ceil_term = Fraction(math.ceil(abs(g) * d))

    def v_of(k: int):
        if k == 1:
            return Fraction(1)
        base = sum((x ** k for x in regime.a), Fraction(0))
        # (g sqrt(d) / ceil(|g| d))^{k-1} * sum a_i^k, exact in Q(sqrt(d))
        scale = (g / ceil_term) ** (k - 1) * alpha_half_power(Fraction(d), k - 1)
        return scale * base

    return alpha, u, v_of


# ---------------------------------------------------------------------------
# Conditional cumulants
# ---------------------------------------------------------------------------


def conditional_cumulant(chi, parts, d: int | None = None):
    """kappa_n of the partitions under the extended character chi (a callable
    on Partition): the joint cumulant (:func:`series.joint_cumulant`) whose
    moment of some of the parts is chi of their union; a Fraction, also for
    an int table, or a SqrtExt for a table in Q(sqrt(alpha))."""
    parts = [p if isinstance(p, Partition) else Partition(p) for p in parts]
    total_size = sum(p.size() for p in parts)
    if d is not None and total_size > _int_arg(d, "d", 0):
        raise ValueError(f"total size {total_size} exceeds character domain {d}")
    return Fraction(0) + joint_cumulant(
        parts, lambda sub: chi(reduce(Partition.union, sub)))


def extended_character(table: dict, d: int):
    """Extend a table on partitions of d to smaller partitions by padding
    with parts equal to 1."""
    d = _int_arg(d, "d", 0)

    def chi(mu: Partition):
        if mu.size() > d:
            raise ValueError(f"|mu| = {mu.size()} exceeds d = {d}")
        padded = mu.union(Partition([1] * (d - mu.size())))
        return table[padded]

    return chi


# ---------------------------------------------------------------------------
# Poisson-truncation oracle
# ---------------------------------------------------------------------------


class PoissonInterval(Record):
    """Certified bracket for a Poissonized expectation: the exact sum over
    partitions up to the truncation degree, an exact unnormalized tail
    bound (with a strictly positive safety margin baked in), and the
    Poisson exponent."""

    rational_sum: Fraction
    tail_bound: Fraction
    margin: Fraction
    exponent: Fraction
    degree: int

    @property
    def value(self) -> float:
        return float(self.rational_sum) * math.exp(-float(self.exponent))

    @property
    def radius(self) -> float:
        return float(self.tail_bound) * math.exp(-float(self.exponent))

    def contains_exact(self, target: Fraction) -> bool:
        """Exact check |target - exp(-U) * sum| <= exp(-U) * tail, performed
        as |target * e^U - sum| <= tail with rational bounds on e^U whose
        width is absorbed by the bound's built-in margin."""
        target = Fraction(target)
        lo, hi = _exp_bounds(self.exponent, self.margin / (2 * (abs(target) + 1)))
        worst = max(abs(target * lo - self.rational_sum),
                    abs(target * hi - self.rational_sum))
        return worst <= self.tail_bound


def _exp_bounds(U: Fraction, slack: Fraction):
    """Rational lower/upper bounds on e^U with hi - lo <= slack, for
    slack > 0: the partial sum of the series to the first n > 2U whose last
    term t has 2t <= slack, and that sum plus 2t.  With U = p/q the sum
    N / (q^n n!) and the term p^n / (q^n n!) are carried in ints."""
    U, slack = Fraction(U), _positive_arg(slack, "slack")
    p, q = U.numerator, U.denominator
    s_num, s_den = slack.numerator, slack.denominator
    total = power = scale = 1  # N, p^n and q^n n!
    n = 0
    while True:
        n += 1
        power *= p
        scale *= q * n
        total = total * q * n + power
        if n * q > 2 * p and 2 * power * s_den <= s_num * scale:
            break
        if n > 4000:
            raise ArithmeticError("exp bound did not converge")
    return Fraction(total, scale), Fraction(total + 2 * power, scale)


def _poisson_tail(U: Fraction, D: int, C: Fraction, r: int):
    """Rational upper bound on sum_{i>D} U^i/i! * C * i^r (the e^{-U}
    factor is bounded by 1).  Returns (bound, margin) where the bound
    exceeds the true sum by at least the margin.  With U = p/q the terms
    are summed in ints over q^i i! den(C) up to the first i whose next term
    is at most half of it; the margin is the geometric rest from there."""
    p, q = U.numerator, U.denominator
    i = D + 1
    power, scale = p ** i * C.numerator, q ** i * _factorial(i) * C.denominator
    total, w = 0, i ** r
    while True:
        t = power * w  # the term U^i/i! C i^r is t / scale
        total += t
        w_next = (i + 1) ** r
        a, b = p * w_next, q * (i + 1) * w  # the next term over this one, a / b
        if 2 * a <= b:
            rem, den = t * a, scale * (b - a)
            return Fraction(total * (b - a) + 2 * rem, den), Fraction(rem, den)
        power, scale, total = power * p, scale * q * (i + 1), total * q * (i + 1)
        w, i = w_next, i + 1
        if i > D + 4000:
            raise ArithmeticError("tail bound did not converge")


def _boolean_growth_constant(alpha, u, lengths) -> Fraction:
    """C = prod_l 2^(l-1) max(alpha/u, 1/u)^l over ``lengths``, so that the
    product of the Boolean cumulants B_l of the (alpha/u, 1/u) diagram of a
    partition lam is at most C |lam|^(sum of lengths) in absolute value."""
    scale = max(alpha / u, 1 / u)
    C = Fraction(1)
    for ell in lengths:
        C *= Fraction(2) ** (ell - 1) * scale ** ell
    return C


# the Poisson oracle's truncation degree may not pass this size
TRUNCATION_CAP = 60


def _truncation_degree(U: Fraction, C: Fraction, r: int, tail_eps):
    """(D, bound, margin) for the first degree D = max(4, ceil(2U)), +2,
    +4, ... whose certified tail bound (see :func:`_poisson_tail`) is at
    most tail_eps, with that bound and its margin; raises ArithmeticError
    once D passes ``TRUNCATION_CAP``."""
    D = max(4, int(math.ceil(2 * float(U))))
    while True:
        bound, margin = _poisson_tail(U, D, C, r)
        if bound <= tail_eps:
            return D, bound, margin
        D += 2
        if D > TRUNCATION_CAP:
            raise ArithmeticError(
                f"tail target {tail_eps} unreachable below degree {TRUNCATION_CAP}")


class ScaledObservable(Record):
    """The observable lam -> num(lam.parts) / den, for an int-valued ``num``
    and one int den > 0: :func:`poisson_expectation` sums the ints num(parts)
    against the masses and divides by den once."""

    num: object
    den: int

    def __call__(self, lam: Partition) -> Fraction:
        return Fraction(self.num(lam.parts), self.den)


def poisson_expectation(alpha, u, v, observable, tail_eps,
                        growth_bound=None, lengths_hint=None) -> PoissonInterval:
    """Brute-force oracle: sum mass * observable over the support of the
    measure up to a truncation degree chosen so the certified tail is below
    tail_eps, a positive rational.

    ``observable`` maps a Partition to an int, float or Fraction, or is a
    :class:`ScaledObservable`.  ``growth_bound`` is (C, r) with
    |observable(lam)| <= C |lam|^r; when omitted it is derived for products
    of Boolean observables with total order given by ``lengths_hint``.
    """
    alpha, u = _positive_arg(alpha, "alpha"), _positive_arg(u, "u")
    ensemble = JackThoma(alpha, u, v, check_positivity=False)
    U = ensemble.exponent
    if U <= 0:
        raise ValueError("need u^2 v_1 / alpha > 0")
    tail_eps = _positive_arg(tail_eps, "tail_eps")
    if growth_bound is None:
        if lengths_hint is None:
            raise ValueError("pass growth_bound=(C, r) or lengths_hint")
        lengths_hint = [_int_arg(x, "lengths_hint", 1) for x in lengths_hint]
        C, r = _boolean_growth_constant(alpha, u, lengths_hint), sum(lengths_hint)
    else:
        C, r = Fraction(growth_bound[0]), _int_arg(growth_bound[1], "growth_bound", 0)
    D, bound, margin = _truncation_degree(U, C, r, tail_eps)
    if isinstance(observable, ScaledObservable):
        value, scale = observable.num, observable.den
    else:
        value, scale = lambda p: Fraction(observable(Partition._of(p))), 1
    # the products summed in ints over a common denominator M, raised to the
    # lcm only when a term's denominator does not divide it
    num, M = 0, 1
    for parts, m_num, m_den in ensemble._walk(D):
        ob = value(parts)
        den = m_den * ob.denominator
        if M % den:
            L = math.lcm(M, den)
            num, M = num * (L // M), L
        num += m_num * ob.numerator * (M // den)
    return PoissonInterval(Fraction(num, M * scale), bound, margin, U, D)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def ensemble_from_config(cfg: dict) -> Ensemble:
    """Build an ensemble from a JSON/TOML-style mapping: keys variant,
    alpha ("p/q"), d, K, u, v (list of "p/q"), thoma {a, b, c}, and the
    bools dual and check_positivity.  A missing key, or a flag that is not
    a bool, raises ValueError."""

    def need(key):
        if key not in cfg:
            raise ValueError(
                f"ensemble config {cfg.get('variant')!r} lacks the key {key!r}")
        return cfg[key]

    def flag(key, default):
        if not isinstance(value := cfg.get(key, default), bool):
            raise ValueError(f"ensemble config key {key!r} must be a bool, got {value!r}")
        return value

    variant = need("variant")
    alpha = parse_rational(need("alpha"))
    if variant == "plancherel":
        return JackPlancherel(alpha, need("d"))
    if variant == "schur_weyl":
        return JackSchurWeyl(alpha, need("d"), need("K"),
                             dual=flag("dual", False))
    if variant == "thoma":
        v = [parse_rational(x) for x in need("v")]
        return JackThoma(alpha, parse_rational(need("u")), v,
                         check_positivity=flag("check_positivity", True))
    if variant == "conditional_thoma":
        v = [parse_rational(x) for x in need("v")]
        return ConditionalJackThoma(alpha, need("d"), v)
    if variant == "character":
        table = {Partition(eval_key(k)): parse_rational(x)
                 for k, x in need("chi").items()}
        return CharacterMeasure(alpha, need("d"), table)
    if variant == "jack_measure":
        th = cfg.get("thoma", {})
        point = ThomaPoint.make(a=[parse_rational(x) for x in th.get("a", [])],
                                b=[parse_rational(x) for x in th.get("b", [])],
                                c=parse_rational(th.get("c", 0)))
        rho1 = thoma_specialization(point, alpha)
        rho2 = Specialization.plancherel(parse_rational(need("u")))
        return JackMeasure(alpha, rho1, rho2)
    raise ValueError(f"unknown ensemble variant {variant!r}")


def eval_key(key: str):
    """Parse a partition key like "3,1,1" (or "" for the empty partition)."""
    key = key.strip()
    if not key:
        return ()
    return tuple(int(x) for x in key.split(","))
