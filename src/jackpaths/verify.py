"""Named verification suites, one per acceptance-grade identity.  Each
suite returns (passed, detail); the runner prints one pass/fail line per
suite.  These are the same checks the test suite pins down, packaged so
the command-line `verify` can run them directly."""

from __future__ import annotations

import math
import time
from fractions import Fraction
from operator import add

from . import paths
from .diagrams import _boolean_pricer, _cleared, diagram_booleans
from .ensembles import (CharacterMeasure, ConditionalJackThoma, JackPlancherel,
                        JackSchurWeyl, JackThoma, PoissonInterval,
                        ScaledObservable, _boolean_growth_constant, _poisson_tail,
                        _truncation_degree)
from .exactnum import _int_arg, _positive_arg, sqrt_ext
from .jack import Specialization, hall_inner, jack_basis, ns_apply
from .limitshape import (bessel_j, bessel_order_zeros,
                         functional_equation_check, moment_consistency)
from .partitions import Partition, j_alpha, partitions_of
from .polynomials import Poly
from .sampler import run_sampler, validate_growth


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def noncrossing_partitions(n: int):
    """All non-crossing set partitions of range(n), by the gap recursion on
    the block of the smallest element (independent of the path enumerators).
    The partitions of each gap are listed once."""
    listed = {(): [()]}  # the empty gap has the one empty partition

    def rec(segment):
        if segment in listed:
            return listed[segment]
        first, rest = segment[:1], segment[1:]
        out = listed[segment] = []
        for mask in range(1 << len(rest)):
            block = first + tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
            # the gaps between consecutive block elements must be partitioned
            # independently, which is exactly the non-crossing condition
            cuts = [rest.index(b) for b in block[1:]]
            chunks = [rest[i + 1:j] for i, j in zip([-1] + cuts, cuts + [len(rest)])]
            partials = [()]
            for chunk in chunks:
                partials = [left + sub for left in partials for sub in rec(chunk)]
            out += [(block,) + combo for combo in partials]
        return out

    yield from rec(tuple(range(_int_arg(n, "n", 0))))


def nc_moment_poly(ell: int) -> Poly:
    """Moment of order ell as a polynomial in free cumulants, via the
    non-crossing-partition moment map with R_{i+1} named v_i (and R_1 = 0):
    the partitions are counted by their multiset of block sizes, and each
    multiset gives one monomial."""
    counts = {}
    for pi in noncrossing_partitions(_int_arg(ell, "ell", 0)):
        if all(len(block) > 1 for block in pi):
            sizes = tuple(sorted(len(block) for block in pi))
            counts[sizes] = counts.get(sizes, 0) + 1
    return Poly({tuple((f"v{s - 1}", 1) for s in sizes): count
                 for sizes, count in counts.items()})


def boolean_products_observable(lengths, alpha, u) -> ScaledObservable:
    """Per-partition exact value of prod_i B_{l_i} of the (alpha/u, 1/u)
    rescaled diagram; ``lengths`` must be a nonempty sequence of ints >= 1.
    The value is an int numerator over the one denominator den**sum(lengths)
    of the (w, h) diagram.  The Boolean numerators come from one
    :func:`diagrams._boolean_pricer`, so partitions passed in a walk of
    :meth:`JackThoma.support` are each priced from the one before by one box."""
    lengths = [_int_arg(ell, "lengths", 1) for ell in lengths]
    if not lengths:
        raise ValueError("lengths must be nonempty")
    alpha, u = _positive_arg(alpha, "alpha"), _positive_arg(u, "u")
    price = _boolean_pricer(alpha / u, 1 / u, max(lengths))

    def num(parts):
        nums = price(parts)[0]
        out = 1
        for ell in lengths:
            out *= nums[ell - 1]
        return out

    return ScaledObservable(num, _cleared(alpha / u, 1 / u)[2] ** sum(lengths))


def _length_multisets(total: int):
    """All multisets of positive integers with sum <= total, as sorted
    descending tuples (excluding the empty multiset)."""
    return [lam.parts for s in range(1, total + 1) for lam in partitions_of(s)]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

NORMALIZATION_ALPHAS = (Fraction(1, 3), Fraction(1), Fraction(2), Fraction(7, 2))


def suite_normalization(dmax: int = 8):
    """Criterion 1: every ensemble variant sums to exactly 1 on each Y_d
    (for the measures on all partitions: their sector masses are exact)."""
    from .ensembles import JackMeasure, ThomaPoint, thoma_specialization

    dmax = _int_arg(dmax, "dmax", 1)
    v = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    for alpha in NORMALIZATION_ALPHAS:
        thoma = JackThoma(alpha, Fraction(2),
                          lambda k: Fraction(1, 2) ** (k - 1),
                          check_positivity=False)
        generic = JackMeasure(
            alpha,
            thoma_specialization(ThomaPoint.make(a=[Fraction(1, 2)], c=1), alpha),
            Specialization.plancherel(Fraction(2)))
        for d in range(1, dmax + 1):
            if sum(JackPlancherel(alpha, d).masses().values()) != 1:
                return False, f"plancherel alpha={alpha} d={d}"
            if sum(JackSchurWeyl(alpha, d, K=3).masses().values()) != 1:
                return False, f"schur_weyl alpha={alpha} d={d}"
            if sum(JackSchurWeyl(alpha, d, K=2, dual=True).masses().values()) != 1:
                return False, f"schur_weyl-dual alpha={alpha} d={d}"
            if sum(ConditionalJackThoma(alpha, d, v).masses().values()) != 1:
                return False, f"conditional_thoma alpha={alpha} d={d}"
            # a signed table in Q(sqrt(alpha)) that is no product of v_k's
            chi = {mu: sqrt_ext(Fraction((-1) ** mu.weight(), mu.weight() + 1),
                                mu.weight(), alpha) for mu in partitions_of(d)}
            if sum(CharacterMeasure(alpha, d, chi).masses().values()) != 1:
                return False, f"character alpha={alpha} d={d}"
            sector = sum(thoma.rational_mass(lam) for lam in partitions_of(d))
            if sector != thoma.sector_mass_rational(d):
                return False, f"thoma sector alpha={alpha} d={d}"
            gsector = sum(generic.rational_mass(lam) for lam in partitions_of(d))
            if gsector != generic.sector_mass_rational(d):
                return False, f"jack_measure sector alpha={alpha} d={d}"
    return True, f"all variants, d <= {dmax}, {len(NORMALIZATION_ALPHAS)} alphas"


def suite_jack_orthogonality():
    """Criterion 2: <J_lam, J_nu> = delta * j_lam exactly."""
    dmax = 6
    for alpha in (Fraction(1, 3), Fraction(2), Fraction(7, 2)):
        for d in range(0, dmax + 1):
            basis = jack_basis(d, alpha)
            lams = list(basis)
            for i, lam in enumerate(lams):
                for nu in lams[i:]:
                    inner = hall_inner(basis[lam], basis[nu], alpha)
                    want = j_alpha(lam, alpha) if lam == nu else Fraction(0)
                    if inner != want:
                        return False, f"alpha={alpha} {lam.parts} {nu.parts}"
    return True, f"all |lam| <= {dmax}, three alphas"


def suite_eigenrelation():
    """Criterion 3: the band-transfer operator acts on each Jack element
    as the Boolean observable of its width-alpha diagram."""
    dmax, lmax = 5, 4
    for alpha in (Fraction(1, 2), Fraction(2)):
        for d in range(1, dmax + 1):
            for lam, J in jack_basis(d, alpha).items():
                booleans = diagram_booleans(lam, alpha, 1, lmax + 2)
                for ell in range(0, lmax + 1):
                    if ns_apply(ell, J, alpha) != J.scale(booleans[ell + 1]):
                        return False, f"alpha={alpha} lam={lam.parts} ell={ell}"
    return True, f"|lam| <= {dmax}, ell <= {lmax}, alphas 1/2 and 2"


ORACLE_PARAMETER_SETS = (
    # (alpha, u, v-rule, label); all have U = u^2 v_1 / alpha <= 4 and
    # certified-positive masses (Plancherel and integer-ratio principal).
    # The rules carry their principal form, so no ensemble probes them
    (Fraction(1), Fraction(1), Specialization.plancherel(1), "plancherel U=1"),
    (Fraction(2), Fraction(2), Specialization.principal(1, Fraction(1, 2)),
     "principal c=1/2 U=2"),
    (Fraction(1, 2), Fraction(1), Specialization.principal(1, Fraction(1, 3)),
     "principal c=1/3 U=2"),
)


def boolean_product_sums(weighted, w, h, multisets) -> dict:
    """{lengths: sum of mass * prod_i B_{l_i} of the (w, h) diagram of lam}
    over the triples (parts, num, den) of ``weighted``, each the parts of a
    partition and its rational mass num/den with den > 0, for each multiset
    of ``multisets``: a nonempty tuple of ints >= 1 (read by ``_int_arg``)
    whose prefix comes earlier in the list, or a ValueError names it.

    The sums run over Python ints: the masses over their common
    denominator M, and B_l = nums[l - 1] / den**l, so each multiset divides
    once, by M * den**(sum of lengths).  Once per call the multisets become
    a prefix plan, one row (index of the prefix's product, last length - 1)
    per distinct multiset; per partition the plan fills a list of products
    from the mass and adds it into a list of sums.  The numerators come from
    one :func:`diagrams._boolean_pricer`, which carries each partition's
    series from its parent when ``weighted`` walks as
    :meth:`JackThoma._walk` does.  No triples give 0 for every multiset, and
    no multisets give {}."""
    index, plan = {(): 0}, []  # product 0 is the mass
    for given in multisets:
        try:  # each length is read as boolean_products_observable reads it
            lengths = tuple(_int_arg(l, "lengths", 1) for l in given)
        except (TypeError, ValueError):
            lengths = ()
        if not (type(given) is tuple and lengths and lengths[:-1] in index):
            raise ValueError("multisets must be nonempty tuples of ints >= 1, "
                             f"each after its prefix, got {given!r}")
        if lengths not in index:
            plan.append((index[lengths[:-1]], lengths[-1] - 1))
            index[lengths] = len(index)
    weighted = list(weighted)
    if not weighted or not plan:
        return dict.fromkeys(list(index)[1:], Fraction(0))
    M = math.lcm(*(m_den for _, _, m_den in weighted))
    price = _boolean_pricer(w, h, max(last for _, last in plan) + 1)
    sums = [0] * len(index)
    for parts, m_num, m_den in weighted:  # den depends only on (w, h)
        nums, den = price(parts)
        prods = [m_num * (M // m_den)]
        for prefix, last in plan:
            prods.append(prods[prefix] * nums[last])
        sums = [*map(add, sums, prods)]
    return {lengths: Fraction(sums[k], M * den ** sum(lengths))
            for lengths, k in index.items() if k}


def suite_poisson_oracle(total: int = 7, tail_eps=Fraction(1, 10 ** 12)):
    """Criterion 4: the ribbon formula for expectations of Boolean-observable
    products equals the truncated brute-force sum within the certified tail
    radius (< 1e-12) for every length multiset with sum <= ``total``."""
    total, tail_eps = _int_arg(total, "total", 1), _positive_arg(tail_eps, "tail_eps")
    multisets = _length_multisets(total)
    for alpha, u, vrule, label in ORACLE_PARAMETER_SETS:
        ens = JackThoma(alpha, u, vrule, check_positivity=False)
        U = ens.exponent
        scale = max(alpha / u, 1 / u)
        worst = Fraction(2) ** (total - 1) * max(scale, 1) ** total
        try:
            D = _truncation_degree(U, worst, total, tail_eps)
        except ArithmeticError:
            return False, f"tail target unreachable at {label}"
        sums = boolean_product_sums(ens._walk(D), alpha / u, 1 / u, multisets)
        for lengths in multisets:
            expect = paths.finite_expectation(lengths, alpha, u, vrule)
            C = _boolean_growth_constant(alpha, u, lengths)
            bound, margin = _poisson_tail(U, D, C, sum(lengths))
            if bound > tail_eps:
                return False, f"radius target missed at {label} {lengths}"
            interval = PoissonInterval(sums[lengths], bound, margin, U, D)
            if not interval.contains_exact(expect):
                return False, f"mismatch at {label} {lengths}"
    return True, (f"all multisets sum <= {total}, three parameter sets, "
                  f"radius < {float(tail_eps):.0e}")


# The fixed-size measure is parameterized by the character table chi = v_mu
# while the ribbon formula uses the Poissonized parameters; the two v's
# differ by powers of u/sqrt(alpha).  Rational test sets therefore use a
# square alpha (generic v) or the Plancherel direction (any alpha).
DEPOISSONIZED_SETS = (
    # (alpha, u, character v, formula v)
    (Fraction(4), Fraction(2),
     [Fraction(1), Fraction(1, 2), Fraction(-1, 3)],
     [Fraction(1), Fraction(1, 2), Fraction(-1, 3)]),          # u/sqrt(alpha) = 1
    (Fraction(9, 4), Fraction(3),
     [Fraction(1), Fraction(1, 5), Fraction(1, 7)],
     [Fraction(1), Fraction(2, 5), Fraction(4, 7)]),           # scaled by 2^{k-1}
    (Fraction(2), Fraction(3), [Fraction(1)], [Fraction(1)]),  # Plancherel, any alpha
    (Fraction(1, 3), Fraction(1), [Fraction(1)], [Fraction(1)]),
)


def suite_depoissonized():
    """Criterion 5: the falling-factorial ribbon formula equals the full
    conditional expectation over partitions of fixed size, exactly."""
    total = dmax = 8
    multisets = _length_multisets(total)
    for alpha, u, v_char, v_formula in DEPOISSONIZED_SETS:
        for d in range(1, dmax + 1):
            masses = ConditionalJackThoma(alpha, d, v_char).masses()
            weighted = [(lam.parts, m.numerator, m.denominator)
                        for lam, m in masses.items()]
            sums = boolean_product_sums(weighted, alpha / u, 1 / u, multisets)
            for lengths in multisets:
                formula = paths.depoissonized_expectation(
                    lengths, d, alpha, u, v_formula)
                if sums[lengths] != formula:
                    return False, f"alpha={alpha} d={d} lengths={lengths}"
    return True, (f"multisets sum <= {total}, d <= {dmax}, "
                  f"{len(DEPOISSONIZED_SETS)} parameter sets")


def suite_moment_universality():
    """Criterion 6: operator = Motzkin = Lukasiewicz moments (symbolically),
    and the functional equation z G - 1 = G(z) G(z-g) through z^-L."""
    L = 12
    if not moment_consistency(10):
        return False, "triple moment agreement failed"
    if not functional_equation_check(L):
        return False, "functional equation failed"
    return True, f"triple agreement ell <= 10; functional equation to z^-{L}"


def suite_moment_duality():
    """Criterion 7: the reflection identity M_ell(g,v) = (-1)^ell
    M_ell(-g, +-v) as an exact polynomial identity (unsigned for even ell)."""
    lmax = 10
    for ell in range(1, lmax + 1):
        if not paths.moment_duality_check(ell):
            return False, f"ell={ell}"
    return True, f"ell <= {lmax}, exact polynomial identity"


def suite_free_cumulants():
    """Criterion 8: at g = 0 the limit moments equal the non-crossing
    moment map of the cumulant sequence, symbolically."""
    lmax = 10
    for ell in range(1, lmax + 1):
        luk = paths.limit_moment_poly(ell).subs({"g": Poly.const(0)})
        if luk != nc_moment_poly(ell):
            return False, f"ell={ell}"
    return True, f"ell <= {lmax}, exact polynomial identity"


def suite_bessel_edge():
    """Criterion 9: zeros and edge limits at g = -1/4 match the reference
    values to 1e-3, and J_{-z/|g|}(2/|g|) changes sign across each zero
    (the zeros come from the Plancherel operator's spectrum, so this ties
    them to the Bessel function)."""
    tol = 1e-3
    g = Fraction(-1, 4)
    zl = bessel_order_zeros(g, 3, tol=1e-10)
    targets = (-1.086, -0.424, 0.102)
    ag = abs(float(g))
    for z, t in zip(zl.zeros, targets):
        if abs(z - t) > tol:
            return False, f"zero {z:.4f} vs {t}"
        lo, hi = (bessel_j(-(z + s) / ag, 2 / ag) for s in (-1e-8, 1e-8))
        if lo * hi >= 0:
            return False, f"J keeps its sign across the zero {z:.4f}"
    edges = [-zl.zeros[i] - (i + 1) * float(g) for i in range(3)]
    for e, t in zip(edges, (1.336, 0.924, 0.647)):
        if abs(e - t) > tol:
            return False, f"edge {e:.4f} vs {t}"
    return True, ("zeros -1.086/-0.424/0.102 and edges 1.336/0.924/0.647 "
                  "within 1e-3; J changes sign across each zero")


def suite_clt_anchors():
    """Criterion 10: closed-form anchors of the fluctuation formulas."""
    for v1 in (Fraction(1), Fraction(4), Fraction(9, 4)):
        v = [v1, Fraction(1, 3)]
        if paths.clt_cov(2, 2, Fraction(1, 2), v) != 1 / v1:
            return False, f"cov(2,2) != 1/v1 at v1={v1}"
    if paths.afp_cov(2, 2, Fraction(1, 2), [Fraction(1), Fraction(1, 3)], {}) != 0:
        return False, "afp cov(2,2) != 0 with vanishing second cumulants"
    if paths.clt_mean(2, Fraction(1, 2), Fraction(3), [Fraction(1)]) != 0:
        return False, "mean(2) != 0"
    return True, "cov(2,2) = 1/v1; afp cov(2,2) = 0; mean(2) = 0"


def suite_sampler_law():
    """Criterion 11: exact growth-law validation plus Monte Carlo agreement
    of Boolean-observable means within 4 standard errors."""
    mc_draws, seed = 10 ** 4, 20260809
    if not validate_growth():
        return False, "growth chain distribution != fixed-size law"
    # v geometric with ratio 1/2 at alpha = 4 comes from an integer
    # Schur-Weyl parameter, so the conditioned measure is certified positive;
    # u = sqrt(alpha) makes the formula and character parameters coincide
    alpha, u = Fraction(4), Fraction(2)
    d = 6
    v = [Fraction(1, 2) ** k for k in range(d)]
    cfg = {"variant": "conditional_thoma", "alpha": "4", "d": d,
           "v": [f"1/{2 ** k}" for k in range(d)]}
    run = run_sampler(cfg, seed=seed, count=mc_draws, method="exact")
    obs = boolean_products_observable([2], alpha, u)
    obs3 = boolean_products_observable([3], alpha, u)
    for name, lengths, func in (("B2", [2], obs), ("B3", [3], obs3)):
        target = float(paths.depoissonized_expectation(lengths, d, alpha, u, v))
        vals = [float(func(lam)) for lam in run.collected]
        mean = sum(vals) / len(vals)
        var = sum((x - mean) ** 2 for x in vals) / (len(vals) - 1)
        sigma = math.sqrt(var / len(vals))
        # the epsilon absorbs float accumulation for deterministic observables
        if abs(mean - target) > 4 * sigma + 1e-9 * (abs(target) + 1):
            return False, f"{name}: {mean:.6f} vs {target:.6f} (4 sigma)"
    return True, f"exact law d <= 8; MC means within 4 sigma at {mc_draws} draws"


def suite_lln_low_temperature(out_dir: str | None = None):
    """Criterion 12: empirical first-row mean at g = -1/4, d = 1600 within
    0.05 of 1.336; optionally writes the staircase overlay CSV/SVG."""
    draws, d, seed = 200, 1600, 20260809
    g = Fraction(-1, 4)
    alpha = 1 / (g * g * d)
    cfg = {"variant": "plancherel", "alpha": alpha, "d": d}
    run = run_sampler(cfg, seed=seed, count=draws, method="growth")
    mean = sum(l.parts[0] for l in run.collected) / draws / float(-g * d)
    if out_dir is not None:
        _write_overlay(run, g, alpha, d, out_dir)
    if abs(mean - 1.336) > 0.05:
        return False, f"mean lam_1/(-g d) = {mean:.4f} vs 1.336"
    return True, f"mean lam_1/(-g d) = {mean:.4f} (target 1.336 +- 0.05)"


def _write_overlay(run, g, alpha, d, out_dir):
    import os

    from .limitshape import plancherel_limit_shape
    from .sampler import mean_profile
    from .serialize import profile_csv, profiles_svg, shape_points

    os.makedirs(out_dir, exist_ok=True)
    shape = plancherel_limit_shape(g, n_steps=10)
    lo = float(shape.minima[0]) - 0.5
    hi = float(shape.minima[-1]) + 0.5
    grid = [lo + (hi - lo) * i / 400 for i in range(401)]
    empirical = mean_profile(run, alpha, d, grid)
    limit_pts = shape_points(shape)
    with open(os.path.join(out_dir, "lln_overlay.csv"), "w") as fh:
        fh.write(profile_csv(empirical))
    with open(os.path.join(out_dir, "lln_overlay.svg"), "w") as fh:
        fh.write(profiles_svg([(empirical, "#cc3333"), (limit_pts, "#3355cc")]))


SUITES = {
    "normalization": suite_normalization,
    "jack-orthogonality": suite_jack_orthogonality,
    "eigenrelation": suite_eigenrelation,
    "poisson-oracle": suite_poisson_oracle,
    "depoissonized": suite_depoissonized,
    "moment-universality": suite_moment_universality,
    "moment-duality": suite_moment_duality,
    "free-cumulant-reduction": suite_free_cumulants,
    "bessel-edge": suite_bessel_edge,
    "clt-anchors": suite_clt_anchors,
    "sampler-law": suite_sampler_law,
    "lln-low-temperature": suite_lln_low_temperature,
}

# the suites whose size cap ``dmax`` the command line's --d sets
SIZE_CAP_SUITES = ("normalization",)
# the suites that draw from (or validate) the growth chain
GROWTH_SUITES = ("sampler-law", "lln-low-temperature")


def run_suites(names, stream=None, **kwargs):
    """Run the named suites in the given order, printing one pass/fail line
    each to ``stream`` (stdout by default); returns the list of (name,
    passed, detail, secs)."""
    import sys

    stream = stream or sys.stdout
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}")
        t0 = time.perf_counter()
        passed, detail = SUITES[name](**kwargs.get(name, {}))
        secs = time.perf_counter() - t0
        results.append((name, passed, detail, secs))
        flag = "PASS" if passed else "FAIL"
        print(f"[{flag}] {name:<24} {secs:7.2f}s  {detail}", file=stream)
    return results
