import hashlib
from fractions import Fraction
from functools import cache
from math import isqrt

import pytest

from jackpaths.jack import Specialization
from jackpaths.partitions import falling_factorial
from jackpaths.paths import (RIBBON_DP_LIMIT, EnumerationCapError,
                             _marked_site_sums, afp_cov, afp_mean, clt_cov,
                             clt_mean, count_lukasiewicz,
                             depoissonized_expectation,
                             enumerate_lukasiewicz, enumerate_motzkin,
                             finite_cumulant_s, finite_expectation,
                             finite_moment_s, is_pi_connected, limit_moment,
                             limit_moment_poly, moment_duality_check,
                             ribbon_stats, set_partitions, statistic_f)
from jackpaths.polynomials import Poly


def catalan(n):
    from math import comb
    return comb(2 * n, n) // (n + 1)


def test_lukasiewicz_counts_against_dp_oracle():
    from jackpaths.paths import _luk_steps, _walk_heights

    for ell in range(1, 12):
        paths = enumerate_lukasiewicz(ell)
        assert len(paths) == count_lukasiewicz(ell)
        assert len(paths) <= catalan(ell)
        assert len(set(paths)) == len(paths)
    # near the ribbon cap the listing is too large to keep; walk it
    for ell in (13, 14):
        n = 0
        for h in _walk_heights(ell, _luk_steps, ell):
            assert h[0] == h[-1] == 0 and min(h) >= 0
            n += 1
        assert n == count_lukasiewicz(ell)
        assert count_lukasiewicz(ell) <= catalan(ell)
    assert len(enumerate_lukasiewicz(2)) == 1
    assert len(enumerate_lukasiewicz(3)) == 2


def _recursive_walk_heights(length, step_choices, height_cap):
    """The walk by recursive generators, as a reference for the stack walk."""

    def rec(prefix, y, remaining):
        if remaining == 0:
            if y == 0:
                yield tuple(prefix)
            return
        if y == 0 and remaining == 1:
            return
        for k in step_choices(y, remaining, height_cap):
            prefix.append(y + k)
            yield from rec(prefix, y + k, remaining - 1)
            prefix.pop()

    yield from rec([0], 0, length)


def test_stack_walk_yields_the_recursive_walk():
    from jackpaths.paths import _luk_steps, _motzkin_steps, _walk_heights

    for steps in (_luk_steps, _motzkin_steps):
        for ell in range(11):
            for cap in {ell, 2, 1}:
                assert (list(_walk_heights(ell, steps, cap))
                        == list(_recursive_walk_heights(ell, steps, cap))), (steps, ell, cap)


def test_motzkin_counts():
    assert len(enumerate_motzkin(2)) == 1
    assert len(enumerate_motzkin(3)) == 1
    assert len(enumerate_motzkin(4)) == 3
    # Motzkin paths are the degree-one subset of the Lukasiewicz paths
    for ell in range(2, 9):
        luk = set(enumerate_lukasiewicz(ell))
        assert set(enumerate_motzkin(ell)) <= luk


def test_path_structure_constraints():
    for ell in range(2, 9):
        for exc in enumerate_lukasiewicz(ell):
            steps = exc.steps()
            assert all(s >= -1 for s in steps)
            prev = 0
            for y in exc.heights[1:]:
                assert not (y == prev == 0)  # no horizontal step at height 0
                prev = y


def test_ribbon_height_bound_and_filters():
    from jackpaths.paths import _all_ribbons

    for lengths in [(2, 2), (3, 2), (4,), (2, 2, 2)]:
        total = sum(lengths)
        for rp in _all_ribbons(lengths):
            assert rp.max_height() < total
            # unpaired down steps all have degree one
            stats = ribbon_stats(rp)
            assert stats["unpaired_downs"] >= 0
    assert _all_ribbons((3, 1)) == ()
    assert _all_ribbons((1,)) == ()
    one = [rp for rp in _all_ribbons((2, 2))
           if len(rp.pairings) == 1 and is_pi_connected(rp)]
    assert len(one) == 1
    assert len([rp for rp in _all_ribbons((2,)) if not rp.pairings]) == 1
    with pytest.raises(EnumerationCapError):
        _all_ribbons((8, 8))


def test_limit_moment_examples():
    g = Fraction(1, 2)
    assert limit_moment(2, g, [1]) == 1
    assert limit_moment(3, g, [1]) == g
    assert limit_moment(3, g, [1, Fraction(1, 3)]) == g + Fraction(1, 3)
    assert limit_moment(4, g, [1]) == 2 + g * g
    assert limit_moment(1, g, [1]) == 0
    # v1-normalization with a square v1
    assert limit_moment(2, g, [4]) == 1
    assert limit_moment(3, g, [4, 1]) == (4 * g + 1) / 8
    with pytest.raises(ValueError):
        limit_moment(3, g, [2])  # odd order needs square v1


def test_finite_expectation_examples():
    alpha, u = Fraction(2), Fraction(2)
    v = [1, Fraction(1, 2), Fraction(1, 3)]
    assert finite_expectation([2], alpha, u, v) == 1
    assert finite_expectation([1], alpha, u, v) == 0
    assert finite_expectation([1, 5], alpha, u, v) == 0
    assert finite_expectation([2, 2], alpha, u, v) == 1 + alpha / u ** 2
    assert finite_expectation([3], alpha, u, v) == (alpha - 1) / u + Fraction(1, 2)


def test_finite_cumulants_examples():
    alpha, u = Fraction(3), Fraction(2)
    v = [1, Fraction(1, 5)]
    assert finite_cumulant_s([2], alpha, u, v) == 1
    assert finite_cumulant_s([2, 2], alpha, u, v) == alpha / u ** 2
    assert finite_cumulant_s([3], alpha, u, v) == (alpha - 1) / u + Fraction(1, 5)


def test_finite_cumulant_of_no_sites_is_refused():
    with pytest.raises(ValueError, match="at least one"):
        finite_cumulant_s([], 2, 1, [1])


def test_cumulant_consistency_via_set_partitions():
    alpha, u = Fraction(2), Fraction(3)
    v = [1, Fraction(1, 2), Fraction(1, 4)]
    for lengths in [(2, 2), (2, 3), (2, 2, 2), (3, 3)]:
        moment = finite_moment_s(lengths, alpha, u, v)
        recombined = Fraction(0)
        for pi in set_partitions(range(len(lengths))):
            term = Fraction(1)
            for block in pi:
                term *= finite_cumulant_s([lengths[b] for b in block],
                                          alpha, u, v)
            recombined += term
        assert moment == recombined, lengths


def test_depoissonized_examples():
    alpha, u, d = Fraction(2), Fraction(2), 5
    b = alpha / u ** 2
    assert depoissonized_expectation([2], d, alpha, u, [1]) == d * b
    assert depoissonized_expectation([2, 2], d, alpha, u, [1]) == \
        d * (d - 1) * b ** 2 + d * b ** 2
    assert depoissonized_expectation([1], d, alpha, u, [1]) == 0
    with pytest.raises(ValueError):
        depoissonized_expectation([2], d, alpha, u, [2])


def test_clt_values():
    g, gp = Fraction(1, 2), Fraction(3)
    assert clt_mean(2, g, gp, [1]) == 0
    # ell = 3: the g-derivative of the shape sum is the single horizontal path
    assert clt_mean(3, g, gp, [1]) == gp / 2
    assert clt_mean(3, g, Fraction(0), [1, Fraction(1, 3)]) == 0
    for v1 in (Fraction(1), Fraction(4)):
        assert clt_cov(2, 2, g, [v1]) == 1 / v1
    assert clt_cov(2, 1, g, [1]) == 0
    assert clt_cov(2, 2, g, [1, Fraction(1, 3)]) == 1


def test_afp_values():
    g = Fraction(1, 2)
    v = [Fraction(1), Fraction(1, 3)]
    assert afp_cov(2, 2, g, v, {}) == 0
    assert afp_mean(3, g, Fraction(0), v, []) == 0
    # with gp only, afp_mean reduces to clt_mean at v1 = 1
    assert afp_mean(3, g, Fraction(2), v, []) == clt_mean(3, g, Fraction(2), v)
    # vp acts through d/dv_2 on the ell=3 shape sum (single up-2 path)
    got = afp_mean(3, g, Fraction(0), v, {2: Fraction(5)})
    assert got == Fraction(5) / 2
    # a nonzero table feeds the zero-pairing double sum (degree-2 steps
    # need sites of length >= 3)
    withtable = afp_cov(3, 3, g, v, {(2, 2): Fraction(7)})
    assert withtable != afp_cov(3, 3, g, v, {})


def test_afp_cov_reduces_to_depoissonized_covariance():
    # with a vanishing second-cumulant table the covariance equals the
    # one-pairing sum minus the cross term counting unpaired down steps
    # on the two sites (the boundary convention packages exactly this)
    from jackpaths.paths import _all_ribbons, _info_of

    g = Fraction(1, 3)
    v = [Fraction(1), Fraction(1, 2), Fraction(1, 5)]
    for k, l in [(2, 2), (2, 3), (3, 3)]:
        direct = afp_cov(k, l, g, v, {})
        one_pairing = clt_cov(k, l, g, v)
        total = Fraction(0)
        for rp in _all_ribbons((k, l)):
            if rp.pairings:
                continue
            stats = ribbon_stats(rp)
            base = Fraction(1, stats["s0_per_site"][0] * stats["s0_per_site"][1])
            for i, cnt in stats["horizontal_by_height"].items():
                base *= (i * g) ** cnt
            vmu = Fraction(1)
            for n, cnt in stats["up_by_degree"].items():
                vmu *= (v[n - 1] if n <= len(v) else Fraction(0)) ** cnt
            downs = [0, 0]
            info = _info_of(rp.sites)
            for pos in range(1, len(info.degs)):
                if info.degs[pos] == -1:
                    downs[info.site_of[pos]] += 1
            total += base * vmu * downs[0] * downs[1]
        assert direct == one_pairing - total / ((k - 1) * (l - 1))


def _leading_b_coefficient(k, l, g, v):
    """Exact b^1 coefficient, in the pairing weight b = alpha/u^2, of the
    finite-parameter joint cumulant along the slice alpha = 1 + g*u (where
    the horizontal weight equals g identically).  A pairing takes two of the
    k + l steps, so the cumulant is a polynomial in b of degree at most
    (k + l) // 2 with no constant term: fit it through that many exact
    points u = 1, 2, ...  The cumulant comes from the ribbon transfer, so
    this shares no code with the operator column behind clt_cov."""
    n = (k + l) // 2
    rows = []
    for u in range(1, n + 1):
        alpha = 1 + g * u
        b = alpha / u ** 2
        rows.append([b ** e for e in range(1, n + 1)]
                    + [finite_cumulant_s([k, l], alpha, u, v)])
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b2 for a, b2 in zip(rows[r], rows[c])]
    return rows[0][n]


def test_clt_cov_matches_finite_parameter_extrapolation():
    # (8, 8) and (10, 8) are past RIBBON_CAP, where no ribbon is listed;
    # g >= 0 keeps alpha = 1 + g*u positive at every u
    v = [Fraction(1), Fraction(1, 3), Fraction(1, 7)]
    for g in (Fraction(0), Fraction(1, 2)):
        for k, l in [(2, 2), (2, 3), (3, 3), (2, 4), (8, 8), (10, 8)]:
            lead = _leading_b_coefficient(k, l, g, v)
            assert lead == (k - 1) * (l - 1) * clt_cov(k, l, g, v), (g, k, l)


def test_moment_duality():
    for ell in range(1, 9):
        assert moment_duality_check(ell)


def test_limit_moment_poly_structure():
    p4 = limit_moment_poly(4)
    # contains the pure v1^2 terms and the g^2 v1 horizontal path
    assert p4.evaluate({"g": Fraction(0), "v1": 1, "v2": 0, "v3": 0}) == 2
    assert p4.derivative("g").derivative("g").evaluate(
        {"g": 0, "v1": 1, "v2": 0, "v3": 0}) == 2  # g^2 coefficient 1, twice diff
    # the shape sum of length 3 is g*v1 + v2: marked steps on its paths
    assert _marked_site_sums(3, Fraction(2), Specialization.of([1, 5])) == {
        -1: 1 * 1 * 2 + 2 * 5 * 1, 1: 2, 2: 1}


@cache
def _enumerated_sum(ell, by_returns):
    """The literal path sum: one Poly product per step of every listed
    Lukasiewicz path, times 1/|S^0| when ``by_returns``."""
    total = Poly.const(0)
    g = Poly.var("g")
    for exc in enumerate_lukasiewicz(ell):
        term = Poly.const(Fraction(1, exc.touches_zero()) if by_returns else 1)
        prev = 0
        for y in exc.heights[1:]:
            d = y - prev
            if d == 0:
                term = term * (y * g)
            elif d > 0:
                term = term * Poly.var(f"v{d}")
            prev = y
        total = total + term
    return total


def test_path_sums_match_enumeration():
    for ell in range(1, 11):
        got, want = limit_moment_poly(ell).terms, _enumerated_sum(ell, False).terms
        assert got == want, ell
        assert all(type(c) is Fraction for c in got.values())


# v_1 = 1 for the afp formulas, and v_1 = 4 a square for odd clt orders
MEAN_POINTS = [(Fraction(1, 2), [1, Fraction(1, 3)]),
               (Fraction(-1, 3), [1, Fraction(-1, 2), 0, Fraction(1, 4)]),
               (Fraction(7, 5), [4, 0, Fraction(1, 5), Fraction(-2, 3)])]


def test_mean_shifts_are_derivatives_of_the_enumerated_shape_sum():
    """clt_mean, afp_mean and the marked-step sums against the Poly
    derivatives, at each point, of the listed paths' 1/|S^0|-weighted sum."""
    vp = [Fraction(5), Fraction(-2, 3), Fraction(7), Fraction(1, 9)]
    for ell in range(2, 11):
        shape = _enumerated_sum(ell, True)
        for g, v in MEAN_POINTS:
            at = {"g": g, **{f"v{n}": Fraction(x) for n, x in enumerate(v, 1)}}
            at.update({f"v{n}": Fraction(0) for n in range(len(v) + 1, ell)})
            dg = shape.derivative("g").evaluate(at)
            dv = {n: shape.derivative(f"v{n}").evaluate(at) for n in range(1, ell)}
            pref = Fraction(1, isqrt(v[0])) ** ell  # v_1^{-ell/2}
            assert clt_mean(ell, g, 3, v) == pref * 3 * dg / (ell - 1), (ell, g)
            assert _marked_site_sums(ell, g, Specialization.of(v)) == {
                -1: sum(n * at[f"v{n}"] * dv[n] for n in dv), **dv}, (ell, g)
            if v[0] == 1:
                want = (2 * dg + sum(x * dv.get(n, 0) for n, x in enumerate(vp, 2)))
                assert afp_mean(ell, g, 2, v, [9] + vp) == want / (ell - 1), (ell, g)


def test_shape_sums_are_the_log_of_the_moment_series():
    """The listed 1/|S^0|-weighted sum of length ell is [x^ell] log(1 +
    sum_n M_n x^n), M_n the limit moments: log M(x) = -log(1 - P(x)) =
    sum_k P^k / k with P the primitive paths, which is the 1/k weight, and
    what the mean shifts differentiate.  L = log M by n L_n = n M_n -
    sum_{j<n} j L_j M_{n-j}, in Poly products."""
    M = [Poly.const(1)] + [limit_moment_poly(n) for n in range(1, 11)]
    L = [Poly.const(0)]
    for n in range(1, 11):
        acc = n * M[n]
        for j in range(1, n):
            acc = acc - j * L[j] * M[n - j]
        L.append(Fraction(1, n) * acc)
        assert _enumerated_sum(n, True).terms == L[n].terms, n


def test_path_sums_reject_ell_below_one():
    for ell in (0, -1):
        with pytest.raises(ValueError):
            limit_moment_poly(ell)


GS = (Fraction(0), Fraction(1, 2), Fraction(-1, 3), Fraction(7, 5))
VS = ([1], [1, Fraction(1, 3)], [Fraction(9, 4), Fraction(1, 2), 0, Fraction(-1, 4)],
      [4, 0, Fraction(1, 5)], [1, Fraction(-1, 2), Fraction(1, 4)], [2, 1], [0, 1])
VPS = ([], [0, 1], [0, 5, Fraction(-2, 3)], [7, 0, 0, Fraction(1, 9)])
VKL = {(2, 2): Fraction(1, 3), (2, 3): Fraction(1, 5), (3, 3): Fraction(-1, 2)}


def test_mean_shift_grid_is_pinned():
    """clt_mean, afp_mean, afp_cov and clt_cov over a grid of orders and
    points, with their refusals (v_1 = 0, an odd order at a v_1 that is not
    a square), digest to the values of the shape-sum polynomial and of the
    one-pairing ribbon transfer that they replaced."""
    lines = []

    def record(f, *args):
        try:
            x = f(*args)
            lines.append(f"{type(x).__name__} {x}")
        except Exception as e:
            lines.append(f"!{type(e).__name__}: {e}")

    for ell in range(2, 25):
        for g in GS:
            for v in VS:
                record(clt_mean, ell, g, 3, v)
                if v[0] == 1:
                    for gp in (0, 2):
                        for vp in VPS:
                            record(afp_mean, ell, g, gp, v, vp)
    for k in range(2, 8):
        for l in range(k, 15 - k):
            for g in GS:
                for v in VS:
                    if v[0] == 1:
                        record(afp_cov, k, l, g, v, VKL)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "c69d8ef115306a4a308071434e8739a01216a50c9da49330ef63fbf68b10242e")
    for k in range(1, 13):
        for l in range(1, 13):
            for g in GS:
                for v in VS:
                    record(clt_cov, k, l, g, v)
    assert (len(lines), sum(x.startswith("!") for x in lines)) == (7316, 860)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "6971b31b25ebffe816885d916c2d9cf2e8f799cb1af597be0d6fa31e8a785294")


# four points of v_1 = 1, one at a negative g
AFP_POINTS = ((Fraction(1, 2), [1, Fraction(1, 3)]),
              (Fraction(-1, 3), [1, Fraction(-1, 2), Fraction(1, 4)]),
              (Fraction(7, 5), [1, 0, Fraction(1, 5)]),
              (Fraction(0), [1, 2, 0, Fraction(-1, 9)]))


def test_afp_cov_grid_is_pinned():
    """afp_cov for k, l in 2..12, with k == l among them, digests to the
    values it had before k == l read one site's marked sums once."""
    lines = [f"{k} {l} {g} {afp_cov(k, l, g, v, VKL)}" for g, v in AFP_POINTS
             for k in range(2, 13) for l in range(2, 13)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "adebe31550ff0ded4160eacad89021269e13f4ef29ce7f5073ab9617b9057c16")


def test_set_partitions_counts():
    # Bell numbers
    for n, b in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15)]:
        assert sum(1 for _ in set_partitions(range(n))) == b


# ---------------------------------------------------------------------------
# Ribbon transfer against the listed ribbons
# ---------------------------------------------------------------------------


def _compositions(total):
    """Every ordered tuple of positive lengths summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _enumerated_finite(lengths, alpha, u, v, by_returns=False,
                       connected=False, d=None):
    """The literal ribbon sum: every listed ribbon scored by statistic_f,
    with per-site 1/|S^0| weights (``by_returns``) or the filter
    |S^0| = #sites, optionally only the connected ribbons, and with ``d``
    the falling factorial times b per unpaired down step."""
    from jackpaths.paths import _all_ribbons

    alpha, u = Fraction(alpha), Fraction(u)
    a, b = (alpha - 1) / u, alpha / u ** 2
    total = Fraction(0)
    for rp in _all_ribbons(tuple(lengths)):
        stats = ribbon_stats(rp)
        if connected and not is_pi_connected(rp):
            continue
        weight = Fraction(1)
        if by_returns:
            for z in stats["s0_per_site"]:
                weight /= z
        elif stats["s0_total"] != len(lengths):
            continue
        if d is not None:
            k = stats["unpaired_downs"]
            weight *= falling_factorial(d, k) * b ** k
        total += weight * statistic_f(stats, a, b, v)
    return total


@cache
def _enumerated_cov_terms(k, l, g, v):
    """The literal two-site sums behind clt_cov/afp_cov, before the
    prefactor and the vkl table: the connected ribbons with one pairing
    (weight n per pairing), and the ribbons without pairings summed over
    every pair of non-horizontal steps on the two sites, by the pair's
    classes (-1 for a down, the degree for an up, whose v factor is
    dropped), at v_1 = 1."""
    from jackpaths.jack import Specialization
    from jackpaths.paths import _all_ribbons, _info_of

    v = Specialization.of(v)
    paired, by_class = Fraction(0), {}
    for rp in _all_ribbons((k, l)):
        if len(rp.pairings) > 1 or (rp.pairings and not is_pi_connected(rp)):
            continue
        if not rp.pairings and v(1) != 1:
            continue  # only afp_cov reads the class sums, and only at v_1 = 1
        stats = ribbon_stats(rp)
        base = Fraction(1, stats["s0_per_site"][0] * stats["s0_per_site"][1])
        for i, cnt in stats["horizontal_by_height"].items():
            base *= (i * g) ** cnt
        ups = stats["up_by_degree"]
        if rp.pairings:
            (n, _), = stats["pair_by_degree"].items()
            for m, cnt in ups.items():
                base *= v(m) ** cnt
            paired += n * base
            continue
        info = _info_of(rp.sites)
        classes = [[], []]
        for pos in range(1, len(info.degs)):
            deg = info.degs[pos]
            if deg:
                classes[info.site_of[pos]].append(-1 if deg < 0 else deg)
        for c1 in classes[0]:
            for c2 in classes[1]:
                term = base
                for m, cnt in ups.items():
                    term *= v(m) ** (cnt - (c1 == m) - (c2 == m))
                by_class[c1, c2] = by_class.get((c1, c2), 0) + term
    return paired, by_class


def _enumerated_cov(k, l, g, v, vkl=None):
    """The one-pairing sum of :func:`_enumerated_cov_terms`, plus, with
    ``vkl``, its zero-pairing sums weighted by the table."""
    from jackpaths.paths import _vkl_lookup

    paired, by_class = _enumerated_cov_terms(k, l, g, tuple(v))
    if vkl is None:
        return paired
    return paired + sum(_vkl_lookup(vkl, c1, c2) * s
                        for (c1, c2), s in by_class.items())


FINITE_SETS = ((Fraction(2), Fraction(3), [1, Fraction(1, 2), Fraction(-1, 3)]),
               (Fraction(1, 2), Fraction(2), {1: 1, 3: Fraction(2, 7)}))


def test_finite_formulas_match_enumeration():
    for total in range(1, 9):
        for lengths in _compositions(total):
            for alpha, u, v in FINITE_SETS:
                got = (finite_expectation(lengths, alpha, u, v),
                       finite_moment_s(lengths, alpha, u, v),
                       finite_cumulant_s(lengths, alpha, u, v),
                       depoissonized_expectation(lengths, 3, alpha, u, v),
                       depoissonized_expectation(lengths, 6, alpha, u, v))
                want = (_enumerated_finite(lengths, alpha, u, v),
                        _enumerated_finite(lengths, alpha, u, v, by_returns=True),
                        _enumerated_finite(lengths, alpha, u, v, by_returns=True,
                                           connected=True),
                        _enumerated_finite(lengths, alpha, u, v, d=3),
                        _enumerated_finite(lengths, alpha, u, v, d=6))
                assert got == want, (lengths, alpha)
                assert all(type(x) is Fraction for x in got)


FINITE_PIN_SHAPES = ((2,), (5,), (9,), (14,), (3, 3), (4, 2, 2), (6, 4),
                     (5, 5, 3), (2, 2, 2, 2, 2), (8, 8))
FINITE_PIN_POINTS = ((Fraction(2), 3, [1, Fraction(1, 2)]),
                     (Fraction(1, 2), 2, [1, 0, Fraction(1, 3)]),
                     (Fraction(3, 2), 3, [1, Fraction(-1, 2), Fraction(1, 4),
                                          Fraction(1, 7)]))


def test_finite_formula_grid_is_pinned():
    """The finite expectations, moments and cumulants, the depoissonized
    expectations and the 1/|S^0|-weighted transfer at a fixed size d (which
    no public formula reads) digest to the values of the transfer that
    carried each site's return count."""
    from jackpaths.paths import _ribbon_transfer

    lines = []
    for lengths in FINITE_PIN_SHAPES:
        for alpha, u, v in FINITE_PIN_POINTS:
            a, b = (alpha - 1) / u, alpha / u ** 2
            vals = [f(lengths, alpha, u, v) for f in
                    (finite_expectation, finite_moment_s, finite_cumulant_s)]
            vals += [depoissonized_expectation(lengths, d, alpha, u, v)
                     for d in (3, 9, 16)]
            vals += [_ribbon_transfer(lengths, a, b, Specialization.of(v), True, d)
                     for d in (5, 12)]
            lines += [f"{lengths} {alpha} {x}" for x in vals]
    assert len(lines) == 240
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "4784115d849374d617fb80bfbeaa9402890aba25f0511bcee3042e1082f2ec16")


def test_covariances_match_enumeration():
    g = Fraction(-1, 3)
    # sqrt(v_1) is 2 and 1: clt_cov carries v_1^(-(k+l)/2)
    for root, v in ((2, [Fraction(4), Fraction(1, 3), Fraction(-2, 5)]),
                    (1, [1, Fraction(1, 2), Fraction(1, 5), Fraction(3, 7)])):
        for k in range(1, 10):
            for l in range(1, 11 - k):
                if min(k, l) == 1:
                    assert clt_cov(k, l, g, v) == 0
                    continue
                pref = Fraction(1, (k - 1) * (l - 1))
                assert clt_cov(k, l, g, v) * root ** (k + l) == \
                    pref * _enumerated_cov(k, l, g, v), (k, l)
                if root != 1:
                    continue
                for vkl in ({}, {(2, 2): Fraction(1, 3), (2, 3): Fraction(-1, 5),
                                 (4, 3): 2}):
                    assert afp_cov(k, l, g, v, vkl) == \
                        pref * _enumerated_cov(k, l, g, v, vkl), (k, l, vkl)


def test_benchmark_shapes_match_enumeration():
    alpha, u, v = Fraction(3, 2), Fraction(3), [1, Fraction(1, 4)]
    assert finite_expectation((6, 4), alpha, u, v) == \
        _enumerated_finite((6, 4), alpha, u, v)
    assert depoissonized_expectation((6, 4), 9, alpha, u, v) == \
        _enumerated_finite((6, 4), alpha, u, v, d=9)
    assert finite_cumulant_s((4, 4), alpha, u, v) == _enumerated_finite(
        (4, 4), alpha, u, v, by_returns=True, connected=True)
    g, v = Fraction(1, 3), [1, Fraction(1, 2), Fraction(1, 5)]
    assert clt_cov(5, 5, g, v) == _enumerated_cov(5, 5, g, v) / 16
    vkl = {(2, 2): Fraction(1, 3)}
    assert afp_cov(4, 4, g, v, vkl) == _enumerated_cov(4, 4, g, v, vkl) / 9


def test_ribbon_formulas_reject_totals_above_the_limit():
    over = (RIBBON_DP_LIMIT // 2, RIBBON_DP_LIMIT - RIBBON_DP_LIMIT // 2 + 1)
    alpha, u, v = Fraction(2), Fraction(3), [1]
    for call in (lambda: finite_expectation(over, alpha, u, v),
                 lambda: finite_moment_s(over, alpha, u, v),
                 lambda: finite_cumulant_s(over, alpha, u, v),
                 lambda: finite_cumulant_s(over + (1,), alpha, u, v),
                 lambda: depoissonized_expectation(over, 5, alpha, u, v)):
        with pytest.raises(ValueError, match="exceeds the ribbon limit"):
            call()


def test_finite_formulas_reject_bad_parameters():
    v = [1]
    for alpha, u, name in ((0, 3, "alpha"), (-1, 3, "alpha"), (2, 0, "u"),
                           (2, Fraction(-1, 2), "u")):
        for call in (finite_expectation, finite_moment_s, finite_cumulant_s):
            with pytest.raises(ValueError, match=name):
                call((3,), alpha, u, v)
        with pytest.raises(ValueError, match=name):
            depoissonized_expectation((3,), 2, alpha, u, v)
    for d in (-1, Fraction(3, 2)):
        with pytest.raises(ValueError, match="d must be"):
            depoissonized_expectation((3,), d, 2, 3, v)
    assert depoissonized_expectation((2,), 0, 2, 2, v) == 0


def test_ribbon_formulas_refuse_site_lengths_and_d_that_are_not_ints():
    v = [1]
    for bad in (2.5, 2.0, True, "3", Fraction(2)):
        for call in (finite_expectation, finite_moment_s, finite_cumulant_s):
            with pytest.raises(ValueError, match="^lengths must be an int"):
                call((bad,), 2, 3, v)
        with pytest.raises(ValueError, match="^lengths must be an int"):
            depoissonized_expectation((2, bad), 2, 2, 3, v)
        with pytest.raises(ValueError, match="^d must be an int"):
            depoissonized_expectation((2,), bad, 2, 3, v)
    with pytest.raises(ValueError, match="^d must be an int"):
        depoissonized_expectation((2,), False, 2, 3, v)
    with pytest.raises(ValueError, match="^lengths must be >= 1, got 0$"):
        finite_expectation((2, 0), 2, 3, v)
