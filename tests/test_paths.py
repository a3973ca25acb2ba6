from fractions import Fraction

import pytest

from jackpaths.partitions import falling_factorial
from jackpaths.paths import (RIBBON_DP_LIMIT, EnumerationCapError, afp_cov,
                             afp_mean, clt_cov, clt_mean, count_lukasiewicz,
                             depoissonized_expectation,
                             enumerate_lukasiewicz, enumerate_motzkin,
                             enumerate_ribbon, finite_cumulant_s,
                             finite_expectation, finite_moment_s,
                             is_pi_connected, limit_moment, limit_moment_poly,
                             moment_duality_check, ribbon_stats,
                             set_partitions, shape_sum_poly, statistic_f)
from jackpaths.polynomials import Poly


def catalan(n):
    from math import comb
    return comb(2 * n, n) // (n + 1)


def test_lukasiewicz_counts_against_dp_oracle():
    from jackpaths.paths import iter_lukasiewicz

    for ell in range(1, 12):
        paths = enumerate_lukasiewicz(ell)
        assert len(paths) == count_lukasiewicz(ell)
        assert len(paths) <= catalan(ell)
        assert len(set(paths)) == len(paths)
    # near the ribbon cap the listing is too large to keep; stream it
    for ell in (13, 14):
        assert sum(1 for _ in iter_lukasiewicz(ell)) == count_lukasiewicz(ell)
        assert count_lukasiewicz(ell) <= catalan(ell)
    assert len(enumerate_lukasiewicz(2)) == 1
    assert len(enumerate_lukasiewicz(3)) == 2


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
    for lengths in [(2, 2), (3, 2), (4,), (2, 2, 2)]:
        total = sum(lengths)
        for rp in enumerate_ribbon(lengths):
            assert rp.max_height() < total
            # unpaired down steps all have degree one
            stats = ribbon_stats(rp)
            assert stats["unpaired_downs"] >= 0
    assert enumerate_ribbon([3, 1]) == []
    assert enumerate_ribbon([1]) == []
    one = enumerate_ribbon([2, 2], pairing_count=1, connectivity="connected")
    assert len(one) == 1
    assert len(enumerate_ribbon([2], pairing_count=0)) == 1
    with pytest.raises(EnumerationCapError):
        enumerate_ribbon([8, 8])


def test_pi_connectivity_filter():
    # with both sites in one block, connectivity is trivial
    rps = enumerate_ribbon([2, 2], connectivity=[(0, 1)])
    assert len(rps) == len(enumerate_ribbon([2, 2]))


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
    """Exact leading coefficient, in the pairing weight b = alpha/u^2, of
    the finite-parameter joint cumulant along the slice alpha = 1 + g*u
    (where the horizontal weight equals g identically): fit the cumulant,
    a cubic in b with no constant term, through three exact points."""
    us = [Fraction(1), Fraction(2), Fraction(4)]
    bs, ys = [], []
    for u in us:
        alpha = 1 + g * u
        bs.append(alpha / u ** 2)
        ys.append(finite_cumulant_s([k, l], alpha, u, v))
    rows = [[b, b ** 2, b ** 3, y] for b, y in zip(bs, ys)]
    n = 3
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b2 for a, b2 in zip(rows[r], rows[c])]
    return rows[0][3]


def test_clt_cov_matches_finite_parameter_extrapolation():
    v = [Fraction(1), Fraction(1, 3), Fraction(1, 7)]
    for g in (Fraction(0), Fraction(1, 2)):
        for k, l in [(2, 2), (2, 3), (3, 3), (2, 4)]:
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
    s3 = shape_sum_poly(3)
    assert s3.evaluate({"g": Fraction(2), "v1": 1, "v2": Fraction(5)}) == 7


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
        for dp, by_returns in ((limit_moment_poly, False), (shape_sum_poly, True)):
            got, want = dp(ell).terms, _enumerated_sum(ell, by_returns).terms
            assert got == want, (dp.__name__, ell)
            assert all(type(c) is Fraction for c in got.values())


def test_path_sums_reject_ell_below_one():
    for dp in (limit_moment_poly, shape_sum_poly):
        for ell in (0, -1):
            with pytest.raises(ValueError):
                dp(ell)


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


def _enumerated_cov(k, l, g, v, vkl=None):
    """The literal two-site sums behind clt_cov/afp_cov, before the
    prefactor: connected ribbons with one pairing (weight n per pairing),
    plus, with ``vkl``, the ribbons without pairings summed over every
    pair of non-horizontal steps on the two sites (class -1 for a down,
    the degree for an up, whose v factor is dropped)."""
    from jackpaths.paths import _all_ribbons, _info_of, _vget, _vkl_lookup

    total = Fraction(0)
    for rp in _all_ribbons((k, l)):
        if len(rp.pairings) > 1 or (rp.pairings and not is_pi_connected(rp)):
            continue
        if not rp.pairings and vkl is None:
            continue
        stats = ribbon_stats(rp)
        base = Fraction(1, stats["s0_per_site"][0] * stats["s0_per_site"][1])
        for i, cnt in stats["horizontal_by_height"].items():
            base *= (i * g) ** cnt
        ups = stats["up_by_degree"]
        if rp.pairings:
            (n, _), = stats["pair_by_degree"].items()
            for m, cnt in ups.items():
                base *= _vget(v, m) ** cnt
            total += n * base
            continue
        info = _info_of(rp.sites)
        classes = [[], []]
        for pos in range(1, len(info.degs)):
            deg = info.degs[pos]
            if deg:
                classes[info.site_of[pos]].append(-1 if deg < 0 else deg)
        for c1 in classes[0]:
            for c2 in classes[1]:
                term = _vkl_lookup(vkl, c1, c2) * base
                for m, cnt in ups.items():
                    term *= _vget(v, m) ** (cnt - (c1 == m) - (c2 == m))
                total += term
    return total


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
                 lambda: depoissonized_expectation(over, 5, alpha, u, v),
                 lambda: clt_cov(*over, Fraction(1, 2), v),
                 lambda: afp_cov(*over, Fraction(1, 2), v, {})):
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
