import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jackpaths import series
from jackpaths.diagrams import (AnisotropicDiagram, DiscreteMeasure,
                                InterlacingError, StaircaseShape,
                                _boolean_pricer, boolean_numerators, corners,
                                diagram_booleans, observable_family,
                                observables, profile, rescale_observable,
                                transition_measure)
from jackpaths.ensembles import (ConditionalJackThoma, JackThoma,
                                 _boolean_growth_constant, poisson_expectation)
from jackpaths.limitshape import plancherel_limit_shape
from jackpaths.partitions import Partition, partitions_of
from jackpaths.rng import SplitMix64
from jackpaths.sampler import growth_sample, scaled_profile
from jackpaths.verify import (DEPOISSONIZED_SETS, ORACLE_PARAMETER_SETS,
                              _length_multisets, boolean_product_sums,
                              boolean_products_observable,
                              noncrossing_partitions)


def test_profile_examples():
    s = AnisotropicDiagram(Partition([1]), 1, 1).profile()
    assert s.minima == [-1, 1] and s.maxima == [0]
    s0 = AnisotropicDiagram(Partition(), 3, Fraction(1, 2)).profile()
    assert s0.minima == [0] and s0.maxima == []
    s2 = AnisotropicDiagram(Partition([4, 3, 1, 1]), 2, Fraction(1, 2)).profile()
    assert len(s2.minima) == 4 and len(s2.maxima) == 3


@pytest.mark.parametrize("w, h", [(Fraction(3, 2), Fraction(2, 5)), (2, 3),
                                  (0.7, 1.3), (2 ** 0.5, 3 ** -0.5)])
def test_corners_against_the_cells(w, h):
    # a minimum at each addable cell (i, j) and a maximum at each removable
    # one, with 1-based row i and column j, in the arithmetic of (w, h)
    for n in range(11):
        for lam in partitions_of(n):
            cells = set(lam.cells())
            addable = [(i, j) for i in range(1, n + 2) for j in range(1, n + 2)
                       if (i, j) not in cells
                       and (i == 1 or (i - 1, j) in cells)
                       and (j == 1 or (i, j - 1) in cells)]
            removable = [(i, j) for i, j in cells
                         if (i + 1, j) not in cells and (i, j + 1) not in cells]
            minima = sorted(w * (j - 1) - h * (i - 1) for i, j in addable)
            maxima = sorted(w * j - h * i for i, j in removable)
            got = corners(lam.parts, w, h)
            assert got == (minima, maxima), lam
            assert all(type(x) is type(w * h) for x in got[0] + got[1])


def test_profile_evaluate_is_anchored_on_both_sides():
    s = AnisotropicDiagram(Partition([4, 3, 1, 1]), 2, Fraction(1, 2)).profile()
    left, right = s.minima[0], s.minima[-1]
    assert s.evaluate(right + 3) == right + 3
    assert s.evaluate(left - 3) == -(left - 3)
    # local maxima really are local maxima
    for y in s.maxima:
        eps = Fraction(1, 7)
        assert s.evaluate(y) > s.evaluate(y - eps)
        assert s.evaluate(y) > s.evaluate(y + eps)


def _walk(shape, u):
    """Oracle for ``StaircaseShape.evaluate``: start where omega(u) = |u|, at
    the last minimum (the first for extends_to_+inf), and walk outward over
    the corners, the slope +-1 flipping at each."""
    cs = sorted(shape.minima + shape.maxima)
    d = 1 if shape.orientation == "extends_to_+inf" else -1  # walk direction
    if d == -1:
        cs.reverse()
    pos = cs[0]
    val, slope = -d * pos, d
    if d * (u - pos) <= 0:
        return -d * u
    for c in cs[1:]:
        if d * (u - c) <= 0:
            return val + slope * (u - pos)
        val += slope * (c - pos)
        pos, slope = c, -slope
    return val + slope * (u - pos)


def _probes(shape):
    """Every corner, points between neighbours and one beyond each end."""
    cs = sorted(shape.minima + shape.maxima)
    gaps = list(zip(cs, cs[1:]))
    return ([cs[0] - 1, cs[-1] + 1] + cs + [(a + b) / 2 for a, b in gaps]
            + [a + (b - a) / 3 for a, b in gaps])


@pytest.mark.parametrize("w, h", [(Fraction(1), Fraction(1)),
                                  (Fraction(2, 3), Fraction(1)),
                                  (Fraction(1, 2), Fraction(5, 7))])
def test_evaluate_matches_the_walk_on_diagram_profiles(w, h):
    for n in range(11):
        for lam in partitions_of(n):
            shape = AnisotropicDiagram(lam, w, h).profile()
            for s in (shape, shape.reflect()):
                for u in _probes(s):
                    assert s.evaluate(u) == _walk(s, u), (lam, u)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["extends_to_-inf", "extends_to_+inf"]),
       st.fractions(-20, 20, max_denominator=9),
       st.lists(st.fractions(Fraction(1, 9), 30, max_denominator=9),
                min_size=2, max_size=24),
       st.lists(st.fractions(-400, 400, max_denominator=50), max_size=30))
def test_evaluate_matches_the_walk_on_random_staircases(orientation, start,
                                                        gaps, extra):
    cs = list(itertools.accumulate(gaps, initial=start))[1:]
    cs = cs[:len(cs) // 2 * 2]
    first, second = cs[0::2], cs[1::2]
    if orientation == "extends_to_-inf":
        s = StaircaseShape(second, first, orientation)
    else:
        s = StaircaseShape(first, second, orientation)
    for u in _probes(s) + extra:
        assert s.evaluate(u) == _walk(s, u)


def test_float_evaluate_is_within_1e_13_of_the_walk():
    shapes = [scaled_profile(growth_sample(alpha, d, SplitMix64(seed)), alpha, d)
              for alpha, d in ((Fraction(1, 100), 1600), (Fraction(1, 2), 400),
                               (Fraction(3), 900))
              for seed in (1, 2)]
    shapes += [plancherel_limit_shape(g, n_steps=8)
               for g in (Fraction(-1, 4), Fraction(1, 4), Fraction(1))]
    for s in shapes:
        lo, hi = float(s.minima[0]) - 0.5, float(s.minima[-1]) + 0.5
        for u in [lo + (hi - lo) * i / 400 for i in range(401)] + _probes(s):
            assert abs(s.evaluate(u) - _walk(s, u)) <= 1e-13
        # the anchored side returns +-u itself
        if s.orientation == "extends_to_+inf":
            assert s.evaluate(lo) == -lo
        else:
            assert s.evaluate(hi) == hi


def test_transition_measure_examples():
    m = transition_measure(StaircaseShape([-1, 1], [0]))
    assert m.atoms == [(-1, Fraction(1, 2)), (1, Fraction(1, 2))]
    assert transition_measure(StaircaseShape([0], [])).atoms == [(0, Fraction(1))]
    alpha = Fraction(5, 7)
    m2 = transition_measure(AnisotropicDiagram(Partition([1]), alpha, 1).profile())
    assert m2.atoms == [(-1, alpha / (1 + alpha)), (alpha, 1 / (1 + alpha))]
    assert m2.mean() == 0


def test_interlacing_guard():
    with pytest.raises(InterlacingError):
        StaircaseShape([0, 1], [2])
    with pytest.raises(InterlacingError):
        StaircaseShape([0, 0], [])
    # the first corner of a truncated staircase is a maximum only when it
    # extends to -inf
    StaircaseShape([1, 3], [0, 2], "extends_to_-inf")
    StaircaseShape([0, 2], [1, 3], "extends_to_+inf")
    with pytest.raises(InterlacingError):
        StaircaseShape([0, 2], [1, 3], "extends_to_-inf")
    with pytest.raises(InterlacingError):
        StaircaseShape([1, 3], [0, 2], "extends_to_+inf")
    with pytest.raises(InterlacingError):
        StaircaseShape([0, 2], [1], "extends_to_+inf")
    # an empty truncated staircase has no anchored corner to evaluate from
    for orientation in ("extends_to_-inf", "extends_to_+inf"):
        with pytest.raises(InterlacingError):
            StaircaseShape([], [], orientation)


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1), Fraction(2),
                                   Fraction(7, 2)])
def test_transition_measures_probability_and_mean_zero(alpha):
    for d in range(0, 9):
        for lam in partitions_of(d):
            m = transition_measure(
                AnisotropicDiagram(lam, alpha, 1).profile())
            assert all(mass > 0 for _, mass in m.atoms)
            assert m.total_mass() == 1
            assert m.mean() == 0


def test_observable_values_and_x2():
    lam = Partition([3, 1])
    w, h = Fraction(2), Fraction(1, 3)
    m = transition_measure(AnisotropicDiagram(lam, w, h).profile())
    for kind in ("moment", "boolean", "free", "fundamental"):
        assert observables(m, kind, 1) == 0
        assert observables(m, kind, 2) == w * h * lam.size()


def test_boolean_semicircle_example():
    m = DiscreteMeasure([(-1, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert observables(m, "boolean", 2) == 1
    assert observables(m, "free", 2) == 1
    assert observables(m, "fundamental", 2) == 1  # = wh|lam| like all four kinds


def test_exact_is_read_from_the_atoms():
    assert DiscreteMeasure([(-1, Fraction(1, 2)), (1, Fraction(1, 2))]).exact
    m = DiscreteMeasure([(-0.5, 0.25), (1.0, 0.75)])
    assert not m.exact
    assert observable_family(m, "moment", 2) == [0.625, 0.8125]
    assert observables(m, "boolean", 2) == 0.8125 - 0.625 ** 2
    assert m.to_json() == [{"pos": -0.5, "mass": 0.25}, {"pos": 1.0, "mass": 0.75}]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 9)),
                min_size=1, max_size=5, unique_by=lambda t: t[0]))
def test_moment_boolean_roundtrip_random_measures(raw):
    atoms = sorted((Fraction(p), Fraction(m)) for p, m in raw)
    total = sum(m for _, m in atoms)
    atoms = [(p, m / total) for p, m in atoms]
    meas = DiscreteMeasure(atoms)
    moments = [meas.moment(k) for k in range(1, 9)]
    booleans = series.boolean_from_moments(moments)
    assert series.moments_from_boolean(booleans) == moments
    free = series.free_from_moments(moments)
    assert series.moments_from_free(free) == moments


def test_moment_boolean_roundtrip_on_transition_measures():
    alpha = Fraction(2)
    for lam in partitions_of(5):
        m = transition_measure(AnisotropicDiagram(lam, alpha, 1).profile())
        moments = [m.moment(k) for k in range(1, 11)]
        booleans = series.boolean_from_moments(moments)
        assert series.moments_from_boolean(booleans) == moments


def test_free_cumulant_roundtrip():
    moments = [Fraction(0), Fraction(2), Fraction(1), Fraction(7),
               Fraction(-1), Fraction(40)]
    free = series.free_from_moments(moments)
    assert series.moments_from_free(free) == moments


def _noncrossing_moments(cumulants):
    """M_n = sum over the non-crossing partitions pi of range(n) of
    prod_{B in pi} R_|B|, for n = 1..len(cumulants)."""
    out = []
    for n in range(1, len(cumulants) + 1):
        total = Fraction(0)
        for pi in noncrossing_partitions(n):
            term = Fraction(1)
            for block in pi:
                term *= cumulants[len(block) - 1]
            total += term
        out.append(total)
    return out


def test_moments_from_free_is_the_noncrossing_moment_map():
    rng = random.Random(8)
    for _ in range(4):
        cumulants = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(8)]
        moments = _noncrossing_moments(cumulants)
        for L in range(1, 9):
            assert series.moments_from_free(cumulants[:L]) == moments[:L]
            assert series.free_from_moments(moments[:L]) == cumulants[:L]


def test_measure_json_roundtrip_keeps_exactness():
    exact = DiscreteMeasure([(Fraction(-1, 10), Fraction(1, 4)),
                             (Fraction(1), Fraction(3, 4))])
    inexact = DiscreteMeasure([(-0.1, 0.25), (1.0, 0.75)])
    for m in (exact, inexact):
        again = DiscreteMeasure.from_json(json.loads(json.dumps(m.to_json())))
        assert again.exact == m.exact
        assert again.atoms == m.atoms
        assert [type(x) for atom in again.atoms for x in atom] == \
            [type(x) for atom in m.atoms for x in atom]


def test_scaling_property_cross_checked_by_recomputation():
    lam = Partition([2, 1])
    base = transition_measure(AnisotropicDiagram(lam, 1, 1).profile())
    c = Fraction(1, 2)
    scaled = transition_measure(AnisotropicDiagram(lam, c, c).profile())
    for kind in ("moment", "boolean", "free", "fundamental"):
        for ell in range(1, 6):
            x = observables(base, kind, ell)
            assert rescale_observable(x, ell, c) == observables(scaled, kind, ell)
    assert rescale_observable(Fraction(1), 2, 2) == 4


def test_reflect_roundtrip():
    s = AnisotropicDiagram(Partition([3, 1]), 2, 1).profile()
    r = s.reflect()
    assert r.reflect().minima == s.minima
    u = Fraction(3, 7)
    assert s.evaluate(u) == r.evaluate(-u)


def test_measure_json_roundtrip():
    m = DiscreteMeasure([(Fraction(-1, 3), Fraction(2, 5)),
                         (Fraction(4), Fraction(3, 5))])
    again = DiscreteMeasure.from_json(m.to_json())
    assert again.atoms == m.atoms


def _route_booleans(lam, w, h, ell):
    """The general-measure route: profile, partial fractions, moments,
    series inversion."""
    tm = transition_measure(AnisotropicDiagram(lam, w, h).profile())
    return observable_family(tm, "boolean", ell)


@pytest.mark.parametrize("w, h", [(1, 1), (2, Fraction(1, 2)),
                                  (Fraction(1, 2), 1),
                                  (Fraction(7, 3), Fraction(2, 5))])
def test_corner_booleans_equal_the_transition_measure_route(w, h):
    for d in range(0, 11):
        for lam in partitions_of(d):
            for ell in range(1, 8):
                assert diagram_booleans(lam, w, h, ell) == \
                    _route_booleans(lam, w, h, ell)


def _fraction_sums(weighted, w, h, multisets):
    want = dict.fromkeys(multisets, Fraction(0))
    for lam, mass in weighted:
        bs = _route_booleans(lam, w, h, max(map(max, multisets)))
        for lengths in multisets:
            val = mass
            for ell in lengths:
                val *= bs[ell - 1]
            want[lengths] += val
    return want


def test_oracle_integer_sums_equal_fraction_sums():
    multisets = _length_multisets(4)
    D = 12
    for alpha, u, vrule, _ in ORACLE_PARAMETER_SETS:
        ens = JackThoma(alpha, u, vrule, check_positivity=False)
        weighted = [(lam, ens.rational_mass(lam))
                    for d in range(1, D + 1) for lam in partitions_of(d)]
        want = _fraction_sums(weighted, alpha / u, 1 / u, multisets)
        assert boolean_product_sums(ens._walk(D), alpha / u, 1 / u,
                                    multisets) == want
    # the fixed-size case of criterion 5: conditioned masses, one size at a
    # time, priced off the walk, with the prefix plan of every multiset of
    # sum <= 7
    multisets = _length_multisets(7)
    alpha, u, v, _ = DEPOISSONIZED_SETS[1]
    for d in range(1, 7):
        masses = ConditionalJackThoma(alpha, d, v).masses()
        weighted = [(lam.parts, m.numerator, m.denominator)
                    for lam, m in masses.items()]
        assert boolean_product_sums(weighted, alpha / u, 1 / u, multisets) == \
            _fraction_sums(masses.items(), alpha / u, 1 / u, multisets)


def test_boolean_product_sums_of_nothing():
    assert boolean_product_sums([], 1, 1, [(1,), (1, 2)]) == {
        (1,): Fraction(0), (1, 2): Fraction(0)}
    assert boolean_product_sums([], 1, 1, []) == {}
    assert boolean_product_sums([((2, 1), 1, 3)], 1, 1, []) == {}


def _principal_walk():
    """The support walk of JackThoma(2, 2, v_k = 1/2^(k-1)) to size 6, the
    (w, h) = (1, 1/2) diagrams."""
    return JackThoma(2, 2, lambda k: Fraction(1, 2 ** (k - 1)),
                     check_positivity=False)._walk(6)


@pytest.mark.parametrize("multisets", [
    [(3,), (0,)], [(1, 2)], [()], [(2,), (2, -1)], [(1.0,)], [(True,)],
    [[1]], [(1,), "1"]])
def test_boolean_product_sums_refuses_malformed_multisets(multisets):
    with pytest.raises(ValueError, match=r"^multisets must be .*, got " +
                       re.escape(repr(multisets[-1])) + "$"):
        boolean_product_sums(_principal_walk(), 1, Fraction(1, 2), multisets)


def test_boolean_product_sums_read_numpy_lengths_as_ints():
    # the same integer-argument rule as boolean_products_observable
    np = pytest.importorskip("numpy")
    want = boolean_product_sums(_principal_walk(), 1, Fraction(1, 2), [(2,), (2, 1)])
    for cast in (np.int64, np.int32, np.uint8):
        got = boolean_product_sums(_principal_walk(), 1, Fraction(1, 2),
                                   [(cast(2),), (cast(2), cast(1))])
        assert got == want
        assert all(type(l) is int for lengths in got for l in lengths)
        assert all(type(x) is Fraction for x in got.values())
        empty = boolean_product_sums([], 1, 1, [(cast(2),)])
        assert empty == {(2,): 0} and type(next(iter(empty))[0]) is int
    with pytest.raises(ValueError, match=r"^multisets must be "):
        boolean_product_sums(_principal_walk(), 1, 1, [(np.int64(0),)])


def test_boolean_product_sums_count_a_repeated_multiset_once():
    once = boolean_product_sums(_principal_walk(), 1, Fraction(1, 2), [(2,), (2, 1)])
    assert boolean_product_sums(_principal_walk(), 1, Fraction(1, 2),
                                [(2,), (2,), (2, 1), (2,)]) == once


# the truncation degrees suite_poisson_oracle reaches at total 7
ORACLE_SUITE_DEGREES = (24, 30, 30)


def test_poisson_oracle_is_pinned():
    """The oracle's certified intervals and criterion 4's Boolean product
    sums digest to the values they had when the support walk yielded
    (Partition, Fraction) pairs."""
    eps, lines = Fraction(1, 100000), []
    for alpha, u, vrule, label in ORACLE_PARAMETER_SETS:
        for lengths in ((4,), (2, 2), (3, 1), (1, 1, 1)):
            iv = poisson_expectation(
                alpha, u, vrule, boolean_products_observable(lengths, alpha, u),
                eps, lengths_hint=lengths)
            lines.append(f"{label} {lengths} {iv.rational_sum} {iv.tail_bound} "
                         f"{iv.margin} {iv.exponent} {iv.degree}")
    # a v that is not principal, priced by rational_mass, with a growth bound
    v = [Fraction(1), Fraction(1, 2), Fraction(1, 5)]
    C = _boolean_growth_constant(Fraction(2), Fraction(1), (2,))
    iv = poisson_expectation(2, 1, v, boolean_products_observable((2,), 2, 1), eps,
                             growth_bound=(C, 2))
    lines.append(f"not principal {iv.rational_sum} {iv.tail_bound} "
                 f"{iv.margin} {iv.exponent} {iv.degree}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "a945273c4cd7ace3db0669fc8f86c911469058f8fe78251d9a81c9f80c4ecc1c")
    multisets, lines = _length_multisets(7), []
    for (alpha, u, vrule, label), D in zip(ORACLE_PARAMETER_SETS, ORACLE_SUITE_DEGREES):
        ens = JackThoma(alpha, u, vrule, check_positivity=False)
        sums = boolean_product_sums(ens._walk(D), alpha / u, 1 / u, multisets)
        lines += [f"{label} {lengths} {x}" for lengths, x in sums.items()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "3fb56e174cfebb3f4a64c522d5cded938afe031ef40be4dbbaedde55d2559c1f")


def _oracle_walks():
    for (alpha, u, vrule, _), D in zip(ORACLE_PARAMETER_SETS, ORACLE_SUITE_DEGREES):
        ens = JackThoma(alpha, u, vrule, check_positivity=False)
        yield alpha / u, 1 / u, [lam.parts for lam, _ in ens.support(D)]


def test_pricer_equals_boolean_numerators_along_the_support_walk():
    ell = 7
    for w, h, walk in _oracle_walks():
        price = _boolean_pricer(w, h, ell)
        for parts in walk:
            assert price(parts) == boolean_numerators(parts, w, h, ell)


def test_pricer_equals_boolean_numerators_in_any_order():
    ell = 5
    walks = list(_oracle_walks())
    for k, (w, h, walk) in enumerate(walks):
        shuffled = walk[:]
        random.Random(7).shuffle(shuffled)
        price = _boolean_pricer(w, h, ell)
        for parts in shuffled:
            assert price(parts) == boolean_numerators(parts, w, h, ell)
        # two walks interleaved, one partition of each in turn
        other = walks[(k + 1) % len(walks)][2]
        price = _boolean_pricer(w, h, ell)
        for a, b in itertools.zip_longest(walk, other):
            for parts in (a, b):
                if parts is not None:
                    assert price(parts) == boolean_numerators(parts, w, h, ell)


@pytest.mark.parametrize("lengths", [[], (), [0], [2, 0], [-1], [1.5], [True],
                                     ["2"], [Fraction(2)]])
def test_boolean_products_observable_refuses_bad_lengths(lengths):
    with pytest.raises(ValueError, match="lengths"):
        boolean_products_observable(lengths, 2, 2)
