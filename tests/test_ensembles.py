import hashlib
import math
import random
import re
from fractions import Fraction

import pytest

from jackpaths.diagrams import AnisotropicDiagram, observable_family, transition_measure
from jackpaths.ensembles import (AsymptoticRegime, CharacterMeasure,
                                 ConditionalJackThoma, DomainError,
                                 JackMeasure, JackPlancherel, JackSchurWeyl,
                                 JackThoma, PositivityError, ThomaPoint,
                                 character_measure, conditional_cumulant,
                                 conditional_thoma_character,
                                 ensemble_from_config, extended_character,
                                 PoissonInterval, _exp_bounds, _poisson_tail,
                                 _principal_form,
                                 _truncation_degree, poisson_expectation,
                                 regime_sequences, thoma_specialization,
                                 totally_positive_spec)
from jackpaths.exactnum import SqrtExt
from jackpaths.jack import Specialization, jack_basis
from jackpaths.partitions import Partition, partitions_of
from jackpaths.paths import finite_expectation

ALPHAS = (Fraction(1, 3), Fraction(2))


def test_plancherel_masses():
    alpha = Fraction(5, 7)
    pl = JackPlancherel(alpha, 2)
    assert pl.mass(Partition([2])) == 1 / (alpha + 1)
    assert pl.mass(Partition([1, 1])) == alpha / (alpha + 1)
    assert JackPlancherel(alpha, 1).mass(Partition([1])) == 1
    with pytest.raises(DomainError):
        pl.mass(Partition([1]))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_normalization_all_variants(alpha):
    v = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    for d in range(1, 7):
        assert sum(JackPlancherel(alpha, d).masses().values()) == 1
        assert sum(JackSchurWeyl(alpha, d, K=3).masses().values()) == 1
        assert sum(JackSchurWeyl(alpha, d, K=2, dual=True).masses().values()) == 1
        assert sum(ConditionalJackThoma(alpha, d, v).masses().values()) == 1


def test_schur_weyl_support_and_character_measure():
    alpha = Fraction(2)
    sw = JackSchurWeyl(alpha, 4, K=2)
    for lam in partitions_of(4):
        if lam.length() > 2:
            assert sw.mass(lam) == 0
        else:
            assert sw.mass(lam) > 0
    # the multiplicative N^{-w} character reproduces the closed-form masses
    chi = {mu: sw.character(mu) for mu in partitions_of(4)}
    assert CharacterMeasure(alpha, 4, chi).masses() == sw.masses()


def test_character_measure_plancherel_delta():
    alpha, d = Fraction(2), 4
    chi = {mu: Fraction(0) for mu in partitions_of(d)}
    chi[Partition([1] * d)] = Fraction(1)
    assert character_measure(alpha, d, chi) == JackPlancherel(alpha, d).masses()


@pytest.mark.parametrize("alpha", ALPHAS)
def test_depoissonization_identity(alpha):
    v = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    for d in range(1, 6):
        ct = ConditionalJackThoma(alpha, d, v).masses()
        cm = CharacterMeasure(alpha, d,
                              conditional_thoma_character(v, d)).masses()
        assert ct == cm


def test_conditional_thoma_plancherel_reduction():
    for d in range(1, 6):
        assert ConditionalJackThoma(Fraction(5, 7), d, [1]).masses() == \
            JackPlancherel(Fraction(5, 7), d).masses()


def test_measure_duality_under_conjugation():
    # the sign-twisted character at 1/alpha puts the mass of lam at lam'
    alpha = Fraction(2)
    v = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    for d in range(2, 7):
        chi = conditional_thoma_character(v, d)
        twisted = {mu: (-1) ** mu.weight() * val for mu, val in chi.items()}
        direct = CharacterMeasure(alpha, d, chi).masses()
        dual = CharacterMeasure(1 / alpha, d, twisted).masses()
        for lam in partitions_of(d):
            lhs = dual[lam]
            rhs = direct[lam.conjugate()]
            assert _same_value(lhs, rhs, alpha)


def _same_value(x, y, alpha):
    def embed(v):
        if isinstance(v, SqrtExt):
            if v.alpha == alpha:
                return v.a, v.b
            assert v.alpha == 1 / alpha
            return v.a, v.b / alpha  # sqrt(1/alpha) = sqrt(alpha)/alpha
        return Fraction(v), Fraction(0)

    return embed(x) == embed(y)


def test_thoma_measure_sector_and_principal():
    alpha, u = Fraction(2), Fraction(2)
    vfun = lambda k: Fraction(1, 2) ** (k - 1)
    th = JackThoma(alpha, u, vfun)
    assert th._principal == (Fraction(1), Fraction(1, 2))
    generic = JackThoma(alpha, u,
                        {k: Fraction(1, 2) ** (k - 1) for k in range(1, 7)},
                        check_positivity=False)
    for d in range(0, 6):
        assert sum(th.rational_mass(lam) for lam in partitions_of(d)) == \
            th.sector_mass_rational(d)
        for lam in partitions_of(d):
            assert th.rational_mass(lam) == generic.rational_mass(lam)
    assert float(th.mass(Partition([1]))) == pytest.approx(
        math.exp(-2.0) * float(th.rational_mass(Partition([1]))))


def test_positivity_guard():
    with pytest.raises(PositivityError):
        JackThoma(Fraction(2), Fraction(2),
                  [Fraction(1), Fraction(1, 2), Fraction(1, 4)])  # truncated tail


def test_thoma_specializations():
    sp = thoma_specialization(ThomaPoint.make(a=[Fraction(1, 2)], c=1), Fraction(2))
    assert sp(1) == 1
    assert sp(3) == Fraction(1, 8)
    spb = thoma_specialization(ThomaPoint.make(b=[Fraction(1, 2)], c=1), Fraction(2))
    assert spb(2) == (-Fraction(2)) ** -1 * Fraction(1, 4)
    with pytest.raises(ValueError):
        ThomaPoint.make(a=[Fraction(3, 4)], c=Fraction(1, 2))
    tp = totally_positive_spec([Fraction(1, 2), Fraction(1, 4)], 1)
    # positive on the Jack basis for several alphas
    for alpha in (Fraction(1, 5), Fraction(1), Fraction(5)):
        for d in range(0, 5):
            for poly in jack_basis(d, alpha).values():
                assert tp.apply(poly) >= 0


def test_regime_sequences():
    r = AsymptoticRegime.make(Fraction(1, 2))
    a, u, v = regime_sequences(r, 16)
    assert (a, u) == (4, 8)
    r2 = AsymptoticRegime.make(Fraction(-1, 4))
    a2, u2, _ = regime_sequences(r2, 16)
    assert (a2, u2) == (1, 4)
    r3 = AsymptoticRegime.make(Fraction(1), a=[Fraction(1, 2)], c=1)
    a3, u3, v3 = regime_sequences(r3, 9)
    assert a3 == 9 and u3 == 9
    # v_k^{(d)} = (g sqrt d / ceil(g d))^{k-1} sum a_i^k at a square d
    assert v3(2) == Fraction(3, 9) * Fraction(1, 4)
    with pytest.raises(ValueError):
        regime_sequences(AsymptoticRegime.make(0), 4)
    assert r.flavor == "high" and r2.flavor == "low"


def test_conditional_cumulants():
    tbl = conditional_thoma_character([Fraction(1), Fraction(1, 2)], 6)
    chi = extended_character(tbl, 6)
    k1 = conditional_cumulant(chi, [Partition([2])], d=6)
    assert k1 == chi(Partition([2]))
    k2 = conditional_cumulant(chi, [Partition([2]), Partition([2])], d=6)
    assert k2 == chi(Partition([2, 2])) - chi(Partition([2])) ** 2
    # multiplicative characters kill all higher cumulants
    for parts in ([[2], [2]], [[2], [3]], [[2], [2], [2]], [[4], [2]]):
        vals = [Partition(p) for p in parts]
        assert conditional_cumulant(chi, vals, d=6) == 0
    with pytest.raises(ValueError):
        conditional_cumulant(chi, [Partition([5]), Partition([5])], d=6)


def test_conditional_cumulant_of_no_parts_is_refused():
    chi = extended_character(conditional_thoma_character([Fraction(1)], 3), 3)
    with pytest.raises(ValueError, match="at least one"):
        conditional_cumulant(chi, [], d=3)


def test_poisson_expectation_intervals():
    alpha, u = Fraction(2), Fraction(2)
    vfun = lambda k: Fraction(1, 2) ** (k - 1)
    iv = poisson_expectation(alpha, u, vfun, lambda lam: 1,
                             Fraction(1, 10 ** 12), growth_bound=(1, 0))
    assert iv.contains_exact(Fraction(1))
    assert not iv.contains_exact(Fraction(2))
    assert iv.radius < 1e-12

    def b2(lam):
        return alpha * lam.size() / u ** 2

    iv2 = poisson_expectation(alpha, u, vfun, b2, Fraction(1, 10 ** 12),
                              growth_bound=(Fraction(alpha, u ** 2), 1))
    assert iv2.contains_exact(Fraction(1))  # expected B_2 is v_1 = 1

    def b3(lam):
        if lam.size() == 0:
            return Fraction(0)
        tm = transition_measure(
            AnisotropicDiagram(lam, alpha / u, 1 / u).profile())
        return observable_family(tm, "boolean", 3)[2]

    iv3 = poisson_expectation(alpha, u, vfun, b3, Fraction(1, 10 ** 12),
                              lengths_hint=[3])
    target = (alpha - 1) / u * 1 + Fraction(1, 2)  # horizontal + degree-2 paths
    assert iv3.contains_exact(target)
    assert iv3.contains_exact(finite_expectation([3], alpha, u, vfun))


def test_poisson_truncation_stops_at_the_degree_cap():
    from jackpaths.verify import suite_poisson_oracle

    vfun = lambda k: Fraction(1, 2) ** (k - 1)
    with pytest.raises(ArithmeticError, match="unreachable below degree 60"):
        poisson_expectation(Fraction(2), Fraction(2), vfun, lambda lam: 1,
                            Fraction(1, 10 ** 300), growth_bound=(1, 0))
    assert suite_poisson_oracle(total=2, tail_eps=Fraction(1, 10 ** 300)) == (
        False, "tail target unreachable at plancherel U=1")


def test_jack_measure_generic():
    rho1 = thoma_specialization(ThomaPoint.make(a=[Fraction(1, 2)], c=1),
                                Fraction(2))
    rho2 = Specialization.plancherel(Fraction(2))
    jm = JackMeasure(Fraction(2), rho1, rho2)
    for d in range(0, 5):
        assert sum(jm.rational_mass(lam) for lam in partitions_of(d)) == \
            jm.sector_mass_rational(d)


def test_ensemble_from_config():
    e = ensemble_from_config({"variant": "plancherel", "alpha": "1/2", "d": 3})
    assert isinstance(e, JackPlancherel) and e.alpha == Fraction(1, 2)
    e2 = ensemble_from_config({"variant": "schur_weyl", "alpha": "2", "d": 3,
                               "K": 2})
    assert isinstance(e2, JackSchurWeyl)
    e3 = ensemble_from_config({"variant": "conditional_thoma", "alpha": "2",
                               "d": 3, "v": ["1", "1/2"]})
    assert sum(e3.masses().values()) == 1
    with pytest.raises(ValueError):
        ensemble_from_config({"variant": "nope", "alpha": "1"})


def test_character_measure_refuses_a_table_missing_a_partition():
    with pytest.raises(ValueError, match=r"lacks the partition Partition\(\[3\]\)"):
        CharacterMeasure(2, 3, {Partition([1, 1, 1]): 1,
                                Partition([2, 1]): Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"lacks the partition Partition\(\[3\]\)"):
        ensemble_from_config({"variant": "character", "alpha": "2", "d": 3,
                              "chi": {"1,1,1": "1", "2,1": "1/2"}})


def test_character_measure_refuses_a_value_from_another_extension():
    chi = {mu: Fraction(1) for mu in partitions_of(3)}
    chi[Partition([2, 1])] = SqrtExt(0, 1, 3)
    with pytest.raises(ValueError, match="another extension"):
        CharacterMeasure(2, 3, chi)
    chi[Partition([2, 1])] = SqrtExt(0, 1, 2)
    assert sum(CharacterMeasure(2, 3, chi).masses().values()) == 1


def test_normalized_character_expectation_identity():
    # E[Ch_mu] = d_(|mu|) * chi_d(mu) for the measure built from chi_d
    from jackpaths.jack import normalized_character
    from jackpaths.partitions import falling_factorial

    alpha = Fraction(2)
    v = [Fraction(1), Fraction(1, 2), Fraction(1, 3)]
    for d in (4, 6):
        table = conditional_thoma_character(v, d)
        masses = CharacterMeasure(alpha, d, table).masses()
        chi = extended_character(table, d)
        for size in range(0, d + 1):
            for mu in partitions_of(size):
                expect = sum((masses[lam] * normalized_character(mu, lam, alpha)
                              for lam in partitions_of(d)), Fraction(0))
                want = falling_factorial(d, size) * chi(mu)
                assert expect == want, (d, mu)


SUPPORT_SETS = (
    # the three oracle sets, then a principal set with c < 0 and one that is
    # not principal (its v stops after three terms)
    (Fraction(1), Fraction(1), lambda k: Fraction(1) if k == 1 else Fraction(0)),
    (Fraction(2), Fraction(2), lambda k: Fraction(1, 2) ** (k - 1)),
    (Fraction(1, 2), Fraction(1), lambda k: Fraction(1, 3) ** (k - 1)),
    (Fraction(1), Fraction(1), lambda k: Fraction(-1, 2) ** (k - 1)),
    (Fraction(2), Fraction(2), [Fraction(1), Fraction(1, 2), Fraction(1, 5)]),
)


def _swept_support(ens, D):
    return {(lam, ens.rational_mass(lam)) for d in range(D + 1)
            for lam in partitions_of(d) if ens.rational_mass(lam)}


@pytest.mark.parametrize("alpha, u, v", SUPPORT_SETS)
def test_support_is_the_nonzero_part_of_the_sweep(alpha, u, v):
    ens = JackThoma(alpha, u, v, check_positivity=False)
    walked = list(ens.support(12))
    assert len(walked) == len(set(walked))
    assert set(walked) == _swept_support(ens, 12)
    assert all(type(mass) is Fraction for _, mass in walked)


def test_support_order_is_pinned():
    """support(D) yields the (Partition, Fraction) pairs of the integer walk,
    in its order, and digests to the pairs and order it had before the walk
    yielded ints."""
    lines = []
    for alpha, u, v in SUPPORT_SETS:
        ens = JackThoma(alpha, u, v, check_positivity=False)
        walked = list(ens.support(12))
        assert all(type(lam) is Partition and type(mass) is Fraction
                   for lam, mass in walked)
        assert walked == [(Partition(parts), Fraction(num, den))
                          for parts, num, den in ens._walk(12)]
        lines += [f"{lam.parts} {mass}" for lam, mass in walked]
    assert len(lines) == 850
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "68ba2bff6749216d011027b5b2dd2d7d6d338527135c6ff9dbf9c04b6e5fe7b6")


@pytest.mark.parametrize("observable", [
    lambda lam: lam.size() - len(lam), lambda lam: 0.5 * (lam.size() - len(lam)),
    lambda lam: Fraction(lam.size() - len(lam), 3)])
def test_poisson_expectation_reads_int_float_and_fraction_observables(observable):
    alpha, u, v = SUPPORT_SETS[1]
    want = _reference_expectation(alpha, u, v, observable, Fraction(1, 10 ** 6), (1, 1))
    assert poisson_expectation(alpha, u, v, observable, Fraction(1, 10 ** 6),
                               growth_bound=(1, 1)) == want


def test_support_walk_prices_the_oracle_sets_at_the_suite_degrees():
    from jackpaths.verify import ORACLE_PARAMETER_SETS

    for (alpha, u, v, _), D, count in zip(ORACLE_PARAMETER_SETS, (24, 30, 30),
                                          (7338, 2724, 1041)):
        ens = JackThoma(alpha, u, v, check_positivity=False)
        walked = list(ens.support(D))
        assert len(walked) == count
        assert walked == [(lam, ens.rational_mass(lam)) for lam, _ in walked]
        assert all(type(mass) is Fraction for _, mass in walked)


@pytest.mark.parametrize("alpha, u, v", [SUPPORT_SETS[1], SUPPORT_SETS[4]])
@pytest.mark.parametrize("D", [-1, Fraction(5, 2), 2.5, None])
def test_support_refuses_a_bad_degree(alpha, u, v, D):
    ens = JackThoma(alpha, u, v, check_positivity=False)
    want = f"D must be >= 0, got {D}" if D == -1 else f"D must be an int, got {D!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        list(ens.support(D))


def _reference_expectation(alpha, u, v, observable, tail_eps, growth_bound):
    # the sum one Fraction at a time, over the partitions of every size
    ens = JackThoma(alpha, u, v, check_positivity=False)
    C, r = Fraction(growth_bound[0]), growth_bound[1]
    D = _truncation_degree(ens.exponent, C, r, Fraction(tail_eps))
    total = Fraction(0)
    for d in range(D + 1):
        for lam in partitions_of(d):
            total += ens.rational_mass(lam) * Fraction(observable(lam))
    bound, margin = _poisson_tail(ens.exponent, D, C, r)
    return PoissonInterval(total, bound, margin, ens.exponent, D)


@pytest.mark.parametrize("alpha, u, v, observable, growth_bound, tail_eps", [
    (Fraction(2), Fraction(2), SUPPORT_SETS[1][2],
     lambda lam: lam.size() - 2 * lam.length(), (3, 1), Fraction(1, 10 ** 6)),
    (Fraction(1, 2), Fraction(1), SUPPORT_SETS[2][2],
     lambda lam: Fraction(lam.size(), 3) - Fraction(1, 7) * len(lam), (1, 1),
     Fraction(1, 10 ** 6)),
    # jack_basis stops at degree 12, which a non-principal v needs
    (Fraction(2), Fraction(2), SUPPORT_SETS[4][2],
     lambda lam: Fraction(lam.size() ** 2, 5), (Fraction(1, 5), 2),
     Fraction(1, 10 ** 4)),
])
def test_poisson_expectation_equals_the_fraction_loop(alpha, u, v, observable,
                                                      growth_bound, tail_eps):
    got = poisson_expectation(alpha, u, v, observable, tail_eps,
                              growth_bound=growth_bound)
    want = _reference_expectation(alpha, u, v, observable, tail_eps, growth_bound)
    assert got == want
    assert type(got.rational_sum) is Fraction


def test_support_walk_calls_mass_once_per_partition_and_pruned_child():
    alpha, u, v = SUPPORT_SETS[1]
    D = 20
    ens = JackThoma(alpha, u, v, check_positivity=False)
    support = {lam for lam, _ in _swept_support(ens, D)}
    # a pruned child: zero mass, and removing the last box of its last row
    # leaves a support partition
    pruned = set()
    for d in range(1, D + 1):
        for lam in partitions_of(d):
            parts = lam.parts[:-1] + (lam.parts[-1] - 1,)
            parent = Partition(p for p in parts if p)
            if lam not in support and parent in support:
                pruned.add(lam)
    calls = []
    mass = ens.rational_mass
    ens.rational_mass = lambda lam: calls.append(lam) or mass(lam)
    assert {lam for lam, _ in ens.support(D)} == support
    assert len(calls) <= len(support) + len(pruned)
    assert set(calls) <= support | pruned


@pytest.mark.parametrize("make", [lambda d: JackPlancherel(1, d),
                                  lambda d: JackSchurWeyl(1, d, K=2),
                                  lambda d: ConditionalJackThoma(1, d, [1]),
                                  lambda d: CharacterMeasure(1, d, {})])
@pytest.mark.parametrize("d", [-2, Fraction(5, 2), 2.5, None])
def test_fixed_size_ensembles_refuse_a_bad_d(make, d):
    want = f"d must be >= 0, got {d}" if d == -2 else f"d must be an int, got {d!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        make(d)


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(2, 3), Fraction(1),
                                   Fraction(2), Fraction(7, 2)])
def test_fixed_size_measures_are_conditioned_principal_thoma(alpha):
    def conditioned(thoma, d):
        sector = thoma.sector_mass_rational(d)
        return {lam: thoma.rational_mass(lam) / sector for lam in partitions_of(d)}

    plancherel = JackThoma(alpha, 1, [1], check_positivity=False)
    for K in range(1, 5):
        flat = JackThoma(alpha, K, lambda k: 1, check_positivity=False)
        dual = JackThoma(alpha, 1, lambda k: (-1 / (alpha * K)) ** (k - 1),
                         check_positivity=False)
        for d in range(9):
            assert JackSchurWeyl(alpha, d, K).masses() == conditioned(flat, d)
            assert JackSchurWeyl(alpha, d, K, dual=True).masses() == \
                conditioned(dual, d)
    for d in range(9):
        assert JackPlancherel(alpha, d).masses() == conditioned(plancherel, d)


def _fraction_exp_bounds(U, slack):
    """e^U bracketed by the Fraction partial sums of its series."""
    term = total = Fraction(1)
    n = 0
    while True:
        n += 1
        term *= U / n
        total += term
        if n > 2 * U and 2 * term <= slack:
            return total, total + 2 * term


def test_integer_exp_bounds_equal_the_fraction_series():
    rng = random.Random(25)
    for _ in range(200):
        U = Fraction(rng.randint(-40, 120), rng.randint(1, 30))
        slack = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 20))
        assert _exp_bounds(U, slack) == _fraction_exp_bounds(U, slack)
    with pytest.raises(ArithmeticError, match="did not converge"):
        _exp_bounds(Fraction(2001), Fraction(1))  # needs n > 4002


@pytest.mark.parametrize("slack", [0, -1, Fraction(-1, 10 ** 9)])
def test_exp_bounds_refuse_a_slack_that_is_not_positive(slack):
    with pytest.raises(ValueError, match="slack must be positive"):
        _exp_bounds(Fraction(2), slack)
    iv = PoissonInterval(Fraction(1), Fraction(1), Fraction(slack), Fraction(2), 4)
    with pytest.raises(ValueError, match="slack must be positive"):
        iv.contains_exact(Fraction(1))


@pytest.mark.parametrize("tail_eps", [0, Fraction(-1, 10 ** 12)])
def test_poisson_expectation_refuses_a_tail_eps_that_is_not_positive(tail_eps):
    vfun = lambda k: Fraction(1, 2) ** (k - 1)
    with pytest.raises(ValueError, match="tail_eps must be positive"):
        poisson_expectation(Fraction(2), Fraction(2), vfun, lambda lam: 1,
                            tail_eps, growth_bound=(1, 0))


def _powered_principal_form(v):
    v1 = v(1)
    if v1 == 0:
        return None
    c = v(2) / v1
    for k in range(2, 81):
        if v(k) != v1 * c ** (k - 1):
            return None
    return v1, c


def _geometric_until(v1, c, last):
    """v1 c^(k-1) for k <= last, then one more than that."""
    return lambda k: v1 * c ** (k - 1) + (k > last)


@pytest.mark.parametrize("rule, want", [
    (lambda k: Fraction(1) if k == 1 else Fraction(0), (1, 0)),
    (lambda k: Fraction(3, 2) * Fraction(-2, 5) ** (k - 1),
     (Fraction(3, 2), Fraction(-2, 5))),
    (_geometric_until(Fraction(2), Fraction(1, 3), 80), (2, Fraction(1, 3))),
    (_geometric_until(Fraction(2), Fraction(1, 3), 79), None),
    (_geometric_until(Fraction(1), Fraction(1, 2), 2), None),
    (lambda k: Fraction(0) if k == 1 else Fraction(1), None),
    ([Fraction(1), Fraction(1, 2), Fraction(1, 4)], None),
    # positive, negative and zero ratios, broken at k = 80 or past the window
    (lambda k: Fraction(3, 2) * Fraction(2, 7) ** (k - 1), (Fraction(3, 2), Fraction(2, 7))),
    (lambda k: Fraction(7, 2) if k == 1 else 0, (Fraction(7, 2), 0)),
    (_geometric_until(Fraction(1), Fraction(-4), 79), None),
    (_geometric_until(Fraction(1), Fraction(-4), 80), (1, -4)),
    (_geometric_until(Fraction(2), Fraction(0), 79), None),
    (_geometric_until(Fraction(2), Fraction(0), 80), (2, 0)),
    (_geometric_until(Fraction(2), Fraction(0), 2), None),
    # rules that return ints, floats and bools
    (lambda k: 5 * 3 ** (k - 1), (5, 3)),
    (lambda k: 3 * (-2) ** (k - 1), (3, -2)),
    (lambda k: 0.5 ** (k - 1), (1, Fraction(1, 2))),
    (lambda k: -1.5 * 0.25 ** (k - 1), (Fraction(-3, 2), Fraction(1, 4))),
    (lambda k: 0.1 * 0.1 ** (k - 1), None),  # the floats are not one geometric tail
    (lambda k: k == 1, (1, 0)),
    (lambda k: True, (1, 1)),
    (lambda k: k != 1, None),
    (lambda k: 0, None),
])
def test_principal_form_is_unchanged(rule, want):
    v = Specialization.of(rule)
    assert _principal_form(v) == _powered_principal_form(v) == want
    if want is not None:
        assert [type(x) for x in _principal_form(v)] == [Fraction, Fraction]


def test_principal_form_reads_each_term_once():
    calls = []

    def rule(k):
        calls.append(k)
        return Fraction(1, 3) ** (k - 1)

    assert _principal_form(Specialization.of(rule)) == (1, Fraction(1, 3))
    assert calls == list(range(1, 81))


def test_a_declared_rule_prices_as_its_lambda():
    # the oracle's rules carry their form; probed as plain lambdas they must
    # give the same form, masses and support walk
    from jackpaths.verify import ORACLE_PARAMETER_SETS

    lambdas = (lambda k: Fraction(1) if k == 1 else Fraction(0),
               lambda k: Fraction(1, 2) ** (k - 1),
               lambda k: Fraction(1, 3) ** (k - 1))
    for (alpha, u, declared, _), rule in zip(ORACLE_PARAMETER_SETS, lambdas,
                                             strict=True):
        probed = Specialization.of(rule)
        assert declared.form is not None and probed.form is None
        form = _principal_form(declared)
        assert form is not None and form == _principal_form(probed)
        ens, ref = (JackThoma(alpha, u, v, check_positivity=False)
                    for v in (declared, probed))
        assert all(ens.rational_mass(lam) == ref.rational_mass(lam)
                   for d in range(7) for lam in partitions_of(d))
        assert list(ens._walk(12)) == list(ref._walk(12))
    # a zero first term has no principal form, declared or probed
    for v in (Specialization.plancherel(0), Specialization.principal(0, 3)):
        assert _principal_form(v) is None
        assert _principal_form(Specialization.of(v.rule)) is None


def _tail_grid_lines():
    lines = []
    for U in (Fraction(1, 3), Fraction(1), Fraction(2), Fraction(7, 2), Fraction(4),
              Fraction(21, 2)):
        for C in (Fraction(1), Fraction(3, 7), Fraction(16)):
            for r in (0, 1, 4, 7):
                for D in (0, 4, 9, 20):
                    lines.append(f"tail {U} {D} {C} {r} {_poisson_tail(U, D, C, r)}")
                for eps in (Fraction(1, 100), Fraction(1, 10 ** 5), Fraction(1, 10 ** 12)):
                    try:
                        D = _truncation_degree(U, C, r, eps)
                    except ArithmeticError as err:
                        D = str(err)
                    lines.append(f"degree {U} {C} {r} {eps} {D}")
    return lines


def test_poisson_tail_grid_is_pinned():
    lines = _tail_grid_lines()
    assert len(lines) == 504
    assert all(type(x) is Fraction for U in (Fraction(1, 3), Fraction(4))
               for x in _poisson_tail(U, 9, Fraction(3, 7), 4))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "6faa6e3384c67fd7bc8165f7a3d2fc15ab22ee6b18d042df9d43cca4c43fee3f")


@pytest.mark.parametrize("v", [
    [Fraction(3, 2), Fraction(1, 2), 7], {1: Fraction(2, 5), 3: 1}, {2: 1},
    lambda k: Fraction(-1, 3) ** (k - 1), lambda k: 0 if k == 1 else k, [0, 1]])
@pytest.mark.parametrize("alpha, u", [(Fraction(2), Fraction(3, 2)), (Fraction(1, 3), 1)])
def test_thoma_cross_and_exponent_are_the_jack_measure_ones(v, alpha, u):
    thoma = JackThoma(alpha, u, v, check_positivity=False)
    spec = Specialization.of(v)
    generic = JackMeasure(alpha, Specialization(lambda k: Fraction(u) * spec(k)),
                          Specialization.plancherel(u))
    assert thoma.cross == generic.cross
    assert thoma.exponent == generic.exponent
    assert type(thoma.exponent) is Fraction
    assert [type(t) for t in thoma.cross.values()] == [Fraction] * len(generic.cross)
