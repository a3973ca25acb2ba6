"""Stanley's recursion for the Jack basis, the closed-form character
measure, the conditioned principal masses and the joint-cumulant recursion
against the algorithms they replace, kept here as oracles: exact
Gram-Schmidt over the Hall product, a dense solve over Q(sqrt(alpha)), the
per-class mass formulas and the set-partition Moebius sum."""

import random
from fractions import Fraction

import pytest

from jackpaths.ensembles import (CharacterMeasure, ConditionalJackThoma,
                                 JackPlancherel, JackSchurWeyl,
                                 conditional_cumulant,
                                 conditional_thoma_character, extended_character)
from jackpaths.exactnum import SqrtExt, alpha_half_power, sqrt_exact, sqrt_ext
from jackpaths.jack import (PowerSumPoly, _monomial_row, _powersum_in_monomials,
                            _recursion_tables, hall_inner, jack_basis,
                            theta_coefficient)
from jackpaths.partitions import (Partition, _factorial, content_product, j_alpha,
                                  partitions_of)
from jackpaths.paths import set_partitions

ALPHAS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3),
          Fraction(3, 2), Fraction(7, 2), Fraction(1, 100)]


def _invert(mat):
    n = len(mat)
    aug = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def powersum_table(d):
    """_powersum_in_monomials(d), (columns above the diagonal, diagonal),
    read back as {mu: {nu: coefficient of m_nu in p_mu}}; every column
    lists nonzero int entries above its diagonal, rows ascending."""
    parts = partitions_of(d)
    cols, diag = _powersum_in_monomials(d)
    assert len(cols) == len(diag) == len(parts)
    table = {mu: {} for mu in parts}
    for k, (col, r) in enumerate(zip(cols, diag)):
        assert [j for j, _ in col] == sorted({j for j, _ in col}), (d, k)
        for j, c in col + [(k, r)]:
            assert type(c) is int and c and j <= k, (d, k, j)
            table[parts[j]][parts[k]] = c
    return table


def monomials_in_powersums(d):
    """{nu: PowerSumPoly equal to m_nu}, by inverting the p -> m matrix."""
    parts = list(partitions_of(d))
    p2m = powersum_table(d)
    inv = _invert([[Fraction(p2m[mu].get(nu, 0)) for nu in parts] for mu in parts])
    return {nu: PowerSumPoly({parts[i]: inv[j][i] for i in range(len(parts))
                              if inv[j][i]})
            for j, nu in enumerate(parts)}


def gram_schmidt_basis(d, alpha):
    """Exact Gram-Schmidt of the monomials in ascending lex order (a linear
    extension of dominance), normalized to p_{1^d} coefficient 1."""
    m_in_p = monomials_in_powersums(d)
    ones = Partition([1] * d)
    basis, norms = {}, {}
    for lam in partitions_of(d):
        vec = m_in_p[lam]
        for mu, jmu in basis.items():
            coeff = hall_inner(vec, jmu, alpha) / norms[mu]
            if coeff:
                vec = vec - jmu.scale(coeff)
        vec = vec.scale(1 / vec.coefficient(ones))
        basis[lam] = vec
        norms[lam] = hall_inner(vec, vec, alpha)
    return basis


def _assert_same_basis(d, alpha):
    got, want = jack_basis(d, alpha), gram_schmidt_basis(d, alpha)
    assert list(got) == list(want) == list(partitions_of(d))
    for lam in want:
        assert got[lam].terms == want[lam].terms, (d, alpha, lam)
        assert all(type(c) is Fraction for c in got[lam].terms.values())


@pytest.mark.parametrize("alpha", ALPHAS)
def test_recursion_equals_gram_schmidt(alpha):
    for d in range(0, 9):
        _assert_same_basis(d, alpha)


@pytest.mark.parametrize("d", [9, 10])
def test_recursion_equals_gram_schmidt_high_degree(d):
    _assert_same_basis(d, Fraction(2, 3))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_monomial_step_low_degrees(alpha):
    # J_(2) ~ m_2 + 2/(1+a) m_11, J_(3) ~ m_3 + 3/(1+2a) m_21 + 6/((1+a)(1+2a)) m_111
    a, q = alpha.numerator, alpha.denominator
    row = _monomial_row(2, 1, a, q)  # partitions_of(2) = (1,1), (2)
    assert Fraction(row[0], row[1]) == 2 / (1 + alpha)
    row = _monomial_row(3, 2, a, q)  # (1,1,1), (2,1), (3)
    assert Fraction(row[1], row[2]) == 3 / (1 + 2 * alpha)
    assert Fraction(row[0], row[2]) == 6 / ((1 + alpha) * (1 + 2 * alpha))
    row = _monomial_row(3, 1, a, q)  # J_(2,1) has no m_3 term
    assert row[2] == 0


def _rho(mu, alpha):
    return sum(x * (x - 1 - 2 * Fraction(i) / alpha) for i, x in enumerate(mu.parts))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_rho_increases_along_raisings(alpha):
    for d in range(1, 9):
        parts = partitions_of(d)
        for k, raisings in enumerate(_recursion_tables(d)[2]):
            mu = parts[k]
            for j, w in raisings:
                nu = parts[j]
                assert w > 0 and nu != mu and nu.dominates(mu)
                assert _rho(nu, alpha) > _rho(mu, alpha), (mu, nu)


def _lift(x):
    return x if isinstance(x, SqrtExt) else Fraction(x)


def _is_zero(x):
    return x == 0 if not isinstance(x, SqrtExt) else (x.a == 0 and x.b == 0)


def _div(x, y):
    if isinstance(y, SqrtExt):
        return y.inverse() * x if not isinstance(x, SqrtExt) else x / y
    return x / y


def dense_character_measure(alpha, d, chi):
    """Solve sum_lam P(lam) theta_mu(lam) z_mu/d! = chi(mu) alpha^{w(mu)/2}
    for P by Gaussian elimination over Q(sqrt(alpha))."""
    parts = list(partitions_of(d))
    n = len(parts)
    aug = []
    for mu in parts:
        zfac = Fraction(mu.z_factor(), _factorial(d))
        aug.append([_lift(theta_coefficient(lam, mu, alpha) * zfac) for lam in parts]
                   + [_lift(chi[mu] * alpha_half_power(alpha, mu.weight()))])
    for col in range(n):
        piv = next(r for r in range(col, n) if not _is_zero(aug[r][col]))
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [_div(x, pv) for x in aug[col]]
        for r in range(n):
            if r != col and not _is_zero(aug[r][col]):
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return {lam: aug[i][n] for i, lam in enumerate(parts)}


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(1, 3), Fraction(4)])
def test_character_measure_equals_dense_solve(alpha):
    rng = random.Random(f"chi:{alpha}")
    for d in range(1, 8):
        for _ in range(2):
            chi = {mu: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   for mu in partitions_of(d)}
            chi[Partition([1] * d)] = Fraction(1)
            got = CharacterMeasure(alpha, d, chi).masses()
            want = dense_character_measure(alpha, d, chi)
            assert got == want, (alpha, d)
            assert all(type(got[lam]) is type(want[lam]) for lam in want)


def direct_powersum_in_monomials(d):
    """Every p_mu expanded directly, one part at a time: m_nu p_r adds
    r as a new part or to one part value w of nu."""
    out = {}
    for mu in partitions_of(d):
        vec = {Partition(): 1}
        for r in mu.parts:
            nxt = {}
            for nu, c in vec.items():
                cand = nu.union(Partition([r]))
                nxt[cand] = nxt.get(cand, 0) + c * cand.multiplicity(r)
                for w in set(nu.parts):
                    grown = list(nu.parts)
                    grown.remove(w)
                    cand = Partition(sorted(grown + [w + r], reverse=True))
                    nxt[cand] = nxt.get(cand, 0) + c * cand.multiplicity(w + r)
            vec = nxt
        out[mu] = vec
    return out


def test_powersum_table_by_one_part_equals_the_direct_expansion():
    for d in range(0, 11):
        got, want = powersum_table(d), direct_powersum_in_monomials(d)
        assert list(got) == list(partitions_of(d)), d
        assert got == want, d


def per_pair_character_mass(lam, alpha, chi):
    """alpha^d d!/j_lam * sum_mu theta_mu(lam) chi(mu) alpha^{-w(mu)/2}, one
    (lam, mu) pair at a time in Fractions, split over 1 and sqrt(alpha)."""
    d = lam.size()
    rat = irr = Fraction(0)
    for mu in partitions_of(d):
        th = theta_coefficient(lam, mu, alpha)
        c = chi[mu]
        if not th or not c:
            continue
        ca, cb = (c.a, c.b) if isinstance(c, SqrtExt) else (c, 0)
        w = mu.weight()
        h = th * alpha ** -((w + 1) // 2)
        if w % 2:
            rat += h * cb * alpha
            irr += h * ca
        else:
            rat += h * ca
            irr += h * cb
    pref = alpha ** d * _factorial(d) / j_alpha(lam, alpha)
    return sqrt_ext(pref * rat, pref * irr, alpha)


V = [Fraction(1), Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]


def _tables(alpha, d):
    """A rational character table, a signed table that is no character and
    one with values in Q(sqrt(alpha)), all with chi(1^d) = 1."""
    rng = random.Random(f"tables:{alpha}:{d}")
    ones = Partition([1] * d)
    signed = {mu: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for mu in partitions_of(d)}
    root = {mu: sqrt_ext(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                         Fraction(rng.randint(-3, 3), rng.randint(1, 4)), alpha)
            for mu in partitions_of(d)}
    signed[ones] = root[ones] = Fraction(1)
    return {"character": conditional_thoma_character(V, d), "signed": signed,
            "sqrt": root}


def _assert_same_masses(got, want, label):
    assert list(got) == list(want), label
    for lam in want:
        assert got[lam] == want[lam], (label, lam)
        assert type(got[lam]) is type(want[lam]), (label, lam)


@pytest.mark.parametrize("alpha", [Fraction(2, 3), Fraction(3, 2), Fraction(1, 100),
                                   Fraction(4)])
def test_character_masses_equal_the_per_pair_closed_form(alpha):
    kinds = set()
    for d in range(0, 11):
        for name, chi in _tables(alpha, d).items():
            want = {lam: per_pair_character_mass(lam, alpha, chi)
                    for lam in partitions_of(d)}
            _assert_same_masses(CharacterMeasure(alpha, d, chi).masses(), want,
                                (alpha, d, name))
            if name == "character":
                _assert_same_masses(ConditionalJackThoma(alpha, d, V).masses(),
                                    want, (alpha, d, "conditional"))
            kinds |= {type(m) for m in want.values()}
    # at a square alpha (4 and 1/100) every mass collapses to a Fraction
    assert kinds == ({Fraction} if sqrt_exact(alpha) else {Fraction, SqrtExt})


@pytest.mark.parametrize("alpha", [Fraction(2, 3), Fraction(4)])
def test_conditional_mass_before_masses(alpha):
    d = 7
    chi = conditional_thoma_character(V, d)
    for lam in partitions_of(d)[::5]:
        ens = ConditionalJackThoma(alpha, d, V)
        first = ens.mass(lam)
        assert first == per_pair_character_mass(lam, alpha, chi)
        later = ens.masses()[lam]
        assert first == later and type(first) is type(later)


def _plancherel_mass(lam, alpha):
    d = lam.size()
    return alpha ** d * _factorial(d) / j_alpha(lam, alpha)


def _schur_weyl_mass(lam, alpha, K, dual):
    # cell factors K + (j - 1) alpha - (i - 1), resp. (K + 1 - j) alpha
    # + (i - 1) in the dual orientation
    d = lam.size()
    if dual:
        prod = content_product(lam, alpha, alpha * K, -1)
    else:
        prod = alpha ** d * content_product(lam, alpha, K, 1)
    return _factorial(d) * prod / (Fraction(K) ** d * j_alpha(lam, alpha))


@pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(1), Fraction(2),
                                   Fraction(7, 2), Fraction(2, 3)])
def test_conditioned_masses_equal_the_per_class_formulas(alpha):
    for d in range(10):
        lams = partitions_of(d)
        _assert_same_masses(JackPlancherel(alpha, d).masses(),
                            {lam: _plancherel_mass(lam, alpha) for lam in lams},
                            (alpha, d, "plancherel"))
        for K in range(1, 4):
            for dual in (False, True):
                want = {lam: _schur_weyl_mass(lam, alpha, K, dual) for lam in lams}
                _assert_same_masses(JackSchurWeyl(alpha, d, K, dual).masses(), want,
                                    (alpha, d, K, dual))


def _moebius_cumulant(chi, parts):
    """sum over set partitions pi of (-1)^{|pi|-1}(|pi|-1)! prod_B chi(union
    of the parts in B)."""
    total = Fraction(0)
    for pi in set_partitions(range(len(parts))):
        term = Fraction((-1) ** (len(pi) - 1) * _factorial(len(pi) - 1))
        for block in pi:
            term *= chi(Partition(sorted((x for b in block for x in parts[b].parts),
                                         reverse=True)))
        total += term
    return total


@pytest.mark.parametrize("name", ["signed", "sqrt", "int"])
def test_conditional_cumulant_equals_the_moebius_sum(name):
    alpha, d = Fraction(2, 3), 7
    if name == "int":  # an int table gives Fraction cumulants, as the sum does
        table = {mu: c.numerator for mu, c in _tables(alpha, d)["signed"].items()}
    else:
        table = _tables(alpha, d)[name]
    chi = extended_character(table, d)
    kinds = set()
    for parts in ([[2]], [[1, 1]], [[2], [2]], [[2], [1]], [[3], [1, 1]],
                  [[2], [2], [2]], [[1], [2], [1]], [[2], [1], [3]],
                  [[1], [1], [1], [1]], [[2], [1], [1], [2]]):
        parts = [Partition(p) for p in parts]
        got, want = conditional_cumulant(chi, parts, d), _moebius_cumulant(chi, parts)
        assert got == want and type(got) is type(want), parts
        kinds.add(type(got))
    assert kinds == ({Fraction, SqrtExt} if name == "sqrt" else {Fraction})
