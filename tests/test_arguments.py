"""Arguments are read at the boundary: an integer argument is an int or a
numpy integer, a rational one is whatever Fraction reads, and a refusal is
a ValueError whose message starts with the argument's name."""

from fractions import Fraction

import pytest

from jackpaths.diagrams import (AnisotropicDiagram, DiscreteMeasure,
                                StaircaseShape, diagram_booleans, observables,
                                rescale_observable)
from jackpaths.ensembles import (AsymptoticRegime, JackPlancherel,
                                 JackSchurWeyl, JackThoma,
                                 conditional_cumulant, regime_sequences)
from jackpaths.exactnum import alpha_half_power
from jackpaths.jack import PowerSumPoly, Specialization, jack_basis, ns_apply
from jackpaths.limitshape import (bessel_order_zeros, functional_equation_check,
                                  moment_consistency, plancherel_limit_shape,
                                  staircase_transition_atoms)
from jackpaths.partitions import Partition, falling_factorial, partitions_of
from jackpaths.paths import count_lukasiewicz, finite_expectation, limit_moment
from jackpaths.polynomials import Poly
from jackpaths.rng import SplitMix64, substream_seed
from jackpaths.sampler import growth_distribution, growth_sample, run_sampler
from jackpaths.series import series_inv, series_log, series_mul

G = Fraction(-1, 4)
LAM = Partition([2, 1])
MEASURE = DiscreteMeasure([(Fraction(-1), Fraction(1, 3)), (Fraction(2), Fraction(2, 3))])
SHAPE = StaircaseShape([0, 2], [1, 3], "extends_to_+inf")
REGIME = AsymptoticRegime.make(G)
SPEC = Specialization.of([5, 2, 3])
V = [1, Fraction(1, 3)]
CFG = {"variant": "plancherel", "alpha": "1/2", "d": 3}
POLY = Poly.var("g") + 2
SERIES = [Fraction(1), Fraction(1, 2), Fraction(-1, 3)]


def _cached_then(first, then):
    first()
    return then()


def _int64(x):
    return pytest.importorskip("numpy").int64(x)


REFUSED = [  # (the argument the message names, a call that must be refused)
    ("K", lambda: JackSchurWeyl(1, 3, K=2.7)),
    ("K", lambda: JackSchurWeyl(1, 3, K="2")),
    ("parts", lambda: Partition([2.5])),
    ("parts", lambda: Partition(["3", "1"])),
    ("k", lambda: PowerSumPoly.p(2.5)),
    ("k", lambda: alpha_half_power(2, 2.5)),
    ("d", lambda: regime_sequences(REGIME, 2.5)),
    ("ell", lambda: rescale_observable(Fraction(1), 2.5, 4)),
    ("ell", lambda: rescale_observable(Fraction(1), True, 4)),
    ("ell", lambda: observables(MEASURE, "moment", True)),
    ("ell", lambda: diagram_booleans(LAM, 1, 1, True)),
    ("n", lambda: bessel_order_zeros(G, True)),
    ("n", lambda: partitions_of(True)),
    ("d", lambda: JackPlancherel(1, True)),
    ("k", lambda: SPEC(True)),
    ("ell", lambda: MEASURE.moment(2.5)),
    ("L", lambda: moment_consistency(-3)),
    ("ell", lambda: count_lukasiewicz(-2)),
    ("d", lambda: growth_distribution(1, -1)),
    ("d", lambda: conditional_cumulant(lambda mu: Fraction(1), [[1], [1]], 2.5)),
    ("d", lambda: _cached_then(lambda: jack_basis(3, 1), lambda: jack_basis(3.0, 1))),
    ("ell", lambda: observables(MEASURE, "moment", 2.5)),
    ("L", lambda: functional_equation_check(2.5)),
    ("L", lambda: moment_consistency(2.5)),
    ("n", lambda: staircase_transition_atoms(SHAPE, 2.5, 4)),
    ("n", lambda: partitions_of(2.5)),
    ("ell", lambda: ns_apply(2.5, PowerSumPoly.p(1), 1)),
    ("k", lambda: falling_factorial(5, 2.5)),
    ("d", lambda: growth_distribution(1, 2.5)),
    ("ell", lambda: count_lukasiewicz(2.5)),
    ("k", lambda: SPEC(2.5)),
    ("ell", lambda: diagram_booleans(LAM, 1, 1, 2.5)),
    ("n", lambda: bessel_order_zeros(G, 2.5)),
    ("n_steps", lambda: plancherel_limit_shape(G, 2.5)),
    ("alpha", lambda: jack_basis(2, float("inf"))),
    ("alpha", lambda: jack_basis(2, None)),
    ("u", lambda: finite_expectation((2,), 2, float("nan"), [1])),
]

ACCEPTED = [  # (a call with numpy integers or rational forms, the plain call)
    (lambda: limit_moment(_int64(4), G, V), lambda: limit_moment(4, G, V)),
    (lambda: finite_expectation((_int64(2), _int64(3)), 2, 3, V),
     lambda: finite_expectation((2, 3), 2, 3, V)),
    (lambda: run_sampler(dict(CFG, d=_int64(3)), 0, _int64(2)).collected,
     lambda: run_sampler(CFG, 0, 2).collected),
    (lambda: JackPlancherel(1, _int64(3)).masses(), lambda: JackPlancherel(1, 3).masses()),
    (lambda: JackSchurWeyl(1, 3, K=_int64(2)).masses(),
     lambda: JackSchurWeyl(1, 3, K=2).masses()),
    (lambda: [type(p) for p in Partition([_int64(2), _int64(1)]).parts],
     lambda: [int, int]),
    (lambda: partitions_of(_int64(4)), lambda: partitions_of(4)),
    (lambda: jack_basis(_int64(3), 1), lambda: jack_basis(3, 1)),
    (lambda: growth_sample(1, _int64(5), SplitMix64(1)),
     lambda: growth_sample(1, 5, SplitMix64(1))),
    (lambda: alpha_half_power(2, _int64(-3)), lambda: alpha_half_power(2, -3)),
    (lambda: [finite_expectation((2, 1), alpha, u, V)
              for alpha in (2, Fraction(2), "2", 2.0) for u in ("1/2", 0.5)],
     lambda: [finite_expectation((2, 1), 2, Fraction(1, 2), V)] * 8),
    (lambda: [JackThoma(alpha, "3/2", [1]).rational_mass(LAM) for alpha in ("1/2", 0.5)],
     lambda: [JackThoma(Fraction(1, 2), Fraction(3, 2), [1]).rational_mass(LAM)] * 2),
    (lambda: AnisotropicDiagram(LAM, "3/2", 0.5).transition_measure().atoms,
     lambda: AnisotropicDiagram(LAM, Fraction(3, 2), Fraction(1, 2))
     .transition_measure().atoms),
    (lambda: [limit_moment(4, G, v) for v in ({"1": 1, "2": "1/3"},
                                                {_int64(1): 1, _int64(2): "1/3"})],
     lambda: [limit_moment(4, G, V)] * 2),
    (lambda: POLY ** _int64(3), lambda: POLY * POLY * POLY),
    (lambda: POLY ** 0, lambda: Poly.const(1)),
    (lambda: [f(_int64(4)) for f in (lambda o: series_mul(SERIES, SERIES, o),
                                      lambda o: series_inv(SERIES, o),
                                      lambda o: series_log(SERIES, o))],
     lambda: [series_mul(SERIES, SERIES, 4), series_inv(SERIES, 4), series_log(SERIES, 4)]),
]

INNER_REFUSED = [  # the inner layers: a Poly's power and a series' order
    ("n", lambda: POLY ** True),
    ("n", lambda: POLY ** 2.5),
    ("n", lambda: POLY ** Fraction(2)),
    ("n", lambda: POLY ** -1),
    ("order", lambda: series_mul(SERIES, SERIES, -1)),
    ("order", lambda: series_mul(SERIES, SERIES, 2.0)),
    ("order", lambda: series_inv(SERIES, 2.5)),
    ("order", lambda: series_inv(SERIES, -1)),
    ("order", lambda: series_log(SERIES, True)),
    ("order", lambda: series_log(SERIES, "2")),
]


RNG_AND_PARTITION = [  # seeds, substream indices and Partition.multiplicity
    ("seed", lambda: SplitMix64(True)),
    ("seed", lambda: SplitMix64(2.5)),
    ("seed", lambda: SplitMix64("3")),
    ("index", lambda: SplitMix64(1).substream(True)),
    ("index", lambda: SplitMix64(1).substream(2.5)),
    ("i", lambda: Partition([3, 2, 2]).multiplicity("2")),
    ("i", lambda: Partition([3, 2, 2]).multiplicity(2.0)),
    (None, (lambda: SplitMix64(_int64(5)).next_u64(), lambda: SplitMix64(5).next_u64())),
    (None, (lambda: SplitMix64(-3).seed, lambda: (1 << 64) - 3)),
    (None, (lambda: SplitMix64(7).substream(_int64(2)).next_u64(),
            lambda: SplitMix64(7).substream(2).next_u64())),
    (None, (lambda: SplitMix64(7).substream(-1).seed, lambda: substream_seed(7, -1))),
    (None, (lambda: Partition([3, 2, 2]).multiplicity(_int64(2)), lambda: 2)),
    (None, (lambda: [Partition([3, 2, 2]).multiplicity(i) for i in (-1, 0, 1, 4)],
            lambda: [0, 0, 0, 0])),
]


@pytest.mark.parametrize("name, call", REFUSED + [(None, pair) for pair in ACCEPTED]
                         + INNER_REFUSED + RNG_AND_PARTITION)
def test_arguments_are_read_at_the_boundary(name, call):
    if name is None:  # a positive control: the same value, of the same type
        got, want = call[0](), call[1]()
        assert got == want and type(got) is type(want)
        return
    with pytest.raises(ValueError) as refusal:
        call()
    assert str(refusal.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("key", [2.7, 2.0, True, "2.5", " 2", "two", None, 0, "0", "-1"])
def test_specialization_keys_are_ints_or_their_decimal_text(key):
    with pytest.raises(ValueError, match=r"^key must be (an int|>= 1), got "):
        limit_moment(4, G, {key: Fraction(1, 3)})
