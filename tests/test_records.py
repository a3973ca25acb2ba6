"""The record classes keep the contract they had as dataclasses: one
constructor by position or keyword, value equality and hash with an
AttributeError on assignment for the immutable ones, and their checks."""

from fractions import Fraction as F

import pytest

from jackpaths.ensembles import (AsymptoticRegime, PoissonInterval, PoissonScaled,
                                 ThomaPoint)
from jackpaths.limitshape import BesselZeroList, JacobiOperator, TruncatedAtoms
from jackpaths.paths import Excursion, RibbonPath
from jackpaths.sampler import SampleRun


def _v(k):
    return F(1, k)


FROZEN = [
    (PoissonScaled, {"rational": F(1, 2), "exponent": F(3)}),
    (ThomaPoint, {"a": (F(1, 2), F(1, 4)), "b": (F(1, 8),), "c": F(1)}),
    (AsymptoticRegime, {"g": F(-1, 4), "gp": F(0), "a": (F(1, 2),), "c": F(1)}),
    (JacobiOperator, {"g": F(1, 2), "v": _v}),
    (Excursion, {"heights": (0, 1, 2, 1, 0)}),
    (RibbonPath, {"sites": (Excursion((0, 1, 0)),), "pairings": frozenset({(1, 2)})}),
]


@pytest.mark.parametrize("cls, fields", FROZEN, ids=[c.__name__ for c, _ in FROZEN])
def test_frozen_records_are_values(cls, fields):
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert len({by_position, by_keyword}) == 1
    assert all(getattr(by_keyword, name) is value for name, value in fields.items())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, other=None)


def test_frozen_records_differ_by_value_and_class():
    assert Excursion((0, 1, 0)) != Excursion((0, 1, 1, 0))
    assert PoissonScaled(F(1), F(2)) != PoissonScaled(F(1), F(3))
    assert PoissonScaled(F(1), F(2)) != (F(1), F(2))
    assert JacobiOperator(F(1), _v) != JacobiOperator(F(2), _v)


def test_thoma_point_and_excursion_checks_keep_their_messages():
    with pytest.raises(ValueError, match="^a and b must be weakly decreasing, nonnegative$"):
        ThomaPoint((F(1, 4), F(1, 2)), (), F(1))
    with pytest.raises(ValueError, match="^a and b must be weakly decreasing, nonnegative$"):
        ThomaPoint(a=(), b=(F(-1, 2),), c=F(1))
    with pytest.raises(ValueError, match=r"^Thoma cone inequality sum\(a\)\+sum\(b\) <= c violated$"):
        ThomaPoint(a=(F(1, 2),), b=(F(1, 2),), c=F(1, 2))
    for heights in ((0, 1), (), (1, 0), (0, -1, 0)):
        with pytest.raises(ValueError, match=r"^not an excursion: "):
            Excursion(heights)
    with pytest.raises(ValueError, match=r"^not an excursion: \(0, 1\)$"):
        Excursion(heights=(0, 1))


def test_record_classes_take_their_fields_by_position_or_keyword():
    cases = [
        (PoissonInterval, {"rational_sum": F(1), "tail_bound": F(1, 9), "margin": F(1, 99),
                           "exponent": F(2), "degree": 12}),
        (BesselZeroList, {"g": F(-1, 4), "zeros": [1.5, 2.5], "precision": 1e-10}),
        (TruncatedAtoms, {"measure": None, "sensitivity": [0.0]}),
        (SampleRun, {"config": {}, "seed": 7, "count": 2, "method": "growth"}),
    ]
    for cls, fields in cases:
        for record in (cls(*fields.values()), cls(**fields)):
            assert all(getattr(record, name) is value for name, value in fields.items())


def test_sample_runs_do_not_share_their_draws():
    first, second = SampleRun({}, 1, 0, "exact"), SampleRun({}, 1, 0, "exact")
    assert first.collected == [] and second.collected == []
    first.collected.append(1)
    assert second.collected == []
    assert (first.backend, first.growth_validated, first.workers) == (None, None, 1)
