from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jackpaths.partitions import (Partition, falling_factorial, j_alpha,
                                  partitions_of)


def part_lists(max_size=12):
    return st.lists(st.integers(min_value=1, max_value=8), max_size=6).map(
        lambda xs: Partition(sorted(xs, reverse=True)))


def test_basic_statistics():
    p = Partition([4, 3, 1, 1])
    assert p.size() == 9
    assert p.length() == 4
    assert p.weight() == 5
    assert p.multiplicities() == {4: 1, 3: 1, 1: 2}
    assert p.z_factor() == 4 * 3 * 2 * 1 * 1
    assert Partition().z_factor() == 1


def test_conjugate_examples():
    assert Partition([4, 3, 1, 1]).conjugate() == Partition([4, 2, 2, 1])
    assert Partition().conjugate() == Partition()
    assert Partition([1, 1, 1]).conjugate() == Partition([3])


@settings(max_examples=60, deadline=None)
@given(part_lists())
def test_conjugate_involution(p):
    assert p.conjugate().conjugate() == p
    assert p.conjugate().size() == p.size()


def test_conjugate_involution_exhaustive_to_twelve():
    for d in range(0, 13):
        for p in partitions_of(d):
            assert p.conjugate().conjugate() == p


def test_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_unchecked_partition_equals_the_checked_one():
    for d in range(9):
        for lam in partitions_of(d):
            checked, unchecked = Partition(lam.parts), Partition._of(lam.parts)
            assert type(unchecked) is Partition
            assert unchecked == checked and hash(unchecked) == hash(checked)
            assert unchecked.parts is lam.parts


def test_union_and_dominance():
    assert Partition([4, 2, 1]).union(Partition([5, 3, 1])) == \
        Partition([5, 4, 3, 2, 1, 1])
    assert Partition([3, 1]).dominates(Partition([2, 2]))
    assert not Partition([2, 2]).dominates(Partition([3, 1]))


def test_enumeration_counts():
    counts = [len(partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    # ascending lex extends dominance: whenever mu strictly dominated by lam,
    # mu comes first
    for d in range(2, 9):
        parts = list(partitions_of(d))
        for i, mu in enumerate(parts):
            for lam in parts[i + 1:]:
                assert not mu.dominates(lam) or lam.dominates(mu)


def test_j_alpha_examples():
    alpha = Fraction(5, 7)
    assert j_alpha(Partition([1]), alpha) == alpha
    assert j_alpha(Partition([2]), alpha) == 2 * alpha ** 2 * (alpha + 1)
    assert j_alpha(Partition([1, 1]), alpha) == 2 * alpha * (alpha + 1)
    with pytest.raises(ValueError):
        j_alpha(Partition([1]), 0)


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(1, 2) * Fraction(-1, 2)


def test_json_roundtrip():
    p = Partition([3, 2])
    assert Partition.from_json(p.to_json()) == p
