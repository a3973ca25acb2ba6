"""The benchmark's tracer wraps named package functions and methods
(perfbench/layers.py), and reads the lru_cache counters of two of them; a
rename of any of them, or a dropped cache, must fail here, not only under
``perfbench/run.py --trace 1``."""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

from jackpaths import jack  # noqa: E402
from jackpaths.jack import PowerSumPoly  # noqa: E402
from jackpaths.polynomials import Poly  # noqa: E402


def test_every_benchmark_target_is_wrapped_and_restored():
    targets = layers.targets()
    owners = {}
    for t in targets:
        owner = sys.modules[t.module]
        if "." in t.qualname:
            owner = vars(owner)[t.qualname.split(".")[0]]
        owners[t] = owner, vars(owner).copy()
    tracer = Tracer()
    try:
        tracer.install(targets, "jackpaths")
        for t, (owner, _) in owners.items():
            attr = t.qualname.split(".")[-1]
            assert getattr(vars(owner)[attr], "__traced__", False), t.qualname
        traced = layers.cache_counters()
    finally:
        tracer.uninstall()
    for owner, before in owners.values():
        assert vars(owner) == before
    plain = layers.cache_counters()
    assert traced == plain and all(type(n) is int for n in plain.values())
    assert sorted(plain) == [f"paths.{fn}.{kind}"
                             for fn in ("all_ribbons", "limit_moment_poly")
                             for kind in ("hits", "misses")]


def test_power_sums_are_not_polys():
    # perfbench/ops.canon tests isinstance(x, Poly) before PowerSumPoly, so a
    # PowerSumPoly that were a Poly would change the `characters` digests.
    assert not issubclass(PowerSumPoly, Poly)


def test_jack_basis_cache_is_keyed_by_degree_and_fraction():
    # layers._jack_basis_probe counts jack_basis hits and misses by looking
    # up (d, Fraction(alpha)) in jack._basis_cache before the call
    jack.jack_basis(3, 2)
    assert (3, Fraction(2)) in jack._basis_cache
    assert layers._jack_basis_probe((3, 2), {})
    assert layers._jack_basis_probe((), {"d": 3, "alpha": "2"})
    assert jack._basis_cache[3, Fraction(2)] is jack.jack_basis(3, Fraction(2))
