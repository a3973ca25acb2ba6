import contextlib
import hashlib
import math
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import jackpaths._kernels as kernels
from jackpaths import sampler, verify
from jackpaths.diagrams import AnisotropicDiagram, observable_family, transition_measure
from jackpaths.ensembles import (CharacterMeasure, ConditionalJackThoma,
                                 JackPlancherel, JackSchurWeyl)
from jackpaths.exactnum import SqrtExt, sqrt_ext
from jackpaths.partitions import Partition, partitions_of
from jackpaths.rng import SplitMix64, mix64, stream_word
from jackpaths.sampler import (exact_sample, growth_distribution,
                               growth_sample, growth_transitions,
                               mean_profile, run_sampler,
                               scaled_profile, validate_growth)


def test_rng_is_counter_based_and_stable():
    rng = SplitMix64(42)
    seq = [rng.next_u64() for _ in range(4)]
    assert seq == [stream_word(42, i) for i in range(4)]
    assert all(0 <= w < 2 ** 64 for w in seq)
    assert mix64(1) != mix64(2)
    # substreams differ from the parent and from each other
    subs = {SplitMix64(42).substream(i).next_u64() for i in range(8)}
    assert len(subs) == 8
    u = SplitMix64(7).next_float()
    assert 0.0 <= u < 1.0


def test_growth_transitions_match_fixed_size_law():
    alpha = Fraction(5, 7)
    one = growth_transitions(Partition([1]), alpha)
    probs = dict(one)
    assert probs[Partition([2])] == 1 / (1 + alpha)
    assert probs[Partition([1, 1])] == alpha / (1 + alpha)
    dist = growth_distribution(alpha, 4)
    assert dist == JackPlancherel(alpha, 4).masses()
    for lam in (Partition(), Partition([2, 1])):
        for bad in (0, -1):
            with pytest.raises(ValueError, match=f"^alpha must be positive, got {bad}$"):
                growth_transitions(lam, bad)


def test_validate_growth_contract():
    assert validate_growth()


def test_growth_transitions_equal_the_transition_measure_route():
    # the oracle: the Fraction-valued width-alpha profile's transition
    # measure, its atoms paired with the addable rows taken bottom up
    def via_measure(lam, alpha):
        atoms = AnisotropicDiagram(lam, alpha, 1).transition_measure().atoms
        parts = list(lam.parts) + [0]
        rows = [r for r in range(len(parts) - 1, -1, -1)
                if r == 0 or parts[r - 1] > parts[r]]
        return [(Partition(parts[:r] + [parts[r] + 1] + parts[r + 1:-1]), mass)
                for r, (_, mass) in zip(rows, atoms, strict=True)]

    for alpha in (Fraction(1, 3), Fraction(5, 7), 1, 2, Fraction(7, 2)):
        for d in range(10):
            for lam in partitions_of(d):
                law = growth_transitions(lam, alpha)
                assert law == via_measure(lam, alpha), (lam, alpha)
                assert all(type(mass) is Fraction for _, mass in law)


def _ordered_ratio_masses(parts, alpha):
    """The O(m^2) oracle: every corner's mass from scratch as the ordered-
    ratio product prod (x_i - y_j) / prod (x_i - x_j), normalised.  Corner
    differences come from integer offsets, alpha * dv - dr: taken as
    differences of rounded positions alpha * v - r, the masses are up to
    2e-13 off the exact ones at alpha = 1/400 on partitions of size <= 12."""
    values = sorted(set(parts), reverse=True)
    counts = [parts.count(v) for v in values]
    m = len(values)
    vals = list(values) + [0]
    rows = [sum(counts[:k]) for k in range(m + 1)]

    def diff(i, v, r):  # x_i - (alpha * v - r)
        return alpha * (vals[i] - v) - (rows[i] - r)

    masses = []
    for i in range(m + 1):
        val = 1.0
        for j in range(i):
            val *= diff(i, vals[j], rows[j + 1]) / diff(i, vals[j], rows[j])
        for j in range(i + 1, m + 1):
            val *= (diff(i, vals[j - 1], rows[j])
                    / diff(i, vals[j], rows[j]))
        masses.append(val)
    total = sum(masses)
    return [x / total for x in masses]


def corner_masses(parts, alpha):
    """The kernel's normalised masses at ``parts``, its state grown from the
    empty diagram column by column through the bound add-a-box helper.  In
    column col + 1 the rows reaching it take a box each, top to bottom: the
    first column starts each row at the bottom corner; in a later one the
    first box extends group 0 and the others group 1 (the rows below the
    ones done)."""
    state, alpha = kernels.empty_state(sum(parts)), float(alpha)
    for col in range(parts[0] if parts else 0):
        for row in range(sum(1 for p in parts if p > col)):
            pick = state[0] if col == 0 else min(row, 1)
            state = kernels.child_state(state, alpha, pick)
    return kernels.state_masses(state)


def kernel_matches_law(lam, alpha, law=None):
    """Whether the kernel's masses at ``lam``, grown column by column, match
    the exact one-step law (at lam and alpha unless given)."""
    if law is None:
        alpha = Fraction(alpha)
        law = sampler._one_step(lam.parts, alpha.numerator, alpha.denominator)
    return sampler._masses_match(corner_masses(lam.parts, float(alpha)), law)


def _spy_cases(add_box, cases):
    """``add_box`` recording which update each call made."""

    def spy(alpha, vals, cnts, ms, m, pick):
        new_m, total = add_box(alpha, vals, cnts, ms, m, pick)
        cases.add("remove" if new_m < m else "move" if new_m == m
                  else "new row" if pick == m else "split")
        return new_m, total

    return spy


def test_corner_masses_match_the_ordered_ratio_oracle():
    for alpha in (1 / 400, 1 / 100, 1 / 3, 1.0, 2.0, 400.0):
        for n in range(13):
            for lam in partitions_of(n):
                got = corner_masses(lam.parts, alpha)
                want = _ordered_ratio_masses(lam.parts, alpha)
                assert len(got) == len(want) == len(set(lam.parts)) + 1
                assert all(abs(g - w) <= 1e-13 * w for g, w in zip(got, want)), \
                    (lam, alpha)


def _bind(monkeypatch, backend):
    """Make the kernel's module-level bindings those of ``backend``, a
    (draw, add_box, fill, buffers, cast) tuple, for the rest of the test."""
    for name, value in zip(("_draw", "_add_box", "_fill", "_buffers", "_cast"),
                           backend):
        monkeypatch.setattr(kernels, name, value)


def test_corner_masses_chain_meets_every_update(monkeypatch):
    cases = set()
    monkeypatch.setattr(kernels, "_add_box", _spy_cases(kernels._add_box, cases))
    # (2, 2) column by column: a new row, the bottom corner moves down, the
    # group of two rows splits, and the second row's corner is removed
    corner_masses([2, 2], 0.5)
    assert cases == {"new row", "move", "split", "remove"}


def _spied_draw(d, alpha, seed, check):
    """Run one draw through the bound add-a-box helper, calling
    ``check(vals, cnts, ms, m, total)`` after every box."""
    def spy(alpha, vals, cnts, ms, m, pick):
        m, total = kernels._add_box(alpha, vals, cnts, ms, m, pick)
        check(vals, cnts, ms, m, total)
        return m, total

    cap = kernels.state_capacity(d)
    draw = kernels._make_draw(spy, kernels._fill)
    return draw(d, alpha, seed, kernels._buffers(cap), kernels._buffers(cap),
                kernels._buffers(cap + 1))


def test_every_box_of_a_draw_matches_the_ordered_ratio_oracle(monkeypatch):
    cases = set()
    monkeypatch.setattr(kernels, "_add_box", _spy_cases(kernels._add_box, cases))
    for alpha, d in ((1 / 100, 600), (1 / 3, 300), (1.0, 300), (5 / 2, 300)):
        def check(vals, cnts, ms, m, total):
            parts = [int(vals[k]) for k in range(m) for _ in range(int(cnts[k]))]
            want = _ordered_ratio_masses(parts, alpha)
            assert len(want) == m + 1
            assert all(abs(ms[i] / total - w) <= 1e-13 * w
                       for i, w in enumerate(want)), (parts, alpha)

        _spied_draw(d, alpha, 20260809, check)
    assert cases == {"new row", "move", "split", "remove"}


def test_unnormalised_masses_stay_a_probability_measure():
    # the transition measure has total mass 1, so the masses are absolute:
    # a lost 1 / (1 + alpha) in a fresh corner would show here, not after
    # normalisation
    def check(vals, cnts, ms, m, total):
        assert abs(total - 1.0) <= 1e-12

    m, total = _spied_draw(6400, 1 / 400, 20260809, check)
    assert m > 1 and abs(total - 1.0) <= 1e-12
    for alpha in (1.0, 3.0):
        m, total, _, _, ms = kernels._draw_state(2000, alpha, 20260809)
        assert abs(sum(ms[:m + 1]) - 1.0) <= 1e-12
        assert abs(total - 1.0) <= 1e-12


def test_lln_kernel_check_reads_the_draws_running_total(monkeypatch):
    # a running total scaled after the draw's last box leaves its state as
    # it is; every pick read that total, so the check must see it
    d, alpha = 200, Fraction(1, 100)
    run = run_sampler({"variant": "plancherel", "alpha": alpha, "d": d},
                      seed=20260809, count=1, method="growth")
    assert verify._kernel_at_final_states(run, alpha, 1) is None
    boxes = []

    def spy(alpha, vals, cnts, ms, m, pick):
        m, total = kernels._add_box(alpha, vals, cnts, ms, m, pick)
        boxes.append(pick)
        return m, total * (1 + 1e-9) if len(boxes) == d else total

    monkeypatch.setattr(kernels, "_draw", kernels._make_draw(spy, kernels._fill))
    assert (verify._kernel_at_final_states(run, alpha, 1)
            == "kernel masses differ from the exact law after draw 0")
    assert len(boxes) == d


def _draw_matches_law(d, alpha, seed):
    """Whether the corner masses that the draw loop ends with, over its own
    running total and over their sum, match the exact one-step law at the
    state it ends in."""
    state = kernels._draw_state(d, float(alpha), seed)
    m, total, _, _, ms = state
    lam = Partition(kernels.state_parts(state))
    assert lam.size() == d
    law = growth_transitions(lam, alpha)
    return len(law) == m + 1 and all(
        abs(ms[m - i] / norm - mass) <= sampler.KERNEL_REL_TOL * mass
        for norm in (total, sum(ms[:m + 1])) for i, (_, mass) in enumerate(law))


def test_kernel_masses_match_law_along_a_long_draw():
    # the stream is counter-based, so a draw of size k is the first k steps
    # of the same seed's draw of size 400: its states are checkpoints; both
    # the masses rebuilt at a state and the draw's own must match the law
    alpha = Fraction(1, 100)
    for k in (0, 1, 2, 50, 100, 200, 300, 399):
        lam = Partition(kernels.growth_draw_parts(k, float(alpha), 20260809))
        assert lam.size() == k
        assert kernel_matches_law(lam, alpha)
        assert _draw_matches_law(k, alpha, 20260809)
    lam = Partition(kernels.growth_draw_parts(400, float(alpha), 20260809))
    assert lam.parts[0] > 100  # the low-temperature chain grows a long first row
    assert kernel_matches_law(lam, alpha)
    assert _draw_matches_law(400, alpha, 20260809)


def test_draw_masses_match_law_at_the_end_of_a_large_draw():
    # the benchmark's largest configuration: 6400 ratio updates in a row
    assert _draw_matches_law(6400, Fraction(1, 400), 20260809)


KERNEL_CHECK_GRID = ([(d, alpha) for d in (400, 1600, 6400)
                      for alpha in (Fraction(1, 400), Fraction(1, 100))]
                     + [(d, alpha) for d in (400, 1600)
                        for alpha in (Fraction(1), Fraction(3))])


def test_kernel_matches_the_law_at_the_states_its_draws_visit():
    # each draw is replayed box by box through the add-a-box helper with the
    # draw's own words and search, and must end where the draw does, so the
    # states checked (every 200th and the last) are the draw's own
    for d, alpha in KERNEL_CHECK_GRID:
        x = float(alpha)
        m, total, vals, cnts, ms = kernels.empty_state(d)
        m, total = kernels._add_box(x, vals, cnts, ms, m, 0)
        for n, u in enumerate(kernels._fill(kernels._cast(11), d - 1), start=2):
            target = u * total
            acc = 0.0
            pick = m
            for i in range(m + 1):
                acc += ms[i]
                if target < acc:
                    pick = i
                    break
            m, total = kernels._add_box(x, vals, cnts, ms, m, pick)
            if n % 200 and n < d:
                continue
            parts = [int(vals[k]) for k in range(m) for _ in range(int(cnts[k]))]
            law = growth_transitions(Partition(parts), alpha)
            masses = kernels.state_masses((m, total, vals, cnts, ms))
            assert len(masses) == len(law), (d, alpha, n)
            assert all(abs(f - mass) <= sampler.KERNEL_REL_TOL * mass
                       for f, (_, mass) in zip(masses[::-1], law)), (d, alpha, n)
        assert parts == kernels.growth_draw_parts(d, x, 11), (d, alpha)


def test_lln_kernel_check_reads_the_final_states_of_its_draws(monkeypatch):
    alpha = Fraction(1, 10)
    run = run_sampler({"variant": "plancherel", "alpha": "1/10", "d": 120},
                      seed=3, count=3, method="growth")
    assert verify._kernel_at_final_states(run, alpha, 3) is None
    true_masses = kernels.state_masses
    monkeypatch.setattr(kernels, "state_masses", lambda state: [
        f * (1 + 1e-9) if i == 1 else f for i, f in enumerate(true_masses(state))])
    assert verify._kernel_at_final_states(run, alpha, 3) == (
        "kernel masses differ from the exact law after draw 0")
    monkeypatch.undo()
    run.collected[1] = run.collected[2]
    assert verify._kernel_at_final_states(run, alpha, 3) == (
        "draw 1 redrawn in process differs")


def test_validate_growth_catches_a_wrong_kernel_mass(monkeypatch):
    # the validation reads each state's masses through state_masses
    true_masses = kernels.state_masses

    def skewed(state):
        masses = true_masses(state)
        if len(masses) == 3:
            masses[1] *= 1 + 1e-9
        return masses

    monkeypatch.setattr(sampler, "_growth_validated", None)
    monkeypatch.setattr(kernels, "state_masses", skewed)
    try:
        assert validate_growth() is False
    finally:
        sampler._growth_validated = None
    monkeypatch.undo()
    assert validate_growth() is True


def test_validation_grows_each_state_from_one_parent(monkeypatch):
    # one add-a-box call per state of size 1..GROWTH_VALIDATION_SIZE, and
    # the parents' boxes meet every kind of update
    cases, calls = set(), []
    spy = _spy_cases(kernels._add_box, cases)
    monkeypatch.setattr(kernels, "_add_box",
                        lambda *args: calls.append(args[-1]) or spy(*args))
    states = sum(len(partitions_of(n))
                 for n in range(1, sampler.GROWTH_VALIDATION_SIZE + 1))
    for alpha in sampler.GROWTH_VALIDATION_ALPHAS:
        calls.clear()
        assert sampler._chain_keeps_law(alpha)
        assert len(calls) == states == 66
    assert cases == {"new row", "move", "split", "remove"}


def test_child_state_leaves_its_parent_as_it_is():
    root = kernels.empty_state(8)
    one = kernels.child_state(root, 0.5, 0)  # (1): a new row
    two = kernels.child_state(one, 0.5, 0)  # (2): the corner moves right
    down = kernels.child_state(one, 0.5, 1)  # (1, 1): the bottom corner moves down
    assert root[:2] == (0, 1.0) and list(root[2][:2]) == list(root[3][:2]) == [0, 0]
    assert one[0] == 1 and list(one[2][:2]) == list(one[3][:2]) == [1, 0]
    assert (two[0], two[2][0], two[3][0]) == (1, 2, 1)
    assert (down[0], down[2][0], down[3][0]) == (1, 1, 2)
    for state, parts in ((one, (1,)), (two, (2,)), (down, (1, 1))):
        want = _ordered_ratio_masses(parts, 0.5)
        assert all(abs(g - w) <= 1e-13 * w
                   for g, w in zip(kernels.state_masses(state), want, strict=True))


@pytest.mark.parametrize("skew", ["one-step mass", "plancherel mass"])
def test_validate_growth_catches_a_wrong_exact_mass(monkeypatch, skew):
    # eps is far below float resolution, so the kernel leg cannot see it:
    # only the exact leg can refuse the chain
    big = 10 ** 40
    true_step, true_hooks = sampler._one_step, sampler._hook_pairs

    def skewed_step(parts, a, q):
        # move eps = 1/big of mass between the first two atoms at (2, 1)
        law = true_step(parts, a, q)
        if tuple(parts) == (2, 1):
            (up, num, rest), (down, num1, rest1) = law[:2]
            law[:2] = [(up, num * big + rest, rest * big),
                       (down, num1 * big - rest1, rest1 * big)]
        return law

    def skewed_hooks(parts, a, q):
        # j_lam q^(2n) times big at every lam leaves the check's identity as
        # it is; times big + 1 at (2, 1) divides its Plancherel mass by 1 + eps
        return true_hooks(parts, a, q) * (big + 1 if tuple(parts) == (2, 1) else big)

    for alpha in sampler.GROWTH_VALIDATION_ALPHAS:
        law = skewed_step((2, 1), alpha.numerator, alpha.denominator)
        assert sum(Fraction(num, rest) for _, num, rest in law) == 1
        assert kernel_matches_law(Partition([2, 1]), alpha, law)
    monkeypatch.setattr(sampler, "_growth_validated", None)
    if skew == "one-step mass":
        monkeypatch.setattr(sampler, "_one_step", skewed_step)
    else:
        monkeypatch.setattr(sampler, "_hook_pairs", skewed_hooks)
    try:
        assert validate_growth() is False
    finally:
        sampler._growth_validated = None
    monkeypatch.undo()
    assert validate_growth() is True


def _run_fresh(code: str):
    """Run code in a fresh interpreter that imports the jackpaths this
    process imported; fail with its stderr if it fails."""
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


@pytest.mark.skipif(kernels.HAVE_NUMBA, reason="numba brings numpy")
def test_import_does_not_load_numpy_without_numba():
    _run_fresh("import sys, jackpaths, jackpaths.cli; "
               "from jackpaths import _kernels; "
               "assert _kernels.growth_draw_parts(30, 0.5, 1); "
               "assert 'numpy' not in sys.modules, 'numpy was imported'")


def test_mpmath_is_loaded_only_by_the_dps_and_bessel_paths():
    _run_fresh("import sys\n"
               "from fractions import Fraction\n"
               "import jackpaths, jackpaths.cli, jackpaths.verify, jackpaths.sampler\n"
               "from jackpaths.limitshape import bessel_order_zeros, plancherel_limit_shape\n"
               "assert jackpaths.sampler.validate_growth()\n"
               "plancherel_limit_shape(Fraction(-1, 4), 3)\n"
               "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
               "for name in ('dataclasses', 'inspect'):\n"
               "    assert name not in sys.modules, name + ' was imported'\n"
               "import mpmath\n"
               "zeros = bessel_order_zeros(Fraction(-1, 4), 2, dps=30).zeros\n"
               "assert all(isinstance(z, mpmath.mpf) for z in zeros), zeros\n")


def test_numba_backend_code_under_a_stand_in_jit(monkeypatch):
    # with an identity njit, the numba backend's code (its uint64 stream and
    # numpy buffers) runs as Python; it must draw what the python backend does
    np = pytest.importorskip("numpy")
    python = kernels._python_backend()
    numba_code = kernels._numba_backend(
        types.SimpleNamespace(njit=lambda cache: (lambda func: func)))
    _bind(monkeypatch, python)
    python_masses = corner_masses([3, 1, 1], 1 / 3)
    with np.errstate(over="ignore"):
        for d, alpha, seed in ((120, 0.5, 7), (200, 0.01, 2 ** 63 + 5), (300, 1.0, 3)):
            _bind(monkeypatch, python)
            want = kernels.growth_draw_parts(d, alpha, seed)
            _bind(monkeypatch, numba_code)
            assert kernels.growth_draw_parts(d, alpha, seed) == want
        # the last draw reaches a split and a removal
        _, add_box, fill, buffers, _ = python
        cases = set()
        draw = kernels._make_draw(_spy_cases(add_box, cases), fill)
        cap = kernels.state_capacity(300)
        draw(300, 1.0, 3, buffers(cap), buffers(cap), buffers(cap + 1))
        assert {"split", "remove"} <= cases
        # bound to the numba code, the masses that validation checks are its
        assert corner_masses([3, 1, 1], 1 / 3) == python_masses


@pytest.mark.parametrize("backend", ["python", "numba code under a stand-in jit"])
def test_the_fill_is_the_stream(backend):
    # a draw's uniforms, filled at once, are words 0, 1, ... of its seed's
    # stream in SplitMix64's 53-bit form, on both backends' code
    if backend == "python":
        _, _, fill, _, cast = kernels._python_backend()
        errstate = None
    else:
        np = pytest.importorskip("numpy")
        _, _, fill, _, cast = kernels._numba_backend(
            types.SimpleNamespace(njit=lambda cache: (lambda func: func)))
        errstate = np.errstate(over="ignore")  # the wrapping uint64 stream
    with errstate or contextlib.nullcontext():
        for seed in (5, 2 ** 63 + 5):
            for n in (0, 1, 300):
                want = [(stream_word(seed, c) >> 11) * 2 ** -53 for c in range(n)]
                assert [float(u) for u in fill(cast(seed), n)] == want, (seed, n)


GROWTH_PIN_GRID = [(d, alpha, seed) for d in (1, 7, 60, 400, 1600)
                   for alpha in (1 / 400, 1 / 100, 1 / 3, 1.0, 3.0)
                   for seed in (5, 2 ** 63 + 5)] + [(6400, 1 / 400, 11)]
GROWTH_PIN = "0406daa534eb7fa9f7f035dfc86aa985b0153481a0c192f092f5f01cdae407ac"


@pytest.mark.parametrize("backend", ["python", "numba code under a stand-in jit"])
def test_growth_draws_are_pinned(backend, monkeypatch):
    # the kernel's float operations and their order fix every draw: any
    # rewrite of add_box must give these bytes on both backends' code
    cases = set()
    if backend == "python":
        draw, add_box, fill, buffers, cast = kernels._python_backend()
        draw = kernels._make_draw(_spy_cases(add_box, cases), fill)
        _bind(monkeypatch, (draw, add_box, fill, buffers, cast))
        errstate = None
    else:
        np = pytest.importorskip("numpy")
        _bind(monkeypatch, kernels._numba_backend(
            types.SimpleNamespace(njit=lambda cache: (lambda func: func))))
        errstate = np.errstate(over="ignore")  # the wrapping uint64 stream
    with errstate or contextlib.nullcontext():
        draws = [kernels.growth_draw_parts(d, alpha, seed)
                 for d, alpha, seed in GROWTH_PIN_GRID]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == GROWTH_PIN
    if backend == "python":
        assert cases == {"new row", "move", "split", "remove"}


def test_growth_sample_sizes_and_determinism():
    lam = growth_sample(Fraction(1, 2), 40, SplitMix64(3))
    assert lam.size() == 40
    again = growth_sample(Fraction(1, 2), 40, SplitMix64(3))
    assert lam == again
    assert growth_sample(Fraction(1, 2), 1, SplitMix64(0)) == Partition([1])


def test_growth_sample_rejects_nonpositive_alpha():
    for alpha in (-1, 0, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            growth_sample(alpha, 6, SplitMix64(1))


def test_growth_sample_rejects_infinite_alpha():
    # as a float: 10^400 overflows and 10^-400 rounds to 0
    for alpha in (float("inf"), Fraction(10 ** 400), Fraction(1, 10 ** 400)):
        with pytest.raises(ValueError, match="finite"):
            growth_sample(alpha, 6, SplitMix64(1))


def test_growth_sample_rejects_bool_d():
    with pytest.raises(ValueError, match="d must be an int"):
        growth_sample(1, True, SplitMix64(1))


def test_growth_sample_rejects_float_d():
    with pytest.raises(ValueError, match="d must be an int"):
        growth_sample(1, 3.0, SplitMix64(1))


def test_growth_run_rejects_fractional_d_as_exact_does():
    cfg = {"variant": "plancherel", "alpha": "1", "d": 2.5}
    for method in ("exact", "growth"):
        with pytest.raises(ValueError, match="^d must be an int, got 2.5$"):
            run_sampler(cfg, 0, 1, method=method)


def test_growth_run_reads_alpha_as_exact_does():
    cfg = {"variant": "plancherel", "alpha": "1 / 2", "d": 3}
    assert [lam.size() for lam in run_sampler(cfg, 5, 4).collected] == [3] * 4
    run = run_sampler(cfg, 5, 4, method="growth")
    plain = run_sampler(dict(cfg, alpha="1/2"), 5, 4, method="growth")
    assert run.collected == plain.collected
    assert [lam.size() for lam in run.collected] == [3] * 4


def test_run_sampler_refuses_a_count_that_is_not_an_int():
    cfg = {"variant": "plancherel", "alpha": "1", "d": 3}
    for method in ("exact", "growth"):
        for count in (True, 2.0, "3"):
            with pytest.raises(ValueError, match="count must be an int"):
                run_sampler(cfg, 0, count, method=method)


def test_run_sampler_reads_the_seed_as_an_int_and_masks_it():
    cfg = {"variant": "plancherel", "alpha": "1/2", "d": 4}
    for method in ("exact", "growth"):
        def draws(seed):
            return run_sampler(cfg, seed, 3, method=method).collected

        assert draws(-1) == draws(2 ** 64 - 1)
        assert draws(2 ** 64 + 5) == draws(5)
        for bad in (True, 2.5, "7", None):
            with pytest.raises(ValueError, match=f"^seed must be an int, got {bad!r}$"):
                run_sampler(cfg, bad, 1, method=method)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


GROWTH_CFG = {"variant": "plancherel", "alpha": "1/2", "d": 60}


def test_growth_draws_do_not_depend_on_the_worker_count(monkeypatch):
    monkeypatch.setattr(sampler, "usable_cpus", lambda: 1)
    want = {n: run_sampler(GROWTH_CFG, 17, n, method="growth").collected
            for n in (0, 1, 2, 3, 7)}
    root = SplitMix64(17)
    assert want[7] == [growth_sample(Fraction(1, 2), 60, root.substream(i))
                       for i in range(7)]
    for cpus in (2, 3):
        monkeypatch.setattr(sampler, "usable_cpus", lambda cpus=cpus: cpus)
        for n, draws in want.items():
            run = run_sampler(GROWTH_CFG, 17, n, method="growth")
            assert run.collected == draws
            assert run.workers == max(1, min(n, cpus))
            _assert_no_child_left()
    assert run_sampler(dict(GROWTH_CFG, d=3), 17, 7).workers == 1  # exact draws


def test_growth_workers_send_more_than_a_pipe_buffer(monkeypatch):
    # a child's parts text outgrows the pipe while the parent draws its chunk
    monkeypatch.setattr(kernels, "growth_draw_parts",
                        lambda d, x, seed: [seed % 5 + 1] * 50000)
    monkeypatch.setattr(sampler, "usable_cpus", lambda: 2)
    run = run_sampler(GROWTH_CFG, 3, 4, method="growth")
    root = SplitMix64(3)
    assert run.collected == [Partition([root.substream(i).next_u64() % 5 + 1] * 50000)
                             for i in range(4)]
    _assert_no_child_left()


def _raise_on_draw(monkeypatch, index, exc):
    """Make the kernel raise ``exc`` on draw ``index`` of seed 5."""
    bad = SplitMix64(5).substream(index).next_u64()
    draw = kernels.growth_draw_parts

    def flaky(d, x, seed):
        if seed == bad:
            raise exc
        return draw(d, x, seed)

    monkeypatch.setattr(kernels, "growth_draw_parts", flaky)


def test_a_failing_growth_worker_raises_and_is_reaped(monkeypatch):
    monkeypatch.setattr(sampler, "usable_cpus", lambda: 3)
    _raise_on_draw(monkeypatch, 3, ValueError("child draw"))  # chunk 2 of 0-1, 2-3, 4-5
    with pytest.raises(RuntimeError, match="growth worker"):
        run_sampler(GROWTH_CFG, 5, 6, method="growth")
    _assert_no_child_left()


def test_a_failing_parent_chunk_reaps_every_worker(monkeypatch):
    monkeypatch.setattr(sampler, "usable_cpus", lambda: 3)
    _raise_on_draw(monkeypatch, 0, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        run_sampler(GROWTH_CFG, 5, 6, method="growth")
    _assert_no_child_left()


def test_bad_growth_input_is_refused_before_any_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked before checking the input")

    monkeypatch.setattr(sampler, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    for alpha in ("-1", "0", "1e400"):
        with pytest.raises(ValueError, match="alpha must be positive"):
            run_sampler(dict(GROWTH_CFG, alpha=alpha), 0, 4, method="growth")
    with pytest.raises(ValueError, match="d must be >= 1"):
        run_sampler(dict(GROWTH_CFG, d=0), 0, 4, method="growth")


def test_growth_backends_agree_statistically(monkeypatch):
    # the kernel selected at import against the python backend (the same
    # code when numba is absent)
    alpha, d, n = Fraction(1, 2), 50, 60

    def mean_first_row():
        root = SplitMix64(11)
        return sum(growth_sample(alpha, d, root.substream(i)).parts[0]
                   for i in range(n)) / n

    selected = mean_first_row()
    _bind(monkeypatch, kernels._python_backend())
    assert abs(selected - mean_first_row()) < 4.0


def test_exact_sample_frequencies_and_reproducibility():
    cfg = {"variant": "plancherel", "alpha": "5/7", "d": 2}
    run1 = run_sampler(cfg, seed=99, count=4000, method="exact")
    run2 = run_sampler(cfg, seed=99, count=4000, method="exact")
    assert run1.collected == run2.collected
    p = 1 / (1 + 5 / 7)
    freq = sum(1 for l in run1.collected if l == Partition([2])) / 4000
    sigma = math.sqrt(p * (1 - p) / 4000)
    assert abs(freq - p) < 4 * sigma
    # d = 1 always yields the single-box diagram
    one = run_sampler({"variant": "plancherel", "alpha": "2", "d": 1},
                      seed=5, count=10, method="exact")
    assert all(l == Partition([1]) for l in one.collected)


def test_exact_sample_cap():
    with pytest.raises(ValueError):
        exact_sample(JackPlancherel(Fraction(1), 26), SplitMix64(0))


class _StubDyadic:
    """A 128-bit first draw N / 2^128, then the given 64-bit extensions."""

    def __init__(self, n, extensions=()):
        self.n, self.extensions = n, list(extensions)

    def next_dyadic(self):
        return self.n, 128

    def extend_dyadic(self, n, bits):
        return (n << 64) | self.extensions.pop(0), bits + 64


def test_exact_sample_at_a_dyadic_boundary():
    # cum = [1/2, 1] over (1, 1), (2): [lo, hi) = [1/2, 1/2 + 2^-128) lies
    # above 1/2, and the draw just below ends at 1/2
    even = JackPlancherel(Fraction(1), 2)
    assert exact_sample(even, _StubDyadic(1 << 127)) == Partition([2])
    assert exact_sample(even, _StubDyadic((1 << 127) - 1)) == Partition([1, 1])
    # cum = [5/12, 1]: the first interval holding 5/12 is refined once more
    tilted = JackPlancherel(Fraction(5, 7), 2)
    _, L, A, B, _, _ = sampler._cumulative(tilted)
    assert [Fraction(x, L) for x in A] == [Fraction(5, 12), 1] and B == [0, 0]
    n = (5 << 128) // 12
    for word, want in ((0, [1, 1]), ((1 << 64) - 1, [2])):
        rng = _StubDyadic(n, [word])
        assert exact_sample(tilted, rng) == Partition(want)
        assert rng.extensions == []  # extended exactly once


class _IrrationalPair:
    """Two atoms with masses sqrt(2) - 1 and 2 - sqrt(2)."""

    variant = "synthetic"
    d = 2

    def mass(self, lam):
        if lam == Partition([2]):
            return sqrt_ext(-1, 1, 2)
        return sqrt_ext(2, -1, 2)

    def masses(self):
        return {lam: self.mass(lam) for lam in partitions_of(2)}


def test_exact_sample_handles_quadratic_masses():
    ens = _IrrationalPair()
    n = 4000
    root = SplitMix64(123)
    hits = sum(1 for i in range(n)
               if exact_sample(ens, root.substream(i)) == Partition([2]))
    p = math.sqrt(2) - 1
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) < 4 * sigma


EXACT_PIN_SIZES = (2, 6, 9)
EXACT_PIN_SEEDS = (5, 6, 2 ** 63 + 5)


def _exact_pin_ensembles(d):
    """The fixed-size ensembles of the exact pins at size d, labelled:
    Plancherel at three alphas, Schur-Weyl with K = 3 plain and dual, a
    conditional Thoma measure at a non-square alpha (masses in Q(sqrt 2),
    signed from d = 6 on), the rational Schur-Weyl table (2/3)^w(mu) at
    alpha = 4, and a Q(sqrt 2) table at alpha = 2: the specialization
    p_k -> 2^(-k/2) for k >= 2, p_1 -> 1 (a Thoma point a_1 = 1/sqrt 2 with
    the rest on the Plancherel part), so chi_k = 1/sqrt 2 and the masses are
    positive."""
    root_half = SqrtExt(0, Fraction(1, 2), 2)
    quadratic = {mu: math.prod((root_half for k in mu.parts if k > 1), start=Fraction(1))
                 for mu in partitions_of(d)}
    rational = {mu: Fraction(2, 3) ** mu.weight() for mu in partitions_of(d)}
    return [(f"plancherel {a}", JackPlancherel(a, d))
            for a in (Fraction(5, 7), Fraction(2), Fraction(1, 3))] + [
        ("schur_weyl 2 K3", JackSchurWeyl(2, d, 3)),
        ("schur_weyl 2 K3 dual", JackSchurWeyl(2, d, 3, dual=True)),
        ("conditional_thoma 2", ConditionalJackThoma(2, d, [1, Fraction(1, 2), Fraction(1, 3)])),
        ("character 4 rational", CharacterMeasure(4, d, rational)),
        ("character 2 quadratic", CharacterMeasure(2, d, quadratic))]


def _exact_canon(x):
    if isinstance(x, SqrtExt):
        return f"S {x.a} {x.b} {x.alpha}"
    return f"{type(x).__name__} {x}"


def test_fixed_size_masses_are_pinned():
    # each mass's type and exact value, in partition order
    lines = [f"{label} {d} {lam.parts} {_exact_canon(m)}"
             for d in EXACT_PIN_SIZES for label, ens in _exact_pin_ensembles(d)
             for lam, m in ens.masses().items()]
    assert len(lines) == 8 * (2 + 11 + 30)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "ac95e7ef8bc459cca5eaae822e49e3be15a3dbd59deda8441436680daaf0b4e7")


def _floor_scaled(c, bits):
    """floor(c 2^bits) for a Fraction or a SqrtExt c: with c = a + b sqrt(p/q),
    b 2^bits sqrt(p/q) = s sqrt(N) / M for N = bn^2 p q and M = bd q, and
    sqrt(N) is irrational, so adding it to an integer numerator moves the
    floor of the quotient by at most the floor of ad sqrt(N)."""
    if not isinstance(c, SqrtExt):
        return c.numerator * 2 ** bits // c.denominator
    a, b = c.a * 2 ** bits, c.b * 2 ** bits
    p, q = c.alpha.numerator, c.alpha.denominator
    M, N = b.denominator * q, b.numerator ** 2 * p * q
    r = math.isqrt(N * a.denominator ** 2)
    top = a.numerator * M + (r if b > 0 else -r - 1)
    return top // (a.denominator * M)


def test_exact_draws_are_pinned():
    # 200 seeded draws per ensemble, size and seed (no seeded draw refines:
    # a 128-bit interval meets a boundary with chance about 2^-123), then
    # draws placed on every boundary of the cumulative masses, refined by
    # one word (0, 2^64 - 1) or by two (the word that keeps the boundary
    # inside, then 2^63): each records its partition and its extensions.
    # The grid and the digests were fixed at the Fraction search this pins
    lines = []
    for d in EXACT_PIN_SIZES:
        for label, ens in _exact_pin_ensembles(d):
            for seed in EXACT_PIN_SEEDS:
                root = SplitMix64(seed)
                try:
                    draws = [exact_sample(ens, root.substream(i)).parts
                             for i in range(200)]
                except ValueError as err:
                    draws = f"refused: {err}"
                lines.append(f"{label} {d} {seed} {draws}")
            if label == "conditional_thoma 2" and d > 2:
                continue  # signed
            acc = Fraction(0)
            for m in list(ens.masses().values())[:-1]:
                acc = acc + m
                if acc == 1:
                    break  # the rest have mass 0
                n, inner = _floor_scaled(acc, 128), _floor_scaled(acc, 192)
                for words in ([0], [2 ** 64 - 1], [inner - (n << 64), 2 ** 63]):
                    rng = _StubDyadic(n, words + [0])
                    lam = exact_sample(ens, rng)
                    lines.append(f"{label} {d} {n} {words} {lam.parts} "
                                 f"{len(words) + 1 - len(rng.extensions)}")
    assert len(lines) == 849
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "c0281749945d4deba92ca2b97d44b22c7c158ff9e0d322388cc3b6250b8304f2")


class _Table:
    """A fixed-size stand-in ensemble with the given masses on partitions of 2."""

    variant = "synthetic"
    d = 2

    def __init__(self, one_one, two):
        self.masses = {Partition([1, 1]): one_one, Partition([2]): two}

    def mass(self, lam):
        return self.masses[lam]


@pytest.mark.parametrize("masses, message", [
    ((Fraction(3, 2), Fraction(-1, 2)), r"cannot sample a signed measure \(mass at Partition\(\[2\]\)\)"),
    ((sqrt_ext(2, -1, 2), sqrt_ext(-1, 1, 2) - 1),
     r"cannot sample a signed measure \(mass at Partition\(\[2\]\)\)"),
    ((Fraction(1, 3), Fraction(1, 3)), "masses do not sum to 1"),
    ((sqrt_ext(2, -1, 2), Fraction(1, 2)), "masses do not sum to 1"),
    ((sqrt_ext(2, -1, 2), sqrt_ext(-1, 1, 3)), "mixing different quadratic extensions"),
])
def test_exact_sample_refuses_a_table_it_cannot_draw(masses, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        exact_sample(_Table(*masses), SplitMix64(1))


def test_scaled_profile_shape_functional_is_one():
    # S_2 of the balanced rescaling is exactly 1 on every diagram: test at a
    # square alpha/d combination where the scale factors stay rational
    alpha, d = Fraction(4), 9
    w, h = Fraction(2, 3), Fraction(1, 6)
    assert w * h * d == 1
    for lam in partitions_of(d)[:8]:
        tm = transition_measure(AnisotropicDiagram(lam, w, h).profile())
        assert observable_family(tm, "fundamental", 2)[1] == 1


def test_scaled_profile_and_mean_profile():
    lam = Partition([3, 2, 1])
    shape = scaled_profile(lam, Fraction(1), 6)
    assert shape.evaluate(0.0) > 0
    far = 5.0
    assert shape.evaluate(far) == pytest.approx(far)
    cfg = {"variant": "plancherel", "alpha": "1", "d": 6}
    run = run_sampler(cfg, seed=1, count=5, method="exact")
    pts = mean_profile(run, Fraction(1), 6, [-1.0, 0.0, 1.0])
    assert len(pts) == 3
    assert pts[1][1] >= abs(pts[1][0])
    with pytest.raises(ValueError, match="at least one draw"):
        mean_profile(run_sampler(cfg, seed=1, count=0), Fraction(1), 6, [0.0])


def test_empirical_stats_table():
    from jackpaths.sampler import empirical_stats

    cfg = {"variant": "plancherel", "alpha": "1", "d": 4}
    run = run_sampler(cfg, seed=2, count=50, method="exact")
    table = empirical_stats(run, [("size", lambda lam: lam.size()),
                                  ("rows", lambda lam: lam.length())])
    assert table["size"]["mean"] == 4.0
    assert table["size"]["variance"] == 0.0
    assert table["size"]["count"] == 50
    assert 1.0 <= table["rows"]["mean"] <= 4.0


def test_sampler_kernels_state_capacity():
    assert kernels.state_capacity(1600) >= 56
    parts = kernels.growth_draw_parts(25, 0.5, 12345)
    assert sum(parts) == 25
    assert parts == sorted(parts, reverse=True)
