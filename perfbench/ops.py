"""The operations of one repetition of each workload, driven through the
public API of jackpaths and ``jackpaths.cli.main``, and the check of every
output: a cross-identity where one exists, and a digest of every exact
output compared with reference.json."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from fractions import Fraction

from jackpaths import cli, ensembles, jack, limitshape, paths, sampler, serialize, verify
from jackpaths.exactnum import SqrtExt
from jackpaths.partitions import Partition, partitions_of
from jackpaths.polynomials import Poly

import workloads

FLOAT_RTOL = 1e-9


def canon(x) -> str:
    """A canonical text form of an exact output, for digests."""
    if isinstance(x, bool):
        return "T" if x else "F"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, SqrtExt):
        return f"({canon(x.a)})+({canon(x.b)})r({canon(x.alpha)})"
    if isinstance(x, Partition):
        return canon(x.parts)
    if isinstance(x, Poly):
        return "P" + canon(sorted(x.terms.items()))
    if isinstance(x, jack.PowerSumPoly):
        return "J" + canon(sorted((mu.parts, c) for mu, c in x.terms.items()))
    if isinstance(x, ensembles.PoissonInterval):
        return canon((x.rational_sum, x.tail_bound, x.margin, x.exponent, x.degree))
    if isinstance(x, dict):
        return "{" + ",".join(sorted(f"{canon(k)}:{canon(v)}" for k, v in x.items())) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canon(i) for i in x) + "]"
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(x) -> str:
    return hashlib.sha256(canon(x).encode()).hexdigest()[:24]


class Session:
    """Runs operations, checks their outputs and counts failures.  With a
    tracer, each operation and each check is a kept span of its own op id.
    With ``record`` set, reference values are collected instead of compared."""

    def __init__(self, workload: str, reference: dict, tracer=None, record=None):
        self.workload = workload
        self.reference = reference
        self.tracer = tracer
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.env = {}

    def _span(self, name, op=False):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, op=op)

    def op(self, name, compute, check=None, key=None, weight=1):
        """Run ``compute``; ``check(value)`` returns None or a problem.  With
        a ``key`` (the op's inputs), the value is also compared with the
        reference: floats (a list of them) to a relative 1e-9, anything else
        by digest.  ``weight`` counts the operation as that many attempts,
        one per draw for the samplers."""
        self.attempted += weight
        value, problem = None, None
        try:
            with self._span(name, op=True):
                value = compute()
            with self._span("check." + name):
                if check is not None:
                    problem = check(value)
                if problem is None and key is not None:
                    problem = self._compare(name, key, value)
        except Exception as exc:  # any failure of the program counts against it
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += weight
            self.errors.append(f"{name}: {problem}")
        return value

    def _compare(self, name, key, value):
        ref_key = f"{self.workload}/{name}/{json.dumps(key, sort_keys=True)}"
        floats = isinstance(value, list) and value and isinstance(value[0], float)
        got = value if floats else digest(value)
        if self.record is not None:
            self.record[ref_key] = got
            return None
        want = self.reference.get(ref_key)
        if want is None:
            return f"no reference for {ref_key}"
        if floats:
            if len(want) != len(got) or any(
                    not math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_RTOL)
                    for a, b in zip(got, want)):
                return f"floats differ from the reference: {got} vs {want}"
            return None
        return None if got == want else f"digest {got} differs from reference {want}"


def _sum_is_one(masses) -> str | None:
    total = Fraction(0)
    for m in masses.values():
        total = m + total
    return None if total == 1 else f"masses sum to {total!r}, not 1"


def _cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"jackpaths {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


# --- oracle -----------------------------------------------------------------

def run_oracle(s: Session, inp: dict, workdir: str):
    eps = Fraction(inp["tail_eps"])
    total = inp["suite_total"]
    s.op("verify.suite_poisson_oracle",
         lambda: verify.suite_poisson_oracle(total=total, tail_eps=eps),
         check=lambda r: None if r[0] else f"suite failed: {r[1]}")
    for (alpha, u, vrule, label), lengths in zip(verify.ORACLE_PARAMETER_SETS,
                                                 inp["lengths"]):
        lengths = tuple(lengths)

        def compute(alpha=alpha, u=u, vrule=vrule, lengths=lengths):
            obs = verify.boolean_products_observable(lengths, alpha, u)
            interval = ensembles.poisson_expectation(alpha, u, vrule, obs, eps,
                                                     lengths_hint=lengths)
            return interval, paths.finite_expectation(lengths, alpha, u, vrule)

        def check(value):
            interval, expect = value
            if not interval.contains_exact(expect):
                return f"ribbon value {expect} outside the certified interval"
            return None if interval.radius < float(eps) else "radius above tail_eps"

        s.op("ensembles.poisson_expectation", compute, check=check,
             key={"set": label, "lengths": list(lengths), "tail_eps": inp["tail_eps"]})


# --- growth -----------------------------------------------------------------

def run_growth(s: Session, inp: dict, workdir: str):
    for batch in inp["batches"]:
        d, n = batch["d"], batch["n"]
        out = os.path.join(workdir, f"growth-d{d}.jsonl")
        argv = ["sample", "--ensemble", "plancherel", "--method", "growth",
                "--alpha", batch["alpha"], "--d", str(d), "--n", str(n),
                "--seed", str(batch["seed"]), "--out", out]

        def compute(argv=argv, out=out):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"jackpaths sample exited {code}")
            with open(out) as fh:
                return serialize.partitions_from_jsonl(fh.read())

        def check(value, d=d, n=n):
            header, draws = value
            s.env["jsonl_header_backend"] = header.get("backend")
            if len(draws) != n or header.get("count") != n:
                return f"{len(draws)} draws, expected {n}"
            bad = [lam for lam in draws if lam.size() != d]
            if bad:
                return f"{len(bad)} draws are not partitions of {d}"
            # criterion 12: first row over -g*d = d/4 tends to the edge 1.336
            mean = sum(lam.parts[0] for lam in draws) / n / (d / 4)
            if abs(mean - workloads.GROWTH_EDGE) > workloads.GROWTH_TOLERANCE:
                return f"mean first row {mean:.4f} not within 0.05 of 1.336"
            return None

        s.op(f"sample.d{d}", compute, check=check, weight=n)


# --- limits -----------------------------------------------------------------

def run_limits(s: Session, inp: dict, workdir: str):
    ell = inp["moment_ell"]
    g, gp = Fraction(inp["g"]), Fraction(inp["gp"])
    v = [Fraction(x) for x in inp["v"]]
    pick = {"g": inp["g"], "v": inp["v"]}

    s.op("cli.moments_symbolic",
         lambda: Poly({tuple(r["monomial"].items()): Fraction(r["coeff"])
                       for r in _cli_json(["moments", "--ell", str(ell),
                                           "--symbolic", "--json"])}),
         check=lambda p: None if p == limitshape.jacobi_moment_symbolic(ell) else (
             "differs from the banded-operator moment"),
         key={"ell": ell})
    s.op("paths.limit_moment", lambda: paths.limit_moment(ell, g, v),
         key={"ell": ell, **pick})
    k = inp["shape_ell"]
    s.op("paths.clt_mean", lambda: paths.clt_mean(k, g, gp, v),
         key={"ell": k, "gp": inp["gp"], **pick})
    a, b = inp["cov"]
    s.op("paths.clt_cov", lambda: (paths.clt_cov(a, b, g, v), paths.clt_cov(2, 2, g, v)),
         check=lambda r: None if r[1] == 1 / v[0] else "cov(2,2) != 1/v1",
         key={"kl": [a, b], **pick})
    a, b = inp["afp"]
    vkl = {tuple(int(i) for i in key.split(",")): Fraction(x)
           for key, x in inp["vkl"].items()}
    # the AFP formulas are normalized to v_1 = 1
    s.op("paths.afp_cov", lambda: paths.afp_cov(a, b, g, [Fraction(1)] + v[1:], vkl),
         key={"kl": [a, b], "vkl": inp["vkl"], **pick})

    fp = inp["finite_params"]
    alpha, u = Fraction(fp["alpha"]), Fraction(fp["u"])
    fv = [Fraction(x) for x in fp["v"]]
    lengths = tuple(inp["finite"])
    fkey = {"lengths": list(lengths), **fp}
    s.op("paths.finite_expectation",
         lambda: paths.finite_expectation(lengths, alpha, u, fv), key=fkey)
    d = inp["finite_d"]
    s.op("paths.depoissonized_expectation",
         lambda: paths.depoissonized_expectation(lengths, d, alpha, u, fv),
         key={"d": d, **fkey})
    k, l = inp["cumulant"]

    def cumulant():
        return (paths.finite_cumulant_s((k, l), alpha, u, fv),
                paths.finite_moment_s((k, l), alpha, u, fv),
                paths.finite_moment_s((k,), alpha, u, fv),
                paths.finite_moment_s((l,), alpha, u, fv))

    # a two-point cumulant is the joint moment minus the product of moments
    s.op("paths.finite_cumulant_s", cumulant,
         check=lambda r: None if r[0] == r[1] - r[2] * r[3] else (
             "cumulant != moment inversion"),
         key={"lengths": [k, l], **fp})

    bg = Fraction(inp["bessel_g"])
    n_steps = inp["n_steps"]

    def shape_check(corners):
        minima, maxima = corners[:n_steps], corners[n_steps:]
        # the staircase alternates its corners, starting on the side it extends to
        first, second = (maxima, minima) if bg < 0 else (minima, maxima)
        seq = [x for pair in zip(first, second) for x in pair]
        if any(not a < b for a, b in zip(seq, seq[1:])):
            return "corners do not interlace"
        if bg == Fraction(-1, 4):
            # criterion 9: the order-zeros at g = -1/4 sit at -1.086, -0.424, 0.102
            zeros = sorted(-m for m in maxima)
            if any(abs(z - t) > 1e-3 for z, t in zip(zeros, (-1.086, -0.424, 0.102))):
                return f"zeros {zeros} off the reference values"
        return None

    def shape():
        st = limitshape.plancherel_limit_shape(bg, n_steps=n_steps)
        return [float(x) for x in st.minima] + [float(x) for x in st.maxima]

    s.op("limitshape.plancherel_limit_shape", shape, check=shape_check,
         key={"g": inp["bessel_g"], "n_steps": n_steps})


# --- characters ---------------------------------------------------------------

def run_characters(s: Session, inp: dict, workdir: str):
    alpha = Fraction(inp["alpha"])
    v = [Fraction(x) for x in inp["v"]]
    dmax = inp["dmax"]
    pick = {"alpha": inp["alpha"]}

    def basis_check(bases):
        for d, basis in enumerate(bases, start=1):
            if len(basis) != len(partitions_of(d)):
                return f"degree {d}: {len(basis)} elements"
            if any(J.coefficient(Partition([1] * d)) != 1 for J in basis.values()):
                return f"degree {d}: p_(1^d) coefficient != 1"
        return None

    s.op("jack.jack_basis",
         lambda: [jack.jack_basis(d, alpha) for d in range(1, dmax + 1)],
         check=basis_check, key={"dmax": dmax, **pick})

    vkey = {"v": inp["v"], **pick}
    for d in inp["mass_ds"]:
        cond = s.op(f"ensembles.conditional_masses.d{d}",
                    lambda d=d: ensembles.ConditionalJackThoma(alpha, d, v).masses(),
                    check=_sum_is_one, key={"d": d, **vkey})

        def character_check(masses, cond=cond):
            if masses != cond:
                return "CharacterMeasure differs from ConditionalJackThoma"
            return _sum_is_one(masses)

        s.op(f"ensembles.character_masses.d{d}",
             lambda d=d: ensembles.CharacterMeasure(
                 alpha, d, ensembles.conditional_thoma_character(v, d)).masses(),
             check=character_check, key={"d": d, **vkey})

    d, K = inp["sample_d"], inp["K"]
    sw = s.op("ensembles.schur_weyl_masses",
              lambda: ensembles.JackSchurWeyl(alpha, d, K).masses(),
              check=_sum_is_one, key={"d": d, "K": K, **pick})
    plancherel = s.op("ensembles.plancherel_masses",
                      lambda: ensembles.JackPlancherel(alpha, d).masses(),
                      check=_sum_is_one, key={"d": d, **pick})

    draws = inp["draws"]
    for name, cfg, masses in (
            ("plancherel", {"variant": "plancherel", "alpha": inp["alpha"], "d": d},
             plancherel),
            ("schur_weyl", {"variant": "schur_weyl", "alpha": inp["alpha"], "d": d,
                            "K": K}, sw)):

        def check(run, masses=masses):
            if len(run.collected) != draws:
                return f"{len(run.collected)} draws, expected {draws}"
            if masses is None:
                return "no exact masses to check the draws against"
            bad = [lam for lam in run.collected if not masses.get(lam, 0) > 0]
            return f"{len(bad)} draws outside the support" if bad else None

        s.op(f"sampler.exact.{name}",
             lambda cfg=cfg: sampler.run_sampler(cfg, seed=inp["seed"], count=draws,
                                                 method="exact"),
             check=check, weight=draws)


RUNNERS = {"oracle": run_oracle, "growth": run_growth, "limits": run_limits,
           "characters": run_characters}
