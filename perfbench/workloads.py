"""The four workloads and their inputs, generated from a seed (the
operations and their checks are in ops.py).

Each workload stresses different layers of jackpaths and leaves others idle,
so that a change to one layer shows on one workload and not on the rest:

- oracle: certified Poissonized expectations, i.e. thousands of small
  partitions through j_alpha, JackThoma.rational_mass, transition_measure
  and observable_family;
- growth: the float corner-growth kernel at d = 1600 and d = 6400 through
  `jackpaths sample`; every exact layer is idle;
- limits: path and ribbon enumeration, Poly algebra and mpmath Bessel
  numerics; partitions and ensembles are idle;
- characters: Gram-Schmidt Jack bases and dense linear algebra over
  Q(sqrt(alpha)) on few large partitions, then exact inverse-CDF sampling.

A seed picks the sampler seeds and, per operation, one entry of a fixed
pool of small-height rational parameters.  Entries of one pool cost about
the same, so a different seed changes the values but not the work.  The
reference digests in reference.json cover every pool entry, so every seed
is checked bit for bit as well as by its cross-identities.
"""

from __future__ import annotations

import random

WORKLOADS = ("oracle", "growth", "limits", "characters")
SIZES = ("full", "smoke")

# --- oracle ----------------------------------------------------------------
# (2, 2) and (4,) have the same order, so the same truncation degree.
ORACLE_LENGTHS = ((2, 2), (4,))
ORACLE_SIZE = {
    "full": {"suite_total": 3, "tail_eps": "1/100000"},
    "smoke": {"suite_total": 2, "tail_eps": "1/100"},
}

# --- growth ----------------------------------------------------------------
# alpha = 1/(g^2 d) at g = -1/4 is the criterion-12 (LLN) configuration; the
# first row over d/4 tends to the edge 1.336.  The smoke batches keep both
# sizes, so that the ms_per_draw metrics of each size are measured there too.
GROWTH_BATCHES = {
    "full": ((1600, "1/100", 8), (6400, "1/400", 2)),
    "smoke": ((1600, "1/100", 2), (6400, "1/400", 1)),
}
GROWTH_EDGE = 1.336
GROWTH_TOLERANCE = 0.05

# --- limits ----------------------------------------------------------------
# (g, v, g', second-cumulant table) of the limit formulas; v_1 must be a
# square for the v_1^{ell/2} normalization to stay rational
LIMIT_PARAMS = (("1/2", ("1", "1/3"), "3", {"2,2": "1/3"}),
                ("-1/2", ("4", "1/3"), "1/2", {"2,2": "-1/2", "2,3": "1/5"}),
                ("1/3", ("9/4", "1/2", "1/5"), "-2", {"2,2": "1/3"}),
                ("-1/3", ("1", "-1/2", "1/4"), "3", {"2,2": "-1/2", "2,3": "1/5"}))
# (alpha, u, v) with v_1 = 1, as the depoissonized formula requires
FINITE_PARAMS = (("2", "3", ("1", "1/2")), ("1/2", "2", ("1", "1/3")),
                 ("3", "2", ("1", "-1/2")), ("3/2", "3", ("1", "1/4")))
BESSEL_G = ("-1/4", "-1/3", "1/4", "1/3")
LIMITS_SIZE = {
    "full": {"moment_ell": 10, "shape_ell": 9, "cov": (5, 5), "afp": (4, 4),
             "finite": (6, 4), "finite_d": 9, "cumulant": (4, 4),
             "n_steps": 3},
    "smoke": {"moment_ell": 6, "shape_ell": 5, "cov": (3, 3), "afp": (3, 2),
              "finite": (3, 2), "finite_d": 5, "cumulant": (2, 2),
              "n_steps": 1},
}

# --- characters ------------------------------------------------------------
# (alpha, v, K): a non-square alpha, a rational v for the conditional
# measure and a Schur-Weyl K; the two entries cost the same within a few
# percent (alpha = 5/3 with v = (1, -1/2, 1/4) cost 8% more and was dropped)
CHAR_PARAMS = (("2/3", ("1", "1/2", "1/3"), 3), ("3/2", ("1", "1/3", "1/5"), 4))
CHARACTERS_SIZE = {
    "full": {"dmax": 10, "mass_ds": (8, 9), "sample_d": 9, "draws": 100},
    "smoke": {"dmax": 5, "mass_ds": (4, 5), "sample_d": 5, "draws": 10},
}


def _pick(rng, pool, index=None):
    return pool[rng.randrange(len(pool)) if index is None else index % len(pool)]


def make_inputs(workload: str, seed: int, size: str = "full",
                index: int | None = None) -> dict:
    """The JSON-serialisable inputs of one workload instance.  The same seed
    gives the same inputs.  With ``index`` set, every pool takes its entry
    ``index`` (modulo its length) instead of a seeded one; this is how the
    reference digests cover every pool entry."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle":
        cfg = ORACLE_SIZE[size]
        return {"suite_total": cfg["suite_total"], "tail_eps": cfg["tail_eps"],
                "lengths": [list(_pick(rng, ORACLE_LENGTHS, index))
                            for _ in range(3)]}
    if workload == "growth":
        return {"batches": [{"d": d, "alpha": alpha, "n": n,
                             "seed": rng.randrange(2 ** 32)}
                            for d, alpha, n in GROWTH_BATCHES[size]]}
    if workload == "limits":
        cfg = dict(LIMITS_SIZE[size])
        g, v, gp, vkl = _pick(rng, LIMIT_PARAMS, index)
        alpha, u, fv = _pick(rng, FINITE_PARAMS, index)
        cfg.update(g=g, v=list(v), gp=gp, vkl=vkl,
                   finite_params={"alpha": alpha, "u": u, "v": list(fv)},
                   bessel_g=_pick(rng, BESSEL_G, index))
        cfg["cov"], cfg["afp"] = list(cfg["cov"]), list(cfg["afp"])
        cfg["finite"], cfg["cumulant"] = list(cfg["finite"]), list(cfg["cumulant"])
        return cfg
    cfg = dict(CHARACTERS_SIZE[size])
    alpha, v, K = _pick(rng, CHAR_PARAMS, index)
    cfg.update(alpha=alpha, v=list(v), K=K, seed=rng.randrange(2 ** 32))
    cfg["mass_ds"] = list(cfg["mass_ds"])
    return cfg


def reference_inputs(workload: str, size: str):
    """Inputs that together take every entry of every pool of a workload."""
    pools = {"oracle": (ORACLE_LENGTHS,),
             "growth": (),
             "limits": (LIMIT_PARAMS, FINITE_PARAMS, BESSEL_G),
             "characters": (CHAR_PARAMS,)}[workload]
    count = max((len(p) for p in pools), default=0)
    return [make_inputs(workload, 0, size, index=i) for i in range(count)]
