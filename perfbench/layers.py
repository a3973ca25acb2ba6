"""What the traced run wraps in jackpaths, and the per-layer metrics it
derives from the spans and counts.

Every public function of every module is wrapped, plus the methods and
private functions that carry a layer's work (ensemble masses, the ribbon
enumerator, Poly arithmetic, dyadic refinement).  A layer is a module;
``bench`` is the benchmark's own code between calls into the program.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

from tracer import Target, public_functions

PACKAGE = "jackpaths"
MODULES = ("partitions", "diagrams", "series", "ensembles", "jack", "exactnum",
           "paths", "polynomials", "limitshape", "sampler", "_kernels", "rng",
           "serialize", "verify", "cli")
LAYERS = tuple(m.lstrip("_") for m in MODULES) + ("bench",)

# modules whose functions run thousands of times per operation: aggregated
HOT_MODULES = {"partitions", "diagrams", "series", "exactnum", "rng", "polynomials"}
HOT = {"jack.hall_inner", "jack.theta_coefficient", "jack.jack_polynomial",
       "jack.irreducible_character", "jack.normalized_character",
       "ensembles.rational_mass", "ensembles.conditional_thoma_character",
       "ensembles.mass", "paths.ribbon_stats", "paths.statistic_f",
       "paths.is_pi_connected", "paths.enumerate_lukasiewicz",
       "paths.enumerate_motzkin", "paths.enumerate_ribbon",
       "paths.count_lukasiewicz", "limitshape.bessel_j", "limitshape.bessel_j_mp",
       "limitshape.jacobi_moment", "sampler.growth_transitions",
       "sampler.growth_candidates", "sampler.scaled_profile"}

POLY_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "subs",
                "evaluate", "derivative", "to_json")


def _jack_basis_probe(args, kwargs):
    jack = importlib.import_module(PACKAGE + ".jack")
    d = args[0] if args else kwargs["d"]
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    return (d, Fraction(alpha)) in jack._basis_cache


def _jack_basis_count(hit, result, counts):
    key = "jack.jack_basis.hits" if hit else "jack.jack_basis.misses"
    counts[key] = counts.get(key, 0) + 1


def _visited(state, result, counts):
    counts["partitions.partitions_of.visited"] = (
        counts.get("partitions.partitions_of.visited", 0) + len(result))


def _ribbon_hooks():
    """Count the ribbons of each _all_ribbons call that missed its cache."""
    cached = importlib.import_module(PACKAGE + ".paths")._all_ribbons

    def probe(args, kwargs):
        return cached.cache_info().misses

    def enumerated(misses_before, result, counts):
        if cached.cache_info().misses > misses_before:
            counts["paths.ribbons.enumerated"] = (
                counts.get("paths.ribbons.enumerated", 0) + len(result))

    return probe, enumerated


def targets() -> list:
    """The wrap list; jackpaths and all of MODULES must be imported."""
    hooks = {"jack.jack_basis": (_jack_basis_probe, _jack_basis_count),
             "partitions.partitions_of": (None, _visited)}
    out = []
    for mod_name in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        layer = mod_name.lstrip("_")
        for fn in public_functions(module):
            span = f"{layer}.{fn}"
            before, after = hooks.get(span, (None, None))
            keep = layer not in HOT_MODULES and span not in HOT
            out.append(Target(module.__name__, fn, span, layer, keep, before, after))
    ens, pths = f"{PACKAGE}.ensembles", f"{PACKAGE}.paths"
    out += [
        Target(ens, "JackThoma.rational_mass", "ensembles.rational_mass", "ensembles"),
        Target(ens, "JackMeasure.rational_mass", "ensembles.rational_mass", "ensembles"),
        Target(ens, "CharacterMeasure._solve", "ensembles.character_solve",
               "ensembles", keep=True),
        Target(ens, "ConditionalJackThoma.mass", "ensembles.conditional_mass",
               "ensembles", keep=True),
        Target(pths, "_all_ribbons", "paths.all_ribbons", "paths", True,
               *_ribbon_hooks()),
        Target(f"{PACKAGE}.rng", "SplitMix64.extend_dyadic", "rng.extend_dyadic", "rng"),
    ]
    out += [Target(f"{PACKAGE}.polynomials", f"Poly.{m}",
                   f"polynomials.{m.strip('_')}", "polynomials")
            for m in POLY_METHODS]
    return out


def cache_counters() -> dict:
    """lru_cache hit and miss totals of the memoized layers, read from the
    original (unwrapped) functions."""
    paths = importlib.import_module(PACKAGE + ".paths")
    out = {}
    for name, fn in (("paths.limit_moment_poly", paths.limit_moment_poly),
                     ("paths.all_ribbons", paths._all_ribbons)):
        fn = getattr(fn, "__wrapped__", fn) if getattr(fn, "__traced__", False) else fn
        info = fn.cache_info()
        out[f"{name}.hits"] = info.hits
        out[f"{name}.misses"] = info.misses
    return out


def _ms_per_draw(tracer, d: int) -> float:
    """Mean inclusive time of one growth_sample call inside the sampling
    operation at size d, in milliseconds (0 when there is none)."""
    total, n = 0.0, 0
    for _, name, _, op, t0, t1, _ in tracer.spans:
        if name == "sampler.growth_sample" and tracer.ops.get(op) == f"sample.d{d}":
            total += t1 - t0
            n += 1
    return 1e3 * total / n if n else 0.0


def per_layer_metrics(tracer, cache_before: dict, cache_after: dict,
                      wall_s: float, cpu_s: float) -> dict:
    """{metric: (value, unit)} for every per-layer metric of one traced
    repetition.  ``trace.overhead_s`` is added by the caller, which knows the
    untraced wall time."""
    def calls(*names):
        return sum(tracer.by_name.get(n, (0, 0.0, 0.0))[0] for n in names)

    def own(*names):
        return sum(tracer.by_name.get(n, (0, 0.0, 0.0))[2] for n in names)

    def count(name):
        return tracer.counts.get(name, 0)

    def cache(name):
        return cache_after[name] - cache_before[name]

    s, c = "s", "count"
    m = {
        "partitions.j_alpha.calls": (calls("partitions.j_alpha"), c),
        "partitions.j_alpha.self_s": (own("partitions.j_alpha"), s),
        "partitions.partitions_of.visited": (count("partitions.partitions_of.visited"), c),
        "ensembles.rational_mass.calls": (calls("ensembles.rational_mass"), c),
        "ensembles.rational_mass.self_s": (own("ensembles.rational_mass"), s),
        "ensembles.poisson_expectation.self_s": (own("ensembles.poisson_expectation"), s),
        "diagrams.transition_measure.self_s": (own("diagrams.transition_measure"), s),
        "diagrams.observable_family.self_s": (own("diagrams.observable_family"), s),
        "jack.jack_basis.hits": (count("jack.jack_basis.hits"), c),
        "jack.jack_basis.misses": (count("jack.jack_basis.misses"), c),
        "jack.jack_basis.self_s": (own("jack.jack_basis"), s),
        "jack.hall_inner.calls": (calls("jack.hall_inner"), c),
        "jack.theta_coefficient.calls": (calls("jack.theta_coefficient"), c),
        "ensembles.character_solve.self_s": (own("ensembles.character_solve"), s),
        "ensembles.conditional_mass.self_s": (own("ensembles.conditional_mass"), s),
        "exactnum.sqrt_ext.calls": (calls("exactnum.sqrt_ext"), c),
        "paths.limit_moment_poly.self_s": (own("paths.limit_moment_poly"), s),
        "paths.limit_moment_poly.hits": (cache("paths.limit_moment_poly.hits"), c),
        "paths.limit_moment_poly.misses": (cache("paths.limit_moment_poly.misses"), c),
        "paths.shape_sum_poly.self_s": (own("paths.shape_sum_poly"), s),
        "paths.all_ribbons.hits": (cache("paths.all_ribbons.hits"), c),
        "paths.all_ribbons.misses": (cache("paths.all_ribbons.misses"), c),
        "paths.all_ribbons.self_s": (own("paths.all_ribbons"), s),
        "paths.ribbons.enumerated": (count("paths.ribbons.enumerated"), c),
        "paths.finite.self_s": (own("paths.finite_expectation", "paths.finite_cumulant_s",
                                    "paths.finite_moment_s",
                                    "paths.depoissonized_expectation"), s),
        "paths.clt.self_s": (own("paths.clt_mean", "paths.clt_cov", "paths.afp_mean",
                                 "paths.afp_cov"), s),
        "polynomials.mul.calls": (calls("polynomials.mul"), c),
        "polynomials.add.calls": (calls("polynomials.add"), c),
        "limitshape.bessel_j_mp.calls": (calls("limitshape.bessel_j_mp"), c),
        "limitshape.bessel_j_mp.self_s": (own("limitshape.bessel_j_mp"), s),
        "limitshape.bessel_order_zeros.self_s": (own("limitshape.bessel_order_zeros"), s),
        "limitshape.jacobi_moment_symbolic.self_s": (
            own("limitshape.jacobi_moment_symbolic"), s),
        "sampler.growth_sample.calls": (calls("sampler.growth_sample"), c),
        "sampler.growth_sample.self_s": (own("sampler.growth_sample"), s),
        "kernels.growth_draw_parts.self_s": (own("kernels.growth_draw_parts"), s),
        "sampler.ms_per_draw.d1600": (_ms_per_draw(tracer, 1600), "ms"),
        "sampler.ms_per_draw.d6400": (_ms_per_draw(tracer, 6400), "ms"),
        "sampler.validate_growth.self_s": (own("sampler.validate_growth"), s),
        "sampler.exact_sample.calls": (calls("sampler.exact_sample"), c),
        "sampler.exact_sample.self_s": (own("sampler.exact_sample"), s),
        "sampler.dyadic_extensions": (
            calls("rng.extend_dyadic") / max(1, calls("sampler.exact_sample")),
            "1/draw"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tracer.layer_self.get(layer, 0.0), s)
    m["process.cpu_s"] = (cpu_s, s)
    m["trace.wall_s"] = (wall_s, s)
    return m


def self_time_table(tracer, wall_s: float) -> list:
    """Rows for the per-layer self-time table: layers by self time, then the
    eight spans with the largest self time."""
    rows = [("layer", layer, secs, secs / wall_s if wall_s else 0.0)
            for layer, secs in sorted(tracer.layer_self.items(), key=lambda kv: -kv[1])]
    spans = sorted(tracer.by_name.items(), key=lambda kv: -kv[1][2])[:8]
    rows += [("span", name, stat[2], stat[2] / wall_s if wall_s else 0.0)
             for name, stat in spans]
    return rows
