"""Command-line surface: compute path formulas, sample diagrams, build
limit shapes, locate Bessel order-zeros, run verification suites, and
render profiles.  Exit codes: 0 pass, 1 verification failure, 2 usage
error.  Rationals are written p/q; --json switches to machine output."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .exactnum import _int_arg, format_rational, parse_rational

# let argparse accept negative rationals like -1/4 as values, not flags
_NEGATIVE_TOKEN = re.compile(r"^-\d+(/\d+)?(\.\d+)?$")


def _rational(text):
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _vkl_table(text):
    """The --vkl table: a JSON object from "k,l" (two integers) to a
    rational, as {(k, l): Fraction}."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not JSON: {exc}")
    if not isinstance(data, dict):
        raise argparse.ArgumentTypeError(
            f'expected a JSON object like {{"2,2": "1/3"}}, not {text}')
    table = {}
    for key, val in data.items():
        try:
            k, l = (int(x) for x in key.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f'bad key {key!r}: expected two integers "k,l"')
        table[(k, l)] = _rational(val if isinstance(val, str) else json.dumps(val))
    return table


def _load_config(path):
    """The --config defaults as a dict; ValueError for a file that cannot
    be read, does not parse or whose top level is not a table."""
    if path is None:
        return {}
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"--config: cannot read {path}: {exc.strerror}") from exc
    if path.endswith(".toml"):
        import tomllib

        data = tomllib.loads(text.decode())
    else:
        data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"--config: the top level of {path} must be a table, "
                         f"not {type(data).__name__}")
    return data


def _write(path, text):
    """Write an output file; a path that cannot be written is a usage
    error (ValueError)."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _arg(*flags, **kwargs):
    """One ``add_argument`` call of the command table, as (flags, kwargs)."""
    return flags, kwargs


def _parser(names):
    """The top-level parser with the subcommands ``names`` of
    :data:`_COMMANDS`, each with the arguments its entry lists; its
    ``subcommands`` attribute maps each built name to its own parser."""
    top = argparse.ArgumentParser(
        prog="jackpaths",
        description="Exact identities and samplers for deformed random "
                    "Young diagrams and weighted lattice paths")
    top.add_argument("--config", help="JSON/TOML file of defaults; flags override")
    top._negative_number_matcher = _NEGATIVE_TOKEN
    commands = top.add_subparsers(dest="command", required=True)
    top.subcommands = commands.choices
    for name in names:
        _, help_text, arguments = _COMMANDS[name]
        parser = commands.add_parser(name, help=help_text)
        parser._negative_number_matcher = _NEGATIVE_TOKEN
        for flags, kwargs in arguments():
            parser.add_argument(*flags, **kwargs)
    return top


def build_parser() -> argparse.ArgumentParser:
    """A fresh top-level parser with all nine subcommands, as ``jackpaths
    --help`` lists them; its ``subcommands`` attribute maps each
    subcommand name to its own parser."""
    return _parser(_COMMANDS)


def _emit(args, human: str, payload):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _v_arg(args):
    if getattr(args, "plancherel", False) or args.v is None:
        return [Fraction(1)]
    return args.v


def cmd_moments(args):
    from .paths import limit_moment, limit_moment_poly

    if args.symbolic:
        poly = limit_moment_poly(args.ell)
        print(json.dumps(poly.to_json(), sort_keys=True) if args.json else repr(poly))
        return 0
    v = _v_arg(args)
    val = limit_moment(args.ell, args.g, v)
    _emit(args, format_rational(val), {"value": format_rational(val)})
    return 0


def cmd_finite_expectation(args):
    from .paths import (depoissonized_expectation, finite_cumulant_s,
                        finite_expectation)

    if args.cumulant and args.d is not None:
        print("--cumulant takes no --d: the cumulant is the Poissonized "
              "one, with no fixed size", file=sys.stderr)
        return 2
    if args.d is not None:
        val = depoissonized_expectation(args.lengths, args.d, args.alpha,
                                        args.u, args.v)
    elif args.cumulant:
        val = finite_cumulant_s(args.lengths, args.alpha, args.u, args.v)
    else:
        val = finite_expectation(args.lengths, args.alpha, args.u, args.v)
    _emit(args, format_rational(val), {"value": format_rational(val)})
    return 0


def cmd_clt(args):
    from .paths import clt_cov, clt_mean

    if (args.mean is None) == (args.cov is None):
        raise ValueError("choose exactly one of --mean/--cov")
    if args.mean is not None:
        val = clt_mean(args.mean, args.g, args.gp, args.v)
    else:
        val = clt_cov(args.cov[0], args.cov[1], args.g, args.v)
    _emit(args, format_rational(val), {"value": format_rational(val)})
    return 0


def cmd_afp(args):
    from .paths import afp_cov, afp_mean

    if (args.mean is None) == (args.cov is None):
        raise ValueError("choose exactly one of --mean/--cov")
    if args.mean is not None:
        val = afp_mean(args.mean, args.g, args.gp, args.v, args.vp)
    else:
        val = afp_cov(args.cov[0], args.cov[1], args.g, args.v, args.vkl)
    _emit(args, format_rational(val), {"value": format_rational(val)})
    return 0


def cmd_sample(args):
    from .sampler import mean_profile, run_sampler
    from .serialize import profile_csv, profiles_svg, samples_to_jsonl

    cfg = {"variant": args.ensemble, "alpha": format_rational(args.alpha),
           "d": args.d}
    if args.K is not None:
        cfg["K"] = args.K
    if args.u is not None:
        cfg["u"] = format_rational(args.u)
    if args.v is not None:
        cfg["v"] = [format_rational(x) for x in args.v]
    run = run_sampler(cfg, seed=args.seed, count=args.n, method=args.method)
    if args.out:
        _write(args.out, samples_to_jsonl(run))
    if args.profile_csv or args.svg:
        span = 2.2 * max(float(args.alpha) ** 0.5, float(args.alpha) ** -0.5)
        grid = [-span + 2 * span * i / 400 for i in range(401)]
        pts = mean_profile(run, args.alpha, args.d, grid)
        if args.profile_csv:
            _write(args.profile_csv, profile_csv(pts))
        if args.svg:
            _write(args.svg, profiles_svg([(pts, "#cc3333")]))
    if not args.out:
        for lam in run.collected:
            print(json.dumps(lam.to_json()))
    return 0


def cmd_limit_shape(args):
    from .limitshape import plancherel_limit_shape
    from .serialize import corners_json, profile_csv, profiles_svg, shape_points

    shape = plancherel_limit_shape(args.g, n_steps=args.n_steps)
    pts = shape_points(shape)
    if args.csv:
        _write(args.csv, profile_csv(pts))
    if args.json_out:
        _write(args.json_out, corners_json(shape) + "\n")
    if args.svg:
        _write(args.svg, profiles_svg([(pts, "#3355cc")]))
    if not (args.csv or args.json_out or args.svg):
        print(corners_json(shape))
    return 0


def cmd_bessel_zeros(args):
    from .limitshape import bessel_order_zeros

    zl = bessel_order_zeros(args.g, args.n, tol=args.tol)
    if args.json:
        print(json.dumps({"zeros": zl.zeros, "edges": zl.edges}))
    else:
        for i, (z, e) in enumerate(zip(zl.zeros, zl.edges), start=1):
            print(f"l_{i} = {z:+.6f}   edge_{i} = {e:+.6f}")
    return 0


def cmd_verify(args):
    from . import _kernels
    from .sampler import usable_cpus, validate_growth
    from .verify import GROWTH_SUITES, SIZE_CAP_SUITES, SUITES, run_suites

    names = sorted(SUITES) if args.suite == ["all"] else args.suite
    for name in names:
        if name not in SUITES:
            print(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}",
                  file=sys.stderr)
            return 2
    kwargs = {}
    if args.d is not None:
        takers = [name for name in names if name in SIZE_CAP_SUITES]
        _int_arg(args.d, "--d", 1)
        if not takers:
            print(f"--d sets the size cap of {', '.join(SIZE_CAP_SUITES)} "
                  f"only; no named suite takes it", file=sys.stderr)
            return 2
        for name in takers:
            kwargs[name] = {"dmax": args.d}
    if args.out is not None:
        if "lln-low-temperature" not in names:
            print("--out sets the overlay directory of lln-low-temperature "
                  "only; no named suite takes it", file=sys.stderr)
            return 2
        # an unusable directory is refused before any suite runs
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--out: cannot make directory {args.out}: "
                             f"{exc.strerror}") from exc
        if not os.access(args.out, os.W_OK | os.X_OK):
            raise ValueError(f"--out: cannot write to directory {args.out}")
        kwargs["lln-low-temperature"] = {"out_dir": args.out}
    # with --json, stdout carries the JSON array only
    results = run_suites(names, stream=sys.stderr if args.json else None,
                         **kwargs)
    if args.json:
        entries = []
        for n, p, d, s in results:
            entry = {"suite": n, "passed": p, "detail": d, "seconds": round(s, 3)}
            if n in GROWTH_SUITES:  # which kernel ran, on how many CPUs at most
                entry["growth"] = {"backend": _kernels.BACKEND,
                                   "numba": _kernels.HAVE_NUMBA,
                                   "validated": validate_growth(),
                                   "cpus": usable_cpus()}
            entries.append(entry)
        print(json.dumps(entries))
    failures = [n for n, p, _, _ in results if not p]
    if failures:
        print(f"first failing suite: {failures[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_render(args):
    from .diagrams import AnisotropicDiagram
    from .partitions import Partition
    from .serialize import profiles_svg, shape_points

    try:
        parts = [int(x) for x in args.partition.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"--partition: expected comma-separated integer parts, "
                         f"got {args.partition!r}") from None
    shape = AnisotropicDiagram(Partition(parts), args.w, args.h).profile()
    _write(args.svg, profiles_svg([(shape_points(shape), "#cc7722")]))
    return 0


def _mean_or_cov():
    """The arguments of the --mean or --cov point of clt and afp."""
    return [
        _arg("--mean", type=int, metavar="ELL"),
        _arg("--cov", nargs=2, type=int, metavar=("K", "L")),
        _arg("--g", type=_rational, default=Fraction(0)),
        _arg("--gp", type=_rational, default=Fraction(0)),
        _arg("--v", nargs="*", type=_rational, default=[Fraction(1)]),
    ]


# name -> (run, help, arguments): the one list of each subcommand's
# arguments, made afresh (default lists and all) for each parser that
# build_parser builds with all of them, or main with the one argv names
_COMMANDS = {
    "moments": (cmd_moments, "limiting transition-measure moment", lambda: [
        _arg("--ell", type=int, required=True),
        _arg("--g", type=_rational, default=Fraction(0)),
        _arg("--v", nargs="*", type=_rational, default=None,
             help="v_1 v_2 ... (defaults to the Plancherel direction)"),
        _arg("--plancherel", action="store_true",
             help="shorthand for v = 1 0 0 ..."),
        _arg("--symbolic", action="store_true",
             help="print the sparse polynomial instead of a value"),
        _arg("--json", action="store_true"),
    ]),
    "finite-expectation": (cmd_finite_expectation, "exact ribbon-path "
                           "expectation of Boolean products", lambda: [
        _arg("--lengths", nargs="+", type=int, required=True),
        _arg("--alpha", type=_rational, required=True),
        _arg("--u", type=_rational, required=True),
        _arg("--v", nargs="*", type=_rational, default=[Fraction(1)]),
        _arg("--cumulant", action="store_true",
             help="joint cumulant of shape functionals instead"),
        _arg("--d", type=int, default=None,
             help="condition on fixed size d (falling-factorial formula)"),
        _arg("--json", action="store_true"),
    ]),
    "clt": (cmd_clt, "limiting mean shift / covariance", lambda: [
        *_mean_or_cov(),
        _arg("--json", action="store_true"),
    ]),
    "afp": (cmd_afp, "second-order formulas with character data", lambda: [
        *_mean_or_cov(),
        _arg("--vp", nargs="*", type=_rational, default=[]),
        _arg("--vkl", type=_vkl_table, default={},
             help='JSON like {"2,2": "1/3"} for the second-cumulant table'),
        _arg("--json", action="store_true"),
    ]),
    "sample": (cmd_sample, "draw random diagrams", lambda: [
        _arg("--ensemble", default="plancherel",
             choices=("plancherel", "schur_weyl", "conditional_thoma")),
        _arg("--alpha", type=_rational, default=Fraction(1)),
        _arg("--d", type=int, required=True),
        _arg("--K", type=int, default=None),
        _arg("--u", type=_rational, default=None),
        _arg("--v", nargs="*", type=_rational, default=None),
        _arg("--n", type=int, default=1),
        _arg("--seed", type=int, default=0),
        _arg("--method", choices=("exact", "growth"), default="exact"),
        _arg("--out", default=None, help="write samples as JSONL"),
        _arg("--profile-csv", default=None,
             help="write the mean scaled profile as CSV"),
        _arg("--svg", default=None, help="render the mean profile"),
    ]),
    "limit-shape": (cmd_limit_shape, "staircase limit shape", lambda: [
        _arg("--g", type=_rational, required=True),
        _arg("--n-steps", type=int, default=8),
        _arg("--csv", default=None, help="write (x, omega) samples"),
        _arg("--json-out", default=None, help="write corner coordinates"),
        _arg("--svg", default=None, help="render the staircase"),
    ]),
    "bessel-zeros": (cmd_bessel_zeros, "order-zeros of the edge function", lambda: [
        _arg("--g", type=_rational, required=True),
        _arg("-n", type=int, default=3),
        _arg("--tol", type=float, default=1e-10),
        _arg("--json", action="store_true"),
    ]),
    "verify": (cmd_verify, "run verification suites", lambda: [
        _arg("--suite", nargs="+", default=["all"]),
        _arg("--d", type=int, default=None,
             help="size cap (>= 1) of the normalization suite"),
        _arg("--out", default=None, help="directory for emitted overlays"),
        _arg("--json", action="store_true"),
    ]),
    "render": (cmd_render, "render a partition profile as SVG", lambda: [
        _arg("--partition", required=True,
             help='comma-separated parts, e.g. "4,3,1,1"'),
        _arg("--w", type=_rational, default=Fraction(1)),
        _arg("--h", type=_rational, default=Fraction(1)),
        _arg("--svg", required=True),
    ]),
}


def _named_command(argv):
    """The subcommand that ``argv`` names in one of the plain forms
    [cmd, ...], ["--config", X, cmd, ...] with X not starting with "-", or
    ["--config=X", cmd, ...]; None for any other argv."""
    if argv[:1] == ["--config"] and len(argv) > 1 and not argv[1].startswith("-"):
        rest = argv[2:]
    elif argv[:1] and argv[0].startswith("--config="):
        rest = argv[1:]
    else:
        rest = argv
    return rest[0] if rest and rest[0] in _COMMANDS else None


def _config_value(action, val):
    """A config value as the flag would give it: true or false for a
    switch; otherwise converted by the option's ``type`` (from its text as
    on the command line, JSON text for a value that is not a string) and
    checked against its ``choices``, item by item for a list-valued option;
    raises :class:`argparse.ArgumentError`."""

    def one(item):
        if action.type is not None:
            text = item if isinstance(item, str) else json.dumps(item, default=str)
            try:
                item = action.type(text)
            except argparse.ArgumentTypeError as exc:
                raise argparse.ArgumentError(action, str(exc))
            except (TypeError, ValueError):
                name = getattr(action.type, "__name__", repr(action.type))
                raise argparse.ArgumentError(
                    action, f"invalid {name} value: {text!r}")
        if action.choices is not None and item not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {item!r} (choose from {choices})")
        return item

    if action.nargs == 0:
        if not isinstance(val, bool):
            raise argparse.ArgumentError(
                action, f"expected true or false, not {val!r}")
        return val
    if action.nargs in ("*", "+") or isinstance(action.nargs, int) and action.nargs > 0:
        return [one(item) for item in (val if isinstance(val, list) else [val])]
    return one(val)


def main(argv=None) -> int:
    """Run one command.  An argv that names its subcommand in a plain form
    (see :func:`_named_command`) is parsed by a fresh parser holding that
    subcommand alone, and a usage error of its top level is reported by the
    full parser, whose usage lists every command; any other argv (help, an
    abbreviated --config, an unknown or missing command) is parsed by a
    fresh :func:`build_parser`.  The --config values become the
    subcommand's defaults and ``argv`` is parsed again, so a flag in any
    spelling argparse accepts (--alpha=2, abbreviations) overrides them."""
    if argv is None:
        argv = sys.argv[1:]
    name = _named_command(argv)
    if name is None:
        parser = build_parser()
    else:
        parser = _parser([name])
        parser.error = lambda message: build_parser().error(message)
    args = parser.parse_args(argv)
    try:
        defaults = _load_config(args.config)
        if defaults:
            command = parser.subcommands[args.command]
            actions = {action.dest: action for action in command._actions}
            values = {}
            for key, val in defaults.items():
                attr = key.replace("-", "_")
                if attr in actions:
                    try:
                        values[attr] = _config_value(actions[attr], val)
                    except argparse.ArgumentError as exc:
                        command.error(f"--config: {exc}")
            command.set_defaults(**values)
            args = parser.parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
