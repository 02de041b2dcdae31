"""Batch command-line front-end.

Subcommands: extend, helly, function, monotone, gen, replay.  Reports are
written to --out (JSON or CSV); stdout stays data-free and diagnostics go to
stderr.  A run that writes its report (exit 0, 1, or 4 for a tolerance) also
writes <out>.manifest.json recording the exact argument vector and config, so
`lipext replay <manifest>` reproduces the output files byte for byte.  No
manifest is written on exits 2, 3, 5, 6 or a solver-cap 4, and replay writes
none of its own.

Exit codes: 0 success (intersecting / residuals within --tol), 1 negative
result (family does not intersect, monotonicity check fails), 2 parse error,
3 invalid input data, 4 solver non-convergence / tolerance exceeded,
5 subset-enumeration budget exceeded (only `helly --mode k-check`; verify
decides any family without enumerating subsets), 6 search-box exhaustion.
--tol is read by extend, function and monotone, not by helly (it classifies at
1e-6) or gen.
"""

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    BoxExhaustionError,
    DataConsistencyError,
    DimensionMismatchError,
    EnumerationGuardError,
    FormatError,
    ImproperFunctionError,
    ModulusViolationError,
    SolverCapError,
)
from .helly import check_k_intersection, common_point, helly_verify
from .monotone import is_monotone, resolvent_eval, autoconjugacy_check
from .extension import ExtensionModel
from .gen import generate_ball_family, generate_lipschitz_data
from . import convex_functions as cf
from . import io_formats as io


def _err(msg):
    print(f"lipext: {msg}", file=sys.stderr)


def _write_manifest(args, started):
    manifest = {
        "subcommand": args.subcommand,
        "argv": args._argv,
        "inputs": {k: getattr(args, k) for k in args._input_fields},
        "config": {"tol": args.tol, "seed": args.seed},
        "outputs": [args.out],
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    io.write_json(args.out + ".manifest.json", manifest)


class _ParseFailure(Exception):
    pass


def _parse(path, build, errors):
    """build(JSON document at path); a bad file or one of `errors` is exit 2."""
    try:
        raw = io.load_json(path)
    except json.JSONDecodeError as exc:
        raise _ParseFailure(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise _ParseFailure(str(exc)) from exc
    except ValueError as exc:  # not UTF-8, or an integer literal too long
        raise _ParseFailure(f"{path}: {exc}") from exc
    try:
        return build(raw)
    except errors as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc


def _points(path, dim):
    try:
        return io.load_queries_csv(path, dim)
    except (OSError, ValueError) as exc:
        raise _ParseFailure(f"{path}: {exc}") from exc


def _within(value, tol, message):
    """Exit code 0, or 4 with message on stderr when value exceeds tol."""
    if value > tol:
        _err(message)
        return 4
    return 0


def _residual_rows(out, header, queries, solve):
    """Write one row per query (q, solve(q)'s point, residual); worst residual."""
    rows = []
    worst = 0.0
    for q in queries:
        y, residual = solve(q)
        worst = max(worst, residual)
        rows.append(list(q) + list(np.atleast_1d(y)) + [residual])
    io.write_csv(out, header + ["residual"], rows)
    return worst


def cmd_extend(args):
    data = _parse(args.data, io.data_from_dict, (KeyError, TypeError))
    queries = _points(args.queries, data.m)
    model = ExtensionModel(data, args.method)
    header = [f"q_{i + 1}" for i in range(data.m)] + [
        f"F_{i + 1}" for i in range(data.n)
    ]
    worst = _residual_rows(args.out, header, queries, model.query)
    return _within(
        worst, args.tol, f"worst residual {worst:.3e} exceeds tol {args.tol:.3e}"
    )


def cmd_helly(args):
    family = _parse(
        args.family, io.family_from_dict, (KeyError, TypeError, FormatError)
    )
    if args.mode == "common-point":
        report = common_point(family)
    elif args.mode == "k-check":
        k = args.k if args.k is not None else family.dimension + 1
        report = check_k_intersection(family, k)
    else:
        report = helly_verify(family)
    io.write_json(args.out, io.report_to_dict(report))
    return 0 if report.intersects else 1


def cmd_function(args):
    build = functools.partial(io.function_from_dict, default_box=args.box)
    errors = (KeyError, TypeError, ValueError)
    fn = _parse(args.function, build, errors)
    if args.eval is not None:
        pts = _points(args.eval, fn.dim)
        header = [f"x_{i + 1}" for i in range(fn.dim)] + ["value"]
        rows = [list(p) + [cf.eval(fn, p)] for p in pts]
        io.write_csv(args.out, header, rows)
        return 0
    if args.duality is not None:
        neg_g = _parse(args.duality, build, errors)
        if args.box is None:
            raise _ParseFailure("--duality requires --box")
        box = cf.cube(args.box, fn.dim)
        primal, dual, gap = cf.fenchel_duality_solve(fn, neg_g, box)
        io.write_json(args.out, {"primal": primal, "dual": dual, "gap": gap})
        return _within(
            abs(gap), max(args.tol, 1e-5), f"duality gap {gap:.3e} exceeds tolerance"
        )
    # --conjugate-check: biconjugation gap on an interior sample grid
    if args.box is None:
        raise _ParseFailure("--conjugate-check requires --box")
    primal_box = cf.cube(args.box, fn.dim)
    inner = cf.cube(0.5 * args.box, fn.dim)
    samples = [p for p in inner.grid(3) if cf.eval(fn, p) != cf.INF]
    gap = cf.biconjugate_check(fn, samples, primal_box=primal_box, dual_box=primal_box)
    io.write_json(args.out, {"max_gap": gap, "samples": len(samples)})
    return _within(
        gap, max(args.tol, 1e-5), f"biconjugation gap {gap:.3e} exceeds tolerance"
    )


def cmd_monotone(args):
    T = _parse(args.graph, io.graph_from_dict, (KeyError, TypeError, IndexError))
    if args.check:
        rep = is_monotone(T)
        io.write_json(
            args.out,
            {
                "monotone": rep.passed,
                "worst_value": None if rep.worst_pair is None else rep.worst_value,
                "worst_pair": None if rep.worst_pair is None else list(rep.worst_pair),
            },
        )
        return 0 if rep.passed else 1
    if args.resolvent is not None:
        queries = _points(args.resolvent, T.dim)
        header = [f"x_{i + 1}" for i in range(T.dim)] + [
            f"y_{i + 1}" for i in range(T.dim)
        ]
        worst = _residual_rows(
            args.out, header, queries, lambda q: resolvent_eval(T, q)
        )
        return _within(
            worst, args.tol, f"worst resolvent residual {worst:.3e} exceeds tol"
        )
    samples = _points(args.autoconjugacy, 2 * T.dim)
    gap = autoconjugacy_check(T, samples)
    io.write_json(args.out, {"max_gap": gap, "samples": len(samples)})
    return _within(
        gap, max(args.tol, 1e-4), f"autoconjugacy gap {gap:.3e} exceeds tolerance"
    )


def cmd_gen(args):
    if args.kind == "lipschitz-data":
        data = generate_lipschitz_data(args.m, args.n, args.count, args.seed)
        io.write_json(args.out, io.data_to_dict(data))
    else:
        family = generate_ball_family(args.n, args.count, args.seed, args.mode)
        io.write_json(args.out, io.family_to_dict(family))
    return 0


class _ArgvParser(argparse.ArgumentParser):
    """A parser whose rejection of an argv is a TypeError, not usage text
    and an exit."""

    def error(self, message):
        raise TypeError(message)


def _replay_argv(manifest):
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not isinstance(argv, list):
        raise TypeError("manifest carries no argv")
    if not all(isinstance(a, str) for a in argv):
        raise TypeError("manifest argv holds a non-string")
    if build_parser(_ArgvParser).parse_args(argv).subcommand == "replay":
        raise TypeError("manifest replays a manifest")
    return argv


def cmd_replay(args):
    return main(_parse(args.manifest, _replay_argv, (TypeError,)))


def _add_common(p):
    p.add_argument("--tol", type=float, default=1e-6, help="residual acceptance tolerance")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed for any randomness")
    p.add_argument("--out", required=True, help="output report path")


def build_parser(parser_class=argparse.ArgumentParser):
    parser = parser_class(
        prog="lipext",
        description="Lipschitz extension and convex-analysis toolbox",
    )
    parser.add_argument("--version", action="version", version=f"lipext {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("extend", help="extend finite Lipschitz data at query points")
    p.add_argument("--data", required=True, help="data.json")
    p.add_argument("--queries", required=True, help="CSV of query points")
    p.add_argument(
        "--method",
        required=True,
        choices=["minimax", "proxavg", "mcshane", "coordinatewise"],
    )
    _add_common(p)
    p.set_defaults(func=cmd_extend, _input_fields=("data", "queries", "method"))

    p = sub.add_parser("helly", help="intersection checks for convex body families")
    p.add_argument("--family", required=True, help="family.json")
    p.add_argument(
        "--mode", default="verify", choices=["verify", "common-point", "k-check"]
    )
    p.add_argument("--k", type=int, default=None, help="subset size for k-check")
    _add_common(p)
    p.set_defaults(func=cmd_helly, _input_fields=("family", "mode", "k"))

    p = sub.add_parser("function", help="evaluate or check convex function trees")
    p.add_argument("--function", required=True, help="function.json")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--eval", default=None, help="CSV of evaluation points")
    g.add_argument("--conjugate-check", action="store_true")
    g.add_argument("--duality", default=None, help="function.json holding -g")
    p.add_argument(
        "--box",
        type=float,
        default=None,
        help="uniform search-box half-width for nodes without one",
    )
    _add_common(p)
    p.set_defaults(
        func=cmd_function, _input_fields=("function", "eval", "duality", "box")
    )

    p = sub.add_parser("monotone", help="monotone operator graph computations")
    p.add_argument("--graph", required=True, help="graph.json")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--check", action="store_true")
    g.add_argument("--resolvent", default=None, help="CSV of query points")
    g.add_argument("--autoconjugacy", default=None, help="CSV of R^(2n) samples")
    _add_common(p)
    p.set_defaults(
        func=cmd_monotone, _input_fields=("graph", "resolvent", "autoconjugacy")
    )

    p = sub.add_parser("gen", help="generate deterministic datasets")
    p.add_argument("--kind", required=True, choices=["lipschitz-data", "ball-family"])
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--count", type=int, default=10)
    p.add_argument(
        "--mode", default="common-core", choices=["common-core", "disjoint-pair"]
    )
    _add_common(p)
    p.set_defaults(func=cmd_gen, _input_fields=("kind", "m", "n", "count", "mode"))

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args._argv = list(argv)
    try:
        if args.subcommand != "replay" and not args.tol > 0:
            raise ValueError("tol must be positive")
        code = args.func(args)
        if args.subcommand != "replay":  # the replayed run wrote its own
            _write_manifest(args, started)
        return code
    except _ParseFailure as exc:
        _err(f"parse error: {exc}")
        return 2
    except (DataConsistencyError, ModulusViolationError) as exc:
        _err(f"invalid data: {exc}")
        return 3
    except (BoxExhaustionError, ImproperFunctionError) as exc:
        _err(f"box exhaustion: {exc}")
        return 6
    except SolverCapError as exc:
        _err(f"solver non-convergence: {exc}")
        return 4
    except EnumerationGuardError as exc:
        _err(str(exc))
        return 5
    except (DimensionMismatchError, ValueError) as exc:
        _err(f"invalid data: {exc}")
        return 3
    except OSError as exc:
        _err(f"parse error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
