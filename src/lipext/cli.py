"""Batch command-line front-end.

Subcommands: extend, helly, function, monotone, gen, replay.  Reports are
written to --out (JSON or CSV); stdout stays data-free and diagnostics go to
stderr.  Every run also writes <out>.manifest.json recording the exact
argument vector and config, so `lipext replay <manifest>` reproduces the
output files byte for byte.

Exit codes: 0 success (intersecting / residuals within --tol), 1 negative
result (family does not intersect, monotonicity check fails), 2 parse error,
3 invalid input data, 4 solver non-convergence / tolerance exceeded,
5 subset-enumeration budget exceeded, 6 search-box exhaustion.
"""

import argparse
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
from .solvers import SolverConfig
from .helly import check_k_intersection, common_point, helly_verify
from .monotone import is_monotone, resolvent_eval, autoconjugacy_check
from .extension import ExtensionModel
from .gen import generate_ball_family, generate_lipschitz_data
from . import convex_functions as cf
from . import io_formats as io


def _err(msg):
    print(f"lipext: {msg}", file=sys.stderr)


def _config(args) -> SolverConfig:
    return SolverConfig(tol=min(args.tol, 1e-9), max_iters=args.max_iters, seed=args.seed)


def _write_manifest(args, outputs, started):
    manifest = {
        "subcommand": args.subcommand,
        "argv": args._argv,
        "inputs": {k: getattr(args, k) for k in args._input_fields},
        "config": {"tol": args.tol, "seed": args.seed, "max_iters": args.max_iters},
        "outputs": outputs,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    io.write_text(args.out + ".manifest.json", io.canonical_json(manifest))


def _load_json_checked(path):
    try:
        return io.load_json(path)
    except json.JSONDecodeError as exc:
        raise _ParseFailure(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise _ParseFailure(str(exc)) from exc


class _ParseFailure(Exception):
    pass


def cmd_extend(args):
    started = time.perf_counter()
    raw = _load_json_checked(args.data)
    try:
        data = io.data_from_dict(raw)
    except (KeyError, TypeError) as exc:
        raise _ParseFailure(f"{args.data}: {exc}") from exc
    try:
        queries = io.load_queries_csv(args.queries, data.m)
    except (OSError, ValueError) as exc:
        raise _ParseFailure(f"{args.queries}: {exc}") from exc
    model = ExtensionModel(data, args.method, _config(args))
    header = (
        [f"q_{i + 1}" for i in range(data.m)]
        + [f"F_{i + 1}" for i in range(data.n)]
        + ["residual"]
    )
    rows = []
    worst = 0.0
    for q in queries:
        y, residual = model.query(q)
        worst = max(worst, residual)
        rows.append(list(q) + list(np.atleast_1d(y)) + [residual])
    io.write_csv(args.out, header, rows)
    _write_manifest(args, [args.out], started)
    if worst > args.tol:
        _err(f"worst residual {worst:.3e} exceeds tol {args.tol:.3e}")
        return 4
    return 0


def cmd_helly(args):
    started = time.perf_counter()
    raw = _load_json_checked(args.family)
    try:
        family = io.family_from_dict(raw)
    except (KeyError, TypeError, FormatError) as exc:
        raise _ParseFailure(f"{args.family}: {exc}") from exc
    cfg = _config(args)
    if args.mode == "common-point":
        report = common_point(family, cfg)
    elif args.mode == "k-check":
        k = args.k if args.k is not None else family.dimension + 1
        report = check_k_intersection(family, k, cfg)
    else:
        report = helly_verify(family, cfg)
    io.write_text(args.out, io.canonical_json(io.report_to_dict(report)))
    _write_manifest(args, [args.out], started)
    return 0 if report.intersects else 1


def cmd_function(args):
    started = time.perf_counter()
    raw = _load_json_checked(args.function)
    try:
        fn = io.function_from_dict(raw, default_box=args.box)
    except (KeyError, TypeError, ValueError) as exc:
        raise _ParseFailure(f"{args.function}: {exc}") from exc
    cfg = _config(args)
    if args.eval is not None:
        try:
            pts = io.load_queries_csv(args.eval, fn.dim)
        except (OSError, ValueError) as exc:
            raise _ParseFailure(f"{args.eval}: {exc}") from exc
        header = [f"x_{i + 1}" for i in range(fn.dim)] + ["value"]
        rows = [list(p) + [cf.eval(fn, p, cfg)] for p in pts]
        io.write_csv(args.out, header, rows)
        _write_manifest(args, [args.out], started)
        return 0
    if args.duality is not None:
        raw = _load_json_checked(args.duality)
        try:
            neg_g = io.function_from_dict(raw, args.box)
        except (KeyError, TypeError, ValueError) as exc:
            raise _ParseFailure(f"{args.duality}: {exc}") from exc
        if args.box is None:
            raise _ParseFailure("--duality requires --box")
        box = cf.cube(args.box, fn.dim)
        primal, dual, gap = cf.fenchel_duality_solve(fn, neg_g, box, cfg)
        io.write_text(
            args.out,
            io.canonical_json({"primal": primal, "dual": dual, "gap": gap}),
        )
        _write_manifest(args, [args.out], started)
        if abs(gap) > max(args.tol, 1e-5):
            _err(f"duality gap {gap:.3e} exceeds tolerance")
            return 4
        return 0
    # --conjugate-check: biconjugation gap on an interior sample grid
    if args.box is None:
        raise _ParseFailure("--conjugate-check requires --box")
    primal_box = cf.cube(args.box, fn.dim)
    inner = cf.cube(0.5 * args.box, fn.dim)
    samples = [p for p in inner.grid(3) if cf.eval(fn, p, cfg) != cf.INF]
    gap = cf.biconjugate_check(
        fn, samples, cfg, primal_box=primal_box, dual_box=primal_box
    )
    io.write_text(
        args.out, io.canonical_json({"max_gap": gap, "samples": len(samples)})
    )
    _write_manifest(args, [args.out], started)
    if gap > max(args.tol, 1e-5):
        _err(f"biconjugation gap {gap:.3e} exceeds tolerance")
        return 4
    return 0


def cmd_monotone(args):
    started = time.perf_counter()
    raw = _load_json_checked(args.graph)
    try:
        T = io.graph_from_dict(raw)
    except (KeyError, TypeError, IndexError) as exc:
        raise _ParseFailure(f"{args.graph}: {exc}") from exc
    _config(args)  # rejects a bad --tol or --max-iters (exit 3)
    if args.check:
        rep = is_monotone(T)
        io.write_text(
            args.out,
            io.canonical_json(
                {
                    "monotone": rep.passed,
                    "worst_value": None if rep.worst_pair is None else rep.worst_value,
                    "worst_pair": None
                    if rep.worst_pair is None
                    else list(rep.worst_pair),
                }
            ),
        )
        _write_manifest(args, [args.out], started)
        return 0 if rep.passed else 1
    if args.resolvent is not None:
        try:
            queries = io.load_queries_csv(args.resolvent, T.dim)
        except (OSError, ValueError) as exc:
            raise _ParseFailure(f"{args.resolvent}: {exc}") from exc
        header = (
            [f"x_{i + 1}" for i in range(T.dim)]
            + [f"y_{i + 1}" for i in range(T.dim)]
            + ["residual"]
        )
        rows = []
        worst = 0.0
        for q in queries:
            y, residual = resolvent_eval(T, q)
            worst = max(worst, residual)
            rows.append(list(q) + list(y) + [residual])
        io.write_csv(args.out, header, rows)
        _write_manifest(args, [args.out], started)
        if worst > args.tol:
            _err(f"worst resolvent residual {worst:.3e} exceeds tol")
            return 4
        return 0
    try:
        samples = io.load_queries_csv(args.autoconjugacy, 2 * T.dim)
    except (OSError, ValueError) as exc:
        raise _ParseFailure(f"{args.autoconjugacy}: {exc}") from exc
    gap = autoconjugacy_check(T, samples)
    io.write_text(
        args.out, io.canonical_json({"max_gap": gap, "samples": len(samples)})
    )
    _write_manifest(args, [args.out], started)
    if gap > max(args.tol, 1e-4):
        _err(f"autoconjugacy gap {gap:.3e} exceeds tolerance")
        return 4
    return 0


def cmd_gen(args):
    started = time.perf_counter()
    if args.kind == "lipschitz-data":
        data = generate_lipschitz_data(args.m, args.n, args.count, args.seed)
        io.write_text(args.out, io.canonical_json(io.data_to_dict(data)))
    else:
        family = generate_ball_family(args.n, args.count, args.seed, args.mode)
        io.write_text(args.out, io.canonical_json(io.family_to_dict(family)))
    _write_manifest(args, [args.out], started)
    return 0


def cmd_replay(args):
    manifest = _load_json_checked(args.manifest)
    argv = manifest.get("argv")
    if not isinstance(argv, list):
        raise _ParseFailure(f"{args.manifest}: manifest carries no argv")
    return main(argv)


def _add_common(p, out_required=True):
    p.add_argument("--tol", type=float, default=1e-6, help="residual acceptance tolerance")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed for any randomness")
    p.add_argument("--max-iters", dest="max_iters", type=int, default=200_000)
    p.add_argument("--out", required=out_required, help="output report path")


def build_parser():
    parser = argparse.ArgumentParser(
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
    p.set_defaults(func=cmd_replay, _input_fields=())
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args)
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
