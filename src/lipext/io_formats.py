"""File formats shared by the CLI, tests, and demos.

data.json      {"m": int, "n": int, "L": number|null,
                "points": [[...]], "values": [[...]]}
graph.json     {"n": int, "pairs": [[[x...], [xstar...]], ...],
                "multi_valued": bool?}     # JSON true/false, default false
family.json    {"n": int, "bodies": [{"kind": "ball", "center": [...],
                "radius": r} | {"kind": "polytope", "vertices": [[...]]}]}
function.json  expression tree of nodes tagged by "node":
                 {"node": "quadratic", "n": int}
                 {"node": "max_affine", "slopes": [[...]], "offsets": [...]}
                 {"node": "indicator", "body": <body>}
                 {"node": "kappa", "n": int}          # acts on R^n x R^n
                 {"node": "sum", "children": [...], "coefficients": [...]}
                 {"node": "scale" | "epi_scale", "factor": x, "child": ...}
                 {"node": "translate", "shift": [...], "slope": [...],
                  "offset": x, "child": ...}
                 {"node": "conjugate", "child": ..., "box": <box>?}
                 {"node": "inf_conv" | "prox_avg", "left": ..., "right": ...,
                  "box": <box>}
               with <box> = {"lo": [...], "hi": [...]}; each int is a JSON
               integer >= 1, each other number a JSON int or float, no bool.
Queries/samples are headerless CSV, one point per row, comma-separated.

JSON output is canonical (sorted keys, 2-space indent, trailing newline) and
CSV floats use repr, so identical runs produce byte-identical files.
"""

import json

import numpy as np

from .errors import FormatError
from .geometry import Ball, Polytope
from .helly import BodyFamily, IntersectionReport
from .monotone import OperatorGraph
from .extension import FiniteMapData
from . import convex_functions as cf


def write_json(path, obj):
    write_text(path, json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n")


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    write_text(path, "\n".join(lines) + "\n")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_queries_csv(path, dim=None) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            rows.append(row)
    if not rows:
        raise ValueError("no query rows found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"inconsistent row widths: {sorted(widths)}")
    arr = np.asarray(rows, dtype=float)
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"expected {dim} columns, found {arr.shape[1]}")
    return arr


def data_to_dict(data: FiniteMapData) -> dict:
    return {
        "m": data.m,
        "n": data.n,
        "L": data.L,
        "points": data.points.tolist(),
        "values": data.values.tolist(),
    }


def _count(d, field, where=""):
    """d[field] when it is a JSON integer of at least 1, else a TypeError
    naming the field: int() would read 2.9 as 2 and true as 1."""
    value = d[field]
    if type(value) is not int or value < 1:
        raise TypeError(f"{where}{field} must be an integer >= 1, got {value!r}")
    return value


def _numbers(d, field, where=""):
    """d[field] as a float array when it is a JSON number or nested lists of
    them, else a TypeError naming the field: np.asarray would read "1" and
    true as 1.0.  A bool is no number here, though Python's bool is an int."""
    items = [d[field]]
    for item in items:  # each list met appends its entries
        if isinstance(item, list):
            items.extend(item)
        elif type(item) not in (int, float):
            raise TypeError(f"{where}{field} holds {item!r}, not a JSON number")
    return np.asarray(d[field], dtype=float)


def _number(d, field, where=""):
    """d[field] as a float when it is one JSON number, else a TypeError."""
    if isinstance(d[field], list):
        raise TypeError(f"{where}{field} holds {d[field]!r}, not a JSON number")
    return float(_numbers(d, field, where))


def data_from_dict(d) -> FiniteMapData:
    m, n = _count(d, "m"), _count(d, "n")
    points, values = _numbers(d, "points"), _numbers(d, "values")
    if points.ndim != 2 or points.shape[1] != m:
        raise ValueError("points do not match the declared m")
    if values.ndim != 2 or values.shape[1] != n:
        raise ValueError("values do not match the declared n")
    return FiniteMapData(points, values, None if d.get("L") is None else _number(d, "L"))


def graph_from_dict(d) -> OperatorGraph:
    n, pairs = _count(d, "n"), d["pairs"]
    _numbers(d, "pairs")
    pts = np.asarray([p[0] for p in pairs], dtype=float)
    vals = np.asarray([p[1] for p in pairs], dtype=float)
    if pts.size != len(pairs) * n or vals.size != len(pairs) * n:
        raise ValueError("pairs do not match the declared n")
    multi = d.get("multi_valued", False)
    if not isinstance(multi, bool):
        raise TypeError(f"multi_valued must be true or false, got {multi!r}")
    return OperatorGraph(pts.reshape(-1, n), vals.reshape(-1, n), multi_valued=multi)


def body_to_dict(body) -> dict:
    if isinstance(body, Ball):
        return {"kind": "ball", "center": body.center.tolist(), "radius": body.radius}
    return {"kind": "polytope", "vertices": body.vertices.tolist()}


def body_from_dict(d):
    if d["kind"] == "ball":
        return Ball(_numbers(d, "center", "ball: "), _number(d, "radius", "ball: "))
    if d["kind"] == "polytope":
        return Polytope(_numbers(d, "vertices", "polytope: "))
    raise FormatError(f"unknown body kind {d['kind']!r}")


def family_to_dict(family: BodyFamily) -> dict:
    return {"n": family.dimension, "bodies": [body_to_dict(b) for b in family.bodies]}


def family_from_dict(d) -> BodyFamily:
    n, family = _count(d, "n"), BodyFamily([body_from_dict(b) for b in d["bodies"]])
    if family.dimension != n:
        raise ValueError("bodies do not match the declared n")
    return family


def report_to_dict(rep: IntersectionReport) -> dict:
    return {
        "intersects": rep.intersects,
        "witness": None if rep.witness is None else np.asarray(rep.witness).tolist(),
        "residual": rep.residual,
        "violating_subset": rep.violating_subset,
    }


def box_from_dict(d) -> cf.Box:
    return cf.Box(_numbers(d, "lo", "box: "), _numbers(d, "hi", "box: "))


def _finite(d, field, value):
    """value, or a ValueError naming the node and field when it holds a NaN
    or an infinity, which Python's json reads from NaN and Infinity."""
    if not np.isfinite(value).all():
        raise ValueError(f"{d['node']} node: {field} must be finite")
    return value


def function_from_dict(d, default_box=None):
    """Build an expression tree; default_box supplies missing search boxes."""
    node = d["node"]
    where = f"{node} node: "
    if node == "quadratic":
        return cf.Quadratic(_count(d, "n", where))
    if node == "max_affine":
        return cf.MaxAffine(
            _finite(d, "slopes", _numbers(d, "slopes", where)),
            _finite(d, "offsets", _numbers(d, "offsets", where)),
        )
    if node == "indicator":
        return cf.Indicator(body_from_dict(d["body"]))
    if node == "kappa":
        return cf.Kappa(_count(d, "n", where))
    if node == "sum":
        return cf.Sum(
            tuple(function_from_dict(c, default_box) for c in d["children"]),
            _finite(d, "coefficients", tuple(_numbers(d, "coefficients", where).tolist())),
        )
    if node == "scale" or node == "epi_scale":
        build = cf.Scale if node == "scale" else cf.EpiScale
        return build(
            _finite(d, "factor", _number(d, "factor", where)),
            function_from_dict(d["child"], default_box),
        )
    if node == "translate":
        return cf.Translate(
            _numbers(d, "shift", where),
            _numbers(d, "slope", where),
            _finite(d, "offset", _number(d, "offset", where)),
            function_from_dict(d["child"], default_box),
        )
    if node == "conjugate":
        child = function_from_dict(d["child"], default_box)
        box = _resolve_box(d, child.dim, default_box)
        return cf.conjugate(child, box)
    if node == "inf_conv":
        left = function_from_dict(d["left"], default_box)
        right = function_from_dict(d["right"], default_box)
        return cf.InfConv(left, right, _require_box(d, left.dim, default_box))
    if node == "prox_avg":
        left = function_from_dict(d["left"], default_box)
        right = function_from_dict(d["right"], default_box)
        return cf.ProxAvg(left, right, _require_box(d, left.dim, default_box))
    raise FormatError(f"unknown function node {node!r}")


def _resolve_box(d, dim, default_box):
    if "box" in d and d["box"] is not None:
        return box_from_dict(d["box"])
    if default_box is not None:
        return cf.cube(default_box, dim)
    return None


def _require_box(d, dim, default_box):
    box = _resolve_box(d, dim, default_box)
    if box is None:
        raise ValueError(f"node {d['node']!r} requires a search box (or --box)")
    return box
