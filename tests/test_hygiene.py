"""Static checks on the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lipext"


def cfg_parameters(source):
    """Names of the functions in source that take a parameter named `cfg`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            if any(a.arg == "cfg" for a in params):
                out.append(getattr(node, "name", "<lambda>"))
    return out


def test_no_function_takes_cfg():
    # Solver tolerances and caps are module constants; nothing threads a config.
    root = SRC.parents[1]
    takes = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := cfg_parameters(path.read_text()))
    }
    assert takes == {}
    mentions = [
        str(path.relative_to(root))
        for folder in ("src", "demos", "bench")
        for path in sorted((root / folder).rglob("*.py"))
        if "SolverConfig" in path.read_text()
    ]
    assert mentions == []


def test_scan_flags_a_cfg_parameter():
    source = (
        "def positional(x, cfg=None):\n"
        "    return x\n"
        "def keyword(x, *, cfg):\n"
        "    return x\n"
        "def config(x, config=None):\n"
        "    return x\n"
        "def outer(x):\n"
        "    f = lambda cfg: cfg\n"
        "    return f(x)\n"
    )
    assert cfg_parameters(source) == ["positional", "keyword", "<lambda>"]


MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _is_mutable_container(value):
    return isinstance(
        value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ) or (
        isinstance(value, ast.Call)
        and getattr(value.func, "id", getattr(value.func, "attr", None)) in MUTABLE_CALLS
    )


def module_level_caches(source):
    """Names bound to a mutable container at module or class level (a class
    attribute is shared by every instance), and functions decorated with
    functools' lru_cache or cache."""
    out = []
    tree = ast.parse(source)
    scopes = [("", tree)] + [
        (node.name + ".", node) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    for prefix, scope in scopes:
        for node in scope.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _is_mutable_container(node.value):
                out += [prefix + ast.unparse(t) for t in targets]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                func = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(func, "id", getattr(func, "attr", None)) in ("lru_cache", "cache"):
                    out.append(node.name)
    return out


def test_no_module_level_cache():
    # Memos live on the objects that own their data and are freed with them.
    held = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := module_level_caches(path.read_text()))
    }
    assert held == {}


def test_scan_flags_a_module_level_cache():
    source = (
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "from collections import defaultdict\n"
        "TOL = 1e-9\n"
        "PAIR = (1, 2)\n"
        "_MEMO = {}\n"
        "SEEN: list = []\n"
        "BY_ID = defaultdict(list)\n"
        "SQUARES = {i: i * i for i in range(3)}\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def cached(x):\n"
        "    local = {}\n"
        "    return x\n"
        "@cache\n"
        "def bare(x):\n"
        "    return x\n"
        "class Node:\n"
        "    __slots__ = ('memo',)\n"
        "    table = {}\n"
        "    @cached_property\n"
        "    def owned(self):\n"
        "        return {}\n"
    )
    assert module_level_caches(source) == [
        "_MEMO", "SEEN", "BY_ID", "SQUARES", "Node.table", "cached", "bare",
    ]


def unused_imports(source):
    """Names that source imports and never mentions again."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # __init__.py imports only to re-export, so its names are the package API.
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert unused == {}


def test_scan_flags_an_unused_import():
    source = (
        "import os\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from dataclasses import dataclass, field\n"
        "from functools import cached_property as cp\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int = np.int64(0)\n"
        "    y = cp(lambda self: xml.dom)\n"
    )
    assert unused_imports(source) == ["field", "os"]


def defined_names(source):
    """Functions, classes and methods that source defines, dunders excluded."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def referenced_names(source):
    """Every name, attribute and whole string constant in source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def dead_definitions(defining, referencing):
    """Names defined in the defining sources that no referencing source uses."""
    defined = set().union(*map(defined_names, defining))
    used = set().union(*map(referenced_names, referencing))
    return sorted(defined - used)


def test_every_definition_is_referenced():
    root = SRC.parents[1]
    everywhere = [
        path.read_text()
        for folder in ("src", "tests", "demos", "bench")
        for path in sorted((root / folder).rglob("*.py"))
    ]
    library = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert dead_definitions(library, everywhere) == []


def test_scan_flags_an_unreferenced_definition():
    source = (
        "class Used:\n"
        "    def method(self):\n"
        "        return helper()\n"
        "    def orphan(self):\n"
        "        return 0\n"
        "    def __repr__(self):\n"
        "        return 'the orphan'\n"
        "def helper():\n"
        "    return getattr(Used, 'by_string')\n"
        "def by_string():\n"
        "    pass\n"
        "def unused():\n"
        "    pass\n"
    )
    assert dead_definitions([source], [source, "Used().method()\n"]) == [
        "orphan",
        "unused",
    ]


def uncalled_exports(init_source, module, sources):
    """Names that init_source imports from .module and no source references."""
    exported = {
        alias.name
        for node in ast.walk(ast.parse(init_source))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
        for alias in node.names
    }
    return sorted(exported - set().union(set(), *map(referenced_names, sources)))


def test_every_exported_solver_is_called_by_the_library():
    # No exported solver that the library itself never calls, and no trace
    # of the retired Polyak subgradient method.
    others = [
        path.read_text()
        for path in sorted(SRC.glob("*.py"))
        if path.name not in ("__init__.py", "solvers.py")
    ]
    assert uncalled_exports((SRC / "__init__.py").read_text(), "solvers", others) == []
    root = SRC.parents[1]
    mentions = [
        str(path.relative_to(root))
        for folder in ("src", "demos", "bench")
        for path in sorted((root / folder).rglob("*.py"))
        if "polyak" in path.read_text().lower()
    ]
    assert mentions == []


def test_scan_flags_an_uncalled_export():
    init = (
        "from .solvers import called, uncalled as alias\n"
        "from .geometry import elsewhere\n"
        "from solvers import absolute\n"
    )
    assert uncalled_exports(init, "solvers", ["x = called(1)\n"]) == ["uncalled"]


def _expands_axis(node):
    """True for a subscript whose index holds a None, such as X[:, None]."""
    index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(isinstance(i, ast.Constant) and i.value is None for i in index)


def dense_pair_differences(source):
    """Dense pair-difference arrays of an array against itself or another,
    such as X[:, None, :] - X[None, :, :] or P[:, None, :] - C[None, :, :],
    written as in source."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and all(isinstance(side, ast.Subscript) for side in (node.left, node.right))
        and ast.unparse(node.left.slice) != ast.unparse(node.right.slice)
        and _expands_axis(node.left)
        and _expands_axis(node.right)
    ]


def test_no_dense_self_pair_difference():
    # Pair scans go through geometry.pairwise, in blocks of bounded memory.
    dense = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := dense_pair_differences(path.read_text()))
    }
    assert dense == {}


def test_scan_flags_a_dense_self_pair_difference():
    source = (
        "d = pts[:, None, :] - pts[None, :, :]\n"
        "e = x[None] - x[:, None]\n"
        "f = P[:, None, :] - centers[None, :, :]\n"
        "g = s[:, None] + s[None, :]\n"
        "h = X[:, None] - X[:, None]\n"
        "k = X[1:] - X[0]\n"
    )
    assert dense_pair_differences(source) == [
        "pts[:, None, :] - pts[None, :, :]", "x[None] - x[:, None]",
        "P[:, None, :] - centers[None, :, :]",
    ]


def _defaulted_parameters(source):
    """(callee name, parameter, position in a call or None if keyword-only)
    for each defaulted parameter in source; a method's position skips self,
    and an __init__ is called by its class's name."""
    tree = ast.parse(source)
    owner = {
        id(fn): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        bound = id(node) in owner and not any(
            getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
        )
        name = owner[id(node)] if bound and node.name == "__init__" else node.name
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first:], first):
            out.append((name, a.arg, i - bound))
        for a, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out.append((name, a.arg, None))
    return out


def unset_parameters(defining, calling):
    """"function.parameter" for each defaulted parameter in the defining
    sources that no call in the calling sources passes, by position or by
    keyword.  A call with *args passes every position, one with **kwargs
    every keyword."""
    calls = {}
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append((
                    float("inf") if starred else len(node.args),
                    {k.arg for k in node.keywords},
                ))
    return sorted(
        f"{name}.{param}"
        for source in defining
        for name, param, index in _defaulted_parameters(source)
        if not any(
            (index is not None and count > index) or param in keys or None in keys
            for count, keys in calls.get(name, [])
        )
    )


def test_every_defaulted_parameter_is_set_by_some_call():
    # A default that no caller overrides is a constant, not a parameter.
    root = SRC.parents[1]
    everywhere = [
        path.read_text()
        for folder in ("src", "tests", "demos", "bench")
        for path in sorted((root / folder).rglob("*.py"))
    ]
    library = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unset_parameters(library, everywhere) == []


def test_scan_flags_an_unset_parameter():
    source = (
        "def by_position(x, scale=1.0, shift=0.0):\n"
        "    return scale * x + shift\n"
        "def by_keyword(x, *, tol=1e-9, cap=None):\n"
        "    return x\n"
        "def splatted(x, a=0, *, b=1):\n"
        "    return x\n"
        "class Node:\n"
        "    def __init__(self, child, box=None):\n"
        "        self.child = child\n"
        "    def eval(self, x, strict=False):\n"
        "        return x\n"
        "    @staticmethod\n"
        "    def make(x, fast=True):\n"
        "        return x\n"
        "by_position(1.0, 2.0)\n"
        "by_keyword(1.0, tol=1e-6)\n"
        "splatted(*xs, **kw)\n"
        "Node(None).eval(1.0, True)\n"
        "Node.make(1.0, False)\n"
    )
    assert unset_parameters([source], [source]) == [
        "Node.box", "by_keyword.cap", "by_position.shift",
    ]


def lstsq_callers(source):
    """Top-level functions of source whose body calls lstsq."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "lstsq"
            for n in ast.walk(node)
        )
    ]


def test_solve_qp_refactors_nothing_by_lstsq():
    # solve_qp reads its multipliers off each working set's own SVD; lstsq
    # only restores the equalities.  chebyshev_center's lstsq is its final
    # Gauss-Newton step over the balls tight at y, not a working set.
    source = (SRC / "solvers.py").read_text()
    assert lstsq_callers(source) == ["chebyshev_center", "_restore_equalities"]


def test_scan_flags_an_lstsq_call():
    source = (
        "def _restore_equalities(A, r):\n"
        "    return np.linalg.lstsq(A, r, rcond=None)[0]\n"
        "def _drop_row(C, g):\n"
        "    def inner():\n"
        "        return lstsq(C.T, -g)\n"
        "    return inner()\n"
        "def _direction(Z, g):\n"
        "    return Z @ -(Z.T @ g)\n"
    )
    assert lstsq_callers(source) == ["_restore_equalities", "_drop_row"]


def nested_box_searches(source):
    """Qualified names of the functions nested in another function that call
    _inner_minimize: a box search run inside another search's objective."""
    out = []

    def visit(node, prefix, in_function):
        for child in ast.iter_child_nodes(node):
            if not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
            ):
                visit(child, prefix, in_function)
                continue
            name = prefix + getattr(child, "name", "<lambda>")
            is_function = not isinstance(child, ast.ClassDef)
            if in_function and is_function and any(
                isinstance(n, ast.Call)
                and getattr(n.func, "id", getattr(n.func, "attr", None)) == "_inner_minimize"
                for n in ast.walk(child)
            ):
                out.append(name)
            visit(child, name + ".", in_function or is_function)

    visit(ast.parse(source), "", False)
    return out


def test_no_nested_box_search():
    # One conjugate engine: an objective that needs a conjugate evaluates a
    # conjugate node and never runs a box search of its own per probe.
    nested = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := nested_box_searches(path.read_text()))
    }
    assert nested == {}


def test_scan_flags_a_nested_box_search():
    source = (
        "def top(f, box):\n"
        "    return _inner_minimize(f, box)\n"
        "def outer(f, box):\n"
        "    def probe(y):\n"
        "        return cf._inner_minimize(f, box)\n"
        "    def clean(y):\n"
        "        return f(y)\n"
        "    g = lambda y: _inner_minimize(f, box)\n"
        "    return probe, clean, g\n"
        "class Node:\n"
        "    def method(self, f, box):\n"
        "        def inner():\n"
        "            return _inner_minimize(f, box)\n"
        "        return _inner_minimize(f, box), inner\n"
    )
    assert nested_box_searches(source) == [
        "outer.probe", "outer.<lambda>", "Node.method.inner",
    ]


def unnamed_qp_calls(source):
    """Line numbers of the solve_qp calls in source that pass no name=."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "solve_qp"
        and not any(kw.arg == "name" for kw in node.keywords)
    ]


def test_every_solve_qp_call_names_its_qp():
    # The cap and unbounded messages name the QP that raised, so every call
    # in the library passes name=.
    unnamed = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := unnamed_qp_calls(path.read_text()))
    }
    assert unnamed == {}


def test_scan_flags_an_unnamed_qp_call():
    source = (
        "def named(P, q):\n"
        "    return solve_qp(P, q, name='simplex QP')\n"
        "def bare(P, q):\n"
        "    return solve_qp(P, q)\n"
        "def attribute(P, q):\n"
        "    return solvers.solve_qp(P, q, memo={})\n"
        "def spread(P, q, **kwargs):\n"
        "    return solve_qp(P, q, **kwargs)\n"
        "def solve_qp(P, q, name='QP'):\n"
        "    return solve_qp_other(P, q)\n"
    )
    assert unnamed_qp_calls(source) == [4, 6, 8]


def namespace_stand_ins(source):
    """Lines of source that import or use SimpleNamespace."""
    return sorted({
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom)
            and any(alias.name == "SimpleNamespace" for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "SimpleNamespace")
        or (isinstance(node, ast.Name) and node.id == "SimpleNamespace")
    })


def test_no_stand_in_namespace():
    # A namespace standing in for a Modulus or FiniteMapData skips the
    # checks its constructor runs; the library passes the real object or
    # plain arrays.
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := namespace_stand_ins(path.read_text()))
    }
    assert found == {}


def test_scan_flags_a_stand_in_namespace():
    source = (
        "from types import SimpleNamespace\n"
        "import types\n"
        "a = types.SimpleNamespace(points=1)\n"
        "b = dict(points=1)\n"
        "c = SimpleNamespace(values=2)\n"
    )
    assert namespace_stand_ins(source) == [1, 3, 5]


ROW_HELPERS = ("row_dots", "row_norms")


def _is_axis_one(node):
    """True for an axis argument written as 1 or -1."""
    try:
        return ast.literal_eval(node) in (1, -1)
    except ValueError:
        return False


def row_reductions(source):
    """Lines of source that reduce the rows of an array outside geometry's
    row helpers: a norm(..., axis=1) call, or an add.reduce(..., axis=1) or
    sum(..., axis=1) call, the axis passed by keyword or, for add.reduce,
    by position."""
    out = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside or child.name in ROW_HELPERS)
                continue
            if isinstance(child, ast.Call) and not inside:
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                add_reduce = name == "reduce" and getattr(func.value, "attr", None) == "add"
                axis = [k.value for k in child.keywords if k.arg == "axis"]
                if add_reduce and len(child.args) > 1:
                    axis.append(child.args[1])
                if (name in ("norm", "sum") or add_reduce) and any(map(_is_axis_one, axis)):
                    out.append(child.lineno)
            visit(child, inside)

    visit(ast.parse(source), False)
    return sorted(out)


def test_rows_are_reduced_by_the_row_helpers():
    # Row norms and row sums of thin arrays go through geometry.row_norms
    # and row_dots, which add whole columns instead of numpy's axis=1
    # reduce, one short row at a time, with the same bits.
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := row_reductions(path.read_text()))
    }
    assert found == {}


def test_scan_flags_a_row_reduction():
    source = (
        "import numpy as np\n"
        "a = np.linalg.norm(d, axis=1)\n"
        "b = np.add.reduce(d * d, axis=1)\n"
        "c = np.sum(d * e, axis=-1)\n"
        "e = np.add.reduce(d, 1)\n"
        "f = np.linalg.norm(d)\n"
        "g = np.max(np.abs(d), axis=1)\n"
        "h = np.sum(d, axis=0)\n"
        "def row_dots(a, b):\n"
        "    return np.add.reduce(a * b, axis=1)\n"
        "def other(d):\n"
        "    k = lambda x: norm(x, axis=1)\n"
        "    return d.sum(axis=1)\n"
    )
    assert row_reductions(source) == [2, 3, 4, 5, 12, 13]


NUMPY_WRAPPERS = {
    "all", "any", "max", "min", "sum", "mean", "argmax", "argmin", "argsort", "clip",
    "cumsum", "diff", "append", "flatnonzero", "repeat",
}


def numpy_wrapper_calls(source):
    """Lines of source that call np.<name>(...) for one of numpy's
    Python-level wrappers, each of which dispatches to an ndarray method or
    a slice difference that the call site can make itself."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in NUMPY_WRAPPERS
        and getattr(node.func.value, "id", None) in ("np", "numpy")
    )


def test_hot_paths_call_numpys_compiled_entry_points():
    # On the library's arrays of 2-800 entries, np.max(x) costs about twice
    # x.max(), which runs the same reduce; the bits are the same.
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := numpy_wrapper_calls(path.read_text()))
    }
    assert found == {}


def test_scan_flags_a_numpy_wrapper_call():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "a = np.max(x, axis=0)\n"
        "b = numpy.all(np.isfinite(x))\n"
        "c = x.max(axis=0) + np.maximum(x, 0.0).sum()\n"
        "d = np.flatnonzero(x > 0)\n"
        "e = np.diff(t, prepend=0.0) + np.maximum.reduce([x, y])\n"
        "f = max(1.0, float(x.max()))\n"
        "g = np.append(h, np.clip(r, 0.0, None))\n"
    )
    assert numpy_wrapper_calls(source) == [3, 4, 6, 7, 9, 9]
