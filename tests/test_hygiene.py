"""Static checks on the library source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lipext"


def _is_cfg_default(stmt):
    """True for the statement `cfg = cfg or SolverConfig()`."""
    return (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and stmt.targets[0].id == "cfg"
        and isinstance(stmt.value, ast.BoolOp)
        and isinstance(stmt.value.op, ast.Or)
        and isinstance(stmt.value.values[0], ast.Name)
        and stmt.value.values[0].id == "cfg"
    )


def _reads_cfg(func):
    for stmt in func.body:
        if _is_cfg_default(stmt):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == "cfg" and isinstance(
                node.ctx, ast.Load
            ):
                return True
    return False


def unread_cfg_parameters(source):
    """Names of the functions in source that take `cfg` and never read it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if any(a.arg == "cfg" for a in params) and not _reads_cfg(node):
                out.append(node.name)
    return out


def test_every_cfg_parameter_is_read():
    unread = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unread_cfg_parameters(path.read_text()))
    }
    assert unread == {}


def test_scan_flags_a_defaulted_but_unread_cfg():
    source = (
        "def dropped(x, cfg=None):\n"
        "    cfg = cfg or SolverConfig()\n"
        "    return x\n"
        "def passed(x, cfg=None):\n"
        "    cfg = cfg or SolverConfig()\n"
        "    return inner(x, cfg)\n"
        "def closure(x, cfg):\n"
        "    def f(y):\n"
        "        return y * cfg.tol\n"
        "    return f(x)\n"
    )
    assert unread_cfg_parameters(source) == ["dropped"]


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


def unchecked_solve_qp_callers(source):
    """Functions in source that call solve_qp and never read ["converged"]."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = list(ast.walk(node))
        calls = any(
            isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "solve_qp"
            for n in inner
        )
        reads = any(
            isinstance(n, ast.Subscript)
            and isinstance(n.slice, ast.Constant)
            and n.slice.value == "converged"
            for n in inner
        )
        if calls and not reads:
            out.append(node.name)
    return out


def test_every_solve_qp_caller_reads_converged():
    # A solver never exits silently at its iteration cap.
    unchecked = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unchecked_solve_qp_callers(path.read_text()))
    }
    assert unchecked == {}


def test_scan_flags_an_unchecked_solve_qp_call():
    source = (
        "def checked(P):\n"
        "    z, info = solve_qp(P)\n"
        "    if not info['converged']:\n"
        "        raise SolverCapError('capped')\n"
        "    return z\n"
        "def dropped(P):\n"
        "    z, _ = solvers.solve_qp(P)\n"
        "    return z\n"
        "def iters_only(P):\n"
        "    z, info = solve_qp(P)\n"
        "    return z, info['iters']\n"
        "def outer(P):\n"
        "    def inner():\n"
        "        return solve_qp(P)\n"
        "    z, info = inner()\n"
        "    return z if info['converged'] else None\n"
    )
    assert unchecked_solve_qp_callers(source) == ["dropped", "iters_only", "inner"]


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
