import json
import math
import os

import numpy as np
import pytest

from lipext import __version__
from lipext.cli import build_parser, main
from lipext.errors import BoxExhaustionError, SolverCapError
from lipext import convex_functions as cf
from lipext import monotone
from lipext import io_formats as io
from lipext.geometry import Ball
from test_helly import touching_families


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def forced_data(tmp_path):
    payload = {
        "m": 1,
        "n": 1,
        "L": 1.0,
        "points": [[-1.0], [1.0]],
        "values": [[0.0], [2.0]],
    }
    return write(tmp_path / "data.json", json.dumps(payload))


class TestExtendCommand:
    def test_forced_case_row(self, tmp_path, forced_data):
        queries = write(tmp_path / "q.csv", "0.0\n")
        out = str(tmp_path / "out.csv")
        rc = main(
            ["extend", "--data", forced_data, "--queries", queries,
             "--method", "minimax", "--out", out]
        )
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "q_1,F_1,residual"
        q, F, r = (float(t) for t in lines[1].split(","))
        assert q == 0.0
        assert F == pytest.approx(1.0, abs=1e-9)
        assert abs(r) <= 1e-9

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.json", "{ not json")
        rc = main(
            ["extend", "--data", bad, "--queries", bad, "--method", "minimax",
             "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_inconsistent_data_exit_3(self, tmp_path, capsys):
        payload = {
            "m": 1, "n": 1, "L": 1.0,
            "points": [[0.0], [1.0]], "values": [[0.0], [5.0]],
        }
        data = write(tmp_path / "data.json", json.dumps(payload))
        queries = write(tmp_path / "q.csv", "0.0\n")
        rc = main(
            ["extend", "--data", data, "--queries", queries,
             "--method", "minimax", "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 3
        assert "(0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("L", ["Infinity", "NaN"])
    def test_non_finite_L_exit_3(self, tmp_path, capsys, L):
        # Neither passes "L >= 0" by accident: inf would let every pair
        # through and NaN would score every pair NaN.
        data = write(
            tmp_path / "data.json",
            '{"m": 1, "n": 1, "L": %s, "points": [[0.0], [1.0]], "values": [[0.0], [0.5]]}'
            % L,
        )
        queries = write(tmp_path / "q.csv", "0.5\n")
        rc = main(
            ["extend", "--data", data, "--queries", queries,
             "--method", "proxavg", "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "invalid data" in err
        assert "L must be finite" in err and "Traceback" not in err

    def test_all_methods_run(self, tmp_path, forced_data):
        queries = write(tmp_path / "q.csv", "0.0\n0.5\n-2.0\n")
        for method in ("minimax", "proxavg", "mcshane", "coordinatewise"):
            out = str(tmp_path / f"{method}.csv")
            rc = main(
                ["extend", "--data", forced_data, "--queries", queries,
                 "--method", method, "--out", out]
            )
            assert rc == 0, method

    def test_byte_identical_reruns(self, tmp_path, forced_data):
        queries = write(tmp_path / "q.csv", "0.25\n-0.75\n")
        out = tmp_path / "out.csv"
        argv = ["extend", "--data", forced_data, "--queries", queries,
                "--method", "proxavg", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        # replay through the manifest reproduces the bytes too
        assert main(["replay", str(out) + ".manifest.json"]) == 0
        assert out.read_bytes() == first

    def test_solver_cap_exit_4(self, tmp_path, capsys, monkeypatch, forced_data):
        def unconverged_qp(P, q, A_eq, b_eq, G, h, z0, *, name, **kwargs):
            raise SolverCapError(f"{name} capped at 321 iterations")

        monkeypatch.setattr(monotone, "solve_qp", unconverged_qp)
        queries = write(tmp_path / "q.csv", "0.25\n")
        rc = main(["extend", "--data", forced_data, "--queries", queries,
                   "--method", "proxavg", "--out", str(tmp_path / "o.csv")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "resolvent QP capped at 321 iterations" in err[0]


class TestHellyCommand:
    def test_verify_and_exit_codes(self, tmp_path):
        fam = str(tmp_path / "fam.json")
        assert main(["gen", "--kind", "ball-family", "--n", "2", "--count", "6",
                     "--seed", "5", "--out", fam]) == 0
        rep = str(tmp_path / "rep.json")
        assert main(["helly", "--family", fam, "--mode", "verify", "--out", rep]) == 0
        payload = json.loads(open(rep).read())
        assert payload["intersects"] is True and payload["witness"] is not None

    def test_disjoint_pair_fails_k_check(self, tmp_path):
        fam = str(tmp_path / "fam.json")
        assert main(["gen", "--kind", "ball-family", "--n", "2", "--count", "5",
                     "--seed", "6", "--mode", "disjoint-pair", "--out", fam]) == 0
        rep = str(tmp_path / "rep.json")
        rc = main(["helly", "--family", fam, "--mode", "k-check", "--k", "2",
                   "--out", rep])
        assert rc == 1
        payload = json.loads(open(rep).read())
        assert payload["violating_subset"] == [0, 1]

    def test_touching_family_verifies(self, tmp_path):
        # Every sphere passes through one point, the family's only common
        # point; every triple meets, so by Helly's theorem verify accepts.
        family = touching_families(2)[19]
        balls = [{"kind": "ball", "center": b.center.tolist(), "radius": b.radius}
                 for b in family.bodies]
        fam = write(tmp_path / "fam.json", json.dumps({"n": 2, "bodies": balls}))
        rep = str(tmp_path / "rep.json")
        assert main(["helly", "--family", fam, "--mode", "verify", "--out", rep]) == 0
        payload = json.loads(open(rep).read())
        assert payload["intersects"] is True and payload["residual"] <= 1e-12

    def test_verify_ball_family_needs_no_enumeration(self, tmp_path):
        # C(200, 3) triples exceed the 10^6 budget, but verify does not
        # enumerate them: one Chebyshev center decides a ball family.
        balls = [{"kind": "ball", "center": [0.25 * i, 0.0], "radius": 50.0}
                 for i in range(200)]
        fam = write(tmp_path / "fam.json", json.dumps({"n": 2, "bodies": balls}))
        rc = main(["helly", "--family", fam, "--mode", "verify",
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 0

    def test_verify_polytope_family_past_the_budget(self, tmp_path):
        # C(45, 5) = 1,221,759 subsets of 2 balls and 43 polytopes in R^4
        # exceed the budget; verify decides the family by its least-squares
        # point and never exits 5.
        family = touching_families(4, count=1, balls=2, polytopes=43)[0]
        fam = write(tmp_path / "fam.json", json.dumps(io.family_to_dict(family)))
        rep = str(tmp_path / "rep.json")
        assert main(["helly", "--family", fam, "--mode", "verify", "--out", rep]) == 0
        payload = json.loads(open(rep).read())
        assert payload["intersects"] is True and payload["residual"] <= 1e-10

    def test_enumeration_guard_exit_5(self, tmp_path):
        balls = [{"kind": "ball", "center": [float(i), 0.0], "radius": 50.0}
                 for i in range(45)]
        fam = write(tmp_path / "fam.json", json.dumps({"n": 2, "bodies": balls}))
        rc = main(["helly", "--family", fam, "--mode", "k-check", "--k", "20",
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 5


    def test_ball_without_center_exit_2(self, tmp_path, capsys):
        bodies = [{"kind": "ball", "radius": 1.0}]
        fam = write(tmp_path / "fam.json", json.dumps({"n": 2, "bodies": bodies}))
        rc = main(["helly", "--family", fam, "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "parse error" in err
        assert "center" in err and "Traceback" not in err

    def test_unknown_body_kind_exit_2(self, tmp_path, capsys):
        bodies = [{"kind": "blob", "center": [0.0, 0.0], "radius": 1.0}]
        fam = write(tmp_path / "fam.json", json.dumps({"n": 2, "bodies": bodies}))
        rc = main(["helly", "--family", fam, "--out", str(tmp_path / "rep.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "parse error" in err
        assert "blob" in err and "Traceback" not in err

    def test_negative_radius_exit_3(self, tmp_path, capsys):
        bodies = [{"kind": "ball", "center": [0.0, 0.0], "radius": -1.0}]
        fam = write(tmp_path / "fam.json", json.dumps({"n": 2, "bodies": bodies}))
        rc = main(["helly", "--family", fam, "--out", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "invalid data" in err
        assert "radius" in err and "Traceback" not in err

    def test_infinite_radius_exit_3(self, tmp_path, capsys):
        bodies = [{"kind": "ball", "center": [0.0], "radius": math.inf},
                  {"kind": "ball", "center": [5.0], "radius": 1.0}]
        fam = write(tmp_path / "fam.json", json.dumps({"n": 1, "bodies": bodies}))
        rc = main(["helly", "--family", fam, "--mode", "verify",
                   "--out", str(tmp_path / "rep.json")])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "invalid data" in err
        assert "radius must be finite" in err and "Traceback" not in err


class TestFunctionCommand:
    def test_quadratic_self_conjugacy_report(self, tmp_path):
        fn = write(tmp_path / "f.json", json.dumps({"node": "quadratic", "n": 1}))
        out = str(tmp_path / "report.json")
        rc = main(["function", "--function", fn, "--conjugate-check",
                   "--box", "4.0", "--tol", "1e-5", "--out", out])
        assert rc == 0
        assert json.loads(open(out).read())["max_gap"] <= 1e-5

    def test_kappa_conjugate_fixture(self, tmp_path):
        tree = {"node": "conjugate", "child": {"node": "kappa", "n": 1},
                "box": {"lo": [-3.0, -3.0], "hi": [3.0, 3.0]}}
        fn = write(tmp_path / "f.json", json.dumps(tree))
        pts = write(tmp_path / "p.csv", "1.0,-1.0\n0.5,-0.5\n1.0,1.0\n")
        out = str(tmp_path / "vals.csv")
        rc = main(["function", "--function", fn, "--eval", pts, "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert float(lines[1].split(",")[-1]) == pytest.approx(0.5, abs=1e-6)
        assert float(lines[2].split(",")[-1]) == pytest.approx(0.125, abs=1e-6)
        assert lines[3].split(",")[-1] == "inf"

    def test_malformed_tree_exit_2(self, tmp_path):
        fn = write(tmp_path / "f.json", json.dumps({"node": "mystery"}))
        rc = main(["function", "--function", fn, "--conjugate-check",
                   "--box", "2.0", "--out", str(tmp_path / "o.json")])
        assert rc == 2

    def test_solver_cap_exit_4(self, tmp_path, capsys, monkeypatch):
        def unconverged_qp(P, q, A_eq, b_eq, G, h, z0, *, name, **kwargs):
            raise SolverCapError(f"{name} capped at 321 iterations")

        monkeypatch.setattr(cf, "solve_qp", unconverged_qp)
        tree = {"node": "max_affine", "slopes": [[1.0], [-1.0]], "offsets": [0.5, 0.0]}
        fn = write(tmp_path / "f.json", json.dumps(tree))
        rc = main(["function", "--function", fn, "--conjugate-check",
                   "--box", "2.0", "--out", str(tmp_path / "o.json")])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "321 iterations" in err[0]

    def test_duality_report(self, tmp_path):
        f = write(tmp_path / "f.json", json.dumps({"node": "quadratic", "n": 1}))
        g = write(tmp_path / "g.json", json.dumps({"node": "quadratic", "n": 1}))
        out = str(tmp_path / "dual.json")
        rc = main(["function", "--function", f, "--duality", g,
                   "--box", "3.0", "--out", out])
        assert rc == 0
        payload = json.loads(open(out).read())
        assert abs(payload["gap"]) <= 1e-5


    AFFINE = '{"node": "max_affine", "slopes": [[1.0], [-1.0]], "offsets": [0.5, 0.0]}'

    @pytest.mark.parametrize("tree, node, field", [
        ('{"node": "max_affine", "slopes": [[NaN], [1.0]], "offsets": [0.0, 0.0]}',
         "max_affine", "slopes"),
        ('{"node": "max_affine", "slopes": [[-1.0], [1.0]], "offsets": [Infinity, 0.0]}',
         "max_affine", "offsets"),
        ('{"node": "sum", "children": [%s], "coefficients": [NaN]}' % AFFINE,
         "sum", "coefficients"),
        ('{"node": "scale", "factor": Infinity, "child": %s}' % AFFINE, "scale", "factor"),
        ('{"node": "epi_scale", "factor": Infinity, "child": %s}' % AFFINE,
         "epi_scale", "factor"),
        ('{"node": "translate", "shift": [0.0], "slope": [0.0], "offset": -Infinity,'
         ' "child": %s}' % AFFINE, "translate", "offset"),
    ])
    def test_non_finite_number_exit_2(self, tmp_path, capsys, tree, node, field):
        # Python's json reads NaN and Infinity; the tree must not carry them.
        fn = write(tmp_path / "f.json", tree)
        pts = write(tmp_path / "p.csv", "0.5\n")
        out = str(tmp_path / "vals.csv")
        rc = main(["function", "--function", fn, "--eval", pts, "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"lipext: parse error: {fn}: {node} node: {field} must be finite\n"
        assert not os.path.exists(out)

    def test_duality_without_offsets_exit_2(self, tmp_path, capsys):
        f = write(tmp_path / "q.json", json.dumps({"node": "quadratic", "n": 1}))
        g = write(tmp_path / "g.json", json.dumps({"node": "max_affine", "slopes": [[1.0]]}))
        rc = main(["function", "--function", f, "--duality", g, "--box", "2",
                   "--out", str(tmp_path / "dual.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "parse error" in err
        assert "offsets" in err and "Traceback" not in err


class TestMonotoneCommand:
    def test_check_failure_with_witness(self, tmp_path):
        graph = write(
            tmp_path / "g.json",
            json.dumps({"n": 1, "pairs": [[[0.0], [1.0]], [[1.0], [0.0]]]}),
        )
        out = str(tmp_path / "rep.json")
        rc = main(["monotone", "--graph", graph, "--check", "--out", out])
        assert rc == 1
        payload = json.loads(open(out).read())
        assert payload["monotone"] is False
        assert payload["worst_pair"] == [0, 1]

    def test_resolvent_queries(self, tmp_path):
        graph = write(
            tmp_path / "g.json",
            json.dumps({"n": 1, "pairs": [[[0.0], [0.0]], [[1.0], [1.0]]]}),
        )
        queries = write(tmp_path / "q.csv", "1.0\n0.0\n")
        out = str(tmp_path / "res.csv")
        rc = main(["monotone", "--graph", graph, "--resolvent", queries, "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "x_1,y_1,residual"
        assert float(lines[1].split(",")[1]) == pytest.approx(0.5, abs=1e-5)

    def test_autoconjugacy_report(self, tmp_path):
        graph = write(
            tmp_path / "g.json", json.dumps({"n": 1, "pairs": [[[0.0], [0.0]]]})
        )
        samples = write(tmp_path / "s.csv", "0.3,0.7\n-1.0,0.5\n")
        out = str(tmp_path / "auto.json")
        rc = main(["monotone", "--graph", graph, "--autoconjugacy", samples,
                   "--out", out])
        assert rc == 0
        assert json.loads(open(out).read())["max_gap"] <= 1e-4

    @pytest.mark.parametrize("flag, rc", [
        ({}, 3), ({"multi_valued": False}, 3), ({"multi_valued": True}, 0),
        ({"multi_valued": "false"}, 2), ({"multi_valued": 0}, 2),
    ])
    def test_multi_valued_is_a_json_boolean(self, tmp_path, capsys, flag, rc):
        # x = 0 carries x* = 0 and x* = 1: a monotone multi-valued graph.
        pairs = [[[0.0], [0.0]], [[0.0], [1.0]]]
        graph = write(tmp_path / "g.json", json.dumps({"n": 1, "pairs": pairs, **flag}))
        out = str(tmp_path / "o.json")
        got, err = _run(["monotone", "--graph", graph, "--check", "--out", out], capsys)
        assert got == rc
        if rc == 2:
            assert err == (f"lipext: parse error: {graph}: multi_valued must be true "
                           f"or false, got {flag['multi_valued']!r}\n")
        if rc == 0:
            assert json.loads(open(out).read())["monotone"] is True

    def test_empty_graph_exit_3(self, tmp_path):
        graph = write(tmp_path / "g.json", json.dumps({"n": 1, "pairs": []}))
        rc = main(["monotone", "--graph", graph, "--check",
                   "--out", str(tmp_path / "o.json")])
        assert rc == 3


class TestIntegerFields:
    """m and n of data.json, n of graph.json and family.json, and n of the
    quadratic and kappa nodes are JSON integers of at least 1.  int() would
    read each file below as if its field were one: 2.9 as 2, true, 1.5 and
    1.0 as 1, and 2.5 as 2."""

    CASES = [
        ("data", {"m": 2.9, "n": 1, "L": 1.0, "points": [[0.0, 0.0], [1.0, 0.0]],
                  "values": [[0.0], [0.5]]}, "0.5,0.5", "", "m", 2.9),
        ("data", {"m": 1, "n": True, "L": 1.0, "points": [[0.0], [1.0]],
                  "values": [[0.0], [0.5]]}, "0.5", "", "n", True),
        ("graph", {"n": 1.5, "pairs": [[[0.0], [0.0]], [[1.0], [1.0]]]}, "", "", "n", 1.5),
        ("function", {"node": "quadratic", "n": 1.5}, "0.5", "quadratic node: ", "n", 1.5),
        ("function", {"node": "kappa", "n": 1.0}, "0.5,0.5", "kappa node: ", "n", 1.0),
        ("family", {"n": 2.5, "bodies": [{"kind": "ball", "center": [0.0, 0.0],
                                          "radius": 1.0}]}, "", "", "n", 2.5),
    ]

    @pytest.mark.parametrize("kind, doc, query, where, field, value", CASES,
                             ids=["data-m", "data-n", "graph-n", "quadratic-n", "kappa-n",
                                  "family-n"])
    def test_non_integer_exit_2(self, tmp_path, capsys, kind, doc, query, where, field,
                                value):
        path = write(tmp_path / f"{kind}.json", json.dumps(doc))
        points = write(tmp_path / "p.csv", query + "\n")
        out = str(tmp_path / "out")
        argv = {
            "data": ["extend", "--data", path, "--queries", points,
                     "--method", "mcshane", "--out", out],
            "graph": ["monotone", "--graph", path, "--check", "--out", out],
            "function": ["function", "--function", path, "--eval", points, "--out", out],
            "family": ["helly", "--family", path, "--out", out],
        }[kind]
        rc, err = _run(argv, capsys)
        assert rc == 2
        assert err == (f"lipext: parse error: {path}: {where}{field} must be an "
                       f"integer >= 1, got {value!r}\n")
        assert not os.path.exists(out)


class TestNumberFields:
    """Every other numeric field of a data, graph, family or function file,
    box lo and hi included, holds JSON numbers only: np.asarray and float()
    would read each file below as if its strings were numbers and its true
    were 1."""

    DATA = {"m": 1, "n": 1, "L": 1.0, "points": [[0.0], [1.0]], "values": [[0.0], [0.5]]}
    BALL = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
    AFFINE = {"node": "max_affine", "slopes": [[1.0], [-1.0]], "offsets": [0.0, 0.0]}
    CASES = [
        ("data", {**DATA, "L": "2"}, "", "L", "2"),
        ("data", {**DATA, "points": [["0"], [1]]}, "", "points", "0"),
        ("data", {**DATA, "values": [[0], [True]]}, "", "values", True),
        ("graph", {"n": 1, "pairs": [[[0.0], [0.0]], [[1.0], ["1"]]]}, "", "pairs", "1"),
        ("family", {"n": 2, "bodies": [{**BALL, "radius": "1"}]}, "ball: ", "radius", "1"),
        ("family", {"n": 2, "bodies": [{**BALL, "radius": True}]}, "ball: ", "radius", True),
        ("family", {"n": 2, "bodies": [{**BALL, "center": ["1", 0]}]}, "ball: ", "center",
         "1"),
        ("function", {**AFFINE, "offsets": [0.0, "0"]}, "max_affine node: ", "offsets", "0"),
        ("function", {"node": "conjugate", "child": AFFINE, "box": {"lo": [-1], "hi": ["1"]}},
         "box: ", "hi", "1"),
    ]

    @pytest.mark.parametrize("kind, doc, where, field, bad", CASES, ids=[
        "data-L", "data-points", "data-values", "graph-pairs", "family-radius",
        "family-radius-bool", "family-center", "function-offsets", "function-box",
    ])
    def test_non_number_exit_2(self, tmp_path, capsys, kind, doc, where, field, bad):
        path = write(tmp_path / f"{kind}.json", json.dumps(doc))
        points = write(tmp_path / "p.csv", "0.5\n")
        out = str(tmp_path / "out")
        argv = {
            "data": ["extend", "--data", path, "--queries", points,
                     "--method", "mcshane", "--out", out],
            "graph": ["monotone", "--graph", path, "--check", "--out", out],
            "function": ["function", "--function", path, "--eval", points, "--out", out],
            "family": ["helly", "--family", path, "--out", out],
        }[kind]
        rc, err = _run(argv, capsys)
        assert rc == 2
        assert err == (f"lipext: parse error: {path}: {where}{field} holds {bad!r}, "
                       "not a JSON number\n")
        assert not os.path.exists(out)


class TestGenCommand:
    def test_seed_determinism(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            assert main(["gen", "--kind", "lipschitz-data", "--m", "3", "--n", "2",
                         "--count", "12", "--seed", "0", "--out", out]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_generated_data_is_1_lipschitz(self, tmp_path):
        out = str(tmp_path / "d.json")
        assert main(["gen", "--kind", "lipschitz-data", "--m", "2", "--n", "3",
                     "--count", "15", "--seed", "9", "--out", out]) == 0
        data = io.data_from_dict(json.loads(open(out).read()))
        from lipext.extension import lipschitz_constant

        assert lipschitz_constant(data) <= 1.0 + 1e-9

    def test_disjoint_mode_structure(self, tmp_path):
        out = str(tmp_path / "f.json")
        assert main(["gen", "--kind", "ball-family", "--n", "2", "--count", "4",
                     "--seed", "11", "--mode", "disjoint-pair", "--out", out]) == 0
        fam = io.family_from_dict(json.loads(open(out).read()))
        b0, b1 = fam.bodies[0], fam.bodies[1]
        gap = float(np.linalg.norm(b0.center - b1.center)) - b0.radius - b1.radius
        assert gap >= 0.29


# Every exit path of every subcommand, pinned: exit code, report bytes, the
# one stderr line, and the manifest (all of it but wall_time_s), or its absence.
# Placeholders in braces name the input files written by the `inputs` fixture.

INPUTS = {
    "data": {"m": 1, "n": 1, "L": 1.0,
             "points": [[-1.0], [1.0]], "values": [[0.0], [2.0]]},
    "steep": {"m": 1, "n": 1, "L": 1.0,
              "points": [[0.0], [1.0]], "values": [[0.0], [5.0]]},
    "wide": {"m": 1, "n": 2, "L": 1.0,
             "points": [[0.0], [1.0]], "values": [[0.0], [1.0]]},
    "nopoints": {"m": 1, "n": 1, "values": [[0.0]]},
    "fam": {"n": 2, "bodies": [
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
        {"kind": "ball", "center": [1.0, 0.0], "radius": 1.0}]},
    "apart": {"n": 1, "bodies": [
        {"kind": "ball", "center": [0.0], "radius": 1.0},
        {"kind": "ball", "center": [3.0], "radius": 1.0}]},
    "crowd": {"n": 2, "bodies": [
        {"kind": "ball", "center": [float(i), 0.0], "radius": 50.0}
        for i in range(45)]},
    "blob": {"n": 2, "bodies": [{"kind": "blob", "radius": 1.0}]},
    "nocenter": {"n": 2, "bodies": [{"kind": "ball", "radius": 1.0}]},
    "negative": {"n": 2, "bodies": [
        {"kind": "ball", "center": [0.0, 0.0], "radius": -1.0}]},
    "wrongn": {"n": 3, "bodies": [
        {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}]},
    "quad": {"node": "quadratic", "n": 1},
    "linear": {"node": "max_affine", "slopes": [[1.0]], "offsets": [0.0]},
    "zero": {"node": "max_affine", "slopes": [[0.0]], "offsets": [0.0]},
    "nooffsets": {"node": "max_affine", "slopes": [[1.0]]},
    "mystery": {"node": "mystery"},
    "boxless": {"node": "inf_conv", "left": {"node": "quadratic", "n": 1},
                "right": {"node": "quadratic", "n": 1}},
    "graph": {"n": 1, "pairs": [[[0.0], [0.0]], [[1.0], [1.0]]]},
    "antigraph": {"n": 1, "pairs": [[[0.0], [1.0]], [[1.0], [0.0]]]},
    "nopairs": {"n": 1},
    "halfpair": {"n": 1, "pairs": [[[0.0]]]},
    "narrowpairs": {"n": 2, "pairs": [[[0.0], [0.0]], [[1.0], [1.0]]]},
    "emptygraph": {"n": 1, "pairs": []},
    "conflict": {"n": 1, "pairs": [[[0.0], [0.0]], [[0.0], [1.0]]]},
}
CSVS = {
    "q": "0.0\n0.5\n",
    "q2": "0.5,0.5\n-1.0,0.25\n",
    "qbad": "0.0\nzero\n",
    "qragged": "1.0,2.0\n3.0\n",
}


@pytest.fixture
def inputs(tmp_path):
    paths = {name: write(tmp_path / f"{name}.json", json.dumps(doc))
             for name, doc in INPUTS.items()}
    paths.update({name: write(tmp_path / f"{name}.csv", text)
                  for name, text in CSVS.items()})
    paths["notjson"] = write(tmp_path / "notjson.json", "{ not json")
    paths["missing"] = str(tmp_path / "missing.json")
    paths["out"] = str(tmp_path / "report")
    return paths


def _fill(template, paths):
    if isinstance(template, str):
        return template.format(**paths)
    if isinstance(template, list):
        return [_fill(t, paths) for t in template]
    if isinstance(template, dict):
        return {k: _fill(v, paths) for k, v in template.items()}
    return template


def _returning(value):
    return lambda *args, **kwargs: value


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def _unconverged_qp(P, q, A_eq, b_eq, G, h, z0, *, name, **kwargs):
    raise SolverCapError(f"{name} capped at 321 iterations")


def path_case(argv, rc, report=None, err="", inputs=None, patch=None, tag=None):
    """One exit path; inputs=None means no manifest may be written.  tag
    tells apart paths whose subcommand, exit code and files coincide."""
    files = [a.strip("{}") for a in argv if a.startswith("{") and a != "{out}"]
    parts = [argv[0], str(rc)] + files + ([tag] if tag else [])
    return pytest.param(argv, rc, report, err, inputs, patch, id="-".join(parts))


EXTEND = ["extend", "--data", "{data}", "--queries", "{q}", "--method", "mcshane",
          "--out", "{out}"]
EXTEND_IN = {"data": "{data}", "queries": "{q}", "method": "mcshane"}
GRAPH_OUT = '{\n  "monotone": true,\n  "worst_pair": [\n    0,\n    1\n  ],\n  "worst_value": 1.0\n}\n'
# argparse's usage line, braces escaped for _fill.
USAGE = build_parser().format_usage().replace("{", "{{").replace("}", "}}")
COMMON_POINT = ('{\n  "intersects": true,\n  "residual": 0.0,\n  "violating_subset": null,'
                '\n  "witness": [\n    0.5,\n    0.0\n  ]\n}\n')

EXIT_PATHS = [
    # extend
    path_case(EXTEND, 0, "q_1,F_1,residual\n0.0,1.0,0.0\n0.5,1.5,0.0\n",
              inputs=EXTEND_IN),
    path_case(EXTEND, 4, "q_1,F_1,residual\n0.0,7.0,0.25\n0.5,7.0,0.25\n",
              "lipext: worst residual 2.500e-01 exceeds tol 1.000e-06\n", EXTEND_IN,
              ("lipext.extension.ExtensionModel.query",
               _returning((np.array([7.0]), 0.25)))),
    path_case(["extend", "--data", "{data}", "--queries", "{q}", "--method", "proxavg",
               "--out", "{out}"], 4,
              err="lipext: solver non-convergence: resolvent QP capped at 321 iterations\n",
              patch=("lipext.monotone.solve_qp", _unconverged_qp)),
    path_case(["extend", "--data", "{notjson}", "--queries", "{q}", "--method", "mcshane",
               "--out", "{out}"], 2,
              err="lipext: parse error: {notjson}: line 1 column 3: "
                  "Expecting property name enclosed in double quotes\n"),
    path_case(["extend", "--data", "{missing}", "--queries", "{q}", "--method", "mcshane",
               "--out", "{out}"], 2,
              err="lipext: parse error: [Errno 2] No such file or directory: '{missing}'\n"),
    path_case(["extend", "--data", "{nopoints}", "--queries", "{q}", "--method",
               "mcshane", "--out", "{out}"], 2,
              err="lipext: parse error: {nopoints}: 'points'\n"),
    path_case(["extend", "--data", "{data}", "--queries", "{qbad}", "--method", "mcshane",
               "--out", "{out}"], 2,
              err="lipext: parse error: {qbad}: line 2: could not convert string to "
                  "float: 'zero'\n"),
    path_case(["extend", "--data", "{data}", "--queries", "{q2}", "--method", "mcshane",
               "--out", "{out}"], 2,
              err="lipext: parse error: {q2}: expected 1 columns, found 2\n"),
    path_case(["extend", "--data", "{data}", "--queries", "{qragged}", "--method",
               "mcshane", "--out", "{out}"], 2,
              err="lipext: parse error: {qragged}: inconsistent row widths: [1, 2]\n"),
    path_case(["extend", "--data", "{steep}", "--queries", "{q}", "--method", "mcshane",
               "--out", "{out}"], 3,
              err="lipext: invalid data: data is not 1.0-Lipschitz: pair (0, 1) has "
                  "||db|| = 5 > L ||da|| = 1\n"),
    path_case(["extend", "--data", "{wide}", "--queries", "{q}", "--method", "mcshane",
               "--out", "{out}"], 3,
              err="lipext: invalid data: values do not match the declared n\n"),
    path_case(["extend", "--data", "{missing}", "--queries", "{q}", "--method", "mcshane",
               "--tol", "0", "--out", "{out}"], 3,
              err="lipext: invalid data: tol must be positive\n"),
    path_case(EXTEND[:-2] + ["--max-iters", "5", "--out", "{out}"], 2,
              err=USAGE + "lipext: error: unrecognized arguments: --max-iters 5\n",
              tag="max-iters"),
    # helly
    path_case(["helly", "--family", "{fam}", "--out", "{out}"], 0, COMMON_POINT,
              inputs={"family": "{fam}", "mode": "verify", "k": None}),
    path_case(["helly", "--family", "{fam}", "--mode", "common-point", "--out", "{out}"],
              0, COMMON_POINT,
              inputs={"family": "{fam}", "mode": "common-point", "k": None}),
    path_case(["helly", "--family", "{apart}", "--mode", "k-check", "--k", "2",
               "--out", "{out}"], 1,
              '{\n  "intersects": false,\n  "residual": 0.5,\n  "violating_subset": [\n'
              '    0,\n    1\n  ],\n  "witness": null\n}\n',
              inputs={"family": "{apart}", "mode": "k-check", "k": 2}),
    path_case(["helly", "--family", "{blob}", "--out", "{out}"], 2,
              err="lipext: parse error: {blob}: unknown body kind 'blob'\n"),
    path_case(["helly", "--family", "{nocenter}", "--out", "{out}"], 2,
              err="lipext: parse error: {nocenter}: 'center'\n"),
    path_case(["helly", "--family", "{negative}", "--out", "{out}"], 3,
              err="lipext: invalid data: radius must be >= 0, got -1.0\n"),
    path_case(["helly", "--family", "{wrongn}", "--out", "{out}"], 3,
              err="lipext: invalid data: bodies do not match the declared n\n"),
    path_case(["helly", "--family", "{crowd}", "--mode", "k-check", "--k", "20",
               "--out", "{out}"], 5,
              err="lipext: C(45, 20) = 3169870830126 exceeds the 10^6 subset budget\n"),
    # function
    path_case(["function", "--function", "{quad}", "--eval", "{q}", "--out", "{out}"], 0,
              "x_1,value\n0.0,0.0\n0.5,0.125\n",
              inputs={"function": "{quad}", "eval": "{q}", "duality": None, "box": None}),
    path_case(["function", "--function", "{quad}", "--eval", "{qbad}", "--out", "{out}"],
              2, err="lipext: parse error: {qbad}: line 2: could not convert string to "
                     "float: 'zero'\n"),
    path_case(["function", "--function", "{quad}", "--eval", "{q}", "--tol", "-1",
               "--out", "{out}"], 3, err="lipext: invalid data: tol must be positive\n"),
    path_case(["function", "--function", "{quad}", "--eval", "{q}", "--out", "{out}"], 6,
              err="lipext: box exhaustion: search box exhausted in node 'quadratic'\n",
              patch=("lipext.convex_functions.eval",
                     _raising(BoxExhaustionError("quadratic")))),
    path_case(["function", "--function", "{quad}", "--duality", "{quad}", "--box", "2.0",
               "--seed", "3", "--tol", "1e-05", "--out", "{out}"], 0,
              '{\n  "dual": 0.0,\n  "gap": 0.0,\n  "primal": 0.0\n}\n',
              inputs={"function": "{quad}", "eval": None, "duality": "{quad}",
                      "box": 2.0}),
    path_case(["function", "--function", "{quad}", "--duality", "{quad}", "--box", "2.0",
               "--out", "{out}"], 4,
              '{\n  "dual": 0.5,\n  "gap": -0.5,\n  "primal": 1.0\n}\n',
              "lipext: duality gap -5.000e-01 exceeds tolerance\n",
              {"function": "{quad}", "eval": None, "duality": "{quad}", "box": 2.0},
              ("lipext.convex_functions.fenchel_duality_solve",
               _returning((1.0, 0.5, -0.5)))),
    path_case(["function", "--function", "{quad}", "--duality", "{nooffsets}",
               "--box", "2.0", "--out", "{out}"], 2,
              err="lipext: parse error: {nooffsets}: 'offsets'\n"),
    path_case(["function", "--function", "{quad}", "--duality", "{quad}",
               "--out", "{out}"], 2, err="lipext: parse error: --duality requires --box\n"),
    path_case(["function", "--function", "{linear}", "--duality", "{zero}",
               "--box", "2.0", "--out", "{out}"], 6,
              err="lipext: box exhaustion: search box exhausted in node 'FenchelPrimal'\n"),
    path_case(["function", "--function", "{quad}", "--conjugate-check", "--box", "2.0",
               "--out", "{out}"], 0, '{\n  "max_gap": 0.0,\n  "samples": 3\n}\n',
              inputs={"function": "{quad}", "eval": None, "duality": None, "box": 2.0}),
    path_case(["function", "--function", "{quad}", "--conjugate-check", "--box", "2.0",
               "--out", "{out}"], 4, '{\n  "max_gap": 0.125,\n  "samples": 3\n}\n',
              "lipext: biconjugation gap 1.250e-01 exceeds tolerance\n",
              {"function": "{quad}", "eval": None, "duality": None, "box": 2.0},
              ("lipext.convex_functions.biconjugate_check", _returning(0.125))),
    path_case(["function", "--function", "{quad}", "--conjugate-check",
               "--out", "{out}"], 2,
              err="lipext: parse error: --conjugate-check requires --box\n"),
    path_case(["function", "--function", "{mystery}", "--conjugate-check",
               "--box", "2.0", "--out", "{out}"], 2,
              err="lipext: parse error: {mystery}: unknown function node 'mystery'\n"),
    path_case(["function", "--function", "{boxless}", "--conjugate-check",
               "--out", "{out}"], 2,
              err="lipext: parse error: {boxless}: node 'inf_conv' requires a search box "
                  "(or --box)\n"),
    # monotone
    path_case(["monotone", "--graph", "{graph}", "--check", "--out", "{out}"], 0,
              GRAPH_OUT,
              inputs={"graph": "{graph}", "resolvent": None, "autoconjugacy": None}),
    path_case(["monotone", "--graph", "{antigraph}", "--check", "--out", "{out}"], 1,
              GRAPH_OUT.replace("true", "false").replace("1.0", "-1.0"),
              inputs={"graph": "{antigraph}", "resolvent": None, "autoconjugacy": None}),
    path_case(["monotone", "--graph", "{graph}", "--resolvent", "{q}", "--out", "{out}"],
              0, "x_1,y_1,residual\n0.0,0.0,0.0\n0.5,0.25,0.0\n",
              inputs={"graph": "{graph}", "resolvent": "{q}", "autoconjugacy": None}),
    path_case(["monotone", "--graph", "{graph}", "--resolvent", "{q}", "--out", "{out}"],
              4, "x_1,y_1,residual\n0.0,3.0,0.5\n0.5,3.0,0.5\n",
              "lipext: worst resolvent residual 5.000e-01 exceeds tol\n",
              {"graph": "{graph}", "resolvent": "{q}", "autoconjugacy": None},
              ("lipext.cli.resolvent_eval", _returning((np.array([3.0]), 0.5)))),
    path_case(["monotone", "--graph", "{graph}", "--resolvent", "{q2}", "--out", "{out}"],
              2, err="lipext: parse error: {q2}: expected 1 columns, found 2\n"),
    path_case(["monotone", "--graph", "{graph}", "--autoconjugacy", "{q2}",
               "--out", "{out}"], 0,
              '{\n  "max_gap": 5e-05,\n  "samples": 2\n}\n',
              inputs={"graph": "{graph}", "resolvent": None, "autoconjugacy": "{q2}"},
              patch=("lipext.cli.autoconjugacy_check", _returning(5e-05))),
    path_case(["monotone", "--graph", "{graph}", "--autoconjugacy", "{q2}",
               "--out", "{out}"], 4,
              '{\n  "max_gap": 0.5,\n  "samples": 2\n}\n',
              "lipext: autoconjugacy gap 5.000e-01 exceeds tolerance\n",
              {"graph": "{graph}", "resolvent": None, "autoconjugacy": "{q2}"},
              ("lipext.cli.autoconjugacy_check", _returning(0.5))),
    path_case(["monotone", "--graph", "{graph}", "--autoconjugacy", "{q}",
               "--out", "{out}"], 2,
              err="lipext: parse error: {q}: expected 2 columns, found 1\n"),
    path_case(["monotone", "--graph", "{nopairs}", "--check", "--out", "{out}"], 2,
              err="lipext: parse error: {nopairs}: 'pairs'\n"),
    path_case(["monotone", "--graph", "{halfpair}", "--check", "--out", "{out}"], 2,
              err="lipext: parse error: {halfpair}: list index out of range\n"),
    path_case(["monotone", "--graph", "{narrowpairs}", "--check", "--out", "{out}"], 3,
              err="lipext: invalid data: pairs do not match the declared n\n"),
    path_case(["monotone", "--graph", "{emptygraph}", "--check", "--out", "{out}"], 3,
              err="lipext: invalid data: need matching non-empty (k, n) point and value "
                  "arrays\n"),
    path_case(["monotone", "--graph", "{conflict}", "--check", "--out", "{out}"], 3,
              err="lipext: invalid data: points 0 and 1 coincide with conflicting values; "
                  "pass multi_valued=True for set-valued graphs\n"),
    # gen
    path_case(["gen", "--kind", "lipschitz-data", "--m", "1", "--n", "1", "--count", "2",
               "--out", "{out}"], 0,
              '{\n  "L": 1.0,\n  "m": 1,\n  "n": 1,\n  "points": [\n    [\n'
              '      -1.5746132337311503\n    ],\n    [\n      -0.690696943127497\n'
              '    ]\n  ],\n  "values": [\n    [\n      1.4432840030239937\n    ],\n'
              '    [\n      1.1617534469099424\n    ]\n  ]\n}\n',
              inputs={"kind": "lipschitz-data", "m": 1, "n": 1, "count": 2,
                      "mode": "common-core"}),
    path_case(["gen", "--kind", "ball-family", "--n", "1", "--count", "2",
               "--out", "{out}"], 0,
              '{\n  "bodies": [\n    {\n      "center": [\n        0.5953252472503232\n'
              '      ],\n      "kind": "ball",\n      "radius": 0.44116297114987424\n'
              '    },\n    {\n      "center": [\n        1.016500753114932\n      ],\n'
              '      "kind": "ball",\n      "radius": 0.5885970655169593\n    }\n  ],\n'
              '  "n": 1\n}\n',
              inputs={"kind": "ball-family", "m": 2, "n": 1, "count": 2,
                      "mode": "common-core"}),
    path_case(["gen", "--kind", "ball-family", "--n", "1", "--count", "0",
               "--out", "{out}"], 3,
              err="lipext: invalid data: dimension and count must be >= 1\n"),
    path_case(["gen", "--kind", "lipschitz-data", "--tol", "-1", "--out", "{out}"], 3,
              err="lipext: invalid data: tol must be positive\n", tag="tol"),
]


def _run(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects an argv with exit 2
        rc = exc.code
    return rc, capsys.readouterr().err


def _manifest(out):
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert isinstance(manifest.pop("wall_time_s"), float)
    return manifest


@pytest.mark.parametrize("argv, rc, report, err, expected_inputs, patch", EXIT_PATHS)
def test_exit_path(inputs, capsys, monkeypatch, argv, rc, report, err,
                   expected_inputs, patch):
    if patch is not None:
        monkeypatch.setattr(*patch)
    argv = _fill(argv, inputs)
    out = inputs["out"]
    assert _run(argv, capsys) == (rc, _fill(err, inputs))
    if report is None:
        assert not os.path.exists(out)
    else:
        assert open(out, "rb").read() == report.encode()
    if expected_inputs is None:
        assert not os.path.exists(out + ".manifest.json")
        return
    config = {"tol": 1e-6, "seed": 0}
    for flag, key, cast in (("--tol", "tol", float), ("--seed", "seed", int)):
        if flag in argv:
            config[key] = cast(argv[argv.index(flag) + 1])
    assert _manifest(out) == {
        "subcommand": argv[0],
        "argv": argv,
        "inputs": _fill(expected_inputs, inputs),
        "config": config,
        "outputs": [out],
        "version": __version__,
    }


class TestReplayExitPaths:
    def test_replay_reproduces_report_code_and_manifest(self, inputs, capsys):
        argv = _fill(["helly", "--family", "{apart}", "--mode", "k-check", "--k", "2",
                     "--out", "{out}"], inputs)
        out = inputs["out"]
        assert _run(argv, capsys) == (1, "")
        report, manifest = open(out, "rb").read(), _manifest(out)
        saved = out + ".json"
        os.replace(out + ".manifest.json", saved)
        os.remove(out)
        assert _run(["replay", saved], capsys) == (1, "")
        assert open(out, "rb").read() == report
        assert _manifest(out) == manifest
        assert not os.path.exists(saved + ".manifest.json")

    @pytest.mark.parametrize("text, message", [
        ('{"subcommand": "gen"}', "{path}: manifest carries no argv"),
        ('{"argv": "gen"}', "{path}: manifest carries no argv"),
        ("{ not json", "{path}: line 1 column 3: "
                       "Expecting property name enclosed in double quotes"),
    ])
    def test_malformed_manifest_exit_2(self, tmp_path, capsys, text, message):
        path = write(tmp_path / "m.json", text)
        assert _run(["replay", path], capsys) == (
            2, f"lipext: parse error: {message.format(path=path)}\n")
        assert os.listdir(tmp_path) == ["m.json"]

    def test_missing_manifest_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "m.json")
        assert _run(["replay", path], capsys) == (
            2, f"lipext: parse error: [Errno 2] No such file or directory: '{path}'\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("text, message", [
        ("[]", "manifest carries no argv"),
        ('{"argv": ["extend", 3]}', "manifest argv holds a non-string"),
        ('{"argv": ["replay", "SELF"]}', "manifest replays a manifest"),
        ('{"argv": ["extend", "--data"]}', "argument --data: expected one argument"),
    ])
    def test_malformed_argv_exit_2(self, tmp_path, capsys, text, message):
        path = str(tmp_path / "self.json")
        write(tmp_path / "self.json", text.replace("SELF", path))
        assert _run(["replay", path], capsys) == (
            2, f"lipext: parse error: {path}: {message}\n")
        assert os.listdir(tmp_path) == ["self.json"]


def test_json_input_not_utf8_exit_2(tmp_path, capsys):
    data = tmp_path / "data.json"
    data.write_bytes(b"\xff\xfe{}")
    queries = write(tmp_path / "q.csv", "0.0\n")
    out = str(tmp_path / "o.csv")
    rc, err = _run(["extend", "--data", str(data), "--queries", queries,
                    "--method", "mcshane", "--out", out], capsys)
    assert rc == 2
    assert err.startswith(f"lipext: parse error: {data}: 'utf-8' codec can't decode")
    assert len(err.splitlines()) == 1
    assert not os.path.exists(out) and not os.path.exists(out + ".manifest.json")


def test_json_integer_too_long_exit_2(tmp_path, capsys):
    # json.load raises ValueError past Python's 4,300-digit integer limit.
    function = write(tmp_path / "f.json", '{"node": "quadratic", "n": %s}' % ("1" * 5000))
    out = str(tmp_path / "o.json")
    rc, err = _run(["function", "--function", function, "--conjugate-check",
                    "--out", out], capsys)
    assert rc == 2
    assert err.startswith(f"lipext: parse error: {function}: Exceeds the limit (4300 digits)")
    assert len(err.splitlines()) == 1
    assert not os.path.exists(out) and not os.path.exists(out + ".manifest.json")


class TestFunctionFromDict:
    """Each node kind builds the tree that its constructor builds, so the
    two evaluate bit for bit alike."""

    QUAD = {"node": "quadratic", "n": 1}
    AFFINE = {"node": "max_affine", "slopes": [[1.0], [-2.0]], "offsets": [0.0, 0.25]}
    BOX = {"lo": [-2.0], "hi": [2.0]}
    POINTS = ([0.0], [0.7], [-1.3], [2.0])

    def built(self):
        quad = cf.Quadratic(1)
        affine = cf.MaxAffine(np.array([[1.0], [-2.0]]), np.array([0.0, 0.25]))
        return {
            "indicator": (
                {"node": "indicator", "body": {"kind": "ball", "center": [0.5], "radius": 1.0}},
                cf.Indicator(Ball([0.5], 1.0)),
            ),
            "sum": (
                {"node": "sum", "children": [self.QUAD, self.AFFINE], "coefficients": [2, 0.5]},
                cf.Sum((quad, affine), (2.0, 0.5)),
            ),
            "scale": (
                {"node": "scale", "factor": 3.0, "child": self.AFFINE},
                cf.Scale(3.0, affine),
            ),
            "epi_scale": (
                {"node": "epi_scale", "factor": 0.5, "child": self.QUAD},
                cf.EpiScale(0.5, quad),
            ),
            "translate": (
                {"node": "translate", "shift": [0.25], "slope": [-1.0], "offset": 1.5,
                 "child": self.AFFINE},
                cf.Translate(np.array([0.25]), np.array([-1.0]), 1.5, affine),
            ),
            "prox_avg": (
                {"node": "prox_avg", "left": self.QUAD, "right": self.AFFINE, "box": self.BOX},
                cf.ProxAvg(quad, affine, cf.Box(np.array([-2.0]), np.array([2.0]))),
            ),
        }

    @pytest.mark.parametrize(
        "node", ["indicator", "sum", "scale", "epi_scale", "translate", "prox_avg"]
    )
    def test_matches_the_constructed_node(self, node):
        tree, direct = self.built()[node]
        parsed = io.function_from_dict(tree)
        for x in self.POINTS:
            assert cf.eval(parsed, np.array(x)) == cf.eval(direct, np.array(x))

    def test_default_box_fills_a_missing_box(self):
        tree = {"node": "conjugate", "child": self.QUAD}
        parsed = io.function_from_dict(tree, default_box=3.0)
        direct = cf.Conjugate(cf.Quadratic(1), cf.cube(3.0, 1))
        assert parsed.box.lo.tolist() == [-3.0] and parsed.box.hi.tolist() == [3.0]
        for x in self.POINTS:
            assert cf.eval(parsed, np.array(x)) == cf.eval(direct, np.array(x))
