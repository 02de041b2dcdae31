import json

import numpy as np
import pytest

from lipext.cli import main
from lipext import convex_functions as cf
from lipext import monotone
from lipext import io_formats as io


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
        def unconverged_qp(P, q, A_eq, b_eq, G, h, z0, **kwargs):
            return np.array(z0, dtype=float), {"converged": False, "iters": 321}

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
        def unconverged_qp(P, q, A_eq, b_eq, G, h, z0, **kwargs):
            return np.array(z0, dtype=float), {"converged": False, "iters": 321}

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

    def test_empty_graph_exit_3(self, tmp_path):
        graph = write(tmp_path / "g.json", json.dumps({"n": 1, "pairs": []}))
        rc = main(["monotone", "--graph", graph, "--check",
                   "--out", str(tmp_path / "o.json")])
        assert rc == 3


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
