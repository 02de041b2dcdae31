import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipext import monotone
from lipext.errors import DimensionMismatchError, SolverCapError
from lipext.extension import ExtensionModel, FiniteMapData
from lipext.rng import SplitMix64
from lipext.solvers import solve_qp
from lipext.gen import generate_lipschitz_data, generate_monotone_graph
from lipext.monotone import (
    OperatorGraph,
    autoconjugacy_check,
    firm_to_nonexpansive,
    firmly_nonexpansive_check,
    fitzpatrick_conj_eval,
    fitzpatrick_eval,
    graph_of_resolvent,
    is_monotone,
    nonexpansive_to_firm,
    psi_conj_eval,
    psi_eval,
    resolvent_eval,
    resolvent_of_graph,
)


def graph_1d(pairs, **kw):
    xs = np.array([[p[0]] for p in pairs])
    vs = np.array([[p[1]] for p in pairs])
    return OperatorGraph(xs, vs, **kw)


class TestMonotonicity:
    def test_identity_samples(self):
        T = graph_1d([(0.0, 0.0), (0.7, 0.7), (-1.2, -1.2)])
        assert is_monotone(T).passed

    def test_increasing_1d(self):
        T = graph_1d([(0.0, 0.0), (1.0, 2.0), (2.0, 5.0)])
        rep = is_monotone(T)
        assert rep.passed and rep.worst_value >= 0.0

    def test_decreasing_pair_detected(self):
        T = graph_1d([(0.0, 1.0), (1.0, 0.0)])
        rep = is_monotone(T)
        assert not rep.passed
        assert rep.worst_value == pytest.approx(-1.0)
        assert rep.worst_pair == (0, 1)

    def test_duplicate_points_need_flag(self):
        with pytest.raises(ValueError):
            graph_1d([(0.0, 1.0), (0.0, 2.0)])
        T = graph_1d([(0.0, 1.0), (0.0, 2.0)], multi_valued=True)
        assert T.size == 2

    def test_duplicate_witness_is_first_pair(self):
        with pytest.raises(ValueError, match=r"points 0 and 1 coincide"):
            graph_1d([(0.0, 1.0), (0.0, 2.0), (1.0, 0.0), (1.0, 9.0)])

    def test_tied_minimum_reports_first_pair(self):
        # (0, 1) and (2, 3) both reach the minimum -1
        T = graph_1d([(0.0, 1.0), (1.0, 0.0), (10.0, 11.0), (11.0, 10.0)])
        rep = is_monotone(T)
        assert rep.worst_value == -1.0 and rep.worst_pair == (0, 1)


class TestResolventBijection:
    def test_identity_map_halves(self):
        T = graph_1d([(0.0, 0.0), (1.0, 1.0), (-2.0, -2.0)])
        F = resolvent_of_graph(T)
        assert np.allclose(F.points, 2.0 * T.points)
        assert np.allclose(F.values, T.points)

    def test_zero_map_gives_identity(self):
        T = graph_1d([(0.5, 0.0), (2.0, 0.0)])
        F = resolvent_of_graph(T)
        assert np.allclose(F.points, F.values * 1.0 + np.array([[0.0], [0.0]]) + T.values)
        assert np.allclose(F.values, T.points)

    def test_round_trip_exact(self):
        rng = SplitMix64(12)
        pts, vals = generate_monotone_graph(2, 6, 12)
        T = OperatorGraph(pts, vals)
        back = graph_of_resolvent(resolvent_of_graph(T))
        assert np.max(np.abs(back.points - T.points)) == 0.0
        assert np.max(np.abs(back.values - T.values)) <= 1e-12

    def test_nonmonotone_input_detected(self):
        # x + x* collides while x differs: the resolvent would be multi-valued
        T = graph_1d([(0.0, 1.0), (1.0, 0.0)], multi_valued=True)
        with pytest.raises(ValueError):
            resolvent_of_graph(T)

    def test_multi_valued_witness_is_first_pair(self):
        pairs = [(0.0, 1.0), (1.0, 0.0), (2.0, 5.0), (5.0, 2.0)]
        T = graph_1d(pairs, multi_valued=True)
        with pytest.raises(ValueError, match=r"pairs \(0, 1\)"):
            resolvent_of_graph(T)

    def test_both_conflict_tolerances_raise(self):
        # T maps 0 -> 1 and 1 -> 5e-11: the images 1 and 1 + 5e-11 lie
        # within 1e-10 but not 1e-12, and their values 0 and 1 differ.
        only_1e10 = graph_1d([(0.0, 1.0), (1.0, 5e-11)])
        # T maps 0 -> 1 and 5e-11 -> 1 - 5e-11: the images agree within
        # 1e-12, and their values 0 and 5e-11 differ beyond 1e-12 only.
        only_1e12 = graph_1d([(0.0, 1.0), (5e-11, 1.0 - 5e-11)])
        # Both are caught by resolvent_of_graph's own check: images within
        # 1e-10 whose values differ by more than the images plus 1e-12.
        cases = ((only_1e10, r"pairs \(0, 1\)"), (only_1e12, r"pairs \(0, 1\)"))
        for T, message in cases:
            ys = T.points + T.values
            near = abs(float(ys[0, 0] - ys[1, 0]))
            apart = abs(float(T.points[0, 0] - T.points[1, 0]))
            at_1e10 = near <= 1e-10 and apart > 1e-10
            at_1e12 = near <= 1e-12 and apart > 1e-12
            assert at_1e10 != at_1e12
            with pytest.raises(ValueError, match=message):
                resolvent_of_graph(T)

    @pytest.mark.parametrize("scale", [1e-10, 1e-12])
    def test_monotone_pair_near_the_tolerances(self, scale):
        # <dx, dv> > 0.  dy = dx + dv = (0.9, 0.9) scale is within scale in
        # the max-abs norm and dx = (1.05, 0.5) scale is not, so a max-abs
        # test at tolerance scale reads a conflict; in Euclidean norms
        # ||dx|| <= ||dy||, as monotonicity guarantees.
        dx, dv = np.array([1.05, 0.5]) * scale, np.array([-0.15, 0.4]) * scale
        T = OperatorGraph(np.array([[0.0, 0.0], dx]), np.array([[0.0, 0.0], dv]))
        assert is_monotone(T).passed and float(dx @ dv) > 0.0
        F = resolvent_of_graph(T)
        assert np.array_equal(F.points, T.points + T.values)
        assert np.array_equal(F.values, T.points)


class TestFirmlyNonexpansive:
    def test_half_identity(self):
        F = graph_1d([(0.0, 0.0), (1.0, 0.5), (-3.0, -1.5)])
        rep = firmly_nonexpansive_check(F)
        assert rep.passed and rep.worst_value > 0.0

    def test_identity_tight(self):
        F = graph_1d([(0.0, 0.0), (1.0, 1.0)])
        rep = firmly_nonexpansive_check(F)
        assert rep.passed
        assert rep.worst_value == pytest.approx(0.0, abs=1e-15)

    def test_negation_fails(self):
        F = graph_1d([(0.0, 0.0), (1.0, -1.0)])
        rep = firmly_nonexpansive_check(F)
        assert not rep.passed
        assert rep.worst_value == pytest.approx(-2.0)

    def test_monotone_iff_firm_resolvent(self):
        for seed in range(6):
            pts, vals = generate_monotone_graph(2, 7, 100 + seed)
            T = OperatorGraph(pts, vals)
            assert is_monotone(T).passed
            F = resolvent_of_graph(T)
            assert firmly_nonexpansive_check(F).passed


class TestProp44Bijection:
    def test_negation_maps_to_zero(self):
        F = graph_1d([(0.0, 0.0), (1.0, -1.0), (-2.0, 2.0)])  # f = -id
        G = nonexpansive_to_firm(F)
        assert np.max(np.abs(G.values)) == 0.0

    def test_rotation_becomes_firm(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]])
        F = OperatorGraph(pts, pts @ rot.T)
        G = nonexpansive_to_firm(F)
        assert firmly_nonexpansive_check(G).passed

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
    def test_round_trip_is_exact(self, xs):
        xs = np.array(sorted(set(round(x, 6) for x in xs))).reshape(-1, 1)
        if xs.shape[0] < 2:
            return
        vals = 0.5 * xs  # contraction, hence non-expansive
        F = OperatorGraph(xs, vals)
        back = firm_to_nonexpansive(nonexpansive_to_firm(F))
        assert np.max(np.abs(back.values - F.values)) <= 1e-12

    def test_expansive_input_rejected(self):
        F = graph_1d([(0.0, 0.0), (1.0, 3.0)])
        with pytest.raises(ValueError):
            nonexpansive_to_firm(F)

    def test_expansive_witness_is_worst_pair(self):
        # (0, 3), (1, 3) and (2, 3) expand by 0.5, 1.5 and 2.5
        F = graph_1d([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 3.5)])
        with pytest.raises(ValueError, match=r"pair \(2, 3\)"):
            nonexpansive_to_firm(F)


class TestFitzpatrick:
    def test_singleton_graph(self):
        T = OperatorGraph(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        v = fitzpatrick_eval(T, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert v == 0.0  # <x, x*> at the graph point, float-exact

    def test_graph_points_are_exact(self):
        for seed in range(5):
            pts, vals = generate_monotone_graph(2, 6, 200 + seed)
            T = OperatorGraph(pts, vals)
            for a, astar in T.pairs():
                expect = float(np.dot(a, astar) if False else sum(u * v for u, v in zip(a, astar)))
                assert fitzpatrick_eval(T, a, astar) == expect

    def test_zero_graph(self):
        T = graph_1d([(0.0, 0.0)])
        assert fitzpatrick_eval(T, np.array([3.0]), np.array([-2.0])) == 0.0

    def test_conjugate_at_transposed_graph_points(self):
        for seed in range(5):
            pts, vals = generate_monotone_graph(2, 5, 300 + seed)
            T = OperatorGraph(pts, vals)
            for a, astar in T.pairs():
                v = fitzpatrick_conj_eval(T, astar, a)
                assert v == pytest.approx(float(a @ astar), abs=1e-8)

    def test_conjugate_outside_hull(self):
        T = graph_1d([(0.0, 0.0), (1.0, 1.0)])
        assert fitzpatrick_conj_eval(T, np.array([5.0]), np.array([5.0])) == float(
            "inf"
        )

    def test_conjugate_two_point_transport(self):
        # atoms (0,0) and (1,1): Phi*(t, t) = t for t in [0, 1]
        T = graph_1d([(0.0, 0.0), (1.0, 1.0)])
        for t in (0.0, 0.3, 0.5, 0.9, 1.0):
            v = fitzpatrick_conj_eval(T, np.array([t]), np.array([t]))
            assert v == pytest.approx(t, abs=1e-8)


def brute_force_psi(T, xt, steps=20_000):
    """Dense 1-D simplex grid oracle for Psi with a 2-atom graph, refined
    around the coarse argmin so kinks resolve below 1e-8."""
    Arows = np.hstack([T.points, T.values])
    Brows = np.hstack([T.values, T.points])
    o = np.sum(T.points * T.values, axis=1)

    def sweep(lo, hi, num):
        lam1 = np.linspace(lo, hi, num)
        lam = np.stack([1.0 - lam1, lam1])  # (2, num)
        p = 2.0 * (Brows @ xt)[:, None] - (Brows @ Arows.T) @ lam - o[:, None]
        r = xt[:, None] - Arows.T @ lam
        vals = 0.5 * p.max(axis=0) + 0.5 * (o @ lam) + 0.5 * np.sum(r * r, axis=0)
        j = int(np.argmin(vals))
        return float(lam1[j]), float(vals[j])

    arg, _ = sweep(0.0, 1.0, steps + 1)
    width = 2.0 / steps
    arg, val = sweep(max(arg - width, 0.0), min(arg + width, 1.0), 40_001)
    return val


class TestPsi:
    def test_equals_pairing_on_graph(self):
        for seed in range(5):
            pts, vals = generate_monotone_graph(1, 4, 400 + seed)
            T = OperatorGraph(pts, vals)
            for a, astar in T.pairs():
                v = psi_eval(T, a, astar)
                assert v == pytest.approx(float(a @ astar), abs=1e-5)

    def test_dominates_pairing_everywhere(self):
        rng = SplitMix64(17)
        pts, vals = generate_monotone_graph(2, 5, 17)
        T = OperatorGraph(pts, vals)
        for _ in range(10):
            x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
            xs = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
            assert psi_eval(T, x, xs) >= float(x @ xs) - 1e-5

    def test_singleton_closed_form(self):
        T = graph_1d([(0.0, 0.0)])
        rng = SplitMix64(19)
        for _ in range(5):
            xt = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
            assert psi_eval(T, xt[:1], xt[1:]) == pytest.approx(
                0.5 * float(xt @ xt), abs=1e-10
            )

    def test_matches_dense_grid_oracle(self):
        T = graph_1d([(0.0, 0.0), (1.0, 1.0)])
        rng = SplitMix64(23)
        for _ in range(6):
            xt = np.array([rng.uniform(-1, 2), rng.uniform(-1, 2)])
            mine = psi_eval(T, xt[:1], xt[1:])
            oracle = brute_force_psi(T, xt)
            assert mine <= oracle + 1e-9  # grid value is an upper bound
            assert mine >= oracle - 1e-6

    def test_quarter_kappa_collapses(self):
        # 1/4 kappa(2x - z, z) = 1/2 ||x - z||^2: the reduction used throughout
        rng = SplitMix64(29)
        for _ in range(20):
            x = np.array([rng.uniform(-3, 3) for _ in range(4)])
            z = np.array([rng.uniform(-3, 3) for _ in range(4)])
            y = 2.0 * x - z
            kappa = 0.5 * float((y - z) @ (y - z))
            assert 0.25 * kappa == pytest.approx(
                0.5 * float((x - z) @ (x - z)), rel=1e-12
            )


@pytest.mark.parametrize(
    "evaluate", [fitzpatrick_eval, fitzpatrick_conj_eval, psi_eval, psi_conj_eval]
)
def test_each_half_must_match_the_graph(evaluate):
    # Halves of lengths 3 and 1 make a point of R^4 = R^(2n), n = 2.
    T = OperatorGraph(np.array([[0.0, 0.0], [1.0, 0.5]]), np.array([[0.0, 0.0], [0.5, 1.0]]))
    with pytest.raises(DimensionMismatchError, match="does not match the graph"):
        evaluate(T, np.array([0.1, 0.2, 0.3]), np.array([0.4]))


class TestAutoconjugacy:
    def test_singleton(self):
        T = graph_1d([(0.0, 0.0)])
        rng = SplitMix64(31)
        samples = [np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)]) for _ in range(5)]
        assert autoconjugacy_check(T, samples) <= 1e-4

    def test_identity_data(self):
        T = graph_1d([(0.0, 0.0), (1.0, 1.0)])
        rng = SplitMix64(37)
        samples = [np.array([rng.uniform(-1, 2), rng.uniform(-1, 2)]) for _ in range(8)]
        assert autoconjugacy_check(T, samples) <= 1e-4

    def test_graph_points_equal_pairing_both_sides(self):
        pts, vals = generate_monotone_graph(2, 5, 500)
        T = OperatorGraph(pts, vals)
        for a, astar in T.pairs():
            xt = np.concatenate([a, astar])
            lhs = psi_conj_eval(T, astar, a)
            rhs = psi_eval(T, a, astar)
            pairing = float(a @ astar)
            assert lhs == pytest.approx(pairing, abs=1e-4)
            assert rhs == pytest.approx(pairing, abs=1e-4)


def brute_force_resolvent(T, x, lo=-3.0, hi=3.0, steps=600):
    """Dense grid oracle over y for the 1-D joint resolvent objective."""
    Arows = np.hstack([T.points, T.values])
    Brows = np.hstack([T.values, T.points])
    o = np.sum(T.points * T.values, axis=1)
    BA = Brows @ Arows.T
    best, arg = np.inf, None
    for y in np.linspace(lo, hi, steps + 1):
        xt = np.array([y, x - y])
        for lam1 in np.linspace(0.0, 1.0, 201):
            lam = np.array([1.0 - lam1, lam1]) if T.size == 2 else np.array([1.0])
            p = 2.0 * (Brows @ xt) - BA @ lam - o
            r = xt - Arows.T @ lam
            val = (
                0.5 * np.max(p)
                + 0.5 * float(o @ lam)
                + 0.5 * float(r @ r)
                - y * (x - y)
            )
            if val < best:
                best, arg = val, y
    return arg, best


class TestResolvent:
    def test_interpolates_graph_data(self):
        for seed in range(4):
            pts, vals = generate_monotone_graph(2, 5, 600 + seed)
            T = OperatorGraph(pts, vals)
            for a, astar in T.pairs():
                y, residual = resolvent_eval(T, a + astar)
                assert residual <= 1e-6
                assert np.max(np.abs(y - a)) <= 1e-5

    def test_singleton_zero_fixed_point(self):
        T = graph_1d([(0.0, 0.0)])
        y, residual = resolvent_eval(T, np.array([0.0]))
        assert residual <= 1e-12
        assert abs(y[0]) <= 1e-9

    def test_identity_data_midpoint_vs_oracle(self):
        T = graph_1d([(0.0, 0.0), (1.0, 1.0)])
        y, residual = resolvent_eval(T, np.array([1.0]))
        assert residual <= 1e-6
        arg, _ = brute_force_resolvent(T, 1.0)
        assert y[0] == pytest.approx(arg, abs=1e-2)
        assert y[0] == pytest.approx(0.5, abs=1e-5)

    def test_firmly_nonexpansive_across_queries(self):
        rng = SplitMix64(41)
        pts, vals = generate_monotone_graph(2, 6, 41)
        T = OperatorGraph(pts, vals)
        queries, images = [], []
        for _ in range(8):
            x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
            y, residual = resolvent_eval(T, x)
            assert residual <= 1e-6
            queries.append(x)
            images.append(y)
        for i in range(len(queries)):
            for j in range(i + 1, len(queries)):
                dx = queries[i] - queries[j]
                dy = images[i] - images[j]
                assert float(dy @ dx) - float(dy @ dy) >= -1e-5


def _unconverged_qp(P, q, A_eq, b_eq, G, h, z0, *, name, **kwargs):
    raise SolverCapError(f"{name} capped at 321 iterations")


class TestSolverCap:
    @pytest.mark.parametrize(
        "what, call",
        [
            ("resolvent", lambda T: resolvent_eval(T, [0.5])),
            ("Psi", lambda T: psi_eval(T, [0.5], [0.25])),
            ("Psi conjugate", lambda T: psi_conj_eval(T, [0.5], [0.25])),
        ],
    )
    def test_unconverged_qp_raises(self, monkeypatch, what, call):
        monkeypatch.setattr(monotone, "solve_qp", _unconverged_qp)
        T = graph_1d([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(SolverCapError, match=f"^{what} QP capped at 321 iterations$"):
            call(T)


def uniform_start(Brows, BA, o, xt):
    """The start the vertex start replaced: uniform weights, one active row."""
    k = BA.shape[0]
    lam0 = np.full(k, 1.0 / k)
    p0 = monotone._epigraph_rows(Brows, BA, o, xt, lam0)
    return lam0, float(np.max(p0)), [int(np.argmax(p0))]


def random_map_data(rng, k):
    A = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(k)])
    B = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(k)])
    return FiniteMapData(A, B)


class TestVertexStart:
    def compare_starts(self, T, queries, monkeypatch):
        vertex = [resolvent_eval(T, x) for x in queries]
        with monkeypatch.context() as mp:
            mp.setattr(monotone, "_vertex_start", uniform_start)
            uniform = [resolvent_eval(T, x) for x in queries]
        for (y1, r1), (y2, r2) in zip(vertex, uniform):
            assert r1 <= 1e-12 and r2 <= 1e-12
            assert np.max(np.abs(y1 - y2)) <= 1e-12 * (1.0 + np.max(np.abs(y2)))

    def test_same_resolvent_as_uniform_start_on_tight_data(self, monkeypatch):
        rng = SplitMix64(11)
        for _ in range(20):
            T = ExtensionModel(random_map_data(rng, 3 + rng.integer(5)), "proxavg").graph
            queries = [np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)]) for _ in range(5)]
            self.compare_starts(T, queries, monkeypatch)

    def test_same_resolvent_when_every_epigraph_row_is_active(self, monkeypatch):
        # Generated data with its empirical L is an isometry, so at queries
        # inside the data all k epigraph rows are tight at the optimum.
        tight = []

        def recording_qp(P, q, A_eq, b_eq, G, h, z0, **kwargs):
            z, info = solve_qp(P, q, A_eq, b_eq, G, h, z0, **kwargs)
            k = G.shape[0] // 2
            tight.append(int(np.sum(h[:k] - G[:k] @ z <= 1e-9)))
            return z, info

        monkeypatch.setattr(monotone, "solve_qp", recording_qp)
        data = generate_lipschitz_data(2, 2, 48, 3)
        T = ExtensionModel(FiniteMapData(data.points, data.values), "proxavg").graph
        rng = SplitMix64(9)
        queries = [np.array([rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5)]) for _ in range(4)]
        self.compare_starts(T, queries, monkeypatch)
        assert tight.count(48) >= 2  # on both starts

    def test_proxavg_iterations_per_query(self, monkeypatch):
        # Counts iterations, not seconds.  On this data the uniform start took
        # about 71 iterations per query and the vertex start about 21.
        iters = []

        def counting_qp(*args, **kwargs):
            z, info = solve_qp(*args, **kwargs)
            iters.append(info["iters"])
            return z, info

        monkeypatch.setattr(monotone, "solve_qp", counting_qp)

        def run():
            rng = SplitMix64(48)
            model = ExtensionModel(random_map_data(rng, 48), "proxavg")
            return [
                model.query([rng.uniform(-1.25, 1.25), rng.uniform(-1.25, 1.25)])[0]
                for _ in range(40)
            ]

        first = run()
        assert len(iters) == 40 and np.mean(iters) <= 35
        second = run()
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
