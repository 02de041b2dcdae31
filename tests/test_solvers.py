import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from lipext import convex_functions as cf, convex_sets, monotone, solvers
from lipext.extension import ExtensionModel
from lipext.gen import generate_lipschitz_data
from lipext.convex_sets import least_squares_points
from lipext.errors import SolverCapError
from lipext.geometry import Ball, Polytope, SimplexWeights
from lipext.rng import SplitMix64
from lipext.solvers import (
    SolveReport,
    _nullspace,
    chebyshev_center,
    minimize_quadratic_over_simplex,
    solve_qp,
)
from test_helly import cut_cycling_family


def projection_instance(vertices, x):
    """Q, c, constant for min ||V'l - x||^2 over the simplex."""
    V = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    return 2.0 * (V @ V.T), -2.0 * (V @ x), float(x @ x)


def simplex_grid(k, steps):
    """All simplex points with coordinates i/steps (dense enumeration oracle)."""
    for comp in itertools.product(range(steps + 1), repeat=k - 1):
        if sum(comp) <= steps:
            yield np.array(list(comp) + [steps - sum(comp)], dtype=float) / steps


class TestFrankWolfe:
    def test_symmetric_projection(self):
        Q, c, c0 = projection_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        rep = minimize_quadratic_over_simplex(Q, c, 2, constant=c0)
        assert np.allclose(rep.argmin.weights, [0.5, 0.5], atol=1e-9)
        assert rep.value == pytest.approx(0.5, abs=1e-9)
        assert rep.residual <= solvers.TOL * (1.0 + abs(rep.value))

    def test_single_vertex_forced(self):
        Q, c, c0 = projection_instance([[2.0, 1.0]], [0.0, 0.0])
        rep = minimize_quadratic_over_simplex(Q, c, 1, constant=c0)
        assert np.allclose(rep.argmin.weights, [1.0])
        assert rep.residual == 0.0

    def test_segment_interior(self):
        # v1=(0,0), v2=(2,0), x=(0.5,0): hand solution l=(0.75, 0.25), value 0
        Q, c, c0 = projection_instance([[0.0, 0.0], [2.0, 0.0]], [0.5, 0.0])
        rep = minimize_quadratic_over_simplex(Q, c, 2, constant=c0)
        assert np.allclose(rep.argmin.weights, [0.75, 0.25], atol=1e-8)
        assert rep.value == pytest.approx(0.0, abs=1e-10)

    def test_gap_certifies_against_enumeration(self):
        rng = SplitMix64(2024)
        for k in (2, 3, 4):
            for _ in range(8):
                M = np.array([[rng.uniform(-1, 1) for _ in range(k)] for _ in range(k)])
                Q = M @ M.T  # PSD
                c = np.array([rng.uniform(-1, 1) for _ in range(k)])
                rep = minimize_quadratic_over_simplex(Q, c, k)
                true_min = min(
                    0.5 * float(l @ (Q @ l)) + float(c @ l)
                    for l in simplex_grid(k, 40)
                )
                assert rep.value - true_min <= rep.residual + 1e-9

    def test_gap_miss_raises(self, monkeypatch):
        # A QP that stops at the start vertex e_0 with converged set: the
        # projection of (1, 1) onto the segment [e_0, e_1] leaves a gap of 2.
        def stalled(P, q, A_eq, b_eq, G, h, z0, **kwargs):
            return np.array(z0, dtype=float), {"converged": True, "iters": 1}

        monkeypatch.setattr(solvers, "solve_qp", stalled)
        Q, c, c0 = projection_instance([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        with pytest.raises(SolverCapError, match="duality gap 2.000e"):
            minimize_quadratic_over_simplex(Q, c, 2, constant=c0)

    def test_bit_identical_reports(self):
        Q, c, c0 = projection_instance(
            [[0.3, 1.0], [2.0, -0.4], [-1.0, 0.7]], [0.4, 0.2]
        )
        a = minimize_quadratic_over_simplex(Q, c, 3, constant=c0)
        b = minimize_quadratic_over_simplex(Q, c, 3, constant=c0)
        assert dataclasses.asdict(a)["value"] == dataclasses.asdict(b)["value"]
        assert np.array_equal(a.argmin.weights, b.argmin.weights)
        assert (a.residual, a.iters) == (b.residual, b.iters)


class TestChebyshevCenter:
    def test_two_disjoint_balls(self):
        y, t = chebyshev_center([[0.0, 0.0], [4.0, 0.0]], [1.0, 1.0])
        assert np.allclose(y, [2.0, 0.0], atol=1e-12)
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_nested_balls(self):
        # The deepest point of B(0, 1) inside B(0.5, 3) is 0, at depth -1.
        y, t = chebyshev_center([[0.0], [0.5]], [1.0, 3.0])
        assert abs(y[0]) <= 1e-12 and t == pytest.approx(-1.0, abs=1e-12)

    def test_newton_cap_raises(self, monkeypatch):
        # A dual that always reports phi = 1e-6 > 0 moves t by about 5e-7 a
        # step, so 80 steps meet neither the phi nor the bracket test.
        def stuck(quad, c, k, *, constant=0.0, memo=None):
            return SolveReport(SimplexWeights(np.full(k, 1.0 / k)), -1e-6, 0.0, 1)

        monkeypatch.setattr(solvers, "minimize_quadratic_over_simplex", stuck)
        with pytest.raises(SolverCapError, match="80 steps"):
            chebyshev_center([[0.0, 0.0], [10.0, 0.0]], [1.0, 1.0])


class TestActiveSetQP:
    def test_matches_enumeration_on_simplex(self):
        # From the barycenter, with no bound in the working set: the value is
        # at most the grid's best, and the duality gap certifies optimality.
        rng = SplitMix64(7)
        for k, steps in ((2, 40), (3, 40), (5, 16)):
            for _ in range(6):
                M = np.array([[rng.uniform(-1, 1) for _ in range(k)] for _ in range(k)])
                Q = M @ M.T + 0.1 * np.eye(k)
                c = np.array([rng.uniform(-1, 1) for _ in range(k)])
                z, info = solve_qp(
                    Q, c, np.ones((1, k)), [1.0], -np.eye(k), np.zeros(k),
                    np.full(k, 1.0 / k),
                )
                assert info["converged"]
                assert np.min(z) >= -1e-15 and abs(z.sum() - 1.0) <= 1e-15
                vqp = 0.5 * float(z @ (Q @ z)) + float(c @ z)
                grid = min(
                    0.5 * float(l @ (Q @ l)) + float(c @ l)
                    for l in simplex_grid(k, steps)
                )
                assert vqp <= grid + 1e-12
                g = Q @ z + c
                assert float(g @ z - np.min(g)) <= 1e-12

    def test_linear_piece_with_epigraph(self):
        # min t subject to t >= x, t >= -x, x free: optimum (0, 0)
        P = np.zeros((2, 2))
        q = np.array([0.0, 1.0])
        G = np.array([[1.0, -1.0], [-1.0, -1.0]])
        h = np.zeros(2)
        z, info = solve_qp(P, q, np.zeros((0, 2)), [], G, h, np.array([0.3, 1.0]))
        assert info["converged"]
        assert abs(z[0]) <= 1e-9 and abs(z[1]) <= 1e-9

    def test_tiny_reduced_curvature_is_stationary(self):
        # A conjugate-screen projection whose reduced Hessian has a tiny
        # positive eigenvalue: the Newton step -g/w magnifies rounding in the
        # reduced gradient, so a step-size test alone cycles to the cap.
        S = np.array([[0.5549663593824301], [-0.7033066551201903],
                      [0.5560908057516791], [0.3723782414091803],
                      [0.683234723614399]])
        y = np.array([0.5560843464366104])
        Q, c = 2.0 * (S @ S.T), -2.0 * (S @ y)
        z, info = solve_qp(
            Q, c, np.ones((1, 5)), [1.0], -np.eye(5), np.zeros(5), np.eye(5)[2],
            initial_active=[0, 1, 3, 4],
        )
        assert info["converged"] and info["iters"] <= 10
        assert abs(float(z @ S[:, 0]) - y[0]) <= 1e-12
        assert np.min(z) >= -1e-15 and abs(z.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize("kwargs, message", [
        ({}, "QP is unbounded below"),
        ({"name": "epigraph LP"}, "epigraph LP is unbounded below"),
    ])
    def test_unbounded_ray_names_the_qp(self, kwargs, message):
        # min z subject to z <= 1: no row blocks the ray z -> -inf.
        with pytest.raises(SolverCapError, match=f"^{message}$"):
            solve_qp(
                np.zeros((1, 1)), [1.0], np.zeros((0, 1)), [], np.array([[1.0]]), [1.0],
                np.zeros(1), **kwargs,
            )

    def test_no_inequalities(self):
        z, info = solve_qp(
            np.eye(2), [1.0, -1.0], np.zeros((0, 2)), [], np.zeros((0, 2)), [],
            np.zeros(2),
        )
        assert info["converged"]
        assert np.allclose(z, [-1.0, 1.0], rtol=0.0, atol=1e-15)


def _graph():
    return monotone.OperatorGraph(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]))


# solve_qp itself and each caller that names its QP.  Every call reaches
# solve_qp: the simplex instance's start vertex e_0 is not optimal, and the
# conjugate's screen at the slope y = 1 is.
CAPPED_CALLS = [
    pytest.param("QP", lambda: solve_qp(
        np.eye(2), [1.0, -1.0], np.ones((1, 2)), [1.0], -np.eye(2), np.zeros(2),
        np.array([1.0, 0.0]), initial_active=[1],
    ), id="QP"),
    pytest.param("simplex QP", lambda: minimize_quadratic_over_simplex(
        np.eye(2), np.zeros(2), 2,
    ), id="simplex"),
    pytest.param("conjugate LP", lambda: cf.eval(cf.conjugate(cf.MaxAffine(
        np.array([[1.0], [-1.0]]), np.array([0.5, 0.0]),
    )), [1.0]), id="conjugate"),
    pytest.param("resolvent QP", lambda: monotone.resolvent_eval(_graph(), [0.5]),
                 id="resolvent"),
    pytest.param("Psi QP", lambda: monotone.psi_eval(_graph(), [0.5], [0.25]), id="Psi"),
    pytest.param("Psi conjugate QP", lambda: monotone.psi_conj_eval(
        _graph(), [0.5], [0.25],
    ), id="Psi-conjugate"),
    pytest.param("least-squares QP", lambda: least_squares_points((
        Polytope([[0.0, 0.0], [0.0, 1.0]]), Polytope([[2.0, 0.0], [2.0, 1.0]]),
    )), id="least-squares"),
]


@pytest.mark.parametrize("name, call", CAPPED_CALLS)
def test_cap_raises_with_the_callers_name(monkeypatch, name, call):
    # solve_qp raises at its cap, and the message names the caller's QP.
    # Every point is stationary and row 0 is always dropped, so no solve
    # reaches a KKT point.
    rows = []

    def drop_row_0(grad, local, active, ws, G, *args):
        rows.append(G.shape[0])
        return [0]

    monkeypatch.setattr(solvers, "_direction", lambda *args: (None, False))
    monkeypatch.setattr(solvers, "_drop_row", drop_row_0)
    with pytest.raises(SolverCapError) as err:
        call()
    assert str(err.value) == f"{name} capped at {200 + 80 * (rows[0] + 1)} iterations"


def full_svd_nullspace(C, K):
    """Reference: null space of the whole working set by one full SVD."""
    if C.shape[0] == 0:
        return np.eye(K)
    _, s, vt = np.linalg.svd(C, full_matrices=True)
    rank = int(np.sum(s > max(C.shape) * s[0] * 1e-13))
    return vt[rank:].T


class TestNullspace:
    COEFFS = (1.0, -1.0, 2.5, -0.3)  # singleton rows: unit, negative, non-unit

    def check(self, general, singles, K):
        """_nullspace of the general rows with the singletons' columns pinned
        against the full SVD of [general; singleton rows]."""
        fixed = np.zeros(K, dtype=bool)
        rows = []
        for col, coeff in singles:
            fixed[col] = True
            row = np.zeros(K)
            row[col] = coeff
            rows.append(row)
        Z, svd = _nullspace(general, K, fixed)
        ref = full_svd_nullspace(np.vstack([general, *rows]).reshape(-1, K), K)
        assert Z.shape == ref.shape
        assert np.allclose(Z.T @ Z, np.eye(Z.shape[1]), rtol=0.0, atol=1e-12)
        assert np.all(Z[fixed] == 0.0)
        assert np.max(np.abs(Z @ Z.T - ref @ ref.T), initial=0.0) <= 1e-12
        # The rank part of the SVD over the free columns rebuilds them.
        if general.shape[0] == 0:
            assert svd is None
        else:
            u, sv, vt = svd
            assert np.allclose(u @ (sv[:, None] * vt), general[:, ~fixed], atol=1e-12)

    def test_matches_full_svd_with_planted_singletons(self):
        rng = SplitMix64(31)
        for _ in range(60):
            K = 2 + rng.integer(9)
            general = np.array(
                [[rng.uniform(-1, 1) for _ in range(K)] for _ in range(rng.integer(K))]
            ).reshape(-1, K)
            singles = [
                (col, self.COEFFS[rng.integer(4)])
                for col in range(K)
                if rng.uniform(0, 1) < 0.4
            ]
            self.check(general, singles, K)

    def test_edge_cases(self):
        K = 5
        dense = np.array([[0.3, -1.0, 0.7, 2.0, -0.4]])
        every = [(col, self.COEFFS[col % 4]) for col in range(K)]
        self.check(np.zeros((0, K)), [], K)  # no rows: the identity
        self.check(np.zeros((0, K)), every, K)  # every column pinned
        self.check(dense, every, K)
        self.check(dense, [(1, -2.5), (1, 1.0)], K)  # one column pinned twice


def _points(rng, count, n, lo=-1.0, hi=1.0):
    return np.array([[rng.uniform(lo, hi) for _ in range(n)] for _ in range(count)])


def _simplex_instances():
    # Full-rank and singular (projection) Hessians, k = 2..10.
    rng = SplitMix64(5150)
    for k in range(2, 11):
        for _ in range(3):
            M = _points(rng, k, k)
            solvers.minimize_quadratic_over_simplex(M @ M.T, _points(rng, 1, k)[0], k)
            Q, c, c0 = projection_instance(_points(rng, k, 2), _points(rng, 1, 2)[0])
            solvers.minimize_quadratic_over_simplex(Q, c, k, constant=c0)


def _conjugate_lp_instances():
    # Vertices, interior points, and interior points scaled by 1 + 1e-7.
    rng = SplitMix64(5151)
    for n in (1, 2):
        for k in range(3, 9):
            node = cf.MaxAffineConjugate(_points(rng, k, n), _points(rng, 1, k)[0])
            for _ in range(4):
                w = np.array([rng.uniform(0.0, 1.0) for _ in range(k)])
                inside = (w / w.sum()) @ node.slopes
                for y in (node.slopes[rng.integer(k)], inside, inside * (1 + 1e-7)):
                    cf._polyhedral_conjugate_value(node, y)


def _resolvent_instances(k):
    def run():
        model = ExtensionModel(generate_lipschitz_data(2, 2, k, 5152 + k), "proxavg")
        rng = SplitMix64(5153)
        for _ in range(12):
            model.query(np.array([rng.uniform(-2.5, 2.5) for _ in range(2)]))
    return run


def _psi_instances():
    rng = SplitMix64(5154)
    T = ExtensionModel(generate_lipschitz_data(2, 2, 8, 5155), "proxavg").graph
    for _ in range(6):
        s = _points(rng, 1, 4, -2.0, 2.0)[0]
        monotone.psi_eval(T, s[:2], s[2:])
        monotone.psi_conj_eval(T, s[:2], s[2:])


def _fitzpatrick_conj_instances():
    # Points in the hull of the transposed atoms (a_i*, a_i), and outside it.
    rng = SplitMix64(5157)
    T = ExtensionModel(generate_lipschitz_data(2, 2, 8, 5158), "proxavg").graph
    atoms = np.hstack([T.values, T.points])
    for _ in range(8):
        w = np.array([rng.uniform(0.0, 1.0) for _ in range(T.size)])
        y = (w / w.sum()) @ atoms
        monotone.fitzpatrick_conj_eval(T, y[:2], y[2:])
        monotone.fitzpatrick_conj_eval(T, 3.0 * y[:2], y[2:])


def _least_squares_instances():
    rng = SplitMix64(5156)
    for n in (1, 2, 3):
        for m in (2, 3, 4):
            bodies = [
                Ball(_points(rng, 1, n)[0], rng.uniform(0.1, 0.8))
                if rng.uniform(0, 1) < 0.4
                else Polytope(_points(rng, 1 + rng.integer(5), n))
                for _ in range(m)
            ]
            bodies[0] = Polytope(_points(rng, 2, n))
            least_squares_points(bodies)


class TestRatioTest:
    """Every inactive row with (G d)_i > 0 blocks a step, so no solve_qp
    result lies outside a row of G z <= h by more than rounding."""

    def crossings(self, monkeypatch, run):
        """max_i (G z - h)_i / (1 + |h_i|) of each solve_qp that run() makes
        through convex_sets."""
        worst = []

        def recording(P, q, A_eq, b_eq, G, h, z0, **kwargs):
            z, info = solve_qp(P, q, A_eq, b_eq, G, h, z0, **kwargs)
            excess = (np.asarray(G) @ z - h) / (1.0 + np.abs(h))
            worst.append(float(np.max(excess, initial=-np.inf)))
            return z, info

        monkeypatch.setattr(convex_sets, "solve_qp", recording)
        run()
        return worst

    @pytest.mark.parametrize("shift", [0.0, 1e4, 1e5])
    def test_cut_rounds_of_a_polytope_and_a_ball(self, monkeypatch, shift):
        bodies = cut_cycling_family(shift).bodies
        worst = self.crossings(monkeypatch, lambda: least_squares_points(bodies))
        assert len(worst) > 1 and max(worst) <= 1e-12

    def test_least_squares_instances(self, monkeypatch):
        worst = self.crossings(monkeypatch, _least_squares_instances)
        assert len(worst) == 42 and max(worst) <= 1e-12


def working_sets(memo):
    """The active rows of each working set solve_qp met, in the order it
    first met them (the memo's insertion order)."""
    return [
        tuple(np.flatnonzero(np.frombuffer(key, dtype=bool)).tolist())
        for key in memo if isinstance(key, bytes)
    ]


class TestDropRule:
    """At a stationary point solve_qp drops the most negative multiplier
    (Dantzig's rule, ties by index), after a step with alpha = 0 the
    lowest-index one (Bland's rule), and never a row that blocked the step
    its own drop opened, until z moves."""

    @staticmethod
    def projection(t, G, active):
        """Minimize 1/2 ||z - t||^2 subject to G z <= 0 from z = 0, and the
        working sets met."""
        memo = {}
        K = len(t)
        z, _ = solve_qp(
            np.eye(K), -np.asarray(t, dtype=float), np.zeros((0, K)), [],
            G, np.zeros(len(G)), np.zeros(K), initial_active=active, memo=memo,
        )
        return z, working_sets(memo)

    def test_most_negative_multiplier_leaves_first(self):
        # z >= 0 from the origin: bound i's multiplier is -t_i, so Bland's
        # rule would free z_0, z_1, z_2 in turn; Dantzig's frees z_1 (-3),
        # then z_2 (-2), then z_0 (-1).
        z, sets = self.projection([1.0, 3.0, 2.0], -np.eye(3), [0, 1, 2])
        assert sets == [(0, 1, 2), (0, 2), (0,), ()]
        assert z.tolist() == [1.0, 3.0, 2.0]

    def test_zero_step_switches_to_bland(self):
        # Row 3 (z_2 <= 0) holds at the origin.  Freeing z_2 first (-3, the
        # most negative) opens a step that row 3 blocks at alpha = 0.  Bounds
        # 0 and 1 then have multipliers -1 and -2: Dantzig's rule would free
        # z_1, but from that step on the lowest index, z_0, goes first.
        G = np.vstack([-np.eye(3), [0.0, 0.0, 1.0]])
        z, sets = self.projection([1.0, 2.0, 3.0], G, [0, 1, 2])
        assert sets == [(0, 1, 2), (0, 1), (0, 1, 3), (1, 3), (3,)]
        assert z.tolist() == [1.0, 2.0, 0.0]

    def test_self_blocked_row_is_frozen(self, monkeypatch):
        # Bound 0 (z_0 >= 0) has multiplier +1 at every point here, but a
        # drop rule that reads it as negative, as rounding can at a
        # degenerate point, offers it first.  Its drop opens the step
        # z_0 -> -1, which row 0 itself blocks at alpha = 0: it goes back in,
        # frozen, and z_1's bound (-2) leaves instead.  Once z moved, row 0
        # is offered again, blocks again, and with no other candidate the
        # solve ends at the KKT point instead of cycling to its cap.
        real = solvers._drop_row
        seen = []

        def noisy(grad, local, active, *args):
            seen.append(tuple(np.flatnonzero(active).tolist()))
            rows = real(grad, local, active, *args)
            return [0] + rows if active[0] else rows

        monkeypatch.setattr(solvers, "_drop_row", noisy)
        z, _ = self.projection([-1.0, 2.0], -np.eye(2), [0, 1])
        assert seen == [(0, 1), (0, 1), (0,), (0,)]
        assert z.tolist() == [0.0, 2.0]


class TestSolveQPDigest:
    """SHA-256 over the z bytes and iteration counts of every solve_qp that
    each caller makes on seeded instances, recorded before the QP's constant
    data were hoisted and its null space reused: any change of the
    active-set path that moves a bit of an iterate's outcome shows here.
    Re-recorded when solve_qp began to drop the most negative multiplier
    (Dantzig's rule) instead of the lowest-index one.  conjugate-lp went
    from 133 to 144 solves when the polyhedral conjugate dropped its value
    memo: 11 repeated probes solve again, and with the repeats dropped its
    (b_eq, z, iters) records equal the 133 before, in order.

    The simplex wrapper returns a start vertex that is already optimal
    without calling solve_qp, so the simplex shape hashes the wrapper's
    reports instead (argmin bytes, value, residual, iters), recorded before
    that shortcut."""

    SHAPES = {
        "simplex": (solvers, _simplex_instances),
        "conjugate-lp": (cf, _conjugate_lp_instances),
        "resolvent-8": (monotone, _resolvent_instances(8)),
        "resolvent-48": (monotone, _resolvent_instances(48)),
        "psi": (monotone, _psi_instances),
        "fitzpatrick-conj": (cf, _fitzpatrick_conj_instances),
        "least-squares": (convex_sets, _least_squares_instances),
    }
    GOLDEN = {
        "conjugate-lp": (
            144, "d91050c286dbeb1c9c51e559a29e04550d092f244de568aa7c4f180fcf4d1912"
        ),
        "fitzpatrick-conj": (
            8, "459b6285f8d0a02716138fcd3f6b2079a2cf6fa04ea72f6685fa3d893039fec8"
        ),
        "least-squares": (
            42, "5dbd818837c3b9e7eb8403141bb907a5cf69c16761405a8694b9902fc52fba75"
        ),
        "psi": (
            12, "74a117949d45266ee82b66020877fb48198ed984a02a81b82c9e6894f2d3ad2a"
        ),
        "resolvent-48": (
            12, "45692893b51ceca096a75cf6c5910f70ed195b376008bd2dae22ed6ffc94cdf5"
        ),
        "resolvent-8": (
            12, "db1fb66a9f9296cb03f0985420da3a476fae42fd048f82238d0d64b805560162"
        ),
        "simplex": (
            54, "f6bbce60c0b6a20bb075d7dd443ac30b342a910a1168feba20189df18b5aa1b7"
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_digest_matches_recorded(self, monkeypatch, shape):
        module, run = self.SHAPES[shape]
        digest = hashlib.sha256()
        solves = []

        def solve_recording(*args, **kwargs):
            z, info = solve_qp(*args, **kwargs)
            digest.update(z.tobytes())
            digest.update(info["iters"].to_bytes(4, "little"))
            solves.append(info["iters"])
            return z, info

        def report_recording(*args, **kwargs):
            report = minimize_quadratic_over_simplex(*args, **kwargs)
            digest.update(report.argmin.weights.tobytes())
            digest.update(np.array([report.value, report.residual]).tobytes())
            digest.update(report.iters.to_bytes(4, "little"))
            solves.append(report.iters)
            return report

        if shape == "simplex":
            monkeypatch.setattr(module, "minimize_quadratic_over_simplex", report_recording)
        else:
            monkeypatch.setattr(module, "solve_qp", solve_recording)
        run()
        assert (len(solves), digest.hexdigest()) == self.GOLDEN[shape]


def _first_qp(monkeypatch, module, run):
    """The arguments of the first solve_qp that run() makes through module."""
    seen = []

    def capture(*args, **kwargs):
        seen.append((args, kwargs))
        return solve_qp(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(module, "solve_qp", capture)
        run()
    return seen[0]


class TestWorkingSetReuse:
    """solve_qp factors the working set once, then again after each change
    of it, and reuses the factor on the iterations in between."""

    def refactors(self, monkeypatch, args, kwargs):
        """(working set at each _nullspace call, solve_qp's info) of the QP
        replayed with a fresh memo: the caller's was filled by its own run."""
        P, q, A_eq, b_eq, G, h, z0 = args
        me = np.asarray(A_eq).reshape(-1, len(q)).shape[0]
        sets = []
        real = solvers._nullspace

        def recording(C, K, fixed):
            rows = {int(np.flatnonzero((G == r).all(axis=1))[0]) for r in C[me:]}
            cols = {("col", int(j)) for j in np.flatnonzero(fixed)}
            sets.append(frozenset(rows) | cols)
            return real(C, K, fixed)

        monkeypatch.setattr(solvers, "_nullspace", recording)
        _, info = solve_qp(*args, **{**kwargs, "memo": {}})
        assert info["converged"]
        # Each refactor after the first follows exactly one change (one row
        # entered or left, or one column pinned or freed): none is repeated
        # on an unchanged working set, and no change goes unfactored.
        assert [len(a ^ b) for a, b in zip(sets, sets[1:])] == [1] * (len(sets) - 1)
        return sets, info

    def test_resolvent_qp_at_k48(self, monkeypatch):
        model = ExtensionModel(generate_lipschitz_data(2, 2, 48, 5159), "proxavg")
        rng = SplitMix64(5160)
        for _ in range(3):
            x = np.array([rng.uniform(-2.5, 2.5) for _ in range(2)])
            args, kwargs = _first_qp(monkeypatch, monotone, lambda: model.query(x))
            with monkeypatch.context() as mp:
                sets, info = self.refactors(mp, args, kwargs)
            assert 1 < len(sets) < info["iters"]

    def test_conjugate_lp(self, monkeypatch):
        rng = SplitMix64(5161)
        node = cf.MaxAffineConjugate(_points(rng, 8, 2), _points(rng, 1, 8)[0])
        y = np.full(8, 1.0 / 8) @ node.slopes
        args, kwargs = _first_qp(
            monkeypatch, cf, lambda: cf._polyhedral_conjugate_value(node, y)
        )
        sets, info = self.refactors(monkeypatch, args, kwargs)
        assert 1 < len(sets) <= info["iters"]

    def test_filled_memo_factors_nothing(self, monkeypatch):
        # A second solve with the memo the first one filled refactors no
        # working set and returns the same bits.
        rng = SplitMix64(5161)
        node = cf.MaxAffineConjugate(_points(rng, 8, 2), _points(rng, 1, 8)[0])
        y = np.full(8, 1.0 / 8) @ node.slopes
        args, kwargs = _first_qp(
            monkeypatch, cf, lambda: cf._polyhedral_conjugate_value(node, y)
        )
        memo = {}
        z, info = solve_qp(*args, **{**kwargs, "memo": memo})
        calls = []
        real = solvers._nullspace
        monkeypatch.setattr(
            solvers, "_nullspace", lambda *a: calls.append(a) or real(*a)
        )
        z2, info2 = solve_qp(*args, **{**kwargs, "memo": memo})
        assert calls == []
        assert (z2.tobytes(), info2["iters"]) == (z.tobytes(), info["iters"])
        assert info["iters"] > 1

    def test_linear_memo_serves_any_q(self):
        # With P = 0 the memo holds step plans that depend on q: each is
        # reused for the q that built it and rebuilt for another.
        K = 3
        rest = (np.ones((1, K)), [1.0], -np.eye(K), np.zeros(K), np.full(K, 1.0 / K))
        P = np.zeros((K, K))
        q1, q2 = [0.3, -0.2, 0.1], [0.3, 0.2, -0.1]
        memo = {}
        for q, best in ((q1, 1), (q2, 2), (q1, 1)):
            z, info = solve_qp(P, q, *rest, memo=memo)
            fresh_z, fresh_info = solve_qp(P, q, *rest, memo={})
            assert z[best] == pytest.approx(1.0)
            assert (z.tobytes(), info["iters"]) == (fresh_z.tobytes(), fresh_info["iters"])


def lstsq_drop_row(grad, local, active, ws, G, single, pin_col, me):
    """Reference for solvers._drop_row: the same rows in Dantzig's order,
    with the equalities' and active general rows' multipliers by
    np.linalg.lstsq."""
    act_idx = active.nonzero()[0]
    is_bound = single[act_idx]
    resid = grad
    mult = np.empty(act_idx.size)
    C, free = ws.C, ~ws.fixed
    if C.shape[0]:
        nu, *_ = np.linalg.lstsq(C[:, free].T, -grad[free], rcond=None)
        resid = grad + C.T @ nu
        mult[~is_bound] = nu[me:]
    bounds = act_idx[is_bound]
    cols = pin_col[bounds]
    mult[is_bound] = -resid[cols] / G[bounds, cols]
    neg = (mult < -1e-11 * local).nonzero()[0]
    return [int(act_idx[j]) for j in sorted(neg, key=lambda j: (mult[j], j))]


class TestSVDMultipliers:
    """_drop_row reads its multipliers off the working set's own SVD, so each
    working set is factored once and no multiplier needs np.linalg.lstsq."""

    @pytest.mark.parametrize("shape", ["simplex", "resolvent-48", "least-squares"])
    def test_same_drop_row_as_lstsq(self, monkeypatch, shape):
        real = solvers._drop_row
        picks = []

        def checked(*args):
            rows = real(*args)
            picks.append((rows, lstsq_drop_row(*args)))
            return rows

        monkeypatch.setattr(solvers, "_drop_row", checked)
        TestSolveQPDigest.SHAPES[shape][1]()
        assert [svd for svd, _ in picks] == [ref for _, ref in picks]
        assert any(rows for rows, _ in picks) and not all(rows for rows, _ in picks)

    def test_conjugate_probes_factor_each_working_set_once(self, monkeypatch):
        rng = SplitMix64(5162)
        node = cf.MaxAffineConjugate(_points(rng, 8, 2), _points(rng, 1, 8)[0])
        probes = [node.slopes[i] for i in range(8)]
        for _ in range(30):
            w = np.array([rng.uniform(0.0, 1.0) for _ in range(8)])
            probes.append((w / w.sum()) @ node.slopes)
        probes += [1.5 * p for p in probes[8:18]]  # some outside the hull
        svds, lstsqs, inside = [], [], []
        real_svd, real_lstsq = np.linalg.svd, np.linalg.lstsq
        real_drop = solvers._drop_row

        def svd(*args, **kwargs):
            svds.append(args[0].shape)
            return real_svd(*args, **kwargs)

        def lstsq(*args, **kwargs):
            lstsqs.append(bool(inside))
            return real_lstsq(*args, **kwargs)

        def drop_row(*args):
            inside.append(True)
            try:
                return real_drop(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        monkeypatch.setattr(solvers, "_drop_row", drop_row)
        for y in probes + probes:
            cf._polyhedral_conjugate_value(node, y)
        memos = node._constants[-2:]
        entries = sum(isinstance(key, bytes) for memo in memos for key in memo)
        assert len(svds) == entries > 8
        assert lstsqs.count(True) == 0


class TestCarriedWorkingSets:
    """Each OperatorGraph carries, per QP family, the working sets of its
    last call into the next: no bit of a result moves, and nothing else is
    kept."""

    @staticmethod
    def queries(count):
        """count / 2 seeded points, each followed by itself moved by 0.05."""
        rng = SplitMix64(5163)
        for _ in range(count // 2):
            x = np.array([rng.uniform(-2.5, 2.5) for _ in range(2)])
            yield x
            yield x + 0.05

    @staticmethod
    def graph():
        return ExtensionModel(generate_lipschitz_data(2, 2, 48, 5164), "proxavg").graph

    def test_paired_queries_match_fresh_graphs(self, monkeypatch):
        T = self.graph()
        factored = {"carried": 0, "fresh": 0}
        real = solvers._nullspace
        side = ["carried"]

        def counting(*args):
            factored[side[0]] += 1
            return real(*args)

        monkeypatch.setattr(solvers, "_nullspace", counting)

        def same_bits(evaluate, *args):
            """evaluate on T, then on a fresh graph of the same pairs."""
            side[0] = "carried"
            out = np.hstack(evaluate(T, *args))
            side[0] = "fresh"
            ref = np.hstack(evaluate(monotone.OperatorGraph(T.points, T.values), *args))
            return out.tobytes() == ref.tobytes()

        def psi(G, s):
            return (monotone.psi_eval(G, s[:2], s[2:]),
                    monotone.psi_conj_eval(G, s[2:], s[:2]))

        assert all(same_bits(monotone.resolvent_eval, x) for x in self.queries(40))
        assert all(same_bits(psi, np.hstack([x, 0.5 * x])) for x in self.queries(8))
        # The second query of each pair meets working sets of the first.
        assert 0 < factored["carried"] < factored["fresh"]

    def test_graph_keeps_only_the_last_calls_working_sets(self, monkeypatch):
        T = self.graph()
        memo = T._resolvent_constants[3]
        sizes = []
        for x in self.queries(10):
            args, kwargs = _first_qp(
                monkeypatch, monotone, lambda: monotone.resolvent_eval(T, x)
            )
            met = {}
            solve_qp(*args, **{**kwargs, "memo": met})
            assert set(memo) == set(met)
            sizes.append(len(met))
        assert max(sizes) > 3
