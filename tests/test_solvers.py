import dataclasses
import itertools

import numpy as np
import pytest

from lipext import solvers
from lipext.errors import SolverCapError
from lipext.geometry import SimplexWeights
from lipext.rng import SplitMix64
from lipext.solvers import (
    SolveReport,
    _nullspace,
    chebyshev_center,
    minimize_quadratic_over_simplex,
    solve_qp,
)


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
        assert rep.converged

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

    def test_bit_identical_reports(self):
        Q, c, c0 = projection_instance(
            [[0.3, 1.0], [2.0, -0.4], [-1.0, 0.7]], [0.4, 0.2]
        )
        a = minimize_quadratic_over_simplex(Q, c, 3, constant=c0)
        b = minimize_quadratic_over_simplex(Q, c, 3, constant=c0)
        assert dataclasses.asdict(a)["value"] == dataclasses.asdict(b)["value"]
        assert np.array_equal(a.argmin.weights, b.argmin.weights)
        assert (a.residual, a.iters, a.converged) == (b.residual, b.iters, b.converged)


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
        def stuck(quad, c, k, *, constant=0.0):
            return SolveReport(SimplexWeights(np.full(k, 1.0 / k)), -1e-6, 0.0, 1, True)

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

    def test_no_inequalities(self):
        z, info = solve_qp(
            np.eye(2), [1.0, -1.0], np.zeros((0, 2)), [], np.zeros((0, 2)), [],
            np.zeros(2),
        )
        assert info["converged"]
        assert np.allclose(z, [-1.0, 1.0], rtol=0.0, atol=1e-15)


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
        Z = _nullspace(general, K, fixed)
        ref = full_svd_nullspace(np.vstack([general, *rows]).reshape(-1, K), K)
        assert Z.shape == ref.shape
        assert np.allclose(Z.T @ Z, np.eye(Z.shape[1]), rtol=0.0, atol=1e-12)
        assert np.all(Z[fixed] == 0.0)
        assert np.max(np.abs(Z @ Z.T - ref @ ref.T), initial=0.0) <= 1e-12

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
