import itertools

import numpy as np
import pytest

from lipext import convex_sets
from lipext.errors import DimensionMismatchError, InfeasiblePointError, SolverCapError
from lipext.geometry import Ball, Polytope
from lipext.rng import SplitMix64
from lipext.solvers import minimize_quadratic_over_simplex
from lipext.convex_sets import (
    _closest_pair,
    caratheodory,
    caratheodory_reduce,
    distance,
    least_squares_points,
    minkowski_sum,
    project,
    radon_partition,
    separate,
)


def random_polytope(rng, n, k, scale=2.0):
    return Polytope(
        np.array([[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(k)])
    )


class TestProjection:
    def test_interior_point_fixed(self):
        ball = Ball([0.0, 0.0], 1.0)
        x = np.array([0.2, -0.3])
        assert np.array_equal(project(x, ball), x)
        assert distance(x, ball) == 0.0

    def test_ball_radial(self):
        ball = Ball([0.0, 0.0], 1.0)
        assert np.allclose(project([2.0, 0.0], ball), [1.0, 0.0])
        assert distance([2.0, 0.0], ball) == pytest.approx(1.0)

    def test_segment_by_hand(self):
        seg = Polytope([[0.0, 0.0], [1.0, 0.0]])
        p = project([1.0, 1.0], seg)
        assert np.allclose(p, [1.0, 0.0], atol=1e-9)
        assert distance([1.0, 1.0], seg) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("body", [
        Ball([0.0, 0.0], 0.1), Polytope([[0.0, 0.0], [1.0, 0.0]]),
    ])
    def test_dimension_mismatch(self, body):
        # distance checks the dimension itself for every body: numpy would
        # broadcast a 1-D point against a 2-D ball's center.
        for call in (distance, project):
            with pytest.raises(DimensionMismatchError):
                call([0.5], body)
            with pytest.raises(DimensionMismatchError):
                call([0.5, 0.5, 0.5], body)

    def test_variational_inequality(self):
        rng = SplitMix64(5)
        for _ in range(30):
            poly = random_polytope(rng, 2, 5)
            x = np.array([rng.uniform(-4, 4), rng.uniform(-4, 4)])
            p = project(x, poly)
            slack = (poly.vertices - p) @ (x - p)
            assert np.max(slack) <= 1e-8

    def test_firmly_nonexpansive_and_idempotent(self):
        rng = SplitMix64(6)
        for _ in range(25):
            poly = random_polytope(rng, 2, 6)
            x = np.array([rng.uniform(-4, 4), rng.uniform(-4, 4)])
            y = np.array([rng.uniform(-4, 4), rng.uniform(-4, 4)])
            px, py = project(x, poly), project(y, poly)
            lhs = float((x - y) @ (px - py)) - float((px - py) @ (px - py))
            assert lhs >= -1e-8
            assert np.linalg.norm(project(px, poly) - px) <= 1e-9

    def test_distance_nonexpansive(self):
        rng = SplitMix64(7)
        body = Ball([0.3, -0.2], 0.7)
        for _ in range(50):
            x = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3)])
            y = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3)])
            assert abs(distance(x, body) - distance(y, body)) <= (
                float(np.linalg.norm(x - y)) + 1e-10
            )


def brute_force_caratheodory(x, vertices):
    """Enumerate all <= 3-subsets in the plane and solve the 2x2 systems."""
    k = len(vertices)
    for size in (1, 2, 3):
        for idx in itertools.combinations(range(k), size):
            pts = np.array([vertices[i] for i in idx])
            A = np.vstack([pts.T, np.ones(size)])
            b = np.concatenate([x, [1.0]])
            sol, res, *_ = np.linalg.lstsq(A, b, rcond=None)
            if np.all(sol >= -1e-10) and np.linalg.norm(A @ sol - b) <= 1e-10:
                return idx, sol
    return None


class TestCaratheodory:
    def test_vertex_is_singleton(self):
        square = Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        cert = caratheodory(np.array([1.0, 1.0]), square)
        assert len(cert.indices) == 1
        assert cert.indices[0] == 2
        assert cert.weights.weights[0] == pytest.approx(1.0)

    def test_unit_square_interior(self):
        square = Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        x = np.array([0.25, 0.25])
        cert = caratheodory(x, square)
        assert len(cert.indices) <= 3
        rebuilt = cert.weights.weights @ square.vertices[list(cert.indices)]
        assert np.linalg.norm(rebuilt - x) <= 1e-8
        assert brute_force_caratheodory(x, square.vertices) is not None

    def test_outside_hull_rejected(self):
        tri = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InfeasiblePointError) as exc:
            caratheodory(np.array([2.0, 2.0]), tri)
        assert exc.value.distance > 0.5

    def test_random_instances_certified(self):
        rng = SplitMix64(21)
        for _ in range(40):
            n = 2 if rng.uniform() < 0.7 else 3
            poly = random_polytope(rng, n, 6)
            w = np.array([rng.uniform(0, 1) for _ in range(6)])
            w /= w.sum()
            x = w @ poly.vertices
            cert = caratheodory(x, poly)
            assert len(cert.indices) <= n + 1
            rebuilt = cert.weights.weights @ poly.vertices[list(cert.indices)]
            assert np.linalg.norm(rebuilt - x) <= 1e-8
            # support must be affinely independent
            pts = poly.vertices[list(cert.indices)]
            M = np.vstack([pts.T, np.ones(len(cert.indices))])
            assert np.linalg.matrix_rank(M, tol=1e-9) == len(cert.indices)

    def test_reduce_keeps_the_given_point(self):
        # From explicit weights, with no projection: the reduced support is
        # affinely independent and spans the same point.
        rng = SplitMix64(22)
        for _ in range(40):
            n = 2 if rng.uniform() < 0.7 else 3
            V = random_polytope(rng, n, 8).vertices
            w = np.array([rng.uniform(0, 1) for _ in range(8)])
            w /= w.sum()
            cert = caratheodory_reduce(V, w)
            assert len(cert.indices) <= n + 1
            rebuilt = cert.weights.weights @ V[list(cert.indices)]
            assert np.linalg.norm(rebuilt - w @ V) <= 1e-12
            M = np.vstack([V[list(cert.indices)].T, np.ones(len(cert.indices))])
            assert np.linalg.matrix_rank(M, tol=1e-9) == len(cert.indices)


class TestRadon:
    def test_square_diagonals(self):
        pts = [np.array(p) for p in [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]]
        left, right, witness = radon_partition(pts, 2)
        assert set(left) | set(right) == {0, 1, 2, 3}
        assert set(left).isdisjoint(right)
        # the two diagonals of the unit square cross at the center
        assert np.allclose(witness, [0.5, 0.5], atol=1e-8)

    def test_three_points_on_line(self):
        pts = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
        left, right, witness = radon_partition(pts, 1)
        assert sorted((len(left), len(right))) == [1, 2]
        assert witness[0] == pytest.approx(1.0, abs=1e-8)

    def test_collinear_in_plane(self):
        pts = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([2.0, 2.0])]
        left, right, witness = radon_partition(pts, 2)
        assert len(left) >= 1 and len(right) >= 1
        # witness must lie in both partial hulls
        for side in (left, right):
            hull = Polytope(np.array([pts[i] for i in side]))
            assert distance(witness, hull) <= 1e-8

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            radon_partition([np.array([0.0, 0.0]), np.array([1.0, 0.0])], 2)

    def test_random_witness_in_both_hulls(self):
        rng = SplitMix64(31)
        for _ in range(40):
            n = 2
            pts = [
                np.array([rng.uniform(-2, 2) for _ in range(n)]) for _ in range(n + 2)
            ]
            left, right, witness = radon_partition(pts, n)
            for side in (left, right):
                hull = Polytope(np.array([pts[i] for i in side]))
                assert distance(witness, hull) <= 1e-8


class TestSeparation:
    def test_two_balls(self):
        h = separate(Ball([0.0, 0.0], 1.0), Ball([4.0, 0.0], 1.0))
        assert np.allclose(h.normal, [1.0, 0.0], atol=1e-12)
        assert h.offset == pytest.approx(2.0, abs=1e-12)

    def test_ball_and_polytope_in_either_order(self):
        ball = Ball([0.0, 0.0], 1.0)
        triangle = Polytope([[3.0, 0.0], [3.0, 1.0], [4.0, 0.0]])
        for A, B, sign in ((ball, triangle, 1.0), (triangle, ball, -1.0)):
            h = separate(A, B)
            assert np.allclose(h.normal, [sign, 0.0], rtol=0.0, atol=1e-12)
            assert h.offset == pytest.approx(2.0 * sign, abs=1e-12)

    def test_two_segments(self):
        A = Polytope([[0.0, 0.0], [0.0, 1.0]])
        B = Polytope([[2.0, 0.0], [2.0, 1.0]])
        h = separate(A, B)
        assert np.allclose(h.normal, [1.0, 0.0], atol=1e-9)
        assert h.offset == pytest.approx(1.0, abs=1e-9)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            separate(Ball([0.0, 0.0], 1.0), Ball([1.0, 0.0], 1.0))

    def test_sides_verified(self):
        rng = SplitMix64(41)
        for _ in range(20):
            A = random_polytope(rng, 2, 4, scale=1.0)
            shift = np.array([4.0 + rng.uniform(0, 2), rng.uniform(-1, 1)])
            B = Polytope(A.vertices + shift)
            h = separate(A, B)
            assert np.max(A.vertices @ h.normal) <= h.offset + 1e-9
            assert np.min(B.vertices @ h.normal) >= h.offset - 1e-9


def minkowski_difference_distance(V, W):
    """Reference: project the origin onto conv{v_i - w_j} over one simplex."""
    D = (V[:, None, :] - W[None, :, :]).reshape(-1, V.shape[1])
    rep = minimize_quadratic_over_simplex(2.0 * (D @ D.T), np.zeros(len(D)), len(D))
    return float(np.linalg.norm(rep.argmin.weights @ D))


def polytope_pair(rng, n, mode):
    """Vertex arrays (V, W) whose hulls are disjoint, touch at one vertex, or
    overlap (W holds the centroid of V); disjoint and overlapping pairs may
    repeat a vertex."""
    def point():
        return np.array([rng.uniform(-1, 1) for _ in range(n)])

    V = np.array([point() for _ in range(1 + rng.integer(6))])
    d = point()
    d /= np.linalg.norm(d)
    kB = 1 + rng.integer(6)
    if mode == "touching":
        # W's lowest vertex along d is V's highest, and W lies above it.
        top = V[int(np.argmax(V @ d))]
        W = [top]
        for _ in range(kB - 1):
            off = point()
            W.append(top + (0.2 + abs(rng.uniform(-1, 1))) * d + off - (off @ d) * d)
        return V, np.array(W)
    W = np.array([point() for _ in range(kB)])
    if mode == "disjoint":
        W += 3.0 * d
    else:
        W[0] = V.mean(axis=0)
    if rng.integer(2):
        V = np.vstack([V, V[:1]])
        W = np.vstack([W[:1], W])
    return V, W


class TestClosestPair:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_minkowski_difference_reference(self, n):
        rng = SplitMix64(60 + n)
        for mode in ("disjoint", "touching", "overlapping"):
            for _ in range(12):
                V, W = polytope_pair(rng, n, mode)
                A, B = Polytope(V), Polytope(W)
                p, q, dist = _closest_pair(A, B)
                assert abs(dist - minkowski_difference_distance(V, W)) <= 1e-12
                assert dist == pytest.approx(float(np.linalg.norm(p - q)), abs=1e-15)
                assert distance(p, A) <= 1e-9 and distance(q, B) <= 1e-9
                if mode == "disjoint":
                    h = separate(A, B)
                    assert np.max(V @ h.normal) <= h.offset - 0.5 * dist + 1e-9
                    assert np.min(W @ h.normal) >= h.offset + 0.5 * dist - 1e-9
                else:
                    assert dist <= 1e-12
                    with pytest.raises(ValueError):
                        separate(A, B)

    def test_capped_qp_raises(self, monkeypatch):
        def capped(*args, name, **kwargs):
            raise SolverCapError(f"{name} capped at 7 iterations")

        monkeypatch.setattr(convex_sets, "solve_qp", capped)
        A = Polytope([[0.0, 0.0], [0.0, 1.0]])
        B = Polytope([[2.0, 0.0], [2.0, 1.0]])
        with pytest.raises(SolverCapError, match="capped at 7 iterations"):
            separate(A, B)


def test_cut_rounds_cap_raises(monkeypatch):
    # A QP that always leaves the ball's point outside the ball meets the
    # cut test in no round, so the engine must raise, not return.
    def outside(P, q, A_eq, b_eq, G, h, z0, initial_active=(), **kwargs):
        z = np.asarray(z0, dtype=float).copy()
        z[-2:] = [5.0, 0.0]
        return z, {"converged": True, "iters": 1}

    monkeypatch.setattr(convex_sets, "solve_qp", outside)
    bodies = [Polytope([[0.0, 0.0], [1.0, 0.0]]), Ball([0.0, 0.0], 1.0)]
    with pytest.raises(SolverCapError, match=f"{convex_sets.CUT_ROUNDS} rounds"):
        least_squares_points(bodies)


class TestMinkowski:
    def test_identity_element(self):
        A = Polytope([[0.0, 1.0], [2.0, -1.0]])
        zero = Polytope([[0.0, 0.0]])
        s = minkowski_sum(A, zero)
        assert np.allclose(np.sort(s.vertices, axis=0), np.sort(A.vertices, axis=0))

    def test_segments_on_line(self):
        seg = Polytope([[0.0], [1.0]])
        s = minkowski_sum(seg, seg)
        assert sorted(v[0] for v in s.vertices) == [0.0, 1.0, 1.0, 2.0]

    def test_squares(self):
        square = Polytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        s = minkowski_sum(square, square)
        assert s.n_vertices == 16
        assert np.max(s.vertices) == 2.0
        assert np.min(s.vertices) == 0.0
