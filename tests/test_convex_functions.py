import itertools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from lipext.errors import (
    BoxExhaustionError,
    DimensionMismatchError,
    ImproperFunctionError,
    SolverCapError,
)
from lipext.geometry import Ball, Polytope
from lipext.rng import SplitMix64
import lipext.convex_functions as cf
import lipext.solvers as solvers
from lipext.convex_sets import distance
from test_acceptance import fenchel_instances

INF = cf.INF


def rand_maxaffine(rng, n, pieces, scale=2.0):
    s = np.array([[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(pieces)])
    o = np.array([rng.uniform(-1.0, 1.0) for _ in range(pieces)])
    return cf.MaxAffine(s, o)


class TestClosedFormEval:
    def test_quadratic(self):
        assert cf.eval(cf.Quadratic(2), [3.0, 4.0]) == 12.5
        assert cf.eval(cf.Quadratic(1), [0.0]) == 0.0

    def test_max_affine(self):
        f = cf.MaxAffine(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))  # |x|
        assert cf.eval(f, [-2.5]) == 2.5

    def test_kappa(self):
        f = cf.Kappa(2)
        assert cf.eval(f, [1.0, 2.0, -1.0, -2.0]) == pytest.approx(10.0)

    def test_indicator(self):
        f = cf.Indicator(Ball([0.0, 0.0], 1.0))
        assert cf.eval(f, [0.5, 0.5]) == 0.0
        assert cf.eval(f, [2.0, 0.0]) == INF

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cf.eval(cf.Quadratic(2), [1.0])

    def test_translate_matches_formula(self):
        rng = SplitMix64(3)
        a = np.array([0.4, -1.0])
        astar = np.array([2.0, 0.3])
        f = cf.Translate(a, astar, 0.7, cf.Quadratic(2))
        for _ in range(10):
            x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
            expect = 0.5 * float((x - a) @ (x - a)) + float(x @ astar) + 0.7
            assert cf.eval(f, x) == pytest.approx(expect, abs=1e-12)


class TestConjugates:
    def test_q_self_conjugate(self):
        cq = cf.Conjugate(cf.Quadratic(2), cf.cube(4.0, 2))
        rng = SplitMix64(9)
        for _ in range(10):
            x = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)])
            assert cf.eval(cq, x) == pytest.approx(
                0.5 * float(x @ x), abs=1e-6
            )

    def test_kappa_conjugate_anti_diagonal(self):
        ck = cf.Conjugate(cf.Kappa(1), cf.cube(3.0, 2))
        assert cf.eval(ck, [1.0, -1.0]) == pytest.approx(0.5, abs=1e-6)
        assert cf.eval(ck, [1.0, 2.0]) == INF  # off the anti-diagonal

    def test_kappa_conjugate_vector_case(self):
        ck = cf.Conjugate(cf.Kappa(2), cf.cube(4.0, 4))
        xs = np.array([1.0, 2.0])
        v = cf.eval(ck, np.concatenate([xs, -xs]))
        assert v == pytest.approx(2.5, abs=1e-6)
        assert cf.eval(ck, [1.0, 0.0, 1.0, 0.0]) == INF

    def test_affine_conjugate_is_point_indicator(self):
        f = cf.MaxAffine(np.array([[2.0, 1.0]]), np.array([3.0]))
        fc = cf.conjugate(f)
        assert cf.eval(fc, [2.0, 1.0]) == pytest.approx(3.0, abs=1e-10)
        assert cf.eval(fc, [3.0, 1.0]) == INF

    def test_indicator_conjugate_is_support_function(self):
        fc = cf.conjugate(cf.Indicator(Ball([0.0, 0.0], 1.0)))
        rng = SplitMix64(13)
        for _ in range(10):
            x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
            assert cf.eval(fc, x) == pytest.approx(
                float(np.linalg.norm(x)), abs=1e-6
            )

    def test_empty_child_raises_improper(self):
        # a sum that is +inf on every probed box: the supremum would be -inf
        far = cf.Indicator(Polytope([[50.0, 50.0]]))
        f = cf.Sum((far, cf.Quadratic(2)), (1.0, 1.0))
        node = cf.Conjugate(f, cf.cube(1.0, 2))
        with pytest.raises(cf.ImproperFunctionError):
            cf.eval(node, [1.0, 0.0])


class TestBiconjugation:
    def test_max_affine_biconjugation(self):
        rng = SplitMix64(17)
        for _ in range(5):
            f = rand_maxaffine(rng, 1, 3)
            samples = [np.array([t]) for t in (-2.0, -0.5, 0.0, 1.0, 2.0)]
            assert cf.biconjugate_check(f, samples) <= 1e-5

    def test_q_biconjugation(self):
        box = cf.cube(5.0, 1)
        gap = cf.biconjugate_check(
            cf.Quadratic(1),
            [np.array([t]) for t in (-1.0, 0.0, 0.7)],
            primal_box=box,
            dual_box=box,
        )
        assert gap <= 1e-6

    def test_non_polyhedral_conjugate_needs_a_dual_box(self):
        box = cf.cube(5.0, 1)
        with pytest.raises(ValueError, match="search box is required"):
            cf.biconjugate_check(cf.Quadratic(1), [np.array([0.5])], primal_box=box)
        with pytest.raises(ValueError, match="search box is required"):
            cf.Conjugate(cf.Quadratic(1), None)

    def test_every_conjugate_node_needs_a_box(self):
        # conjugate() picks the exact conjugates; a Conjugate node is the box
        # search, whatever its child, and evaluates an exact child through
        # conjugate().
        node = cf.conjugate(cf.MaxAffine(np.array([[1.0], [-1.0]]), np.array([0.5, 0.0])))
        with pytest.raises(ValueError, match="search box is required"):
            cf.Conjugate(node, None)
        direct = cf.Conjugate(node, cf.cube(2.0, 1))
        for t in (-1.5, 0.0, 0.25, 2.0):
            assert cf.eval(direct, [t]) == cf.eval(cf.conjugate(node), [t])

    def test_point_indicator_biconjugation(self):
        pt = np.array([0.5, -0.25])
        f = cf.Indicator(Polytope([pt]))
        gap = cf.biconjugate_check(f, [pt], dual_box=cf.cube(3.0, 2))
        assert gap <= 1e-9


def brute_polyhedral_conjugate(S, o, y):
    """min o'l over affinely independent slope sets of size <= n+1 whose
    simplex holds y (a vertex of the LP's feasible set has such a support);
    +inf when none does."""
    k, n = S.shape
    rhs = np.append(y, 1.0)
    best = INF
    for m in range(1, min(k, n + 1) + 1):
        for T in itertools.combinations(range(k), m):
            M = np.vstack([S[list(T)].T, np.ones((1, m))])
            if np.linalg.svd(M, compute_uv=False)[-1] <= 1e-10:
                continue  # affinely dependent
            lam, *_ = np.linalg.lstsq(M, rhs, rcond=None)
            # Tight: a collar probe's hull point can sit 1e-8 from a slope,
            # where a 1e-9 test takes a support that extrapolates.
            if np.max(np.abs(M @ lam - rhs)) <= 1e-12 and lam.min() >= -1e-12:
                best = min(best, float(o[list(T)] @ lam))
    return best


def brute_hull_point(S, y):
    """y's nearest point of conv(slopes): the nearest of y's projections onto
    the affine hulls of affinely independent slope sets of size <= n+1 that
    land in that set's simplex (the nearest point lies in one)."""
    k, n = S.shape
    best, point = INF, None
    for m in range(1, min(k, n + 1) + 1):
        for T in itertools.combinations(range(k), m):
            M = np.vstack([S[list(T)].T, np.ones((1, m))])
            if np.linalg.svd(M, compute_uv=False)[-1] <= 1e-10:
                continue  # affinely dependent
            base, D = S[T[0]], S[list(T[1:])] - S[T[0]]
            c = np.linalg.lstsq(D.T, y - base, rcond=None)[0] if m > 1 else np.zeros(0)
            if c.min(initial=0.0) >= -1e-12 and c.sum() <= 1.0 + 1e-12:
                p = base + D.T @ c
                if np.linalg.norm(p - y) < best:
                    best, point = np.linalg.norm(p - y), p
    return point


def brute_collar_conjugate(S, o, y):
    """f*(y) by brute force, with the node's 1e-6 collar: the value at y's
    nearest hull point within 1e-6 of the hull, +inf farther out."""
    ref = brute_polyhedral_conjugate(S, o, y)
    if ref == INF:
        p = brute_hull_point(S, y)
        if np.linalg.norm(p - y) <= cf.POLYHEDRAL_INFEASIBLE_TOL:
            ref = brute_polyhedral_conjugate(S, o, p)
    return ref


def _degenerate(kind, g, rng):
    """g's slopes with a copy of s_0 under its own offset, all zero, on a
    line through 0 (power-of-two direction), or rounded to halves."""
    S, o = g.slopes, g.offsets
    if kind == "duplicate":
        return cf.MaxAffine(np.vstack([S, S[:1]]), np.append(o, rng.uniform(-1.0, 1.0)))
    if kind == "zero":
        return cf.MaxAffine(np.zeros_like(S), o)
    if kind == "collinear":
        return cf.MaxAffine(S[:, :1] * [1.0, -0.5, 0.25][: g.dim], o)
    return cf.MaxAffine(np.round(2.0 * S) / 2.0, o)  # half-grid


def _unconverged_qp(P, q, A_eq, b_eq, G, h, z0, *, name, **kwargs):
    raise SolverCapError(f"{name} capped at 321 iterations")


class TestPolyhedralConjugate:
    def test_matches_brute_force_reference(self):
        # Seeded slopes, and duplicate, zero, collinear and half-grid ones,
        # probed at slopes, interior and far points, and at slopes moved
        # 0.5e-6, 0.999e-6, 1.001e-6 and 1e-3 along seeded unit directions:
        # in, on and past the collar.
        rng = SplitMix64(44)
        infeasible = probed = 0
        for kind in ("seeded", "duplicate", "zero", "collinear", "half-grid"):
            for n in (1, 2, 3):
                for k in range(2, 11) if kind == "seeded" else (3, 6, 9):
                    f = rand_maxaffine(rng, n, k)
                    f = f if kind == "seeded" else _degenerate(kind, f, rng)
                    S, o = f.slopes, f.offsets
                    node = cf.conjugate(f)
                    points = []
                    for _ in range(4 if kind == "seeded" else 2):
                        points.append(S[rng.integer(len(S))])
                        w = np.array([rng.uniform(0.01, 1.0) for _ in range(len(S))])
                        points.append((w / w.sum()) @ S)
                        points.append(np.array([rng.uniform(-2.5, 2.5) for _ in range(n)]))
                    for r in (0.5e-6, 0.999e-6, 1.001e-6, 1e-3):
                        u = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
                        points.append(S[rng.integer(len(S))] + r * u / np.linalg.norm(u))
                    for y in points:
                        v = cf.eval(node, y)
                        ref = brute_collar_conjugate(S, o, y)
                        assert (v == INF) == (ref == INF), (kind, S, o, y, v, ref)
                        if ref != INF:
                            assert abs(v - ref) <= 1e-10 * (1.0 + abs(ref)), (kind, S, o, y)
                        infeasible += ref == INF
                        probed += 1
        assert 0 < infeasible < probed  # both kinds of point occur

    def test_lp_at_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(cf, "solve_qp", _unconverged_qp)
        f = cf.MaxAffine(np.array([[1.0], [-1.0]]), np.array([0.5, 0.0]))
        with pytest.raises(SolverCapError, match="capped at 321 iterations"):
            cf.eval(cf.conjugate(f), [0.5])

    @pytest.mark.parametrize("slopes, offsets, hull_point, outward, value", [
        ([[1.0], [-1.0]], [0.5, 0.0], [1.0], [1.0], 0.5),
        ([[1.0], [-1.0]], [0.5, 0.0], [-1.0], [-1.0], 0.0),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.1, -0.2, 0.3], [0.5, 0.5], [1.0, 1.0], 0.05),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.1, -0.2, 0.3], [1.0, 0.0], [1.0, -0.2], -0.2),
    ])
    def test_infeasibility_collar(self, slopes, offsets, hull_point, outward, value):
        # y planted beyond conv(slopes) along a direction whose nearest hull
        # point is hull_point: 0.5e-6 out is inside the 1e-6 collar and takes
        # the value there, 2e-6 out is +inf.
        node = cf.MaxAffineConjugate(np.array(slopes), np.array(offsets))
        u = np.array(outward) / np.linalg.norm(outward)
        inside = cf.eval(node, np.array(hull_point) + 0.5e-6 * u)
        assert inside == pytest.approx(value, abs=1e-9)
        assert cf.eval(node, np.array(hull_point) + 2e-6 * u) == INF

    def test_shapes_are_checked(self):
        with pytest.raises(ValueError, match="need matching"):
            cf.MaxAffineConjugate(np.array([[1.0], [-1.0]]), np.array([0.5]))
        with pytest.raises(ValueError, match="need matching"):
            cf.MaxAffineConjugate(np.array([1.0, -1.0]), np.array([0.5, 0.0]))

    def test_memo_is_freed_with_the_node(self):
        # f = max(x - 1/2, -x), so f*(y) = (1 + y) / 4 on [-1, 1].
        node = cf.MaxAffineConjugate(np.array([[1.0], [-1.0]]), np.array([0.5, 0.0]))
        assert cf.eval(node, [0.5]) == pytest.approx(0.375, abs=1e-12)
        ref = weakref.ref(node)
        del node
        assert ref() is None

    def test_module_holds_no_dict(self):
        held = [
            name
            for name, value in vars(cf).items()
            if isinstance(value, dict) and not name.startswith("__")
        ]
        assert held == []


def _memo_probes(rng, S):
    """Vertices, interior points, and vertices moved 0.5e-6, 0.999e-6 and
    1.001e-6 along seeded unit directions: in, on and past the collar."""
    k, n = S.shape
    probes = []
    for _ in range(3):
        probes.append(S[rng.integer(k)])
        w = np.array([rng.uniform(0.0, 1.0) for _ in range(k)])
        probes.append((w / w.sum()) @ S)
        for r in (0.5e-6, 0.999e-6, 1.001e-6):
            u = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
            probes.append(S[rng.integer(k)] + r * u / np.linalg.norm(u))
    return probes


class TestWorkingSetMemo:
    """The node's screen and LP memos carry working-set factors from one
    probe to the next without moving a bit of any value."""

    def test_shared_node_matches_fresh_nodes(self, monkeypatch):
        rng = SplitMix64(6060)
        real = solvers._nullspace
        factored = []
        monkeypatch.setattr(
            solvers, "_nullspace", lambda *a: factored.append(1) or real(*a)
        )
        shared_factors = fresh_factors = finite = 0
        for n in (1, 2):
            for k in range(3, 11):
                f = rand_maxaffine(rng, n, k)
                shared = cf.conjugate(f)
                for y in _memo_probes(rng, f.slopes):
                    before = len(factored)
                    value = cf._polyhedral_conjugate_value(shared, y)
                    shared_factors += len(factored) - before
                    before = len(factored)
                    fresh = cf._polyhedral_conjugate_value(cf.conjugate(f), y)
                    fresh_factors += len(factored) - before
                    assert repr(value) == repr(fresh), (f.slopes, y)
                    finite += value != INF
        assert 0 < finite < 16 * 30  # both finite and +inf values occur
        assert shared_factors < fresh_factors / 2  # the memos are reused

    def test_zero_slopes_screen_keeps_a_memo(self):
        # With every slope zero the screen's P = 2SS' is zero.  A P = 0 memo
        # serves any q, so the screen keeps one like every other node.
        f = cf.MaxAffine(np.zeros((3, 2)), np.array([0.5, -0.25, 0.0]))
        shared = cf.conjugate(f)
        for y in ([1e-7, 0.0], [-1e-7, -0.5e-6], [0.0, 0.0], [-2e-6, -1e-7], [2e-6, 0.0]):
            y = np.array(y)
            value = cf._polyhedral_conjugate_value(shared, y)
            assert repr(value) == repr(cf._polyhedral_conjugate_value(cf.conjugate(f), y))
        assert shared._screen[1] and shared._epigraph[-1]


class TestDeltaIdentity:
    def test_zero_anchors(self):
        rng = SplitMix64(23)
        samples = [
            np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)]) for _ in range(10)
        ]
        gap = cf.delta_conjugate_identity_check(
            np.array([0.0]), np.array([0.0]), samples
        )
        assert gap <= 1e-5

    def test_nonzero_anchors_direct_formula(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        d = cf.delta_expr(a, b)
        x = np.array([0.0, 0.0, 0.0, 0.0])
        # delta(x, y) = 1/2||(a-x, b-y)||^2 - <x, y>
        assert cf.eval(d, x) == pytest.approx(1.0)
        gap = cf.delta_conjugate_identity_check(a, b, [x])
        assert gap <= 1e-5

    def test_symmetry_for_equal_anchors(self):
        a = np.array([0.5])
        u = np.array([0.3, -0.2])
        v = np.array([-0.2, 0.3])
        d = cf.delta_expr(a, a)
        assert cf.eval(d, u) == pytest.approx(cf.eval(d, v), abs=1e-12)


class TestInfConv:
    def test_identity_element(self):
        f = cf.MaxAffine(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
        node = cf.inf_conv(f, cf.Indicator(Polytope([[0.0]])), cf.cube(3.0, 1))
        for t in (-1.5, 0.0, 2.0):
            assert cf.eval(node, [t]) == pytest.approx(abs(t), abs=1e-6)

    def test_distance_function_via_convolution(self):
        seg = Polytope([[0.0], [1.0]])
        absf = cf.MaxAffine(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
        node = cf.inf_conv(cf.Indicator(seg), absf, cf.cube(4.0, 1))
        rng = SplitMix64(29)
        for _ in range(10):
            x = np.array([rng.uniform(-3, 3)])
            assert cf.eval(node, x) == pytest.approx(
                distance(x, seg), abs=1e-6
            )

    def test_q_box_q(self):
        node = cf.inf_conv(cf.Quadratic(2), cf.Quadratic(2), cf.cube(4.0, 2))
        assert cf.eval(node, [2.0, 0.0]) == pytest.approx(1.0, abs=1e-6)

    def test_divergent_convolution_raises(self):
        # f = <1, x>, g = <-1, x> as max-affine: f [] g diverges to -inf
        f = cf.MaxAffine(np.array([[1.0]]), np.array([0.0]))
        g = cf.MaxAffine(np.array([[-1.0]]), np.array([0.0]))
        node = cf.inf_conv(f, g, cf.cube(2.0, 1))
        with pytest.raises(BoxExhaustionError):
            cf.eval(node, [0.0])


class TestProxAvg:
    def test_average_of_q_with_itself(self):
        node = cf.prox_avg(cf.Quadratic(1), cf.Quadratic(1), cf.cube(4.0, 1))
        rng = SplitMix64(31)
        for _ in range(10):
            x = np.array([rng.uniform(-2, 2)])
            assert cf.eval(node, x) == pytest.approx(
                0.5 * float(x @ x), abs=1e-5
            )

    def test_dominated_by_arithmetic_mean(self):
        rng = SplitMix64(37)
        f = rand_maxaffine(rng, 1, 4)
        g = cf.Quadratic(1)
        node = cf.prox_avg(f, g, cf.cube(5.0, 1))
        for _ in range(10):
            x = np.array([rng.uniform(-1.5, 1.5)])
            avg = 0.5 * cf.eval(f, x) + 0.5 * cf.eval(g, x)
            assert cf.eval(node, x) <= avg + 1e-6

    def test_conjugate_commutes_with_average(self):
        # (psi(f, g))* = psi(f*, g*) checked numerically at depth 2
        f = cf.Quadratic(1)
        g = cf.MaxAffine(np.array([[1.0], [-0.5]]), np.array([0.0, 0.2]))
        box = cf.cube(4.0, 1)
        lhs = cf.Conjugate(cf.prox_avg(f, g, box), box)
        rhs = cf.prox_avg(cf.Conjugate(f, box), cf.conjugate(g), box)
        for t in (-0.6, 0.0, 0.8):
            x = np.array([t])
            assert cf.eval(lhs, x) == pytest.approx(
                cf.eval(rhs, x), abs=1e-4
            )

    def test_symmetry(self):
        f = cf.Quadratic(1)
        g = cf.MaxAffine(np.array([[2.0], [-1.0]]), np.array([0.5, 0.0]))
        box = cf.cube(4.0, 1)
        ab = cf.prox_avg(f, g, box)
        ba = cf.prox_avg(g, f, box)
        for t in (-1.0, 0.3, 1.2):
            x = np.array([t])
            assert cf.eval(ab, x) == pytest.approx(
                cf.eval(ba, x), abs=1e-5
            )


class TestDuality:
    def test_q_vs_minus_q(self):
        primal, dual, gap = cf.fenchel_duality_solve(
            cf.Quadratic(1), cf.Quadratic(1), cf.cube(3.0, 1)
        )
        assert primal == pytest.approx(0.0, abs=1e-6)
        assert dual == pytest.approx(0.0, abs=1e-6)
        assert gap == pytest.approx(0.0, abs=1e-5)

    def test_q_vs_affine(self):
        # g(x) = <c, x> concave; primal inf q - g = -1/2 c^2, dual equal
        c = 0.8
        neg_g = cf.MaxAffine(np.array([[-c]]), np.array([0.0]))
        primal, dual, gap = cf.fenchel_duality_solve(
            cf.Quadratic(1), neg_g, cf.cube(4.0, 1)
        )
        assert primal == pytest.approx(-0.5 * c * c, abs=1e-6)
        assert abs(gap) <= 1e-5

    def test_point_domain(self):
        f = cf.Indicator(Polytope([[0.0]]))
        primal, dual, gap = cf.fenchel_duality_solve(
            f, cf.Quadratic(1), cf.cube(2.0, 1)
        )
        assert primal == pytest.approx(0.0, abs=1e-9)
        assert abs(gap) <= 1e-5

    # (primal, dual, gap) of criterion 4's instances, recorded while the dual
    # ran its own inner search for g* at every probe.
    CRITERION_4 = [
        "(0.0, 0.0, 0.0)",
        "(-0.32000000000000006, -0.32000000000000006, 0.0)",
        "(-0.8450000000000001, -0.8450000000000001, 0.0)",
        "(-0.07999999999999999, -0.07999999999999999, 0.0)",
        "(0.0, -0.0, 0.0)",
        "(0.24, 0.24, 0.0)",
        "(0.0, -0.0, 0.0)",
        "(-1.35, -1.35, 0.0)",
        "(-0.062499999999999986, -0.062499999999999986, 0.0)",
        "(-0.26, -0.26, 0.0)",
    ]

    def test_criterion_4_reprs_and_weak_duality(self):
        out = []
        for f, neg_g, _, half in fenchel_instances():
            primal, dual, gap = cf.fenchel_duality_solve(f, neg_g, cf.cube(half, f.dim))
            assert dual <= primal
            out.append(repr((primal, dual, gap)))
        assert out == self.CRITERION_4

    @pytest.mark.parametrize(
        "neg_g",
        [cf.Translate(np.array([a]), np.array([0.0]), 0.0, cf.Quadratic(1))
         for a in (3.0, -2.5, 1.7)]
        + [cf.MaxAffine(np.array([[-3.0], [0.5]]), np.array(o))
           for o in ((0.0, 1.0), (0.0, 2.0), (0.3, 1.7))],
        ids=["q3", "q-2.5", "q1.7", "ma01", "ma02", "ma.3-1.7"],
    )
    def test_max_affine_f_dual_at_most_primal(self, neg_g):
        # |x| against 1/2 (x - a)^2 or max(-3x - o1, x/2 - o2): the dual's
        # optimum is an end of f*'s domain [-1, 1], and a search that ends in
        # its 1e-6 collar would carry the dual above the primal.
        f = cf.MaxAffine(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
        primal, dual, _ = cf.fenchel_duality_solve(f, neg_g, cf.cube(4.0, 1))
        assert dual <= primal
        assert primal - dual <= 1e-8

    def test_improper_negative(self):
        # -g is +inf on the whole box: g* is -inf, so the dual is too.
        neg_g = cf.Sum((cf.Indicator(Ball([10.0], 0.5)), cf.Quadratic(1)), (1, 1))
        result = cf.fenchel_duality_solve(cf.Quadratic(1), neg_g, cf.cube(2.0, 1))
        assert result == (INF, -INF, INF)

    def test_improper_f(self):
        # f is +inf on the whole box: it is reported as an improper -g is.
        f = cf.Sum((cf.Indicator(Ball([10.0], 0.5)), cf.Quadratic(1)), (1, 1))
        result = cf.fenchel_duality_solve(f, cf.Quadratic(1), cf.cube(2.0, 1))
        assert result == (INF, -INF, INF)

    @pytest.mark.parametrize("improper", ["f", "neg_g"])
    def test_improper_operand_stops_the_dual(self, monkeypatch, improper):
        # Whether a conjugate's child is +inf on its whole box does not
        # depend on the point it is read at: the first improper conjugate
        # ends the dual search.  Primal, dual and one search per conjugate.
        far = cf.Sum((cf.Indicator(Ball([10.0], 0.5)), cf.Quadratic(1)), (1, 1))
        f, neg_g = (far, cf.Quadratic(1)) if improper == "f" else (cf.Quadratic(1), far)
        searches = []
        real = cf._inner_minimize
        monkeypatch.setattr(
            cf, "_inner_minimize", lambda *a, **k: searches.append(1) or real(*a, **k)
        )
        assert cf.fenchel_duality_solve(f, neg_g, cf.cube(2.0, 1)) == (INF, -INF, INF)
        assert len(searches) <= 4


class TestBoxSearchGolden:
    """reprs of box-search outputs, recorded before the search returned one
    extended-real minimum and polled each compass step as one array: the
    grid + compass argmin on n = 1 to 4 (n = 4 polls axes and diagonals),
    and Conjugate, InfConv, ProxAvg and Fenchel values, divergent and
    improper ones included.  A change that moves any bit shows here."""

    GOLDEN = [
        "(9.923721226532268e-19, [0.5212473049759865], False)",
        "(0.6188815905902768, [0.0021273568272590637], False)",
        "(0.7536243501419044, [0.0021273568272590637], False)",
        "(-1.4, [-2.0], True)",
        "(9.923721226532268e-19, [0.5212473049759865], False)",
        "(3.0721074650364955, [3.0], True)",
        "0.4310543066464086",
        "0.36902230654411483",
        "0.020656350994793085",
        "-0.30954982733622727",
        "-0.30892550699112414",
        "-0.2841881671109029",
        "-0.13572094404342447",
        "-0.13133073819501584",
        "-0.12370467652681025",
        "0.9673146467221729",
        "0.6325356682653823",
        "0.6963071105182959",
        "0.8894222222799968",
        "0.6251022355694636",
        "0.7072215128909344",
        "0.43441473730907343",
        "0.4047698821738537",
        "0.002738780287892561",
        "9.760006081854458e-05",
        "0.4736260370386979",
        "0.3480723283568621",
        "(1.4385286586172171e-18, [1.234277918934822, 0.23262565582990646], False)",
        "(0.5339565642455562, [-0.05718240141868591, 0.6284830123186111], False)",
        "(1.3351756947553977, [0.3422842025756836, 0.3783611059188843], False)",
        "(-2.8, [-2.0, -2.0], True)",
        "(0.31808672829666973, [0.4375, 0.19631583988666534], False)",
        "(5.388067615545736, [3.0, 3.0], True)",
        "0.36830536958257165",
        "0.4232519069680637",
        "0.3513406268561546",
        "0.33519969067676225",
        "-0.3094920065336433",
        "-0.2089968972936631",
        "1.0439650566869754",
        "1.2984741459671474",
        "0.41208913160516214",
        "1.0587120264117593",
        "1.0824866005605025",
        "0.6262103536191359",
        "0.2876953356944731",
        "0.546398217128372",
        "0.6560267066885654",
        "0.6774888188700693",
        "0.9500322156341829",
        "0.18385428378402635",
        "0.001792758440336165",
        "0.5070641117422542",
        "0.1829117603551562",
        "(6.1544862676222575e-18, [1.2425146624445915, "
        "-0.5097294300794601, 0.8270683959126472], False)",
        "(0.10953924562981654, [2.0, 0.1992201879620552, -1.872425153851509], True)",
        "(1.4682481879760125, [0.7095889151096344, -0.6271194815635681, "
        "-0.056318581104278564], False)",
        "(-4.199999999999999, [-2.0, -2.0, -2.0], True)",
        "(0.8032878859733282, [0.21857227385044098, "
        "-0.12792882323265076, 0.18492662906646729], False)",
        "(10.064293575833615, [3.0, 3.0, 3.0], True)",
        "0.7025739021675294",
        "0.5863069311252775",
        "0.21828103219914996",
        "-0.2642728564114522",
        "-0.0635710949008711",
        "-0.02720889497511625",
        "-1.1618304040235814",
        "1.6850378813633786",
        "-0.8130807606700836",
        "(7.959977887292976e-18, [0.9211525395512581, "
        "-0.21663783490657806, 0.18128691613674164, 0.6617542505264282], False)",
        "(-0.4943710427196214, [0.32030682265758514, "
        "-0.9871618151664734, -0.7685042768716812, -1.5014646649360657], False)",
        "(0.5207132761745354, [0.6016308665275574, -0.5143622308969498, "
        "-0.20747599005699158, 0.468297615647316], False)",
        "(-5.6, [-2.0, -2.0, -2.0, -2.0], True)",
        "(0.24605917167030966, [0.424802765250206, -0.21661581099033356, "
        "0.1806812435388565, 0.166017547249794], False)",
        "(14.04045119390437, [3.0, 3.0, 3.0, 3.0], True)",
        "inf",
        "-0.0",
        "inf",
        "BoxExhaustionError: infimal convolution diverges to -inf in "
        "node InfConv(Scale,MaxAffine)",
        "-0.5",
        "inf",
        "90.25",
        "ImproperFunctionError: child is +inf on the whole box; conjugate would be -inf",
        "BoxExhaustionError: search box exhausted in node 'FenchelPrimal'",
        "BoxExhaustionError: search box exhausted in node 'FenchelDual'",
        "(inf, -inf, inf)",
        "(inf, -inf, inf)",
        "(0.12499999627470973, 0.125, -3.7252902707063384e-09)",
    ]

    @staticmethod
    def observed():
        out = []

        def read(thunk):
            try:
                out.append(repr(thunk()))
            except (BoxExhaustionError, ImproperFunctionError) as exc:
                out.append(f"{type(exc).__name__}: {exc}")

        rng = SplitMix64(2525)
        for n in (1, 2, 3, 4):
            box = cf.cube(2.0, n)
            c = np.array([rng.uniform(-1.5, 1.5) for _ in range(n)])
            q = cf.Translate(c, np.zeros(n), 0.0, cf.Quadratic(n))
            ma = rand_maxaffine(rng, n, n + 2, scale=1.0)
            tilted = cf.MaxAffine(np.array([np.full(n, 0.7)]), np.array([0.0]))
            ball = cf.Sum((cf.Indicator(Ball(-0.5 * c, 1.1)), q), (1.0, 1.0))
            for fun in (q, ma, cf.Sum((q, ma), (1.0, 1.0)), tilted, ball):
                v, x, b = cf._box_minimize(lambda z, fun=fun: cf._eval(fun, z), box)
                out.append(repr((v, x.tolist(), b)))
            # The domain lies outside the box: only the extra probe is finite.
            outside = cf.Sum((cf.Indicator(Ball(np.full(n, 3.0), 0.3)), q), (1.0, 1.0))
            v, x, b = cf._box_minimize(
                lambda z: cf._eval(outside, z), box, extra_points=[np.full(n, 3.0)]
            )
            out.append(repr((v, x.tolist(), b)))
            if n <= 3:
                for child in (cf.Quadratic(n), cf.Sum((cf.Quadratic(n), ma), (1.0, 0.5)), q):
                    node = cf.Conjugate(child, cf.cube(3.0, n))
                    for _ in range(3):
                        y = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
                        read(lambda: cf.eval(node, y))
            if n <= 2:
                for left, right in ((cf.Quadratic(n), ma), (ma, q), (cf.Quadratic(n),) * 2):
                    for node in (cf.inf_conv(left, right, cf.cube(3.0, n)),
                                 cf.prox_avg(left, right, cf.cube(3.0, n))):
                        for _ in range(2):
                            y = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
                            read(lambda: cf.eval(node, y))
        # Divergent and improper searches.
        box = cf.cube(2.0, 1)
        line = cf.Scale(1.0, cf.MaxAffine(np.array([[1.0]]), np.array([0.0])))
        anti = cf.MaxAffine(np.array([[-1.0]]), np.array([0.0]))
        far = cf.Sum((cf.Indicator(Ball([10.0], 0.5)), cf.Quadratic(1)), (1.0, 1.0))
        for t in (0.0, 1.0, 2.5):
            read(lambda: cf.eval(cf.Conjugate(line, box), [t]))
        read(lambda: cf.eval(cf.inf_conv(line, anti, box), [0.0]))
        read(lambda: cf.eval(cf.prox_avg(line, cf.Scale(1.0, anti), box), [0.0]))
        read(lambda: cf.eval(cf.inf_conv(far, cf.Indicator(Ball([-10.0], 0.5)), box), [0.0]))
        read(lambda: cf.eval(cf.prox_avg(far, cf.Quadratic(1), box), [0.0]))
        read(lambda: cf.eval(cf.Conjugate(far, box), [0.5]))
        steep = cf.MaxAffine(np.array([[-2.0]]), np.array([0.0]))
        read(lambda: cf.fenchel_duality_solve(line, steep, box))
        apart = (cf.Indicator(Ball([0.0], 0.5)), cf.Indicator(Ball([1.5], 0.2)))
        read(lambda: cf.fenchel_duality_solve(*apart, box))
        read(lambda: cf.fenchel_duality_solve(cf.Quadratic(1), far, box))
        read(lambda: cf.fenchel_duality_solve(far, cf.Quadratic(1), box))
        read(lambda: cf.fenchel_duality_solve(cf.Indicator(Polytope([[0.5]])),
                                              cf.Quadratic(1), box))
        return out

    def test_outputs_match_recorded_reprs(self):
        assert self.observed() == self.GOLDEN


class TestSearchContract:
    """_inner_minimize returns one extended-real minimum: -inf when the
    doubling protocol diverges, +inf when no probe is finite."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_divergent_objective_is_minus_inf(self, n):
        assert cf._inner_minimize(lambda z: float(z.sum()), cf.cube(2.0, n)) == (-INF, None)

    @pytest.mark.parametrize("n", [1, 2])
    def test_infinite_objective_is_plus_inf(self, n):
        assert cf._inner_minimize(lambda z: INF, cf.cube(2.0, n)) == (INF, None)

    def test_conjugate_keeps_a_nested_exhaustion(self):
        # A conjugate is +inf when its own search diverges; a child's
        # exhausted search still raises through it.
        f = cf.MaxAffine(np.array([[1.0]]), np.array([0.0]))
        g = cf.MaxAffine(np.array([[-1.0]]), np.array([0.0]))
        box = cf.cube(2.0, 1)
        assert cf.eval(cf.Conjugate(cf.Scale(1.0, f), box), [0.0]) == INF
        with pytest.raises(BoxExhaustionError):
            cf.eval(cf.Conjugate(cf.inf_conv(f, g, box), box), [0.0])


class TestFenchelYoung:
    def test_q_equality_case(self):
        pairs = [(np.array([t]), np.array([t])) for t in (-1.0, 0.0, 1.4)]
        slack = cf.fenchel_young_check(cf.Quadratic(1), pairs, box=cf.cube(4.0, 1))
        assert abs(slack) <= 1e-6

    def test_q_random_pairs(self):
        rng = SplitMix64(43)
        pairs = [
            (np.array([rng.uniform(-2, 2)]), np.array([rng.uniform(-2, 2)]))
            for _ in range(20)
        ]
        slack = cf.fenchel_young_check(cf.Quadratic(1), pairs, box=cf.cube(5.0, 1))
        expected = min(0.5 * float((x - y) @ (x - y)) for x, y in pairs)
        assert slack == pytest.approx(expected, abs=1e-6)
        assert slack >= -1e-6

    def test_max_affine_active_piece(self):
        f = cf.MaxAffine(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
        pairs = [(np.array([2.0]), np.array([1.0]))]  # slope of the active piece
        slack = cf.fenchel_young_check(f, pairs)
        assert slack == pytest.approx(0.0, abs=1e-9)


class TestScaling:
    def test_epi_scale_formula(self):
        node = cf.scale_ops(cf.Quadratic(2), 2.0, "epi")
        assert cf.eval(node, [2.0, 0.0]) == pytest.approx(1.0)

    def test_identity_scalings(self):
        f = cf.Quadratic(2)
        x = np.array([0.7, -0.1])
        assert cf.eval(cf.scale_ops(f, 1.0, "mul"), x) == cf.eval(f, x)
        assert cf.eval(cf.scale_ops(f, 1.0, "epi"), x) == pytest.approx(
            cf.eval(f, x)
        )

    def test_conjugate_scaling_identity(self):
        # (lambda f)* = lambda * f* as epi-scaling
        box = cf.cube(6.0, 1)
        lam = 2.0
        lhs = cf.Conjugate(cf.Scale(lam, cf.Quadratic(1)), box)
        rhs = cf.EpiScale(lam, cf.Conjugate(cf.Quadratic(1), box))
        for t in (-1.0, 0.4, 2.0):
            x = np.array([t])
            assert cf.eval(lhs, x) == pytest.approx(
                cf.eval(rhs, x), abs=1e-5
            )

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            cf.scale_ops(cf.Quadratic(1), 0.0, "mul")
        with pytest.raises(ValueError):
            cf.scale_ops(cf.Quadratic(1), -1.0, "epi")


class TestInvariants:
    def test_midpoint_convexity_probe(self):
        rng = SplitMix64(47)
        box = cf.cube(3.0, 1)
        f = rand_maxaffine(rng, 1, 4)
        exprs = [
            cf.Quadratic(1),
            f,
            cf.conjugate(f),
            cf.inf_conv(cf.Quadratic(1), f, box),
            cf.prox_avg(cf.Quadratic(1), f, box),
            cf.Conjugate(cf.Quadratic(1), box),
        ]
        for expr in exprs:
            for _ in range(12):
                x = np.array([rng.uniform(-1.2, 1.2)])
                y = np.array([rng.uniform(-1.2, 1.2)])
                fx, fy = cf.eval(expr, x), cf.eval(expr, y)
                if fx == INF or fy == INF:
                    continue
                mid = cf.eval(expr, (x + y) / 2.0)
                assert mid <= 0.5 * fx + 0.5 * fy + 1e-6

    def test_conjugate_order_reversal(self):
        # f <= g on samples => f* >= g* on samples (take f = |x| <= g = |x| + q)
        f = cf.MaxAffine(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]))
        g = cf.Sum((f, cf.Quadratic(1)), (1.0, 1.0))
        box = cf.cube(5.0, 1)
        fc, gc = cf.conjugate(f), cf.Conjugate(g, box)
        for t in (-0.9, 0.0, 0.5, 0.9):
            x = np.array([t])
            fv, gv = cf.eval(fc, x), cf.eval(gc, x)
            if fv == INF:
                continue
            assert fv >= gv - 1e-6

    def test_biconjugate_below(self):
        # the 1e-6 slack matches the polyhedral-conjugate feasibility collar
        # for sample norms <= 1
        rng = SplitMix64(53)
        f = rand_maxaffine(rng, 2, 5)
        fss = cf.Conjugate(cf.conjugate(f), cf.cube(3.0, 2))
        for _ in range(8):
            x = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)])
            assert cf.eval(fss, x) <= cf.eval(f, x) + 1e-6

    def test_eval_determinism(self):
        node = cf.Conjugate(cf.Quadratic(2), cf.cube(3.0, 2))
        x = np.array([0.7, -0.4])
        assert cf.eval(node, x) == cf.eval(node, x)


class TestConjugateGolden:
    """reprs of f** gaps and polyhedral-conjugate values at seeded points,
    recorded before the conjugate's constants were built once per node and
    the box pretest was added: a change that moves any bit shows here.  The
    three nonzero gaps of that recording were f** above f; they were
    re-recorded when f** began to read its final value at a hull point, and
    n = 2's fifth (3.229980727326165e-10) again when f** was read off the
    slopes.  Three conjugate values moved in their last bit when solve_qp
    began to drop the most negative multiplier, and six when f*(y) moved
    from a simplex LP over the weights to the epigraph LP that f** reads:
    against the exact value, five of those six got closer and
    0.23904126715416205 (8.1e-19 off) went to 0.2390412671541621 (5.6e-17
    off)."""

    GOLDEN = {
        1: [
            "0.0", "-0.6224194491161299", "-0.4290098157008098",
            "-0.2977560652178292", "0.0", "-0.9183113677814703",
            "-0.9043065344336474", "-0.2609862354385935", "0.0",
            "-0.708723423165985", "-0.7518602549737294", "inf",
        ],
        2: [
            "0.0", "0.3163979475970651", "-0.2138492709739954",
            "inf", "0.0", "0.43693845860683034",
            "0.2390412671541621", "inf",
        ],
    }

    @staticmethod
    def cases(n):
        rng = SplitMix64(6060 + n)
        for pieces in ((3, 5, 8) if n == 1 else (4, 5)):
            f = rand_maxaffine(rng, n, pieces, scale=1.0)
            x = np.array([rng.uniform(-0.5, 0.5) for _ in range(n)])
            w = np.array([rng.uniform(0.0, 1.0) for _ in range(pieces)])
            probes = [
                f.slopes[rng.integer(pieces)],
                (w / w.sum()) @ f.slopes,
                np.array([rng.uniform(-1.5, 1.5) for _ in range(n)]),
            ]
            yield f, x, probes

    def observed(self, n):
        out = []
        for f, x, probes in self.cases(n):
            node = cf.conjugate(f)
            out.append(repr(cf.biconjugate_check(f, [x])))
            out.extend(repr(cf._polyhedral_conjugate_value(node, y)) for y in probes)
        return out

    @pytest.mark.parametrize("n", [1, 2])
    def test_values_match_recorded_reprs(self, n):
        assert self.observed(n) == self.GOLDEN[n]


def _biconjugate_cases():
    """40 seeded max-affine f, on R and R^2 with 3 to 10 pieces, each with
    one point in [-0.8, 0.8]^n."""
    rng = SplitMix64(8080)
    for i in range(40):
        n, pieces = 1 + i % 2, 3 + (i // 2) % 8
        s = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(pieces)])
        o = np.array([rng.uniform(0.0, 1.0) for _ in range(pieces)])
        yield cf.MaxAffine(s, o), np.array([rng.uniform(-0.8, 0.8) for _ in range(n)])


def _biconjugate(f):
    """f** of a max-affine f, with no box."""
    return cf.conjugate(cf.conjugate(f))


def _per_slope_offsets(f):
    """f**'s offsets by one epigraph LP per slope, each started where the
    last one stopped, with no slope priced at another's exit vertex: the
    reference for conjugate()'s pricing."""
    S, o = f.slopes, f.offsets
    k, n = S.shape
    G, P, memo = np.hstack([S, -np.ones((k, 1))]), np.zeros((n + 1, n + 1)), {}
    z, active, offsets = np.append(np.zeros(n), -o.min()), [int(np.argmin(o))], []
    for s in S:
        z, info = solvers.solve_qp(
            P, np.append(-s, 1.0), (), (), G, o, z, initial_active=active,
            memo=memo, name="epigraph LP",
        )
        active = info["active"]
        offsets.append(cf._epigraph_offset(S, o, s, active))
    return offsets


def _seeded_cases():
    """_biconjugate_cases' functions, and eight on R^3 with 3 to 10 pieces."""
    rng = SplitMix64(3030)
    cases = [f for f, _ in _biconjugate_cases()]
    return cases + [rand_maxaffine(rng, 3, k) for k in range(3, 11)]


def _duplicate_slope_cases():
    """30 f on R to R^3 with an exact copy of s_0 under its own offset, each
    with five points in [-0.8, 0.8]^n."""
    rng = SplitMix64(6060)
    for i in range(30):
        n, k = 1 + i % 3, 3 + (i // 3) % 6
        g = rand_maxaffine(rng, n, k)
        f = cf.MaxAffine(
            np.vstack([g.slopes, g.slopes[:1]]),
            np.append(g.offsets, rng.uniform(-1.0, 1.0)),
        )
        yield f, [np.array([rng.uniform(-0.8, 0.8) for _ in range(n)]) for _ in range(5)]


def _near_duplicate_cases():
    """60 f on R to R^3 with a copy of s_0 moved by under 1e-9 per
    coordinate, under its own offset: a slope a hair outside the slopes of
    a vertex's rows has a multiplier a hair below 0 there."""
    rng = SplitMix64(6161)
    for i in range(60):
        n, k = 1 + i % 3, 3 + (i // 3) % 6
        g = rand_maxaffine(rng, n, k)
        nudge = np.array([rng.uniform(-1e-9, 1e-9) for _ in range(n)])
        yield cf.MaxAffine(
            np.vstack([g.slopes, g.slopes[:1] + nudge]),
            np.append(g.offsets, rng.uniform(-1.0, 1.0)),
        )


def _collinear_cases():
    """60 f on R^2 and R^3 whose slopes lie exactly on a line through 0 (the
    direction's coordinates are powers of two)."""
    rng = SplitMix64(4040)
    for i in range(60):
        n, k = 2 + i % 2, 3 + (i // 2) % 8
        g = rand_maxaffine(rng, 1, k, scale=1.0)
        yield cf.MaxAffine(g.slopes * [1.0, -0.5, 0.25][:n], g.offsets)


def _bench_shaped_cases():
    """96 f on R, as the conjugate benchmark draws them: 3 to 10 pieces, 12
    of each, slopes in [-1, 1) and offsets in [0, 1)."""
    rng = SplitMix64(5050)
    for pieces in [p for _ in range(12) for p in range(3, 11)]:
        s = np.array([[rng.uniform(-1.0, 1.0)] for _ in range(pieces)])
        yield cf.MaxAffine(s, np.array([rng.uniform(0.0, 1.0) for _ in range(pieces)]))


def _exact_offsets(f):
    """f*(s_i) = min {o.l : S'l = s_i, 1'l = 1, l >= 0} for each slope of a
    max-affine f, in exact rational arithmetic: the least o.l over the
    supports of n + 1 slopes or fewer whose columns (s_j, 1) are independent
    and give l >= 0 (the basic feasible solutions, among which an LP's
    minimum lies).  Every float is N / D for a power of two D, so each
    support is solved on integers, for all k right-hand sides at once, by
    fraction-free Gauss-Jordan elimination."""

    def integers(values):
        exact = [Fraction(v) for v in values]
        D = max(x.denominator for x in exact)
        return [x.numerator * (D // x.denominator) for x in exact], D

    k, n = f.slopes.shape
    flat, D = integers(f.slopes.ravel().tolist())
    cols = [flat[j * n:(j + 1) * n] + [D] for j in range(k)]  # D (s_j, 1)
    o, Do = integers(f.offsets.tolist())
    best = [Fraction(v, Do) for v in o]  # l = e_i
    for size in range(1, n + 2):
        for B in itertools.combinations(range(k), size):
            # [the support's columns | every slope's column], row by row
            a = [[cols[j][r] for j in (*B, *range(k))] for r in range(n + 1)]
            det = 1
            for c in range(size):
                p = next((r for r in range(c, n + 1) if a[r][c]), None)
                if p is None:
                    break  # dependent columns
                a[c], a[p] = a[p], a[c]
                piv = a[c]
                a = [
                    row if r == c
                    else [(piv[c] * x - row[c] * y) // det for x, y in zip(row, piv)]
                    for r, row in enumerate(a)
                ]
                det = piv[c]
            else:
                # Column size + i now holds det * l for slope i, and zeros
                # below row size when the support spans s_i.
                for i in range(k):
                    num = [row[size + i] for row in a]
                    if any(num[size:]) or any(x * det < 0 for x in num[:size]):
                        continue
                    value = Fraction(sum(o[j] * x for j, x in zip(B, num)), det * Do)
                    best[i] = min(best[i], value)
    return best


# |f*(s_i) - exact| on TestSlopeRule's seeded, duplicate-slope and
# collinear cases: four ulps at 1, and every |f*(s_i)| there is below 1.
# The worst errors are 2.5e-16, 5.2e-16 and 5.3e-16.
OFFSET_BOUND = 4 * np.spacing(1.0)


def _offset_errors(f, offsets):
    """|offset - f*(s_i)| per slope, and the pieces of f that are active
    somewhere (f*(s_j) = o_j exactly), by the exact oracle."""
    exact = _exact_offsets(f)
    errors = [abs(float(Fraction(v) - e)) for v, e in zip(offsets.tolist(), exact)]
    return errors, [j for j, e in enumerate(exact) if e == Fraction(f.offsets[j])]


def test_biconjugate_at_most_f():
    # Fenchel-Moreau: f** <= f.  f** is read at the slopes s_i, where
    # x.s_i - f*(s_i) <= f(x) holds up to rounding.
    above = []
    for i, (f, x) in enumerate(_biconjugate_cases()):
        fss, fx = cf.eval(_biconjugate(f), x), cf.eval(f, x)
        if fss > fx + 1e-12 * (1.0 + abs(fx)):
            above.append((i, fss - fx))
    assert above == []


class TestSlopeRule:
    """f** of a max-affine f is max_i (x.s_i - f*(s_i)): x.y - f*(y) is
    affine on each cell of f*'s subdivision of conv(slopes), and every cell
    vertex is a slope.  So f** is the MaxAffine node with offsets f*(s_i),
    read off at most one LP per slope when conjugate() builds it and none
    per point, and no box is built or searched."""

    def test_biconjugate_is_f(self):
        gaps = []
        for i, (f, x) in enumerate(_biconjugate_cases()):
            fss, fx = cf.eval(_biconjugate(f), x), cf.eval(f, x)
            if abs(fss - fx) > 1e-12 * (1.0 + abs(fx)):
                gaps.append((i, fss - fx))
        assert gaps == []

    def test_biconjugate_is_f_bit_for_bit(self):
        # At each case's point and four more, on R and R^2.
        rng = SplitMix64(9090)
        off = []
        for i, (f, x) in enumerate(_biconjugate_cases()):
            fss = _biconjugate(f)
            more = [[rng.uniform(-0.8, 0.8) for _ in range(f.dim)] for _ in range(4)]
            off += [(i, y) for y in [x, *map(np.array, more)] if cf.eval(fss, y) != cf.eval(f, y)]
        assert off == []

    def test_biconjugate_is_a_max_affine_node(self):
        # Each offset is f*(s_i) to OFFSET_BOUND, and o_j itself on a piece
        # that is active somewhere, against the exact oracle.
        for i, f in enumerate(_seeded_cases()):
            fss = _biconjugate(f)
            assert isinstance(fss, cf.MaxAffine)
            assert np.array_equal(fss.slopes, f.slopes)
            errors, active = _offset_errors(f, fss.offsets)
            assert max(errors) <= OFFSET_BOUND, (i, errors)
            assert active and fss.offsets[active].tolist() == f.offsets[active].tolist()

    def test_conjugate_runs_no_screen(self, monkeypatch):
        cases = [f for f, _ in _biconjugate_cases()]
        expected = [_biconjugate(f).offsets.tolist() for f in cases]

        def no_screen(*args, **kwargs):
            raise AssertionError("a hull screen ran")

        monkeypatch.setattr(cf, "_hull_point", no_screen)
        monkeypatch.setattr(cf, "minimize_quadratic_over_simplex", no_screen)
        stars = [cf.conjugate(f) for f in cases]
        assert [cf.conjugate(s).offsets.tolist() for s in stars] == expected
        assert not any("_screen" in vars(s) for s in stars)  # no 2SS' is built

    def test_duplicate_slopes(self):
        # An exact copy of s_0 with its own offset.  Where the copies' piece
        # is active, an LP that stops with either copy's row in its working
        # set reads that row's offset exactly, and f** is f bit for bit.
        for i, (f, points) in enumerate(_duplicate_slope_cases()):
            fss = _biconjugate(f)
            errors, active = _offset_errors(f, fss.offsets)
            assert max(errors) <= OFFSET_BOUND, (i, errors)
            assert fss.offsets[active].tolist() == f.offsets[active].tolist(), i
            for x in points:
                assert cf.eval(fss, x) == cf.eval(f, x), (i, x)

    def test_collinear_slopes(self):
        # Slopes exactly on a line through 0 (the direction's coordinates are
        # powers of two), so the columns (s_j, 1) have rank 2 and an offset's
        # multipliers come from least squares on a rank-deficient system.
        for i, f in enumerate(_collinear_cases()):
            fss = _biconjugate(f)
            errors, active = _offset_errors(f, fss.offsets)
            assert max(errors) <= OFFSET_BOUND, (i, errors)
            assert fss.offsets[active].tolist() == f.offsets[active].tolist(), i

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="f**'s offset misses f*(s_0) by 1.53e-15 > OFFSET_BOUND; see the "
        "FOUND line on convex_functions._epigraph_offset in CHANGES.md",
    )
    def test_near_duplicate_slope_offset(self):
        # Case 16 (n = 2, 8 slopes and a copy of s_0 moved by under 1e-9):
        # the exact oracle puts its s_0 offset 1.53e-15 from the one read.
        f = next(itertools.islice(_near_duplicate_cases(), 16, None))
        errors, _ = _offset_errors(f, _biconjugate(f).offsets)
        assert max(errors) <= OFFSET_BOUND, errors

    def test_pricing_matches_the_per_slope_walk(self):
        # A slope priced at an exit vertex is read on the rows where its own
        # LP, started there, would stop: its offset has the bits of the walk
        # that runs one LP per slope.  Near-duplicate slopes catch a sign
        # test on mu with any tolerance.
        cases = [
            *_seeded_cases(), *(f for f, _ in _duplicate_slope_cases()),
            *_near_duplicate_cases(), *_collinear_cases(), *_bench_shaped_cases(),
        ]
        moved = []
        for i, f in enumerate(cases):
            priced, walked = _biconjugate(f).offsets.tolist(), _per_slope_offsets(f)
            if priced != walked:
                moved.append((i, priced, walked))
        assert moved == []

    def test_one_route_to_each_offset(self):
        # f*(s_i) read by eval is the epigraph LP that f** reads its offsets
        # off, started at (0, f(0)): each value has its offset's bits.
        cases = [
            *_seeded_cases(), *(f for f, _ in _duplicate_slope_cases()),
            *_near_duplicate_cases(), *_collinear_cases(), *_bench_shaped_cases(),
        ]
        moved = []
        for i, f in enumerate(cases):
            f_star = cf.conjugate(f)
            read = [cf.eval(f_star, s) for s in f.slopes]
            offsets = cf.conjugate(f_star).offsets.tolist()
            if read != offsets:
                moved.append((i, read, offsets))
        assert moved == []

    def test_half_grid_slopes(self):
        # Slopes rounded to halves repeat, and more than n + 1 rows meet at a
        # vertex: there a priced offset may leave the walk's bits, but not
        # f*(s_i).
        rng = SplitMix64(7070)
        for i in range(40):
            n, k = 1 + i % 3, 3 + (i // 3) % 8
            g = rand_maxaffine(rng, n, k)
            f = cf.MaxAffine(np.round(2.0 * g.slopes) / 2.0, g.offsets)
            errors, _ = _offset_errors(f, _biconjugate(f).offsets)
            assert max(errors) <= OFFSET_BOUND, (i, errors)

    def test_biconjugate_check_solves_an_lp_per_unpriced_slope(self, monkeypatch):
        # Each slope's offset is read once per call, however many samples
        # the check reads: at its own LP's exit, or priced at an earlier
        # LP's exit rows A, which certify it, (S_A'; 1') mu = (s; 1) with
        # mu >= 0.  So the LPs are the slopes left unpriced, fewer than k.
        lps, reads = [], []
        real_qp, real_read = cf.solve_qp, cf._epigraph_offset

        def lp(P, q, *args, **kwargs):
            z, info = real_qp(P, q, *args, **kwargs)
            lps.append((-q[:-1], info["active"]))
            return z, info

        def read(S, o, s, rows):
            reads.append((s, lps[-1]))
            return real_read(S, o, s, rows)

        def mu(S, rows, s):
            return np.linalg.lstsq(np.vstack([S[rows].T, np.ones(rows.size)]),
                                   np.append(s, 1.0), rcond=None)[0]

        monkeypatch.setattr(cf, "solve_qp", lp)
        monkeypatch.setattr(cf, "_epigraph_offset", read)
        samples = [np.array(p) for p in itertools.product((-0.5, 0.0, 0.5), repeat=2)]
        solved = pieces = 0
        for f, _ in itertools.islice(_biconjugate_cases(), 1, 12, 2):  # n = 2
            lps.clear()
            reads.clear()
            cf.biconjugate_check(f, samples)
            S, k = f.slopes, f.slopes.shape[0]
            assert sorted(s.tolist() for s, _ in reads) == sorted(S.tolist())
            priced = [(s, rows) for s, (lp_slope, rows) in reads if (s != lp_slope).any()]
            assert len(lps) == k - len(priced)
            for s, rows in priced:
                assert rows.size == 3 and mu(S, rows, s).min() >= -1e-12, (s, rows)
            solved, pieces = solved + len(lps), pieces + k
        assert solved < pieces

    def test_one_lp_per_piece_at_most(self, monkeypatch):
        lps = []
        real = cf.solve_qp
        monkeypatch.setattr(cf, "solve_qp", lambda *a, **k: lps.append(1) or real(*a, **k))
        over = []
        for i, (f, x) in enumerate(_biconjugate_cases()):
            before = len(lps)
            cf.biconjugate_check(f, [x])
            if len(lps) - before > f.slopes.shape[0]:
                over.append((i, len(lps) - before, f.slopes.shape[0]))
        assert over == [] and lps

    def test_biconjugate_check_builds_no_box(self, monkeypatch):
        cases = list(itertools.islice(_biconjugate_cases(), 6))
        expected = [cf.biconjugate_check(f, [x]) for f, x in cases]

        def no_box(*args):
            raise AssertionError("a box was built")

        monkeypatch.setattr(cf, "Box", no_box)
        assert [cf.biconjugate_check(f, [x]) for f, x in cases] == expected

    def test_no_box_search(self, monkeypatch):
        searches = []
        real = cf._inner_minimize
        monkeypatch.setattr(
            cf, "_inner_minimize", lambda *a, **k: searches.append(1) or real(*a, **k)
        )
        for f, x in itertools.islice(_biconjugate_cases(), 6):
            fss = _biconjugate(f)
            for y in (x, 3.0 * x, f.slopes[0]):
                assert math.isfinite(cf.eval(fss, y))
        assert searches == []


class TestBoxPretest:
    """y pushed out of the slopes' bounding box, by just under and just over
    the 1e-6 collar and far: +inf exactly where the screen's distance to the
    hull exceeds 1e-6, and every vertex stays finite."""

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_settled_probes_fail_the_screen(self, n, scale):
        rng = SplitMix64(7070 + n)
        tol = cf.POLYHEDRAL_INFEASIBLE_TOL
        # Outside by tol (1 + 1e-3) is asserted +inf at scale 1 only: at
        # scale 1e6 y's coordinates round by about 1e-10, a tenth of that
        # 1e-9 margin.
        expected = {"vertex": False, "inside": False, "edge": scale == 1.0, "far": True}
        for k in (2, 4, 7):
            f = rand_maxaffine(rng, n, k, scale=scale)
            S = f.slopes
            node = cf.conjugate(f)
            probes = [(y, "vertex") for y in S]
            for i in range(n):
                for side, j in ((-1.0, np.argmin(S[:, i])), (1.0, np.argmax(S[:, i]))):
                    for out, kind in (
                        (tol * (1 - 1e-3), "inside"),
                        (tol * (1 + 1e-3), "edge"),
                        (10.0 * scale, "far"),
                    ):
                        y = S[j].copy()  # a vertex on the box's face
                        y[i] += side * out
                        probes.append((y, kind))
            for y, kind in probes:
                value = cf._polyhedral_conjugate_value(node, y)
                if kind == "vertex":
                    assert value < INF, (S, y)
                if expected[kind]:
                    lam = cf.minimize_quadratic_over_simplex(
                        2.0 * (S @ S.T), -2.0 * (S @ y), k
                    ).argmin.weights
                    assert value == INF, (S, y, kind)
                    assert float(np.linalg.norm(S.T @ lam - y)) > tol, (S, y)
