import math
import tracemalloc

import numpy as np
import pytest

from lipext import extension
from lipext.errors import (
    DataConsistencyError,
    DimensionMismatchError,
    ModulusViolationError,
)
from lipext.convex_sets import project
from lipext.geometry import Ball, pair_index, pairwise, _BLOCK_PAIRS
from lipext.rng import SplitMix64
from lipext.gen import generate_lipschitz_data
from lipext.extension import (
    ExtensionModel,
    FiniteMapData,
    Modulus,
    affine_majorant,
    concave_majorant,
    empirical_modulus,
    extend_coordinatewise,
    extend_mcshane,
    extend_minimax,
    extend_project_domain,
    extend_proxavg,
    linear_modulus,
    lipschitz_constant,
    tietze_extend,
    uniform_extend,
    _check_modulus_for_data,
    _tau,
    _tau_inv,
)

FORCED = FiniteMapData(np.array([[-1.0], [1.0]]), np.array([[0.0], [2.0]]), 1.0)
ROTATION = FiniteMapData(
    np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0
)
# With L = 1, pairs (0, 3), (1, 3) and (2, 3) violate by 0.5, 1.5 and 2.5:
# the worst violating pair is not the first one in row-major order.
LINE = np.array([[0.0], [1.0], [2.0], [3.0]])
STEP = np.array([[0.0], [0.0], [0.0], [3.5]])


class TestData:
    def test_constant_examples(self):
        d = FiniteMapData(np.array([[0.0], [1.0]]), np.array([[0.0], [2.0]]))
        assert lipschitz_constant(d) == pytest.approx(2.0)
        const = FiniteMapData(np.array([[0.0], [3.0]]), np.array([[1.0], [1.0]]))
        assert lipschitz_constant(const) == 0.0

    def test_isometry_samples(self):
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        rng = SplitMix64(1)
        pts = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(8)])
        d = FiniteMapData(pts, pts @ rot.T)
        assert lipschitz_constant(d) == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_data_rejected(self):
        with pytest.raises(DataConsistencyError) as exc:
            FiniteMapData(np.array([[0.0], [1.0]]), np.array([[0.0], [5.0]]), 1.0)
        assert exc.value.witness == (0, 1)

    def test_duplicate_points_conflicting_values(self):
        with pytest.raises(DataConsistencyError):
            FiniteMapData(np.array([[0.0], [0.0]]), np.array([[0.0], [1.0]]))

    def test_lipschitz_witness_is_worst_pair(self):
        with pytest.raises(DataConsistencyError) as exc:
            FiniteMapData(LINE, STEP, 1.0)
        assert exc.value.witness == (2, 3)

    def test_duplicate_witness_is_first_pair(self):
        pts = np.array([[0.0], [0.0], [1.0], [1.0]])
        vals = np.array([[0.0], [0.5], [2.0], [9.0]])
        for L in (None, 100.0):
            with pytest.raises(DataConsistencyError) as exc:
                FiniteMapData(pts, vals, L)
            assert exc.value.witness == (0, 1)


def minimax_primal_value(data, x):
    """Independent oracle: minimize max_i (||y - b_i||^2 - r_i^2) directly by
    subgradient steps of Polyak's length toward the value 0, which extension
    feasibility guarantees; stops within 1e-9 of it or after 200,000 steps."""
    radii = data.L * np.linalg.norm(data.points - x, axis=1)
    B = data.values
    y = B.mean(axis=0)
    best_y, best = y, math.inf
    for _ in range(200_000):
        vals = np.sum((y - B) ** 2, axis=1) - radii ** 2
        i = int(np.argmax(vals))
        if vals[i] < best:
            best_y, best = y, float(vals[i])
        g = 2.0 * (y - B[i])
        if best <= 1e-9 or g @ g < 1e-28:
            break
        y = y - (vals[i] / (g @ g)) * g
    return best_y, best


def permuted_datasets():
    """(data, the same data in shuffled order, 10 queries) for generated,
    tight (empirical L) and random m = n = 2 data with k = 20 and 120."""
    for k in (20, 120):
        g = generate_lipschitz_data(2, 2, k, k)
        rng = SplitMix64(k)
        rand = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2 * k)]
        order = np.array(SplitMix64(k + 1).shuffle(list(range(k))))
        queries = [np.array([rng.uniform(-1.5, 1.5) for _ in range(2)]) for _ in range(10)]
        for data in (g, FiniteMapData(g.points, g.values), FiniteMapData(rand[:k], rand[k:])):
            moved = FiniteMapData(data.points[order], data.values[order], data.L)
            yield data, moved, queries


class TestMinimax:
    def test_forced_point(self):
        y, r = extend_minimax(FORCED, np.array([0.0]))
        assert y[0] == pytest.approx(1.0, abs=1e-9)
        assert r <= 1e-9

    def test_rotation_query_origin(self):
        y, r = extend_minimax(ROTATION, np.array([0.0, 0.0]))
        assert r <= 1e-6
        # brute-force feasibility: some grid point satisfies both balls;
        # verify the returned point against the ball constraints directly
        radii = np.linalg.norm(ROTATION.points, axis=1)
        assert np.all(
            np.linalg.norm(y - ROTATION.values, axis=1) <= radii + 1e-6
        )

    def test_query_at_data_point(self):
        for i in range(2):
            y, r = extend_minimax(ROTATION, ROTATION.points[i])
            assert np.max(np.abs(y - ROTATION.values[i])) <= 1e-8

    def test_tight_data_residual_at_rounding_level(self):
        # Samples of a similarity with their empirical L: every ball passes
        # through the answer, so the dual is degenerate and its support can
        # be a thin simplex; the final Gauss-Newton step keeps y within
        # rounding of every ball.
        g = generate_lipschitz_data(2, 2, 120, 101)
        data = FiniteMapData(g.points, g.values)
        rng = SplitMix64(202)
        queries = [np.array([rng.uniform(-2.5, 2.5) for _ in range(2)]) for _ in range(20)]
        worst = max(extend_minimax(data, x)[1] for x in queries)
        assert worst <= 5e-15

    def test_permuting_the_data_moves_values_by_rounding(self):
        # A function of the data set (definability), up to rounding at the
        # scale of the largest constraint radius.
        for data, moved, queries in permuted_datasets():
            for x in queries:
                y, r = extend_minimax(data, x)
                y2, r2 = extend_minimax(moved, x)
                scale = 1.0 + data.L * float(np.max(np.linalg.norm(data.points - x, axis=1)))
                assert np.max(np.abs(y2 - y)) <= 1e-13 * scale
                assert abs(r2 - r) <= 1e-13 * scale

    def test_dual_matches_primal_polyak(self):
        # the dual simplex reduction must agree with the direct minimax
        rng = SplitMix64(3)
        for seed in range(5):
            data = generate_lipschitz_data(2, 2, 6, 800 + seed)
            x = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
            y_dual, r_dual = extend_minimax(data, x)
            y_primal, v_primal = minimax_primal_value(data, x)
            assert r_dual <= 1e-6
            radii = data.L * np.linalg.norm(data.points - x, axis=1)
            dual_worst = float(
                np.max(np.sum((y_dual - data.values) ** 2, axis=1) - radii ** 2)
            )
            # both certify feasibility of the ball intersection
            assert dual_worst <= 1e-6
            assert v_primal <= 1e-6


def dense_grid_resolvent_oracle(data, x, lo=-2.5, hi=2.5, steps=81):
    """Feasibility oracle on a grid: the best max ball-violation of any grid
    point upper-bounds what an extension must achieve."""
    axes = [np.linspace(lo, hi, steps)] * data.n
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    radii = data.L * np.linalg.norm(data.points - x, axis=1)
    worst = np.full(pts.shape[0], -np.inf)
    for b, r in zip(data.values, radii):
        worst = np.maximum(worst, np.linalg.norm(pts - b, axis=1) - r)
    j = int(np.argmin(worst))
    return pts[j], float(worst[j])


class TestProxAvg:
    def test_interpolation(self):
        for i in range(2):
            y, r = extend_proxavg(ROTATION, ROTATION.points[i])
            assert np.max(np.abs(y - ROTATION.values[i])) <= 1e-5
            assert r <= 1e-6

    def test_forced_point_agrees_with_minimax(self):
        y, r = extend_proxavg(FORCED, np.array([0.0]))
        assert y[0] == pytest.approx(1.0, abs=1e-5)
        assert r <= 1e-6

    def test_identity_data_in_plane(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        data = FiniteMapData(pts, pts.copy(), 1.0)
        model = ExtensionModel(data, "proxavg")
        rng = SplitMix64(5)
        for _ in range(5):
            # queries inside the hull: the identity is forced there
            w = np.array([rng.uniform(0, 1) for _ in range(3)])
            w /= w.sum()
            x = w @ pts
            y, r = model.query(x)
            assert r <= 1e-6
            assert np.max(np.abs(y - x)) <= 1e-5

    def test_feasibility_matches_grid_oracle(self):
        data = generate_lipschitz_data(2, 2, 5, 901)
        rng = SplitMix64(7)
        x = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
        y, r = extend_proxavg(data, x)
        assert r <= 1e-6
        _, oracle_violation = dense_grid_resolvent_oracle(data, x)
        radii = data.L * np.linalg.norm(data.points - x, axis=1)
        mine = float(np.max(np.linalg.norm(y - data.values, axis=1) - radii))
        assert mine <= max(oracle_violation, 0.0) + 1e-5

    def test_padding_both_directions(self):
        up = FiniteMapData(np.array([[0.0], [1.0]]), np.array([[0.0, 0.0], [0.6, 0.6]]), 1.0)
        y, r = extend_proxavg(up, np.array([0.5]))
        assert r <= 1e-6 and y.shape == (2,)
        down = FiniteMapData(
            np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[0.0], [1.0]]), 1.0
        )
        y, r = extend_proxavg(down, np.array([0.3, 0.3]))
        assert r <= 1e-6 and y.shape == (1,)

    def test_permuting_the_data_moves_values_by_rounding(self):
        # A function of the data set (definability), up to rounding.
        for data, moved, queries in permuted_datasets():
            model, moved_model = ExtensionModel(data, "proxavg"), ExtensionModel(moved, "proxavg")
            for x in queries:
                y, r = model.query(x)
                y2, r2 = moved_model.query(x)
                assert np.max(np.abs(y2 - y)) <= 1e-12 and abs(r2 - r) <= 1e-12

    def test_lipschitz_between_queries(self):
        data = generate_lipschitz_data(2, 2, 8, 902)
        model = ExtensionModel(data, "proxavg")
        rng = SplitMix64(11)
        pts, vals = [], []
        for _ in range(12):
            x = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3)])
            y, r = model.query(x)
            assert r <= 1e-6
            pts.append(x)
            vals.append(y)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dy = float(np.linalg.norm(vals[i] - vals[j]))
                dx = float(np.linalg.norm(pts[i] - pts[j]))
                assert dy <= data.L * dx * (1.0 + 1e-4) + 1e-6


class TestProxAvgGolden:
    # repr of (y, residual) at seeded queries, recorded before the bound
    # multipliers of solve_qp were read off pinned columns: a change of the
    # active-set path that moves any bit of a proxavg output shows here.
    # Re-recorded when solve_qp began to drop the most negative multiplier,
    # and when each epigraph QP began at its least-objective vertex (every
    # moved y within 5e-16 of the old one).
    GOLDEN = {
        "gen-2-2-8": [
            "([1.306102193318288, 0.5511104806564823], 2.220446049250313e-16)",
            "([1.693309050964915, 0.7524869254114991], 0.0)",
            "([0.09957948147380691, -0.6113949386715731], 4.440892098500626e-16)",
        ],
        "gen-3-2-12": [
            "([-0.9736860480476415, 0.7812079194233978], 5.551115123125783e-17)",
            "([1.4431911462607925, 1.5514248152751344], 0.0)",
            "([-1.086447575572181, 1.5148609516812563], 2.220446049250313e-16)",
        ],
        "tight-2-2-7": [
            "([-0.3819090508739219, -0.41195236631921855], 2.7755575615628914e-17)",
            "([0.4728415384614378, 0.08205164613524822], 0.0)",
            "([-0.38653247108660005, 0.8118152592315048], 0.0)",
        ],
    }

    @staticmethod
    def datasets():
        rng = SplitMix64(1010)
        A = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(7)])
        B = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(7)])
        return {
            "gen-2-2-8": generate_lipschitz_data(2, 2, 8, 1001),
            "gen-3-2-12": generate_lipschitz_data(3, 2, 12, 1002),
            "tight-2-2-7": FiniteMapData(A, B),
        }

    def test_outputs_match_recorded_reprs(self):
        for name, data in self.datasets().items():
            model = ExtensionModel(data, "proxavg")
            rng = SplitMix64(1003)
            for expected in self.GOLDEN[name]:
                x = np.array([rng.uniform(-2.5, 2.5) for _ in range(data.m)])
                y, residual = model.query(x)
                assert repr((y.tolist(), residual)) == expected, (name, x)


class TestMcShane:
    def test_hand_case_both_sides(self):
        data = FiniteMapData(np.array([[0.0], [2.0]]), np.array([[0.0], [2.0]]), 1.0)
        omega = linear_modulus(1.0, 4.0)
        assert extend_mcshane(data, omega, np.array([1.0]), "lower") == pytest.approx(1.0)
        assert extend_mcshane(data, omega, np.array([1.0]), "upper") == pytest.approx(1.0)

    def test_data_point_exact(self):
        data = FiniteMapData(np.array([[0.0], [2.0]]), np.array([[0.5], [1.5]]), 1.0)
        omega = linear_modulus(1.0, 4.0)
        for i in range(2):
            for side in ("lower", "upper"):
                v = extend_mcshane(data, omega, data.points[i], side)
                assert v == pytest.approx(float(data.values[i, 0]), abs=1e-12)

    def test_lower_below_upper(self):
        rng = SplitMix64(13)
        data = generate_lipschitz_data(2, 1, 7, 903)
        omega = linear_modulus(1.0, 20.0)
        for _ in range(100):
            x = np.array([rng.uniform(-4, 4), rng.uniform(-4, 4)])
            lo = extend_mcshane(data, omega, x, "lower")
            hi = extend_mcshane(data, omega, x, "upper")
            assert lo <= hi + 1e-12

    def test_modulus_violation_witnessed(self):
        data = FiniteMapData(np.array([[0.0], [1.0]]), np.array([[0.0], [2.0]]))
        omega = linear_modulus(1.0, 4.0)  # too small for the slope-2 data
        with pytest.raises(ModulusViolationError) as exc:
            extend_mcshane(data, omega, np.array([0.5]), "lower")
        assert exc.value.witness == (0, 1)

    def test_modulus_witness_is_worst_pair(self):
        data = FiniteMapData(LINE, STEP)
        with pytest.raises(ModulusViolationError) as exc:
            extend_mcshane(data, linear_modulus(1.0, 4.0), np.array([0.5]), "lower")
        assert exc.value.witness == (2, 3)

    def test_steep_random_data(self):
        # Empirical L ~ 442: moduli of this size once failed an absolute
        # subadditivity tolerance, so every query raised.
        rng = SplitMix64(10)
        A = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(400)])
        B = np.array([[rng.uniform(-1, 1)] for _ in range(400)])
        data = FiniteMapData(A, B)
        assert data.L == pytest.approx(441.7, abs=0.1)
        x = np.array([0.3, 0.9])
        v, _ = ExtensionModel(data, "mcshane").query(x)
        hi = extend_mcshane(data, linear_modulus(data.L, 20.0), x, "upper")
        assert np.isfinite(v[0]) and v[0] <= hi + 1e-9
        assert extend_coordinatewise(data, x)[0] == pytest.approx(v[0], abs=1e-9)


class TestCoordinatewise:
    def test_scalar_case_matches_mcshane(self):
        data = FiniteMapData(np.array([[0.0], [2.0]]), np.array([[0.0], [2.0]]), 1.0)
        v = extend_coordinatewise(data, np.array([1.0]))
        omega = linear_modulus(1.0, 12.0)
        assert v[0] == pytest.approx(
            extend_mcshane(data, omega, np.array([1.0]), "lower")
        )

    def test_query_modulus_is_linear_modulus_bit_for_bit(self, monkeypatch):
        # The query evaluates linear_modulus(L, scale) without building it.
        rng = SplitMix64(905)
        A = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(30)])
        B = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(30)])
        data = FiniteMapData(A, B)
        model = ExtensionModel(data, "coordinatewise")
        real = extension._envelope
        seen = []
        monkeypatch.setattr(
            extension, "_envelope", lambda *args: seen.append(args[2]) or real(*args)
        )
        queries = [A[4], np.array([0.3, -0.6]), np.array([-40.0, 25.0])]
        for x in queries:
            v, _ = model.query(x)
            scale = 1.0 + float(np.max(np.abs(A))) + float(np.max(np.abs(x)))
            ref = linear_modulus(data.L, scale)
            assert v.tobytes() == real(data.points, data.values, ref, x, "lower").tobytes()
            ts = [0.0, scale / 3.0, scale, 2.5 * scale]
            for t in ts:
                assert repr(seen[-1](t)) == repr(ref(t))
            assert seen[-1](np.array(ts)).tobytes() == ref(np.array(ts)).tobytes()

    def test_interpolation(self):
        data = generate_lipschitz_data(2, 2, 6, 904)
        for i in range(data.size):
            v = extend_coordinatewise(data, data.points[i])
            assert np.max(np.abs(v - data.values[i])) <= 1e-9

    def test_sqrt_n_lipschitz_ratio(self):
        data = ROTATION
        rng = SplitMix64(17)
        pts = [np.array([rng.uniform(-3, 3), rng.uniform(-3, 3)]) for _ in range(40)]
        vals = [extend_coordinatewise(data, x) for x in pts]
        bound = math.sqrt(2.0) * data.L * (1.0 + 1e-4)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dx = float(np.linalg.norm(pts[i] - pts[j]))
                dy = float(np.linalg.norm(vals[i] - vals[j]))
                assert dy <= bound * dx + 1e-9


class TestProjectDomain:
    def test_inside_domain_identical(self):
        domain = Ball([0.0, 0.0], 3.0)
        x = np.array([0.5, -0.5])
        y = extend_project_domain(ROTATION, domain, x)
        y2, _ = extend_minimax(ROTATION, x)
        assert np.allclose(y, y2)

    def test_far_query_equals_boundary_value(self):
        domain = Ball([0.0, 0.0], 2.0)
        x = np.array([10.0, 0.0])
        y = extend_project_domain(ROTATION, domain, x)
        y2, _ = extend_minimax(ROTATION, np.array([2.0, 0.0]))
        assert np.allclose(y, y2, atol=1e-9)

    def test_lipschitz_not_increased(self):
        domain = Ball([0.0, 0.0], 2.0)
        rng = SplitMix64(19)
        pts = [np.array([rng.uniform(-5, 5), rng.uniform(-5, 5)]) for _ in range(15)]
        vals = [extend_project_domain(ROTATION, domain, x) for x in pts]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dx = float(np.linalg.norm(pts[i] - pts[j]))
                dy = float(np.linalg.norm(vals[i] - vals[j]))
                assert dy <= ROTATION.L * dx * (1.0 + 1e-4) + 1e-5

    def test_data_outside_domain_rejected(self):
        domain = Ball([0.0, 0.0], 0.5)
        with pytest.raises(ValueError):
            extend_project_domain(ROTATION, domain, np.array([0.0, 0.0]))

    @pytest.mark.parametrize("domain", [Ball([0.0], 5.0), Ball([0.0, 0.0, 0.0], 5.0)])
    def test_domain_of_another_dimension_rejected_at_build(self, domain):
        # The domain's dimension is checked when the model is built, not
        # first at query time.
        with pytest.raises(DimensionMismatchError):
            ExtensionModel(ROTATION, "project_domain", domain=domain)


class TestTietze:
    def test_data_points_exact(self):
        data = FiniteMapData(np.array([[0.0], [1.0]]), np.array([[0.0], [10.0]]))
        assert tietze_extend(data, np.array([0.0])) == 0.0
        assert tietze_extend(data, np.array([1.0])) == 10.0

    def test_midpoint_finite_and_continuous(self):
        data = FiniteMapData(np.array([[0.0], [1.0]]), np.array([[0.0], [10.0]]))
        v = tietze_extend(data, np.array([0.5]))
        assert 0.0 <= v <= 10.0
        # continuity probe near a data point
        for eps in (1e-3, 1e-5, 1e-7):
            assert abs(tietze_extend(data, np.array([eps])) - 0.0) <= 0.2

    def test_query_dimension_checked(self):
        data = generate_lipschitz_data(2, 1, 5, 909)
        with pytest.raises(DimensionMismatchError):
            tietze_extend(data, np.array([0.3]))

    def test_tau_inverse_identity(self):
        rng = SplitMix64(23)
        for _ in range(50):
            t = rng.uniform(-50.0, 50.0)
            assert _tau_inv(_tau(t)) == pytest.approx(t, abs=1e-9, rel=1e-12)
            assert 1.0 < _tau(t) < 2.0


BREAKPOINTS_MSG = "breakpoints must start at 0 and strictly increase"
VALUES_MSG = "modulus values must be non-negative and non-decreasing"


class TestModulusMachinery:
    @pytest.mark.parametrize(
        "t, v, message",
        [
            ([0.0, 1.0], [0.0], "breakpoints and values must match"),
            ([0.1, 1.0], [0.0, 1.0], BREAKPOINTS_MSG),
            ([0.0, 1.0, 1.0], [0.0, 0.5, 0.6], BREAKPOINTS_MSG),
            ([0.0, 2.0, 1.0], [0.0, 0.5, 0.6], BREAKPOINTS_MSG),
            ([0.0, 1.0], [0.1, 1.0], "a modulus must satisfy w(0) = 0"),
            ([0.0, 1.0], [0.0, -1e-13], VALUES_MSG),
            ([0.0, 1.0, 2.0], [0.0, 0.5, 0.5 - 2e-12], VALUES_MSG),
            ([0.0, 1.0, 2.0], [0.0, 0.5, 0.5 - 5e-13], None),
            ([0.0, np.nan], [0.0, 1.0], "vector has non-finite coordinates"),
            ([0.0, 1.0], [0.0, np.inf], "vector has non-finite coordinates"),
            ([[0.0, 1.0]], [[0.0, 1.0]], "expected a 1-D vector, got shape (1, 2)"),
            ([0.0], [0.0], None),
        ],
    )
    def test_constructor_decisions(self, t, v, message):
        # The decisions of Modulus's checks, each with its message; a
        # message None is a modulus the checks accept.
        if message is None:
            omega = Modulus(np.array(t), np.array(v))
            assert omega.values.tobytes() == np.array(v).tobytes()
            return
        with pytest.raises(ValueError) as exc:
            Modulus(np.array(t), np.array(v))
        assert str(exc.value) == message

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError, match="arguments must be >= 0"):
            linear_modulus(1.0)(-1e-3)

    def test_large_lipschitz_modulus_is_subadditive(self):
        assert linear_modulus(441.7, 12.0).is_subadditive

    def test_affine_majorant_linear(self):
        omega = Modulus(np.linspace(0.0, 0.999, 12), np.linspace(0.0, 0.999, 12))
        slope, intercept = affine_majorant(omega)
        assert intercept == 2.0
        t = omega.breakpoints
        assert np.all(intercept + slope * t >= omega.values - 1e-12)

    def test_affine_majorant_sqrt(self):
        t = np.linspace(0.0, 4.0, 30)
        omega = Modulus(t, np.sqrt(t))
        slope, intercept = affine_majorant(omega)
        assert np.all(intercept + slope * t >= omega.values - 1e-12)

    def test_affine_majorant_precondition(self):
        # jump modulus with w(0+) = 0.5 < 1 is admissible
        omega = Modulus(np.array([0.0, 1e-9, 1.0]), np.array([0.0, 0.5, 0.6]))
        slope, intercept = affine_majorant(omega)
        assert slope > 0
        # w(0+) >= 1 is not
        bad = Modulus(np.array([0.0, 1e-9, 1.0]), np.array([0.0, 1.5, 1.6]))
        with pytest.raises(ValueError):
            affine_majorant(bad)

    def test_concave_majorant_of_square_is_chord(self):
        t = np.linspace(0.0, 1.0, 21)
        omega = Modulus(t, t ** 2)
        hull = concave_majorant(omega)
        assert np.max(np.abs(hull.values - t)) <= 1e-9
        assert hull.is_concave and hull.is_subadditive

    def test_concave_input_fixed_point(self):
        t = np.linspace(0.0, 4.0, 25)
        omega = Modulus(t, np.sqrt(t))
        hull = concave_majorant(omega)
        assert np.max(np.abs(hull.values - omega.values)) <= 1e-12

    def test_hull_properties(self):
        rng = SplitMix64(29)
        for _ in range(10):
            t = np.sort(np.array([rng.uniform(0.01, 3.0) for _ in range(10)]))
            t = np.concatenate([[0.0], t])
            v = np.concatenate([[0.0], np.sort(np.array([rng.uniform(0, 0.9) for _ in range(10)]))])
            omega = Modulus(t, v)
            hull = concave_majorant(omega)
            assert hull.is_concave
            assert np.all(hull.values >= v - 1e-12)
            assert np.all(np.diff(hull.values) >= -1e-12)
            assert hull.is_subadditive


class TestModulusExtrapolation:
    """Past the last breakpoint w continues with its last slope, value for
    value v_K + s (t - t_K), s = (v_K - v_{K-1}) / (t_K - t_{K-1})."""

    @staticmethod
    def moduli():
        rng = SplitMix64(97)
        out = [linear_modulus(1.0), linear_modulus(441.7, 12.0), linear_modulus(0.3, 1e-3)]
        for data in _scalar_datasets(rng, 30):
            raw = empirical_modulus(data)
            s = max(1.0, 2.0 * float(np.max(raw.values)))
            out.append(concave_majorant(Modulus(raw.breakpoints, raw.values / s)))
        return out

    def test_values_past_the_last_breakpoint(self):
        for omega in self.moduli():
            t, v = omega.breakpoints, omega.values
            slope = (v[-1] - v[-2]) / (t[-1] - t[-2])
            probes = t[-1] * np.array([1.0, 1.0 + 2**-52, 1.5, 2.0, 3.0, 1e3])
            got = omega(probes)
            ref = np.where(probes > t[-1], v[-1] + slope * (probes - t[-1]), v[-1])
            assert got.tobytes() == ref.tobytes()
            for p, r in zip(probes.tolist(), ref.tolist()):
                value = omega(p)
                assert type(value) is float and value == r

    def test_one_breakpoint_is_constant(self):
        omega = Modulus(np.array([0.0]), np.array([0.0]))
        assert omega(5.0) == 0.0 and omega(np.array([0.0, 2.0])).tolist() == [0.0, 0.0]


def _grid_subadditive(omega):
    """Brute force: w(s + t) <= w(s) + w(t) over every pair of breakpoints
    and of three points past the last one, relative tolerance 1e-12."""
    t = omega.breakpoints
    probes = np.concatenate([t, t[-1] * np.array([1.5, 2.0, 3.0])])
    total = probes[:, None] + probes[None, :]
    lhs = omega(total.ravel()).reshape(total.shape)
    rhs = omega(probes)[:, None] + omega(probes)[None, :]
    return bool(np.all(lhs <= rhs + 1e-12 * (1.0 + np.abs(rhs))))


def _scalar_datasets(rng, k):
    """Seeded scalar data of three kinds: `gen` samples with L = 1, the same
    samples with their (tight) empirical L, and uniform random values."""
    m = 1 + rng.integer(3)
    gen = generate_lipschitz_data(m, 1, k, rng.integer(10**6))
    A = np.array([[rng.uniform(-1, 1) for _ in range(m)] for _ in range(k)])
    B = np.array([[rng.uniform(-1, 1)] for _ in range(k)])
    return [gen, FiniteMapData(gen.points, gen.values), FiniteMapData(A, B)]


def per_pair_empirical_modulus(data):
    """The loop empirical_modulus replaced: one np.linalg.norm per pair, a
    sort of (distance, gap) tuples and a running maximum."""
    pts, vals = data.points, data.values[:, 0]
    k = pts.shape[0]
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            pairs.append(
                (float(np.linalg.norm(pts[i] - pts[j])), abs(float(vals[i] - vals[j])))
            )
    if not pairs:
        return Modulus(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    pairs.sort()
    ts, vs = [0.0], [0.0]
    running = 0.0
    for t, dv in pairs:
        running = max(running, dv)
        if t <= 1e-15:
            continue
        if ts and abs(t - ts[-1]) <= 1e-15:
            vs[-1] = max(vs[-1], running)
        else:
            ts.append(t)
            vs.append(running)
    if len(ts) == 1:
        ts.append(1.0)
        vs.append(0.0)
    return Modulus(np.array(ts), np.array(vs))


def _modulus_datasets():
    """Seeded scalar data with m in {1, 2, 3, 5, 9, 16} and k up to 60: smooth
    random data, and grid data with repeated points (equal values) and many
    equal distances.  m = 9 and 16 exceed the unrolled short sums of BLAS
    dot products."""
    rng = SplitMix64(53)
    out = []
    for m in (1, 2, 3, 5, 9, 16):
        for k in (1, 2, 3, 17, 60):
            A = np.array([[rng.uniform(-1, 1) for _ in range(m)] for _ in range(k)])
            B = np.array([[rng.uniform(-1, 1)] for _ in range(k)])
            out.append(FiniteMapData(A, B))
            G = np.array([[0.5 * rng.integer(4) for _ in range(m)] for _ in range(k)])
            cells = {}
            V = np.array([[cells.setdefault(tuple(g), 0.25 * rng.integer(5))] for g in G])
            out.append(FiniteMapData(G, V))
    return out


def _near_tie_datasets():
    """Seeded scalar data whose sorted distances form chains under 1e-15
    apart, so group heads drift, and data on a unit grid, whose many exactly
    tied distances carry different gaps."""
    rng = SplitMix64(67)
    out = []
    for m in (1, 2, 3):
        for step in (3 * 2.0**-52, 4e-16, 9e-16):
            # Pairs (c_j, c_j + (1 + j step) e_j) with c_j 1e-6 apart.
            A = []
            for j in range(12):
                e = np.array([rng.normal() for _ in range(m)])
                c = np.full(m, j * 1e-6)
                A += [c, c + (1.0 + j * step) * e / np.linalg.norm(e)]
            A += [np.array([rng.uniform(-1, 1) for _ in range(m)]) for _ in range(6)]
            B = np.array([[rng.uniform(-1, 1)] for _ in range(len(A))])
            out.append(FiniteMapData(np.array(A), B))
        G = np.array([[float(rng.integer(3)) for _ in range(m)] for _ in range(20)])
        G = np.unique(G, axis=0)
        out.append(FiniteMapData(G, np.array([[rng.uniform(-1, 1)] for _ in G])))
    return out


class TestEmpiricalModulus:
    def test_bit_identical_to_per_pair_loop(self):
        datasets = _modulus_datasets()
        assert any(
            np.unique(d.points, axis=0).shape[0] < d.size for d in datasets
        )  # repeated points are covered
        for data in datasets:
            got, ref = empirical_modulus(data), per_pair_empirical_modulus(data)
            assert got.breakpoints.tobytes() == ref.breakpoints.tobytes()
            assert got.values.tobytes() == ref.values.tobytes()

    def test_uniform_model_matches_function(self):
        rng = SplitMix64(59)
        for data in _modulus_datasets():
            model = ExtensionModel(data, "uniform")
            for _ in range(3):
                x = np.array([rng.uniform(-1.5, 1.5) for _ in range(data.m)])
                y, residual = model.query(x)
                assert y[0] == uniform_extend(data, x) and residual == 0.0

    def test_uniform_model_rejects_vector_values(self):
        data = generate_lipschitz_data(2, 2, 5, 910)
        with pytest.raises(ValueError, match="scalar"):
            ExtensionModel(data, "uniform")

    def test_drifting_heads_and_exact_ties_match_per_pair_loop(self):
        drifted = tied = 0
        for data in _near_tie_datasets():
            got, ref = empirical_modulus(data), per_pair_empirical_modulus(data)
            assert got.breakpoints.tobytes() == ref.breakpoints.tobytes()
            assert got.values.tobytes() == ref.values.tobytes()
            # A breakpoint under 2e-15 above the last one was reached by a
            # chain of distances each within 1e-15 of its predecessor.
            drifted += bool(np.any(np.diff(ref.breakpoints) < 2e-15))
            I, J = np.triu_indices(data.size, 1)
            dist = np.linalg.norm(data.points[I] - data.points[J], axis=1)
            gaps = np.abs(data.values[I, 0] - data.values[J, 0])
            pairs = set(zip(dist.tolist(), gaps.tolist()))
            tied += len({d for d, _ in pairs}) < len(pairs)
        assert drifted > 0 and tied > 0

    @staticmethod
    def stress_datasets():
        """Seeded scalar data with k in {2, 3, 40, 100}: random and `gen`
        samples, and grid data with repeated points (equal values) and many
        tied distances.  k = 100 has 4,950 pairs, more than one pairwise
        block."""
        rng = SplitMix64(83)
        out = []
        for k in (2, 3, 40, 100):
            for m in (1, 2, 3):
                A = np.array([[rng.uniform(-1, 1) for _ in range(m)] for _ in range(k)])
                out.append(FiniteMapData(A, np.array([[rng.uniform(-1, 1)] for _ in range(k)])))
                out.append(generate_lipschitz_data(m, 1, k, rng.integer(10**6)))
                G = np.array([[0.5 * rng.integer(4) for _ in range(m)] for _ in range(k)])
                cells = {}
                V = np.array([[cells.setdefault(tuple(g), 3.0 * rng.integer(5))] for g in G])
                out.append(FiniteMapData(G, V))
        return out

    def test_uniform_model_matches_reference_pipeline(self):
        # The model's one pair scan against empirical_modulus, then
        # concave_majorant, then _check_modulus_for_data, and the lower
        # envelope with np.linalg.norm distances.
        rng = SplitMix64(89)
        datasets = self.stress_datasets()
        assert any(np.unique(d.points, axis=0).shape[0] < d.size for d in datasets)
        assert max(d.size * (d.size - 1) // 2 for d in datasets) > _BLOCK_PAIRS
        for data in datasets:
            raw = empirical_modulus(data)
            s = max(1.0, 2.0 * float(np.max(raw.values)))
            omega = concave_majorant(Modulus(raw.breakpoints, raw.values / s))
            values = data.values / s
            _check_modulus_for_data(data.points, values, omega)
            model = ExtensionModel(data, "uniform")
            assert model.scale == s
            assert model.scaled_values.tobytes() == values.tobytes()
            assert model.omega.breakpoints.tobytes() == omega.breakpoints.tobytes()
            assert model.omega.values.tobytes() == omega.values.tobytes()
            queries = [data.points[0]] + [
                np.array([rng.uniform(-2, 2) for _ in range(data.m)]) for _ in range(4)
            ]
            for x in queries:
                w = omega(np.linalg.norm(data.points - x, axis=1))[:, None]
                ref = s * np.max(values - w, axis=0)
                assert model.query(x)[0].tobytes() == ref.tobytes()

    def test_shared_check_matches_blocked_check(self):
        # Moduli below the data's: the scan's check and the blocked one
        # reach the same decision on the same witness with the same message.
        raised = 0
        for data in self.stress_datasets():
            scan = extension._pair_scan(data.points)
            raw = empirical_modulus(data)
            for omega in (
                linear_modulus(0.5 * data.L),
                linear_modulus(data.L, 4.0),
                Modulus(raw.breakpoints, 0.75 * raw.values),
                Modulus(raw.breakpoints, raw.values),
            ):
                outcomes = []
                for check in (
                    lambda: _check_modulus_for_data(data.points, data.values, omega),
                    lambda: extension._check_modulus_on_scan(
                        data.points, data.values, omega, scan
                    ),
                ):
                    try:
                        check()
                        outcomes.append(None)
                    except ModulusViolationError as exc:
                        outcomes.append((str(exc), exc.witness))
                assert outcomes[0] == outcomes[1]
                raised += outcomes[0] is not None
        assert raised > 0

    def test_shared_check_decides_by_the_norm_distance(self):
        # Where the vecdot and np.linalg.norm distances of a pair differ in
        # the last bit, w jumps from 0 to 1 between them: the blocked check
        # fails the pair exactly when its norm distance is the smaller one.
        rng = SplitMix64(101)
        seen = set()
        while len(seen) < 2:
            A = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)])
            d = A[:1] - A[1:]
            dot, norm = float(np.sqrt(np.vecdot(d, d))[0]), float(np.linalg.norm(d, axis=1)[0])
            if dot == norm:
                continue
            data = FiniteMapData(A, np.array([[0.0], [1.0]]))
            omega = Modulus(np.array([0.0, min(dot, norm), max(dot, norm)]),
                            np.array([0.0, 0.0, 1.0]))
            scan = extension._pair_scan(data.points)
            for check in (
                lambda: _check_modulus_for_data(data.points, data.values, omega),
                lambda: extension._check_modulus_on_scan(
                    data.points, data.values, omega, scan
                ),
            ):
                if norm < dot:
                    with pytest.raises(ModulusViolationError) as exc:
                        check()
                    assert exc.value.witness == (0, 1)
                else:
                    check()
            seen.add(norm < dot)

    def test_uniform_model_scans_the_pairs_once(self, monkeypatch):
        # One pair index serves the empirical modulus and its check; the
        # rescaled values are held without a FiniteMapData, whose own scan
        # would find an unread L.
        data = generate_lipschitz_data(2, 1, 12, 911)
        builds, scans = [], []

        def counting_pair_index(*args):
            builds.append(args)
            return pair_index(*args)

        def counting_pairwise(*args):
            scans.append(args)
            return pairwise(*args)

        monkeypatch.setattr(extension, "pair_index", counting_pair_index)
        monkeypatch.setattr(extension, "pairwise", counting_pairwise)
        ExtensionModel(data, "uniform")
        assert builds == [(12, 0, 11)] and scans == []


def reference_concave_majorant(omega, keep=None):
    """The hull concave_majorant replaced: the monotone chain over every
    breakpoint (or those `keep` marks), popping while the cross is
    >= -1e-15, interpolated back on the whole grid."""
    t, v = omega.breakpoints, omega.values
    if keep is not None:
        t, v = t[keep], v[keep]
    hull = []
    for p in zip(t.tolist(), v.tolist()):
        while len(hull) >= 2:
            (t1, v1), (t2, v2) = hull[-2], hull[-1]
            cross = (t2 - t1) * (p[1] - v1) - (p[0] - t1) * (v2 - v1)
            if cross >= -1e-15:
                hull.pop()
            else:
                break
        hull.append(p)
    ht = np.array([p[0] for p in hull])
    hv = np.array([p[1] for p in hull])
    return Modulus(omega.breakpoints, np.interp(omega.breakpoints, ht, hv))


def _adversarial_moduli(count, seed):
    """Non-decreasing moduli below 1 built run by run: jumps between runs of
    1e-17 to 1e-14 or ordinary ones, gaps between breakpoints of 1.01e-15 to
    1e-13 or ordinary ones, some plateaus of 20 to 49 points, and on every
    other input all gaps scaled by 1e-3."""
    rng = SplitMix64(seed)
    out = []
    for n in range(count):
        scale = 1e-3 if n % 2 else 1.0
        t, v = [0.0], [0.0]
        for _ in range(2 + rng.integer(12)):
            tiny = rng.uniform() < 0.5
            level = v[-1] + (10.0 ** rng.uniform(-17, -14) if tiny else rng.uniform(0, 0.05))
            plateau = rng.uniform() < 0.2
            for _ in range(20 + rng.integer(30) if plateau else 1 + rng.integer(5)):
                tiny = rng.uniform() < 0.5
                gap = 10.0 ** rng.uniform(-14.996, -13) if tiny else rng.uniform(1e-4, 0.01)
                t.append(t[-1] + scale * gap)
                v.append(level)
        out.append(Modulus(np.array(t), np.array(v)))
    return out


class TestConcaveMajorantExact:
    def test_bit_identical_to_full_hull(self):
        unguarded_differs = 0
        for omega in _adversarial_moduli(400, 61):
            got = concave_majorant(omega)
            assert got.values.tobytes() == reference_concave_majorant(omega).values.tobytes()
            # The hull over the first point of each run and the last point
            # alone: where it differs, only the runs the guard keeps whole
            # make concave_majorant exact.
            v = omega.values
            first = np.concatenate(([True], v[1:] != v[:-1]))
            first[-1] = True
            unguarded = reference_concave_majorant(omega, first)
            unguarded_differs += unguarded.values.tobytes() != got.values.tobytes()
        assert unguarded_differs > 0

    def test_values_that_dip_keep_every_point(self):
        # Modulus allows drops of up to 1e-12, where runs of equal values
        # prove nothing; the hull then runs over every breakpoint.
        for omega in _adversarial_moduli(40, 71):
            v = omega.values.copy()
            v[len(v) // 2 :] -= 5e-13
            v = np.maximum(v, 0.0)
            v[0] = 0.0
            dipped = Modulus(omega.breakpoints, v)
            got = concave_majorant(dipped)
            assert got.values.tobytes() == reference_concave_majorant(dipped).values.tobytes()


class TestLazyModulus:
    def test_uniform_extend_builds_no_grid(self):
        # One (K+3)^2 float64 grid over 1,771 breakpoints takes 25 MB.
        gen = generate_lipschitz_data(2, 1, 60, 100)
        data = FiniteMapData(gen.points, gen.values)
        assert empirical_modulus(data).breakpoints.size == 1771
        tracemalloc.start()
        try:
            v = uniform_extend(data, np.array([0.3, -0.2]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(v)
        assert peak < 10e6

    def test_concave_moduli_pass_the_grid(self):
        # Empirical moduli, their concave majorants and rescalings of both,
        # and Lipschitz moduli with L from 1e-3 to 1e5.
        rng = SplitMix64(37)
        moduli, majorants = [], []
        for _ in range(12):
            for data in _scalar_datasets(rng, 2 + rng.integer(30)):
                raw = empirical_modulus(data)
                s = max(1.0, 2.0 * float(np.max(raw.values)))
                hull = concave_majorant(Modulus(raw.breakpoints, raw.values / s))
                for c in (1e-3, 1.0, 1e3, 1e5):
                    moduli.append(Modulus(raw.breakpoints, c * raw.values))
                    majorants.append(Modulus(hull.breakpoints, c * hull.values))
        for e in range(-3, 6):
            moduli.append(linear_modulus(10.0 ** e * rng.uniform(1, 9), rng.uniform(1, 20)))
        assert all(omega.is_concave for omega in majorants)
        for omega in moduli + majorants:
            grid = _grid_subadditive(omega)
            assert omega.is_subadditive == (omega.is_concave or grid)
            assert grid or not omega.is_concave

    def test_model_modulus_dominates_its_data(self):
        # ExtensionModel's mcshane query checks no pair; FiniteMapData's own
        # check ||db|| <= L ||da|| + 1e-9 must already imply the modulus one.
        rng = SplitMix64(41)
        datasets = []
        for k in (2, 2, 40, 40, 400, 400):
            datasets += _scalar_datasets(rng, k)
        steep = datasets[-1]
        A = np.vstack([steep.points, steep.points[:1] + 1e-4])
        B = np.vstack([steep.values, steep.values[:1] + 1.0])
        datasets.append(FiniteMapData(A, B))
        assert max(d.L for d in datasets) > 5e3
        for data in datasets:
            omega = ExtensionModel(data, "mcshane").omega
            _check_modulus_for_data(data.points, data.values, omega)


class TestUniformExtend:
    def test_lipschitz_data_interpolates(self):
        data = generate_lipschitz_data(1, 1, 6, 905)
        for i in range(data.size):
            v = uniform_extend(data, data.points[i])
            assert v == pytest.approx(float(data.values[i, 0]), abs=1e-9)

    def test_sqrt_holder_data(self):
        t = np.array([[0.0], [0.01], [0.04], [0.09], [0.25], [1.0]])
        data = FiniteMapData(t, np.sqrt(t))
        omega = concave_majorant(
            Modulus(
                empirical_modulus(data).breakpoints, empirical_modulus(data).values
            )
        )
        rng = SplitMix64(31)
        queries = [np.array([rng.uniform(0, 1.5)]) for _ in range(20)]
        vals = [uniform_extend(data, q) for q in queries]
        for i in range(len(queries)):
            for j in range(i + 1, len(queries)):
                gap = abs(vals[i] - vals[j])
                dist = abs(float(queries[i][0] - queries[j][0]))
                assert gap <= omega(dist) + 1e-6

    @pytest.mark.xfail(strict=True, raises=ModulusViolationError)
    def test_uniform_build_at_small_distance_scales(self):
        # concave_majorant pops a hull point when cross >= -1e-15, an
        # absolute area tolerance: across a t-span under about 1e-6 the hull
        # falls up to 1e-15 / span below the empirical modulus, more than
        # the build check's 1e-9 slack.  Here it is 3.05e-6 below on pair
        # (3, 4); the same data with the points scaled by 1e9 builds.
        a = np.array([3.246290770373295e-11, 1.7549802108918357e-10,
                      2.562039484687895e-10, 2.8169983386901235e-10,
                      8.028345251520068e-10, 9.543859756848251e-10])
        b = np.array([0.8086454608735498, -0.15172137403420538,
                      -0.36012386674752284, -0.6985928637745229,
                      0.8087528865250728, 0.8014951384403652])
        ExtensionModel(FiniteMapData(a[:, None], b[:, None]), "uniform")

    def test_single_point_constant(self):
        data = FiniteMapData(np.array([[3.0]]), np.array([[7.0]]))
        assert uniform_extend(data, np.array([100.0])) == 7.0

    def test_steep_data_normalized(self):
        # values far above 1 must still pass through the majorant gate
        data = FiniteMapData(np.array([[0.0], [1.0]]), np.array([[0.0], [50.0]]))
        v = uniform_extend(data, np.array([0.5]))
        assert np.isfinite(v)
        assert uniform_extend(data, np.array([1.0])) == pytest.approx(50.0, abs=1e-9)


class TestUniformGolden:
    # repr of uniform_extend at seeded queries, recorded before the merge of
    # empirical_modulus and the hull of concave_majorant were vectorised: a
    # change of the uniform model that moves any bit of an output shows here.
    # k = 40 and m = 2 as in the envelopes benchmark; the grid data repeats
    # points (17 distinct of 40) and ties many distances.
    GOLDEN = {
        "gen-2-1-40": [
            "-0.62091963230738", "1.5931812123582887", "0.0812429390013791",
            "1.0400075622522365", "0.3095392927310825", "-0.5886706256804211",
        ],
        "gen_tight-2-1-40": [
            "-0.62091963230738", "1.5931812123582887", "0.0812429390013791",
            "1.0400075622522365", "0.3095392927310825", "-0.5886706256804211",
        ],
        "random-2-1-40": [
            "-0.9786981576788504", "-0.8896993526914483", "-0.7231343684729603",
            "-0.6605898484362736", "-0.9786981576788504", "-0.3662407757371031",
        ],
        "grid-2-1-40": [
            "0.0", "0.0", "0.11512126987360471", "0.47032078544303374", "0.0", "0.25",
        ],
    }

    @staticmethod
    def datasets():
        gen = generate_lipschitz_data(2, 1, 40, 1501)
        rng = SplitMix64(1502)
        A = np.array([[rng.uniform(-1, 1) for _ in range(2)] for _ in range(40)])
        B = np.array([[rng.uniform(-1, 1)] for _ in range(40)])
        G = np.array([[0.5 * rng.integer(5) for _ in range(2)] for _ in range(40)])
        cells = {}
        V = np.array([[cells.setdefault(tuple(g), 0.25 * rng.integer(7))] for g in G])
        return {
            "gen-2-1-40": gen,
            "gen_tight-2-1-40": FiniteMapData(gen.points, gen.values),
            "random-2-1-40": FiniteMapData(A, B),
            "grid-2-1-40": FiniteMapData(G, V),
        }

    def test_outputs_match_recorded_reprs(self):
        for name, data in self.datasets().items():
            rng = SplitMix64(1503)
            reach = float(np.max(np.abs(data.points)))
            queries = [
                np.array([rng.uniform(-1.25, 1.25) * reach for _ in range(data.m)])
                for _ in range(5)
            ]
            queries.append(data.points[3])
            got = [repr(uniform_extend(data, x)) for x in queries]
            assert got == self.GOLDEN[name], name


class TestExtensionModelSurface:
    def test_models_agree_with_functions(self):
        data = generate_lipschitz_data(2, 2, 6, 906)
        scalar = FiniteMapData(data.points, data.values[:, :1])
        domain = Ball(np.zeros(2), 3.0)
        mcshane = ExtensionModel(scalar, "mcshane")
        functions = {
            "minimax": lambda x: extend_minimax(data, x),
            "proxavg": lambda x: extend_proxavg(data, x),
            "mcshane": lambda x: (
                [extend_mcshane(scalar, mcshane.omega, x, "lower")], 0.0
            ),
            "coordinatewise": lambda x: (extend_coordinatewise(data, x), 0.0),
            "project_domain": lambda x: extend_minimax(data, project(x, domain)),
            "tietze": lambda x: ([tietze_extend(scalar, x)], 0.0),
            "uniform": lambda x: ([uniform_extend(scalar, x)], 0.0),
        }
        assert set(functions) == set(ExtensionModel.METHODS)
        queries = [np.array([0.3, -0.8]), np.array([4.0, 1.5]), data.points[2]]
        for method, function in functions.items():
            model = ExtensionModel(
                scalar if method in ("mcshane", "tietze", "uniform") else data,
                method, domain=domain,
            )
            for x in queries:
                y, residual = model.query(x)
                y_ref, residual_ref = function(x)
                assert np.array_equal(y, np.asarray(y_ref)), (method, x)
                assert residual == residual_ref, (method, x)

    def test_queries_run_no_per_data_work(self, monkeypatch):
        data = generate_lipschitz_data(2, 1, 8, 908)
        domain = Ball(np.zeros(2), 10.0)
        models = [
            ExtensionModel(data, method, domain=domain)
            for method in ExtensionModel.METHODS
        ]

        def per_data_work(*args, **kwargs):
            raise AssertionError("per-data work ran at query time")

        for name in ("pairwise", "pair_index", "_check_modulus_for_data", "distance",
                     "empirical_modulus", "concave_majorant", "_tau"):
            monkeypatch.setattr(extension, name, per_data_work)
        for model in models:
            y, residual = model.query(np.array([0.3, -0.8]))
            assert np.all(np.isfinite(y)) and np.isfinite(residual), model.method

    def test_every_method_interpolates(self):
        data = generate_lipschitz_data(2, 1, 5, 907)
        domain = Ball(np.zeros(2), 10.0)
        for method in ExtensionModel.METHODS:
            model = ExtensionModel(data, method, domain=domain)
            for i in range(data.size):
                y, _ = model.query(data.points[i])
                assert np.max(np.abs(y - data.values[i])) <= 1e-5


class TestConstantData:
    """One data point, or constant values (L = 0): minimax and proxavg
    return that value, as a copy, with residual 0 at every query."""

    CASES = {
        "one-point": FiniteMapData(np.array([[0.5, -1.0]]), np.array([[2.0, 3.0, -1.0]])),
        "one-point-L3": FiniteMapData(np.array([[0.5, -1.0]]), np.array([[2.0, 3.0]]), 3.0),
        "constant": FiniteMapData(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]), np.array([[2.0, -1.0]] * 3)
        ),
    }

    @pytest.mark.parametrize("method", ["minimax", "proxavg"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_value_is_the_constant(self, case, method):
        data = self.CASES[case]
        model = ExtensionModel(data, method)
        for x in (np.array([0.3, 0.4]), np.array([5.0, -2.0]), data.points[-1]):
            y, residual = model.query(x)
            assert np.array_equal(y, data.values[0]) and residual == 0.0, x
            y[0] = 99.0
            assert data.values[0, 0] == 2.0


class TestTightDataLipschitz:
    def test_lipschitz_methods_on_tight_data(self):
        # Empirical L and query pairs 0.05 apart: data without slack, where a
        # method that is not Lipschitz shows a ratio above 1.
        rng = SplitMix64(11)
        worst = {"proxavg": 0.0, "mcshane": 0.0, "coordinatewise": 0.0}
        for _ in range(60):
            k = 3 + rng.integer(5)
            A = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(k)])
            B = np.array([[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(k)])
            data = FiniteMapData(A, B)
            scalar = FiniteMapData(A, B[:, :1])
            models = {
                "proxavg": (ExtensionModel(data, "proxavg"), data.L),
                "mcshane": (ExtensionModel(scalar, "mcshane"), scalar.L),
                "coordinatewise": (
                    ExtensionModel(data, "coordinatewise"),
                    math.sqrt(2.0) * data.L,
                ),
            }
            for _ in range(10):
                x1 = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1)])
                theta = rng.uniform(0.0, 2.0 * math.pi)
                x2 = x1 + 0.05 * np.array([math.cos(theta), math.sin(theta)])
                for name, (model, bound) in models.items():
                    dy = np.linalg.norm(model.query(x1)[0] - model.query(x2)[0])
                    ratio = float(dy) / (bound * float(np.linalg.norm(x1 - x2)))
                    worst[name] = max(worst[name], ratio)
        assert all(r <= 1.0 + 1e-9 for r in worst.values()), worst
