import itertools
import math

import numpy as np
import pytest

from lipext import helly
from lipext.errors import EnumerationGuardError, SolverCapError
from lipext.gen import generate_ball_family
from lipext.geometry import Ball, Polytope
from lipext.convex_sets import distance
from lipext.rng import SplitMix64
from lipext.solvers import chebyshev_center
from lipext.helly import (
    BodyFamily,
    check_k_intersection,
    common_point,
    helly_verify,
    jung_ball,
    jung_bound_check,
)


def touching_families(n, count=20, balls=None, polytopes=0):
    """Families whose bodies all hold one point p, on every ball's sphere.

    From one SplitMix64(7) stream per call: the point p uniform in
    [-1, 1]^n, then `balls` centers uniform in [-2, 2]^n (n + 2 by default),
    each radius ||c - p||, then `polytopes` hulls of p and n + 1 points
    p + U[-1, 1]^n.  They are tight (p lies on every sphere), not tuned.
    """
    balls = n + 2 if balls is None else balls
    rng = SplitMix64(7)
    out = []
    for _ in range(count):
        p = np.array([rng.uniform(-1, 1) for _ in range(n)])
        centers = [np.array([rng.uniform(-2, 2) for _ in range(n)]) for _ in range(balls)]
        bodies = [Ball(c, float(np.linalg.norm(c - p))) for c in centers]
        for _ in range(polytopes):
            offsets = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n + 1)]
            bodies.append(Polytope(np.vstack([p, p + np.array(offsets)])))
        out.append(BodyFamily(bodies))
    return out


def cut_cycling_family(shift=0.0):
    """A triangle and a ball in R^3, about 7.9e-4 apart, shifted by `shift`
    in every coordinate.  A ratio test that let rows with G d below 1e-13 of
    the largest go unblocked crossed its cuts by up to 7.9e-8, and the
    least-squares cuts then cycled to their round cap."""
    V = np.array([
        [0.12933583, -0.2309303, 0.05439155],
        [0.88716085, -0.26979177, 0.08033103],
        [0.16516175, -0.24683542, 0.41837829],
    ])
    center = np.array([0.62882581, -0.19384161, 1.02288899])
    return BodyFamily([Polytope(V + shift), Ball(center + shift, 0.7455249470098184)])


def shuffled(family, seed):
    order = SplitMix64(seed).shuffle(list(range(len(family))))
    return BodyFamily([family.bodies[i] for i in order])


def ball_arrays(family):
    return (
        np.array([b.center for b in family.bodies]),
        np.array([b.radius for b in family.bodies]),
    )


def grid_min_max_distance(bodies, steps=200):
    """Brute-force oracle in the plane: the least, over a steps x steps grid
    on the bodies' bounding box, of max_i d(x, C_i), and the grid's cell
    diagonal.  The box holds a minimizer, since projecting onto it moves no
    point farther from a body inside it."""
    lo = np.min([b.center - b.radius if isinstance(b, Ball) else b.vertices.min(axis=0)
                 for b in bodies], axis=0)
    hi = np.max([b.center + b.radius if isinstance(b, Ball) else b.vertices.max(axis=0)
                 for b in bodies], axis=0)
    xs = np.linspace(lo[0], hi[0], steps)
    ys = np.linspace(lo[1], hi[1], steps)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    worst = np.full(X.shape, -np.inf)
    for b in bodies:
        if isinstance(b, Ball):
            d = np.clip(np.hypot(X - b.center[0], Y - b.center[1]) - b.radius, 0.0, None)
        else:
            # A hull of points is the union of its triangles (Caratheodory).
            V = b.vertices
            d = np.min([polygon_distance(X, Y, V[list(S)])
                        for S in itertools.combinations(range(len(V)), min(len(V), 3))],
                       axis=0)
        worst = np.maximum(worst, d)
    return float(worst.min()), math.hypot(float(xs[1] - xs[0]), float(ys[1] - ys[0]))


class TestCommonPoint:
    def test_four_balls_share_origin(self):
        balls = [
            Ball([sx * 0.5, sy * 0.5], 1.0) for sx in (-1, 1) for sy in (-1, 1)
        ]
        rep = common_point(BodyFamily(balls))
        assert rep.intersects
        assert rep.residual <= 1e-6
        assert np.linalg.norm(np.asarray(rep.witness)) <= 0.5

    def test_two_disjoint_balls(self):
        fam = BodyFamily([Ball([0.0, 0.0], 1.0), Ball([4.0, 0.0], 1.0)])
        rep = common_point(fam)
        assert not rep.intersects
        # the max distance is minimized at the midpoint with value 1
        assert rep.residual == pytest.approx(1.0, abs=0.05)

    def test_single_body(self):
        rep = common_point(BodyFamily([Ball([1.0, 2.0], 0.5)]))
        assert rep.intersects and rep.residual == 0.0

    def test_polytope_family(self):
        fam = BodyFamily(
            [
                Polytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]),
                Polytope([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0]]),
                Ball([1.0, 1.0], 0.5),
            ]
        )
        rep = common_point(fam)
        assert rep.intersects


class TestKIntersection:
    def test_empty_pair_propagates(self):
        balls = [
            Ball([0.0, 0.0], 1.0),
            Ball([4.0, 0.0], 1.0),
            Ball([0.5, 0.5], 2.0),
        ]
        rep = check_k_intersection(BodyFamily(balls), 2)
        assert not rep.intersects
        assert rep.violating_subset == [0, 1]

    def test_pairwise_but_no_triple(self):
        # classic: three long thin rectangles-as-segments pattern with balls:
        # pairwise intersecting, empty triple
        balls = [
            Ball([0.0, 0.0], 1.05),
            Ball([2.0, 0.0], 1.05),
            Ball([1.0, 1.732], 1.05),
        ]
        fam = BodyFamily(balls)
        pair = check_k_intersection(fam, 2)
        assert pair.intersects
        triple = check_k_intersection(fam, 3)
        assert not triple.intersects
        assert triple.violating_subset == [0, 1, 2]

    def test_k1_on_nonempty_bodies(self):
        fam = BodyFamily([Ball([0.0, 0.0], 0.1), Ball([9.0, 9.0], 0.1)])
        rep = check_k_intersection(fam, 1)
        assert rep.intersects

    def test_triple_with_common_point(self):
        balls = [Ball([0.3, 0.0], 1.0), Ball([-0.3, 0.2], 1.0), Ball([0.0, -0.4], 1.0)]
        rep = check_k_intersection(BodyFamily(balls), 3)
        assert rep.intersects

    def test_disc_violation_reports_the_chebyshev_value(self):
        # The violating triple's best candidate point is 0.827 from a disc,
        # but the triple's Chebyshev value, the reported residual, is 0.408.
        family = generate_ball_family(2, 9, 3, "disjoint-pair")
        rep = check_k_intersection(family, 3)
        assert not rep.intersects and rep.violating_subset == [0, 1, 2]
        triple = BodyFamily([family.bodies[i] for i in rep.violating_subset])
        assert rep.residual == chebyshev_center(*ball_arrays(triple))[1]
        assert rep.residual == pytest.approx(0.408, abs=1e-3)

    def test_disc_triple_within_tolerance_meets(self):
        # Discs of radius R - t on an equilateral triangle with circumradius
        # R: the Chebyshev value is t, within 1e-6, while the best candidate,
        # a crossing of two circles, lies about 3t from the third disc.
        R, t = 1.0, 5e-7
        angles = [0.5 + 2.0 * math.pi * k / 3.0 for k in range(3)]
        family = BodyFamily([Ball([R * math.cos(a), R * math.sin(a)], R - t) for a in angles])
        rep = check_k_intersection(family, 3)
        _, value = chebyshev_center(*ball_arrays(family))
        assert 0.0 < value <= 1e-6
        assert rep.intersects and rep.residual == value

    @pytest.mark.parametrize("balls", [
        # Tangent circles cross at (1, 0) alone, and the third disc holds it.
        [Ball([0.0, 0.0], 1.0), Ball([2.0, 0.0], 1.0), Ball([1.0, 0.5], 0.6)],
        # Concentric circles do not cross; the common center is the witness.
        [Ball([0.0, 0.0], 1.0), Ball([0.0, 0.0], 0.5), Ball([0.0, 0.0], 0.25)],
    ])
    def test_tangent_and_concentric_discs_meet(self, balls):
        rep = check_k_intersection(BodyFamily(balls), 3)
        assert rep.intersects and rep.residual == 0.0

    def test_enumeration_guard(self):
        balls = [Ball([float(i), 0.0], 50.0) for i in range(60)]
        with pytest.raises(EnumerationGuardError):
            check_k_intersection(BodyFamily(balls), 30)


class TestHellyVerify:
    def test_four_balls(self):
        balls = [
            Ball([sx * 0.5, sy * 0.5], 1.0) for sx in (-1, 1) for sy in (-1, 1)
        ]
        rep = helly_verify(BodyFamily(balls))
        assert rep.intersects and rep.residual <= 1e-6

    def test_intervals_on_line(self):
        # pairwise-overlapping intervals intersect globally (Helly n=1)
        ivals = [(0.0, 2.0), (1.0, 3.0), (1.5, 4.0), (-1.0, 1.6)]
        fam = BodyFamily(
            [Ball([0.5 * (a + b)], 0.5 * (b - a)) for a, b in ivals]
        )
        rep = helly_verify(fam)
        lo = max(a for a, _ in ivals)
        hi = min(b for _, b in ivals)
        assert rep.intersects
        assert lo - 1e-9 <= rep.witness[0] <= hi + 1e-9

    def test_random_families_never_refute_helly(self):
        rng = SplitMix64(101)
        for trial in range(100):
            n = 1 if trial % 2 == 0 else 2
            count = 3 + rng.integer(6)
            core = np.array([rng.uniform(-1, 1) for _ in range(n)])
            balls = []
            for _ in range(count):
                radius = rng.uniform(0.4, 1.5)
                center = core + np.array(
                    [rng.uniform(-1, 1) for _ in range(n)]
                ) * (radius - 0.2) / math.sqrt(n)
                balls.append(Ball(center, radius))
            fam = BodyFamily(balls)
            sub = check_k_intersection(fam, n + 1)
            if sub.intersects:
                rep = common_point(fam)
                assert rep.residual <= 1e-6

    @pytest.mark.parametrize("shift", [0.0, 1e4, 1e5])
    def test_polytope_and_ball_whose_cuts_cycled(self, shift):
        family = cut_cycling_family(shift)
        rep = helly_verify(family)
        assert not rep.intersects and rep.violating_subset == [0, 1]
        # Two bodies: the residual is half their distance.
        poly, ball = family.bodies
        gap = distance(ball.center, poly) - ball.radius
        assert rep.residual == pytest.approx(gap / 2.0, rel=0.0, abs=1e-10)
        subset = [family.bodies[i] for i in rep.violating_subset]
        assert not common_point(BodyFamily(subset)).intersects


class TestJung:
    def test_single_point(self):
        ball = jung_ball([np.array([1.0, 2.0])])
        assert ball.radius == 0.0

    def test_two_points(self):
        ball = jung_ball([np.array([0.0, 0.0]), np.array([2.0, 0.0])])
        assert np.allclose(ball.center, [1.0, 0.0], atol=1e-12)
        assert ball.radius == pytest.approx(1.0, abs=1e-12)

    def test_equilateral_triangle_attains_bound(self):
        pts = [
            np.array([0.0, 0.0]),
            np.array([1.0, 0.0]),
            np.array([0.5, math.sqrt(3.0) / 2.0]),
        ]
        diameter, radius, bound, holds = jung_bound_check(pts)
        assert holds
        assert diameter == pytest.approx(1.0, abs=1e-12)
        assert radius == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
        assert bound == pytest.approx(math.sqrt(2.0 / 6.0), abs=1e-12)
        assert abs(radius - bound) <= 1e-6  # equality case in the plane

    def test_diameter_matches_dense_differences(self):
        # The diameter is a geometry.pairwise scan; the dense k x k x n
        # difference array is the reference, bit for bit.
        rng = SplitMix64(21)
        for trial in range(60):
            n, k = 1 + trial % 17, 2 + trial
            pts = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(k)])
            diff = pts[:, None, :] - pts[None, :, :]
            reference = float(np.sqrt(np.max(np.sum(diff * diff, axis=2))))
            assert jung_bound_check(pts)[0] == reference

    def test_random_sets_hold_bound_and_cover(self):
        rng = SplitMix64(55)
        for _ in range(30):
            pts = [
                np.array([rng.uniform(0, 1), rng.uniform(0, 1)]) for _ in range(20)
            ]
            ball = jung_ball(pts)
            dists = [float(np.linalg.norm(p - ball.center)) for p in pts]
            assert max(dists) <= ball.radius + 1e-9
            _, _, _, holds = jung_bound_check(pts)
            assert holds

    def test_radius_matches_circumball_oracle(self):
        # Brute force: the minimum enclosing ball is the smallest circumball
        # of at most n + 1 affinely independent points that covers them all.
        def oracle(P):
            best = math.inf
            for size in range(1, P.shape[1] + 2):
                for S in itertools.combinations(range(len(P)), size):
                    Q = P[list(S)]
                    D = Q[1:] - Q[0]
                    if np.linalg.matrix_rank(D) < size - 1:
                        continue
                    beta = np.linalg.solve(2.0 * (D @ D.T), np.sum(D * D, axis=1))
                    center = Q[0] + beta @ D
                    radius = float(np.max(np.linalg.norm(Q - center, axis=1)))
                    if np.max(np.linalg.norm(P - center, axis=1)) <= radius + 1e-12:
                        best = min(best, radius)
            return best

        rng = SplitMix64(77)
        for trial in range(20):
            n = 2 + trial % 2
            k = 3 + int(rng.integer(8))
            pts = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(k)])
            assert jung_ball(pts).radius == pytest.approx(oracle(pts), abs=1e-12)

    def test_dimension_fallback(self):
        rng = SplitMix64(88)
        pts = [np.array([rng.uniform(-1, 1) for _ in range(5)]) for _ in range(15)]
        ball = jung_ball(pts)
        dists = [float(np.linalg.norm(p - ball.center)) for p in pts]
        assert max(dists) <= ball.radius + 1e-9

    def test_far_from_the_origin(self):
        # The dual's Gram matrix is centered on the first point, so moving a
        # unit-scale set by 1e6 leaves its radius to rounding.
        rng = SplitMix64(3)
        for trial in range(60):
            n = 2 + trial % 4
            pts = np.array(
                [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(3 + trial % 20)]
            )
            assert jung_ball(pts + 1e6).radius == pytest.approx(
                jung_ball(pts).radius, abs=1e-9
            )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_touching_families_intersect(n):
    # Helly's theorem: a family whose every (n+1)-subset meets has a common
    # point, so all three checks must accept, at rounding level, whatever
    # the order of the bodies.  Ball families are decided by the Chebyshev
    # center; polytope-only and mixed ones by the least-squares points.
    kinds = (
        (touching_families(n), 1e-12),
        (touching_families(n, balls=0, polytopes=n + 2), 1e-10),
        (touching_families(n, balls=n + 1, polytopes=2), 1e-10),
    )
    for families, bound in kinds:
        worst = 0.0
        for trial, family in enumerate(families):
            reports = [
                common_point(family),
                check_k_intersection(family, n + 1),
                helly_verify(family),
                common_point(shuffled(family, trial)),
            ]
            assert all(rep.intersects for rep in reports)
            worst = max([worst] + [rep.residual for rep in reports])
        assert worst <= bound


@pytest.mark.parametrize("shift", [1e5, 1e6])
def test_shifted_touching_families_intersect(shift):
    # The same touching families moved far from the origin: the Chebyshev
    # center's dual works in coordinates centered on the first ball.
    worst = 0.0
    for n in (2, 3, 4):
        for family in touching_families(n):
            moved = BodyFamily([Ball(b.center + shift, b.radius) for b in family.bodies])
            rep = helly_verify(moved)
            assert rep.intersects
            worst = max(worst, rep.residual)
    assert worst <= 1e-10


def unit_square(corner, degrees=0.0):
    """The unit square with a vertex at corner and edges along the directions
    at degrees and degrees + 90."""
    a = math.radians(degrees)
    u = np.array([math.cos(a), math.sin(a)])
    v = np.array([-u[1], u[0]])
    p = np.asarray(corner, dtype=float)
    return Polytope([p, p + u, p + u + v, p + v])


POLYTOPE_FAMILIES = {
    # Their common part is the 0.1 x 0.05 rectangle [0.9, 1] x [0.95, 1].
    "three-overlapping-squares": [
        unit_square([0.0, 0.0]), unit_square([0.9, 0.1]), unit_square([0.4, 0.95])
    ],
    # The four quadrants at (0.3, -0.2): that corner is their only common point.
    "four-squares-one-corner": [
        unit_square([0.3, -0.2], d) for d in (0.0, 90.0, 180.0, 270.0)
    ],
    # Turned so that the start, the mean of the squares' centers, is off the
    # corner; still the only common point.
    "four-turned-squares-one-corner": [
        unit_square([0.3, -0.2], d) for d in (0.0, 100.0, 190.0, 280.0)
    ],
}


@pytest.mark.parametrize("name", sorted(POLYTOPE_FAMILIES))
def test_polytope_families_intersect(name):
    family = BodyFamily(POLYTOPE_FAMILIES[name])
    for rep in (common_point(family), helly_verify(family)):
        assert rep.intersects and rep.residual <= 1e-12


def segment_distance(X, Y, a, b):
    ab = b - a
    t = np.clip(((X - a[0]) * ab[0] + (Y - a[1]) * ab[1]) / (ab @ ab), 0.0, 1.0)
    return np.hypot(X - a[0] - t * ab[0], Y - a[1] - t * ab[1])


def polygon_distance(X, Y, vertices):
    """Distance from the grid points to a segment, or to a convex polygon
    whose vertices are listed in order around it."""
    V = np.asarray(vertices)
    edges = [(V[i], V[(i + 1) % len(V)]) for i in range(len(V) if len(V) > 2 else 1)]
    d = np.min([segment_distance(X, Y, a, b) for a, b in edges], axis=0)
    if len(V) > 2:
        turns = np.array(
            [(b[0] - a[0]) * (Y - a[1]) - (b[1] - a[1]) * (X - a[0]) for a, b in edges]
        )
        d[np.all(turns >= 0.0, axis=0) | np.all(turns <= 0.0, axis=0)] = 0.0
    return d


DISJOINT_POLYTOPE_FAMILIES = {
    "two-squares-apart": [unit_square([0.0, 0.0]), unit_square([2.0, 0.3], 20.0)],
    # Every two segments meet at a corner; the three share no point.
    "three-segment-triangle": [
        Polytope([[0.0, 0.0], [2.0, 0.0]]),
        Polytope([[2.0, 0.0], [1.0, 1.7]]),
        Polytope([[1.0, 1.7], [0.0, 0.0]]),
    ],
}


@pytest.mark.parametrize("name", sorted(DISJOINT_POLYTOPE_FAMILIES))
def test_disjoint_polytope_families(name, steps=200):
    bodies = DISJOINT_POLYTOPE_FAMILIES[name]
    family = BodyFamily(bodies)
    rep = common_point(family)
    assert not rep.intersects
    assert not helly_verify(family).intersects
    assert not common_point(shuffled(family, 1)).intersects
    dists = np.array([distance(rep.witness, b) for b in bodies])
    assert rep.residual == pytest.approx(float(dists.max()), abs=1e-9)
    # The witness is the least-squares point: no point of a 200 x 200 grid
    # over the bodies has a smaller sum of squared distances, and the grid
    # point nearest the witness (within one cell) comes close to it.
    V = np.vstack([b.vertices for b in bodies])
    xs = np.linspace(V[:, 0].min(), V[:, 0].max(), steps)
    ys = np.linspace(V[:, 1].min(), V[:, 1].max(), steps)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid_min = float(sum(polygon_distance(X, Y, b.vertices) ** 2 for b in bodies).min())
    value = float(dists @ dists)
    cell = math.hypot(float(xs[1] - xs[0]), float(ys[1] - ys[0]))
    m = len(bodies)
    assert value <= grid_min + 1e-12
    assert grid_min <= value + 2.0 * cell * math.sqrt(m * value) + m * cell ** 2
    if name == "three-segment-triangle":
        # At (1, y) the squared distances are y^2 + 2 (1.7 - y)^2 / 3.89,
        # smallest at y = 6.8 / 11.78, which is also the largest distance.
        assert rep.residual == pytest.approx(6.8 / 11.78, abs=1e-12)


def test_chebyshev_center_ignores_ball_order():
    # Definability: the center is a function of the family, not of its
    # listing, on tight and on random families alike.
    families = [ball_arrays(f) for n in (2, 3, 4) for f in touching_families(n)]
    rng = SplitMix64(5)
    for trial in range(30):
        n, k = 2 + trial % 3, 3 + int(rng.integer(20))
        C = np.array([[rng.uniform(-3, 3) for _ in range(n)] for _ in range(k)])
        families.append((C, np.array([rng.uniform(0.0, 2.5) for _ in range(k)])))
    for trial, (C, R) in enumerate(families):
        y, t = chebyshev_center(C, R)
        shuffled = np.array(SplitMix64(trial).shuffle(list(range(len(C)))))
        for order in (shuffled, np.arange(len(C))[::-1]):
            y2, t2 = chebyshev_center(C[order], R[order])
            assert np.max(np.abs(y2 - y)) <= 1e-13 and abs(t2 - t) <= 1e-13


def _no_intersection_families():
    yield from (
        generate_ball_family(n, count, seed, "disjoint-pair")
        for n, count, seed in ((1, 5, 1), (2, 6, 2), (2, 9, 3), (3, 7, 4), (4, 8, 5))
    )
    yield BodyFamily(
        [Ball([0.0, 0.0], 1.05), Ball([2.0, 0.0], 1.05), Ball([1.0, 1.732], 1.05)]
    )
    # 200 discs: C(200, 3) = 1,313,400 triples, past the enumeration budget.
    rng = SplitMix64(11)
    yield BodyFamily(
        [Ball([rng.uniform(-3, 3), rng.uniform(-3, 3)], rng.uniform(0.5, 2.5))
         for _ in range(200)]
    )
    yield from pushed_apart_families()
    for name in sorted(DISJOINT_POLYTOPE_FAMILIES):
        yield BodyFamily(DISJOINT_POLYTOPE_FAMILIES[name])
    # Far from the origin, x - p_i is formed in the QP's centered coordinates.
    for shift in (1e4, 1e5):
        yield from (moved(family, shift) for family in pushed_apart_families())


def moved(family, shift):
    return BodyFamily([
        Ball(b.center + shift, b.radius) if isinstance(b, Ball)
        else Polytope(b.vertices + shift)
        for b in family.bodies
    ])


def pushed_apart_families():
    """Touching mixed families (n = 2, 3) with the first ball shrunk to 0.8
    of its radius and the last polytope moved by 0.3 in every coordinate;
    none of them meets."""
    for n in (2, 3):
        for family in touching_families(n, count=10, balls=n + 1, polytopes=2):
            bodies = list(family.bodies)
            bodies[0] = Ball(bodies[0].center, 0.8 * bodies[0].radius)
            bodies[-1] = Polytope(bodies[-1].vertices + 0.3)
            yield BodyFamily(bodies)


@pytest.mark.parametrize("family", list(_no_intersection_families()))
def test_violating_subset_is_a_certificate(family):
    n = family.dimension
    rep = helly_verify(family)
    assert not rep.intersects
    subset = rep.violating_subset
    assert 1 <= len(subset) <= n + 1 and subset == sorted(set(subset))
    sub = BodyFamily([family.bodies[i] for i in subset])
    sub_report = common_point(sub)
    assert not sub_report.intersects
    if not all(isinstance(b, Ball) for b in family.bodies):
        assert rep.residual == sub_report.residual
    if n == 2:
        # max_j d(x, C_j) is 1-Lipschitz, so a grid minimum above one cell
        # diagonal proves that the subset has no common point.
        value, cell = grid_min_max_distance(sub.bodies)
        assert value > cell
    if all(isinstance(b, Ball) for b in family.bodies):
        # Every k-check path, the disc candidates included, reports the
        # subset's Chebyshev value, which is the family's.
        check = check_k_intersection(sub, n + 1)
        _, t = chebyshev_center(*ball_arrays(sub))
        assert not check.intersects and check.residual == pytest.approx(t, abs=1e-12)
        assert t == pytest.approx(rep.residual, abs=1e-9)


def test_subset_within_tolerance_is_not_reported():
    # The least-squares residual, 1.2e-6, overstates the min-max value,
    # 0.9e-6: every pair meets within 1e-6, so no violating subset exists.
    family = BodyFamily([Polytope([[0.0]]), Polytope([[0.0]]), Polytope([[1.8e-6]])])
    rep, whole = helly_verify(family), common_point(family)
    assert not rep.intersects and rep.violating_subset is None
    assert rep.residual == whole.residual and np.array_equal(rep.witness, whole.witness)
    assert check_k_intersection(family, 2).intersects


def test_near_tolerance_pair_among_many_bodies():
    # Squares 2.1e-6 apart and six discs around the gap: the discs' rounding
    # leaves the two normals off balance by far more than caratheodory's
    # 1e-8 hull tolerance, so the weights come from the distances instead.
    gap = 2.1e-6
    mid = np.array([1.0 + gap / 2.0, 0.5])
    rng = SplitMix64(13)
    discs = [Ball(mid + [rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)], 0.5)
             for _ in range(6)]
    family = BodyFamily([unit_square([0.0, 0.0]), unit_square([1.0 + gap, 0.2])] + discs)
    for shift in (0.0, 1e4, 1e5):
        rep = helly_verify(moved(family, shift))
        assert not rep.intersects and rep.violating_subset == [0, 1]
        assert rep.residual == pytest.approx(gap / 2.0, rel=1e-4)


def squares_and_holders(seed):
    """Two unit squares 0.1 to 2 apart, then one to three balls of radius 1
    to 1e4 and up to two triangles (sides 1e-3 to 1e2) that hold the
    squares' least-squares mean x: each ball has x on its sphere or up to
    1e-3 inside it, and each triangle has x as a vertex.  From SplitMix64
    seeded by `seed`."""
    rng = SplitMix64(seed)
    squares = [unit_square([0.0, 0.0]), unit_square([1.0 + rng.uniform(0.1, 2.0), 0.0])]
    x = common_point(BodyFamily(squares)).witness
    bodies = list(squares)
    for _ in range(1 + rng.integer(3)):
        r = 10.0 ** rng.uniform(0.0, 4.0)
        u = np.array([rng.normal(), rng.normal()])
        depth = rng.uniform(0.0, 1e-3) if rng.uniform() < 0.5 else 0.0
        bodies.append(Ball(x + (r - depth) * u / np.linalg.norm(u), r))
    for _ in range(rng.integer(3)):
        size = 10.0 ** rng.uniform(-3.0, 2.0)
        offsets = [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(2)]
        bodies.append(Polytope(np.vstack([x, x + size * np.array(offsets)])))
    return BodyFamily(bodies)


@pytest.mark.parametrize("seed", [903, 1242, 1910])
def test_bodies_holding_the_mean_give_no_normal(seed):
    # A ball's least-squares point may sit 1e-12 (1 + r) outside it.  The
    # bodies holding x here sit 2e-11 to 1.7e-7 from it; with a guard scaled
    # by the centered coordinates alone, their normals made Caratheodory
    # pick bodies that meet, and no subset was returned.
    family = squares_and_holders(seed)
    rep = helly_verify(family)
    subset = rep.violating_subset
    assert not rep.intersects and subset is not None and len(subset) <= 3
    assert not common_point(BodyFamily([family.bodies[i] for i in subset])).intersects


def test_squares_and_holders_73_gives_a_violating_subset():
    # A degenerate point: the second cut round's QP dropped row 13, whose
    # multiplier's sign is rounding there, and the next step was blocked by
    # row 13 at alpha = 0; unfrozen, that 2-cycle ran to the QP's cap.
    family = squares_and_holders(73)
    rep = helly_verify(family)
    subset = rep.violating_subset
    assert not rep.intersects and subset is not None and len(subset) <= 3
    assert not common_point(BodyFamily([family.bodies[i] for i in subset])).intersects


def test_squares_and_holders_never_cap():
    # A seeded degenerate stress: the squares' least-squares set is a
    # segment and every holder touches its mean, so the cut rounds' QPs
    # stop at degenerate points.  Seed 73 capped at shifts 0 and 1e4 while
    # a dropped row could block its own step at alpha = 0 without end.
    capped = []
    for seed in range(1, 401):
        family = squares_and_holders(seed)
        for shift in (0.0, 1e4, 1e5):
            try:
                helly_verify(moved(family, shift))
            except SolverCapError as err:
                capped.append((seed, shift, str(err)))
    assert capped == []


def test_helly_verify_never_enumerates(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("helly_verify must not enumerate subsets")

    monkeypatch.setattr(helly, "check_k_intersection", forbidden)
    for n in (2, 3):
        for family in (
            touching_families(n, count=3, balls=0, polytopes=n + 2)
            + touching_families(n, count=3, balls=n + 1, polytopes=2)
        ):
            assert helly_verify(family).intersects
    for bodies in POLYTOPE_FAMILIES.values():
        assert helly_verify(BodyFamily(bodies)).intersects
    for family in list(pushed_apart_families())[::5]:
        assert len(helly_verify(family).violating_subset) <= family.dimension + 1
    for bodies in DISJOINT_POLYTOPE_FAMILIES.values():
        assert not helly_verify(BodyFamily(bodies)).intersects


def test_ball_families_skip_enumeration_and_polyak(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ball families must not reach this")

    monkeypatch.setattr(helly, "check_k_intersection", forbidden)
    monkeypatch.setattr(helly, "least_squares_points", forbidden)
    assert helly_verify(touching_families(3)[0]).intersects
    crowd = BodyFamily([Ball([float(i), 0.0], 50.0) for i in range(45)])
    assert helly_verify(crowd).intersects
    apart = BodyFamily([Ball([0.0, 0.0], 1.0), Ball([4.0, 0.0], 1.0)])
    assert helly_verify(apart).violating_subset == [0, 1]


def test_max_distance_is_nonexpansive():
    rng = SplitMix64(60)
    fam = BodyFamily([Ball([0.0, 0.0], 1.0), Ball([2.0, 1.0], 0.5)])

    def d(x):
        return max(
            max(0.0, float(np.linalg.norm(x - b.center)) - b.radius)
            for b in fam.bodies
        )

    for _ in range(50):
        x = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3)])
        y = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3)])
        assert abs(d(x) - d(y)) <= float(np.linalg.norm(x - y)) + 1e-10
