"""Intersection checking for finite families of convex bodies and Jung's bound.

Balls B(c_i, r_i) share a point iff their Chebyshev value
t = min_y max_i (||y - c_i|| - r_i) is <= 0, so one solvers.chebyshev_center
call decides a ball family and its center y is the witness.  When t > 0, 0
lies in the hull of the unit normals (y - c_i) / ||y - c_i|| of the balls
tight at y (KKT); Caratheodory keeps n + 1 of them, a violating subset with
the same value t, found without enumerating subsets.  A family that holds a
polytope is decided by its least-squares point, the minimizer of
sum_i d(x, C_i)^2 (one cutting-plane QP in convex_sets).  The k-subset
checks for discs use an exact candidate-point certificate (any non-empty
intersection of discs contains a disc center or an intersection point of
two boundary circles), and for intervals the interval formula.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import Ball, Polytope
from .errors import EnumerationGuardError
from .solvers import chebyshev_center, minimize_quadratic_over_simplex
from .convex_sets import caratheodory, dimension_of, least_squares_points

INTERSECT_TOL = 1e-6
ENUMERATION_CAP = 10 ** 6


@dataclass(frozen=True)
class BodyFamily:
    bodies: tuple

    def __post_init__(self):
        bodies = tuple(self.bodies)
        if not bodies:
            raise ValueError("family must be non-empty")
        dims = {dimension_of(b) for b in bodies}
        if len(dims) != 1:
            raise ValueError(f"mixed ambient dimensions: {sorted(dims)}")
        object.__setattr__(self, "bodies", bodies)

    @property
    def dimension(self) -> int:
        return dimension_of(self.bodies[0])

    def __len__(self) -> int:
        return len(self.bodies)


@dataclass(frozen=True)
class IntersectionReport:
    intersects: bool
    witness: object
    residual: float
    violating_subset: object = None


def _all_balls(family):
    return all(isinstance(b, Ball) for b in family.bodies)


def _ball_arrays(balls):
    return np.array([b.center for b in balls]), np.array([b.radius for b in balls])


def common_point(family: BodyFamily) -> IntersectionReport:
    """A witness x and its residual, the largest distance from x to a body;
    intersects when the residual is <= 1e-6.

    A family of balls is one chebyshev_center call: the witness is the
    center y, which minimizes the largest distance, and the residual is
    max(t, 0).  Any other family's witness is its least-squares point x, the
    mean of the points p_i in C_i that convex_sets.least_squares_points
    returns; x minimizes sum_i d(x, C_i)^2.  The residual is
    max_i ||x - p_i||: each p_i lies in C_i, so it bounds the largest
    distance from above, and at the optimum p_i is the projection of x onto
    C_i, so it equals it.  It is 0 exactly when the family meets, and at
    most sqrt(m) times the min-max value.
    """
    bodies = family.bodies
    if _all_balls(family):
        y, t = chebyshev_center(*_ball_arrays(bodies))
        return IntersectionReport(
            intersects=t <= INTERSECT_TOL, witness=y, residual=max(t, 0.0)
        )
    points = least_squares_points(bodies)
    x = points.mean(axis=0)
    residual = float(np.max(np.linalg.norm(points - x, axis=1)))
    return IntersectionReport(
        intersects=residual <= INTERSECT_TOL, witness=x, residual=residual
    )


def _circle_pair_points(c1, r1, c2, r2):
    """Intersection points of two boundary circles in the plane (0, 1, or 2)."""
    delta = c2 - c1
    d = float(np.linalg.norm(delta))
    if d < 1e-15:
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 < -1e-12:
        return []
    h = math.sqrt(max(h2, 0.0))
    base = c1 + (a / d) * delta
    perp = np.array([-delta[1], delta[0]]) / d
    if h == 0.0:
        return [base]
    return [base + h * perp, base - h * perp]


class _BallCandidates:
    """Exact k-subset intersection tests for discs in the plane.

    Candidates are all centers and all pairwise boundary intersection points;
    a subset of discs intersects iff some candidate drawn from the subset's
    own centers and pairs lies in every disc of the subset.
    """

    def __init__(self, balls):
        self.balls = balls
        k = len(balls)
        centers, radii = _ball_arrays(balls)
        pts = [centers[i] for i in range(k)]
        self.center_cand = list(range(k))
        self.pair_cand = {}
        for i, j in combinations(range(k), 2):
            idxs = []
            for p in _circle_pair_points(centers[i], radii[i], centers[j], radii[j]):
                idxs.append(len(pts))
                pts.append(p)
            self.pair_cand[(i, j)] = idxs
        P = np.array(pts)
        # depth[c, b] = clamped distance of candidate c to ball b
        diff = P[:, None, :] - centers[None, :, :]
        self.depth = np.clip(
            np.sqrt(np.sum(diff * diff, axis=2)) - radii[None, :], 0.0, None
        )
        self.points = P

    def subset_report(self, subset):
        rows = [self.center_cand[i] for i in subset]
        for i, j in combinations(sorted(subset), 2):
            rows.extend(self.pair_cand[(i, j)])
        sub = self.depth[np.asarray(rows)][:, np.asarray(subset)]
        vals = sub.max(axis=1)
        best = int(np.argmin(vals))
        residual = float(vals[best])
        return IntersectionReport(
            intersects=residual <= INTERSECT_TOL,
            witness=self.points[rows[best]].copy(),
            residual=residual,
        )


def _interval_report(balls, subset):
    lo = max(balls[i].center[0] - balls[i].radius for i in subset)
    hi = min(balls[i].center[0] + balls[i].radius for i in subset)
    mid = np.array([(lo + hi) / 2.0])
    residual = max((lo - hi) / 2.0, 0.0)
    return IntersectionReport(
        intersects=residual <= INTERSECT_TOL, witness=mid, residual=residual
    )


def check_k_intersection(family: BodyFamily, k: int) -> IntersectionReport:
    """Check every k-subset (lexicographic order), stopping at the first violation.

    On success the report carries intersects=True, no witness (a passing
    k-check does not exhibit a global common point), and the worst subset
    residual.  Rejects instances with more than 10^6 subsets.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    m = len(family)
    k = min(k, m)
    if math.comb(m, k) > ENUMERATION_CAP:
        raise EnumerationGuardError(
            f"C({m}, {k}) = {math.comb(m, k)} exceeds the 10^6 subset budget"
        )
    all_balls = _all_balls(family)
    n = family.dimension
    cand = None
    if all_balls and n == 2:
        cand = _BallCandidates(family.bodies)
    worst = 0.0
    for subset in combinations(range(m), k):
        if cand is not None:
            rep = cand.subset_report(subset)
        elif all_balls and n == 1:
            rep = _interval_report(family.bodies, subset)
        else:
            rep = common_point(BodyFamily([family.bodies[i] for i in subset]))
        if not rep.intersects:
            return IntersectionReport(
                intersects=False,
                witness=None,
                residual=rep.residual,
                violating_subset=list(subset),
            )
        worst = max(worst, rep.residual)
    return IntersectionReport(intersects=True, witness=None, residual=worst)


def _violating_subset(family, y, t):
    """At most n + 1 balls with Chebyshev value t > 0, from the balls within
    1e-9 (1 + t) of tight at the family's Chebyshev center y."""
    centers, radii = _ball_arrays(family.bodies)
    diff = y - centers
    dist = np.linalg.norm(diff, axis=1)
    tight = np.flatnonzero(dist - radii >= t - 1e-9 * (1.0 + t))
    normals = Polytope(diff[tight] / dist[tight, None])
    cert = caratheodory(np.zeros(family.dimension), normals)
    return sorted(int(tight[i]) for i in cert.indices)


def helly_verify(family: BodyFamily) -> IntersectionReport:
    """A global witness, or a violating subset of at most n + 1 bodies.

    A family of balls is decided by common_point, and its violating subset is
    read off the Chebyshev center.  Any other family runs
    check_k_intersection(n+1) and, on success, common_point for the whole
    family; by Helly's theorem for closed bounded convex sets the global
    search must succeed.
    """
    if _all_balls(family):
        rep = common_point(family)
        if rep.intersects:
            return rep
        subset = _violating_subset(family, rep.witness, rep.residual)
        return IntersectionReport(False, None, rep.residual, subset)
    sub = check_k_intersection(family, family.dimension + 1)
    if not sub.intersects:
        return sub
    return common_point(family)


def jung_ball(points) -> Ball:
    """Minimal enclosing ball of the point set (duplicates dropped, sorted):
    the concave dual over the simplex, maximize sum l_i ||p_i||^2 -
    ||sum l_i p_i||^2 (chebyshev_center's dual at zero radii and t = 0), gives
    the center sum l_i p_i; the radius is the farthest point's distance.  As
    in chebyshev_center, the points are centered on the first one."""
    P = np.asarray([np.asarray(p, dtype=float) for p in points])
    if P.shape[0] == 0:
        raise ValueError("need at least one point")
    P = np.unique(P, axis=0)
    origin = P[0]
    P = P - origin
    report = minimize_quadratic_over_simplex(
        2.0 * (P @ P.T), -np.sum(P * P, axis=1), P.shape[0]
    )
    center = report.argmin.weights @ P
    radius = float(np.max(np.linalg.norm(P - center, axis=1)))
    return Ball(center + origin, radius)


def jung_bound_check(points):
    """Return (diameter, radius, bound, holds) for Jung's enclosing-ball bound
    radius <= diameter * sqrt(n / (2(n+1)))."""
    pts = np.asarray([np.asarray(p, dtype=float) for p in points])
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    n = pts.shape[1]
    diff = pts[:, None, :] - pts[None, :, :]
    diameter = float(np.sqrt(np.max(np.sum(diff * diff, axis=2))))
    radius = jung_ball(pts).radius
    bound = diameter * math.sqrt(n / (2.0 * (n + 1)))
    return diameter, radius, bound, radius <= bound + 1e-9
