"""Intersection checking for finite families of convex bodies and Jung's bound.

One computation decides a family.  Balls B(c_i, r_i) share a point iff their
Chebyshev value t = min_y max_i (||y - c_i|| - r_i) is <= 0: one
solvers.chebyshev_center call, whose center y is the witness.  Any other
family is decided by its least-squares point x, the minimizer of
sum_i d(x, C_i)^2 (one cutting-plane QP in convex_sets).  When the family
does not meet, helly_verify reads a violating subset off the witness: with
p_i the point of C_i nearest x, 0 lies in the hull of the unit normals
u_i = (x - p_i) / ||x - p_i|| (the KKT conditions of either problem), and
Caratheodory keeps at most n + 1 of them, J, with weights mu_j.  As each C_j
lies in {z : <u_j, z - p_j> <= 0}, every z is at least sum_J mu_j ||x - p_j|| > 0
from some C_j in J.  Disc k-subset checks test candidate points (discs that
meet share a center or a crossing of two circles), intervals their formula.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .geometry import Ball, Polytope, pairwise, row_dots, row_norms
from .errors import EnumerationGuardError
from .solvers import chebyshev_center, minimize_quadratic_over_simplex
from .convex_sets import (
    caratheodory, caratheodory_reduce, dimension_of, least_squares_points,
)

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

    For a family of balls x is the Chebyshev center and the residual
    max(t, 0).  Any other family's x is the mean of the points p_i in C_i
    that convex_sets.least_squares_points returns, and the residual is
    max_i ||x - p_i||, which at the optimum is max_i d(x, C_i): 0 exactly
    when the family meets, and at most sqrt(m) times the min-max value.
    """
    return _decide(family)[0]


def _decide(family):
    """common_point's report, the directions x - p_i, and the candidates
    for the violating subset: for balls x - c_i and the balls within
    1e-9 (1 + t) of tight at x; otherwise x - p_i in the QP's coordinates
    centered on x0 (their rounding scales with the spread, not with x0) and
    the p_i more than 1e-11 (1 + s) from x, s the largest such coordinate or
    radius, since a closer p_i is rounding and its normal points anywhere:
    a ball's point may sit 1e-12 (1 + r) outside it (the cut test)."""
    bodies = family.bodies
    if _all_balls(family):
        centers, radii = _ball_arrays(bodies)
        x, t = chebyshev_center(centers, radii)
        residual = max(t, 0.0)
        diff = x - centers
        away = row_norms(diff) - radii >= t - 1e-9 * (1.0 + t)
    else:
        points, centered = least_squares_points(bodies)
        x = points.mean(axis=0)
        residual = float(np.max(row_norms(x - points)))
        diff = centered.mean(axis=0) - centered
        radii = [b.radius for b in bodies if isinstance(b, Ball)]
        scale = 1.0 + max([np.max(np.abs(centered))] + radii)
        away = row_norms(diff) > 1e-11 * scale
    report = IntersectionReport(residual <= INTERSECT_TOL, x, residual)
    return report, diff, np.flatnonzero(away)


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
        k = len(balls)
        centers, radii = _ball_arrays(balls)
        pts = list(centers)
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

    def subset_value(self, subset):
        """The best candidate's largest clamped depth over the subset."""
        rows = list(subset)
        for i, j in combinations(sorted(subset), 2):
            rows.extend(self.pair_cand[(i, j)])
        sub = self.depth[np.asarray(rows)][:, np.asarray(subset)]
        return float(sub.max(axis=1).min())


def _interval_value(balls):
    """Half the gap between the intervals, or 0 when they meet."""
    lo = max(b.center[0] - b.radius for b in balls)
    hi = min(b.center[0] + b.radius for b in balls)
    return max((lo - hi) / 2.0, 0.0)


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
    cand = _BallCandidates(family.bodies) if all_balls and n == 2 else None
    worst = 0.0
    for subset in combinations(range(m), k):
        bodies = [family.bodies[i] for i in subset]
        if cand is not None:
            value = cand.subset_value(subset)
            if value > INTERSECT_TOL:
                # The Chebyshev value decides; the best candidate overstates it.
                value = max(chebyshev_center(*_ball_arrays(bodies))[1], 0.0)
        elif all_balls and n == 1:
            value = _interval_value(bodies)
        else:
            value = common_point(BodyFamily(bodies)).residual
        if value > INTERSECT_TOL:
            return IntersectionReport(False, None, value, list(subset))
        worst = max(worst, value)
    return IntersectionReport(intersects=True, witness=None, residual=worst)


def helly_verify(family: BodyFamily) -> IntersectionReport:
    """common_point's report when the family meets; otherwise a violating
    subset J of at most n + 1 bodies, sorted, by Caratheodory on the
    candidates' unit normals (see the module docstring), and J's residual;
    no subset is enumerated.  A ball family's weights project 0 onto the
    normals' hull.  Any other family's are the ||x - p_i||, as the x - p_i
    sum to 0; its residual can overstate the min-max value by sqrt(m), so J
    is checked by common_point, and if J meets the family's report returns."""
    report, diff, away = _decide(family)
    if report.intersects:
        return report
    dist = row_norms(diff[away])
    normals = diff[away] / dist[:, None]
    if _all_balls(family):
        cert = caratheodory(np.zeros(family.dimension), Polytope(normals))
    else:
        cert = caratheodory_reduce(normals, dist / dist.sum())
    subset = sorted(int(away[i]) for i in cert.indices)
    if _all_balls(family):
        return IntersectionReport(False, None, report.residual, subset)
    sub = common_point(BodyFamily([family.bodies[i] for i in subset]))
    if sub.intersects:
        return report
    return IntersectionReport(False, None, sub.residual, subset)


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
        2.0 * (P @ P.T), -row_dots(P, P), P.shape[0]
    )
    center = report.argmin.weights @ P
    radius = float(np.max(row_norms(P - center)))
    return Ball(center + origin, radius)


def jung_bound_check(points):
    """Return (diameter, radius, bound, holds) for Jung's enclosing-ball bound
    radius <= diameter * sqrt(n / (2(n+1)))."""
    pts = np.asarray([np.asarray(p, dtype=float) for p in points])
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    n = pts.shape[1]
    diameter = math.sqrt(pairwise(pts, pts, lambda dp, _: row_dots(dp, dp))[0])
    radius = jung_ball(pts).radius
    bound = diameter * math.sqrt(n / (2.0 * (n + 1)))
    return diameter, radius, bound, radius <= bound + 1e-9
