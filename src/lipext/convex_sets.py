"""Metric projection, Caratheodory/Radon certificates, separation, Minkowski sums.

A convex body is either a Ball or a Polytope (V-representation).  Polytope
computations reduce to QPs over simplices of vertex weights, so the weights
double as barycentric certificates: projection solves one simplex and the
closest pair of two polytopes two simplices (two equality rows), both with
the active-set solve_qp.
"""

from dataclasses import dataclass
from itertools import product as _iterproduct

import numpy as np

from .geometry import Ball, Polytope, SimplexWeights, as_vector
from .errors import DimensionMismatchError, InfeasiblePointError, SolverCapError
from .solvers import minimize_quadratic_over_simplex, solve_qp

HULL_TOL = 1e-8
DISJOINT_TOL = 1e-7


def dimension_of(body) -> int:
    if isinstance(body, (Ball, Polytope)):
        return body.dimension
    raise TypeError(f"not a convex body: {type(body).__name__}")


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane {x : <x, normal> = offset} with a unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        u = as_vector(self.normal)
        nu = float(np.linalg.norm(u))
        if nu < 1e-14:
            raise ValueError("hyperplane normal must be nonzero")
        u = u / nu
        u.setflags(write=False)
        object.__setattr__(self, "normal", u)
        object.__setattr__(self, "offset", float(self.offset) / nu)


@dataclass(frozen=True)
class CaratheodoryCertificate:
    """Sparse barycentric representation: x = sum over indices of w_i * v_i."""

    indices: tuple
    weights: SimplexWeights


def _project_polytope(x, poly):
    """Projection onto conv(vertices) with the solver's simplex weights.

    Returns (point, weights, duality gap).  Minimizes ||V'l - x||^2 written as
    l'(VV')l - 2(Vx)'l + ||x||^2.
    """
    V = poly.vertices
    Q = 2.0 * (V @ V.T)
    c = -2.0 * (V @ x)
    report = minimize_quadratic_over_simplex(Q, c, V.shape[0], constant=float(x @ x))
    lam = report.argmin.weights
    return lam @ V, lam, report.residual


def project(x, body) -> np.ndarray:
    """Nearest point of the body to x.

    Balls use the exact radial formula; polytopes solve the simplex QP.  The
    result satisfies the variational inequality <x - p, z - p> <= 1e-8 for
    every vertex z (respectively exactly, for balls).
    """
    x = as_vector(x)
    if x.shape[0] != dimension_of(body):
        raise DimensionMismatchError("point and body dimensions differ")
    if isinstance(body, Ball):
        delta = x - body.center
        dist = float(np.linalg.norm(delta))
        if dist <= body.radius:
            return x.copy()
        return body.center + (body.radius / dist) * delta
    p, _, _ = _project_polytope(x, body)
    return p


def distance(x, body) -> float:
    """Distance from x to the body, ||x - project(x, body)||."""
    x = as_vector(x)
    if isinstance(body, Ball):
        return max(float(np.linalg.norm(x - body.center)) - body.radius, 0.0)
    return float(np.linalg.norm(x - project(x, body)))


def _affine_dependence(points):
    """Return a nonzero mu with sum_i mu_i p_i = 0 and sum_i mu_i = 0, or None.

    Computed from the null space of the (n+1) x k matrix of homogeneous
    coordinates; the sign is fixed so the first nonzero entry is positive.
    A dependence always exists for k > n+1; for k <= n+1 it requires a
    (near-)zero singular value.
    """
    pts = np.asarray(points, dtype=float)
    k, n = pts.shape
    M = np.vstack([pts.T, np.ones((1, k))])
    _, s, vt = np.linalg.svd(M)
    if k <= n + 1:
        rank_tol = max(max(M.shape) * float(s[0]) * 1e-12, 1e-12)
        if float(s[-1]) > rank_tol:
            return None
    mu = vt[-1]
    nz = np.flatnonzero(np.abs(mu) > 1e-12)
    if nz.size == 0:
        return None
    if mu[nz[0]] < 0:
        mu = -mu
    return mu


def caratheodory(x, poly: Polytope) -> CaratheodoryCertificate:
    """Represent x in conv(vertices) using at most n+1 affinely independent vertices.

    Starts from the projection solver's weights and repeatedly shifts along an
    affine dependence of the support to zero out one coefficient.  Raises
    InfeasiblePointError (carrying the distance) when x is outside the hull.
    """
    x = as_vector(x)
    if x.shape[0] != poly.dimension:
        raise DimensionMismatchError("point and polytope dimensions differ")
    p, lam, _ = _project_polytope(x, poly)
    dist = float(np.linalg.norm(x - p))
    if dist > HULL_TOL:
        raise InfeasiblePointError(
            f"point is outside the hull (distance {dist:.3e})", dist
        )
    n = poly.dimension
    lam = lam.copy()
    support = np.flatnonzero(lam > 1e-14)
    if support.size == 0:
        support = np.array([int(np.argmax(lam))])
    while support.size > 1:
        mu_s = _affine_dependence(poly.vertices[support])
        if mu_s is None:
            break
        pos = np.flatnonzero(mu_s > 1e-14)
        if pos.size == 0:
            mu_s = -mu_s
            pos = np.flatnonzero(mu_s > 1e-14)
            if pos.size == 0:
                break
        ratios = lam[support[pos]] / mu_s[pos]
        jloc = int(np.argmin(ratios))
        theta = float(ratios[jloc])
        lam[support] = lam[support] - theta * mu_s
        lam[support[pos[jloc]]] = 0.0
        np.clip(lam, 0.0, None, out=lam)
        support = np.flatnonzero(lam > 1e-14)
    weights = lam[support]
    weights = weights / weights.sum()
    return CaratheodoryCertificate(
        indices=tuple(int(i) for i in support),
        weights=SimplexWeights(weights),
    )


def radon_partition(points, dim=None):
    """Split affinely dependent points into two index sets with intersecting hulls.

    Needs at least n+2 points, or fewer if they are already affinely
    dependent (e.g. collinear points in the plane).  Returns
    (positive_indices, negative_indices, witness); indices with zero
    dependence coefficient land on the positive side.
    """
    pts = np.asarray([as_vector(p) for p in points], dtype=float)
    k, n = pts.shape
    if dim is not None and dim != n:
        raise DimensionMismatchError(f"points have dimension {n}, expected {dim}")
    mu = _affine_dependence(pts)
    if mu is None:
        raise ValueError(
            f"need at least {n + 2} points (or an affinely dependent set), got {k}"
        )
    pos = mu > 1e-12
    neg = mu < -1e-12
    pos_sum = float(mu[pos].sum())
    witness = (mu[pos] / pos_sum) @ pts[pos]
    side_a = tuple(int(i) for i in np.flatnonzero(~neg))
    side_b = tuple(int(i) for i in np.flatnonzero(neg))
    return side_a, side_b, witness


def _closest_pair(A, B):
    """Closest points (p in A, q in B) and their distance.

    Raises SolverCapError when the polytope-polytope QP stops at its cap.
    """
    if isinstance(A, Ball) and isinstance(B, Ball):
        delta = B.center - A.center
        dist = float(np.linalg.norm(delta))
        if dist < 1e-15:
            return A.center.copy(), B.center.copy(), max(0.0, -(A.radius + B.radius))
        u = delta / dist
        p = A.center + min(A.radius, dist) * u
        q = B.center - min(B.radius, dist) * u
        return p, q, max(dist - A.radius - B.radius, 0.0)
    if isinstance(A, Ball) and isinstance(B, Polytope):
        q = project(A.center, B)
        delta = q - A.center
        dist = float(np.linalg.norm(delta))
        if dist <= A.radius:
            return q.copy(), q, 0.0
        p = A.center + (A.radius / dist) * delta
        return p, q, dist - A.radius
    if isinstance(A, Polytope) and isinstance(B, Ball):
        q, p, d = _closest_pair(B, A)
        return p, q, d
    # polytope-polytope: min ||V'l - W'm||^2 with l and m in two simplices
    # (one equality row each), from the closest vertex pair
    V, W = A.vertices, B.vertices
    kA, kB = V.shape[0], W.shape[0]
    K = kA + kB
    M = np.vstack([V, -W])
    A_eq = np.zeros((2, K))
    A_eq[0, :kA] = 1.0
    A_eq[1, kA:] = 1.0
    diff = V[:, None, :] - W[None, :, :]
    i, j = divmod(int(np.argmin(np.sum(diff * diff, axis=2))), kB)
    z0 = np.zeros(K)
    z0[[i, kA + j]] = 1.0
    active = [r for r in range(K) if r not in (i, kA + j)]
    z, info = solve_qp(
        2.0 * (M @ M.T), np.zeros(K), A_eq, [1.0, 1.0], -np.eye(K), np.zeros(K),
        z0, initial_active=active,
    )
    if not info["converged"]:
        raise SolverCapError(f"closest-pair QP capped at {info['iters']} iterations")
    p = SimplexWeights(z[:kA]).weights @ V
    q = SimplexWeights(z[kA:]).weights @ W
    return p, q, float(np.linalg.norm(p - q))


def separate(A, B) -> Hyperplane:
    """Separating hyperplane for two disjoint bodies.

    The normal points from A to B through the midpoint of the closest pair.
    Raises ValueError when the bodies are closer than 1e-7, below which the
    solvers cannot certify disjointness.
    """
    if dimension_of(A) != dimension_of(B):
        raise DimensionMismatchError("bodies live in different dimensions")
    p, q, dist = _closest_pair(A, B)
    if dist <= DISJOINT_TOL:
        raise ValueError(f"bodies are not separated (distance {dist:.3e})")
    u = (q - p) / float(np.linalg.norm(q - p))
    alpha = float(u @ (p + q)) / 2.0
    return Hyperplane(normal=u, offset=alpha)


def minkowski_sum(A: Polytope, B: Polytope) -> Polytope:
    """Vertex list of all pairwise sums; hull-redundant entries are kept."""
    if A.dimension != B.dimension:
        raise DimensionMismatchError("polytopes live in different dimensions")
    sums = [a + b for a, b in _iterproduct(A.vertices, B.vertices)]
    return Polytope(np.asarray(sums))
