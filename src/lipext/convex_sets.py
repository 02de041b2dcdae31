"""Metric projection, Caratheodory/Radon certificates, separation, Minkowski sums.

A convex body is either a Ball or a Polytope (V-representation).  Polytope
computations reduce to QPs over simplices of vertex weights, so the weights
double as barycentric certificates: projection solves one simplex, and the
least-squares points of a family of bodies one simplex per polytope (one
equality row each) plus cutting planes for its balls, all with the
active-set solve_qp.  The closest pair of two polytopes is their
least-squares pair.
"""

from dataclasses import dataclass
from itertools import product as _iterproduct

import numpy as np

from .geometry import Ball, Polytope, SimplexWeights, as_vector, row_dots
from .errors import DimensionMismatchError, InfeasiblePointError, SolverCapError
from .solvers import minimize_quadratic_over_simplex, solve_qp

HULL_TOL = 1e-8
DISJOINT_TOL = 1e-7
CUT_ROUNDS = 100


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

    Returns (point, weights).  Minimizes ||V'l - x||^2 written as
    l'(VV')l - 2(Vx)'l + ||x||^2.
    """
    V = poly.vertices
    Q = 2.0 * (V @ V.T)
    c = -2.0 * (V @ x)
    report = minimize_quadratic_over_simplex(Q, c, V.shape[0], constant=float(x @ x))
    lam = report.argmin.weights
    return lam @ V, lam


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
    return _project_polytope(x, body)[0]


def distance(x, body) -> float:
    """Distance from x to the body, ||x - project(x, body)||."""
    x = as_vector(x)
    if x.shape[0] != dimension_of(body):
        raise DimensionMismatchError("point and body dimensions differ")
    if isinstance(body, Ball):
        return max(float(np.linalg.norm(x - body.center)) - body.radius, 0.0)
    return float(np.linalg.norm(x - _project_polytope(x, body)[0]))


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
    nz = (np.abs(mu) > 1e-12).nonzero()[0]
    if nz.size == 0:
        return None
    if mu[nz[0]] < 0:
        mu = -mu
    return mu


def caratheodory(x, poly: Polytope) -> CaratheodoryCertificate:
    """Represent x in conv(vertices) using at most n+1 affinely independent vertices.

    Reduces the projection solver's weights (caratheodory_reduce).  Raises
    InfeasiblePointError (carrying the distance) when x is outside the hull.
    """
    x = as_vector(x)
    if x.shape[0] != poly.dimension:
        raise DimensionMismatchError("point and polytope dimensions differ")
    p, lam = _project_polytope(x, poly)
    dist = float(np.linalg.norm(x - p))
    if dist > HULL_TOL:
        raise InfeasiblePointError(
            f"point is outside the hull (distance {dist:.3e})", dist
        )
    return caratheodory_reduce(poly.vertices, lam)


def caratheodory_reduce(vertices, weights) -> CaratheodoryCertificate:
    """The point sum_i weights_i v_i (weights on the simplex) on at most n+1
    affinely independent vertices: repeatedly shifts the weights along an
    affine dependence of their support to zero out one coefficient."""
    lam = np.array(weights, dtype=float)
    support = (lam > 1e-14).nonzero()[0]
    while support.size > 1:
        mu_s = _affine_dependence(vertices[support])
        if mu_s is None:
            break
        # The dependence's first nonzero entry is positive.
        pos = (mu_s > 1e-14).nonzero()[0]
        ratios = lam[support[pos]] / mu_s[pos]
        jloc = int(ratios.argmin())
        theta = float(ratios[jloc])
        lam[support] = lam[support] - theta * mu_s
        lam[support[pos[jloc]]] = 0.0
        lam.clip(0.0, None, out=lam)
        support = (lam > 1e-14).nonzero()[0]
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
    side_a = tuple(int(i) for i in (~neg).nonzero()[0])
    side_b = tuple(int(i) for i in neg.nonzero()[0])
    return side_a, side_b, witness


def _closest_pair(A, B):
    """Closest points (p in A, q in B) and their distance.

    Raises SolverCapError when the polytope-polytope QP stops at its cap.
    """
    if isinstance(A, Ball) and isinstance(B, Ball):
        delta = B.center - A.center
        dist = float(np.linalg.norm(delta))
        if dist < 1e-15:
            return A.center.copy(), B.center.copy(), 0.0
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
    (p, q), _ = least_squares_points((A, B))
    return p, q, float(np.linalg.norm(p - q))


def least_squares_points(bodies):
    """Points p_i in C_i minimizing sum_{i<j} ||p_i - p_j||^2 as an m x n
    array, and the same points less x0 (below), free of x0's rounding.

    Their mean x minimizes sum_i d(x, C_i)^2, and the family meets iff the
    minimum is 0.  A polytope's point is V_i'l_i with l_i in its own simplex;
    a ball's is c_b + u_b, with the ball stood in for by cuts <w, u_b> <= r_b
    (Kelley's cutting planes).  Each round is one solve_qp; after it, every
    ball whose point lies more than 1e-12 (1 + r_b) outside gets the cut at
    w = u_b / ||u_b||, and the next round starts from the same point with
    each u_b pulled radially into its ball, where every cut holds.  (A stop
    at solvers.TOL would leave witnesses of touching families up to 1e-9
    from a ball.)  With no balls this is a single QP; for two polytopes it
    is their closest pair.

    The QP works in coordinates centered on x0, the mean of the balls'
    centers and the polytopes' vertex centroids.  Each polytope starts at
    its vertex nearest x0, and each ball at its point nearest x0.  Raises
    SolverCapError when a QP stops at its cap or CUT_ROUNDS rounds leave a
    ball point outside.
    """
    origin = np.array(
        [b.center if isinstance(b, Ball) else b.vertices.mean(axis=0) for b in bodies]
    ).mean(axis=0)
    m, n = len(bodies), origin.shape[0]
    sizes = [b.vertices.shape[0] if isinstance(b, Polytope) else n for b in bodies]
    starts = np.array([0] + sizes).cumsum()
    blocks = [slice(starts[i], starts[i + 1]) for i in range(m)]
    K = int(starts[-1])
    # Body i's point, less x0, is maps[i] @ z + shifts[i].
    maps = np.zeros((m, n, K))
    shifts = np.zeros((m, n))
    z = np.zeros(K)
    A_eq, bound_cols = [], []
    for body, cols, lift, shift in zip(bodies, blocks, maps, shifts):
        if isinstance(body, Polytope):
            V = body.vertices - origin
            lift[:, cols] = V.T
            z[cols.start + int(row_dots(V, V).argmin())] = 1.0
            row = np.zeros(K)
            row[cols] = 1.0
            A_eq.append(row)
            bound_cols.extend(range(cols.start, cols.stop))
        else:
            lift[:, cols] = np.eye(n)
            shift[:] = body.center - origin
            z[cols] = project(origin, body) - body.center
    # sum_{i<j} ||p_i - p_j||^2 = m sum_i ||p_i - mean p||^2
    R = (maps - maps.mean(axis=0)).reshape(m * n, K)
    r = (shifts - shifts.mean(axis=0)).reshape(m * n)
    P = 2.0 * m * (R.T @ R)
    q = 2.0 * m * (R.T @ r)
    A_eq = np.array(A_eq).reshape(-1, K)
    G = -np.eye(K)[bound_cols]
    h = np.zeros(len(bound_cols))
    balls = [(c, b.radius) for b, c in zip(bodies, blocks) if isinstance(b, Ball)]
    for _ in range(CUT_ROUNDS):
        active = [row for row, col in enumerate(bound_cols) if z[col] <= 0.0]
        z, _ = solve_qp(
            P, q, A_eq, np.ones(A_eq.shape[0]), G, h, z, initial_active=active,
            name="least-squares QP",
        )
        cuts = []
        for cols, radius in balls:
            u = z[cols]
            norm_u = float(np.linalg.norm(u))
            if norm_u - radius > 1e-12 * (1.0 + radius):
                cut = np.zeros(K)
                cut[cols] = u / norm_u
                cuts.append(cut)
                h = np.concatenate((h, [radius]))
            if norm_u > radius:
                z[cols] = (radius / norm_u) * u
        if not cuts:
            break
        G = np.vstack([G, cuts])
    else:
        raise SolverCapError(f"least-squares cuts capped at {CUT_ROUNDS} rounds")
    return np.array([
        SimplexWeights(z[cols]).weights @ body.vertices
        if isinstance(body, Polytope) else body.center + z[cols]
        for body, cols in zip(bodies, blocks)
    ]), maps @ z + shifts


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
