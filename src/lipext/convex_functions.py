"""Expression trees for extended-real-valued convex functions.

Closed-form nodes (quadratic, max-affine, indicators, kappa, sums, scalings,
translations) evaluate exactly.  Conjugate, infimal convolution, and proximal
average evaluate by inner optimization over an explicit search box: a coarse
grid (33, 9, then 5 points per dimension), then a compass (pattern) search
that polls each step as one array.  Every inner problem in this algebra is
convex (or concave for suprema), so an interior optimum is global; when the
optimizer lands on the box boundary the box is doubled twice, and sustained
improvement is a -inf minimum.  The search returns one extended-real minimum
(+inf when no probe is finite); a node raises on the infinite minima that
make it improper or exhausted, so no -inf value is returned silently.
Every conjugate is a node, Fenchel's g* included, and conjugate() alone
picks the exact ones: a max-affine f* is a polyhedral conjugate, an
indicator's is a support function, and f** of a max-affine f is max-affine
again, its offsets read off the one epigraph LP that gives f*'s values.
Conjugate is the box search of any other child.  A polyhedral conjugate's
1e-6 collar takes the nearest hull point's value, where Fenchel's dual ends.

Values are plain floats with math.inf standing for +infinity.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iterproduct

import numpy as np

from .geometry import Polytope, as_vector, dot
from .convex_sets import dimension_of, distance
from .errors import BoxExhaustionError, DimensionMismatchError, ImproperFunctionError
from .solvers import minimize_quadratic_over_simplex, solve_qp

INF = math.inf

MEMBERSHIP_TOL = 1e-8
POLYHEDRAL_INFEASIBLE_TOL = 1e-6
DIVERGENCE_IMPROVEMENT = 1e-3


@dataclass(frozen=True)
class Box:
    """Axis-aligned search box [lo, hi] for inner optimization."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lo)
        hi = as_vector(self.hi)
        if lo.shape != hi.shape or (lo >= hi).any():
            raise ValueError("box must satisfy lo < hi componentwise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def doubled(self) -> "Box":
        center = (self.lo + self.hi) / 2.0
        half = self.hi - center
        return Box(center - 2.0 * half, center + 2.0 * half)

    def grid(self, per_dim: int = 5) -> np.ndarray:
        axes = [np.linspace(self.lo[i], self.hi[i], per_dim) for i in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def cube(radius: float, dim: int) -> Box:
    """Convenience box [-radius, radius]^dim."""
    r = float(radius)
    return Box(np.full(dim, -r), np.full(dim, r))


@dataclass(frozen=True)
class Quadratic:
    """x -> 1/2 ||x||^2; self-conjugate."""

    dim: int


@dataclass(frozen=True)
class _Polyhedral:
    """(k, n) slopes and (k,) offsets, read-only: the data of a max-affine
    function and of its conjugate."""

    slopes: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.slopes, dtype=float)
        o = np.asarray(self.offsets, dtype=float)
        if s.ndim != 2 or o.ndim != 1 or s.shape[0] != o.shape[0] or s.shape[0] < 1:
            raise ValueError("need matching (k, n) slopes and (k,) offsets")
        s.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "slopes", s)
        object.__setattr__(self, "offsets", o)

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]


class MaxAffine(_Polyhedral):
    """x -> max_i (<s_i, x> - o_i)."""


@dataclass(frozen=True)
class Indicator:
    """0 on the body, +inf outside (membership tested within 1e-8)."""

    body: object

    @property
    def dim(self) -> int:
        return dimension_of(self.body)


@dataclass(frozen=True)
class Kappa:
    """(x, y) -> 1/2 ||x - y||^2 on R^h x R^h."""

    half_dim: int

    @property
    def dim(self) -> int:
        return 2 * self.half_dim


@dataclass(frozen=True)
class Sum:
    children: tuple
    coefficients: tuple

    def __post_init__(self):
        children = tuple(self.children)
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(children) != len(coeffs) or not children:
            raise ValueError("children and coefficients must match and be non-empty")
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be non-negative")
        dims = {c.dim for c in children}
        if len(dims) != 1:
            raise DimensionMismatchError("summands live in different dimensions")
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dim(self) -> int:
        return self.children[0].dim


def _positive_factor(factor):
    f = float(factor)
    if not f > 0:
        raise ValueError(f"scaling factor must be positive, got {f}")
    return f


@dataclass(frozen=True)
class Scale:
    """lambda * f."""

    factor: float
    child: object

    def __post_init__(self):
        object.__setattr__(self, "factor", _positive_factor(self.factor))

    @property
    def dim(self) -> int:
        return self.child.dim


@dataclass(frozen=True)
class EpiScale:
    """Epi-multiplication (lambda * f)(x) = lambda f(x / lambda)."""

    factor: float
    child: object

    def __post_init__(self):
        object.__setattr__(self, "factor", _positive_factor(self.factor))

    @property
    def dim(self) -> int:
        return self.child.dim


@dataclass(frozen=True)
class Translate:
    """f(x) = child(x - shift) + <x, slope> + offset."""

    shift: np.ndarray
    slope: np.ndarray
    offset: float
    child: object

    def __post_init__(self):
        shift = as_vector(self.shift)
        slope = as_vector(self.slope)
        if shift.shape[0] != self.child.dim or slope.shape[0] != self.child.dim:
            raise DimensionMismatchError("translation data does not match child dim")
        shift.setflags(write=False)
        slope.setflags(write=False)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.child.dim


@dataclass(frozen=True)
class Conjugate:
    """Numeric Fenchel conjugate: sup over the box of <x, y> - child(x).

    A child with an exact conjugate (MaxAffine, Indicator,
    MaxAffineConjugate) is evaluated through conjugate(); the box, required
    for every child, serves the search of any other.
    """

    child: object
    box: Box

    def __post_init__(self):
        if self.box is None:
            raise ValueError("a search box is required for a Conjugate node")
        if self.box.dim != self.child.dim:
            raise DimensionMismatchError("box does not match child dimension")

    @property
    def dim(self) -> int:
        return self.child.dim


class MaxAffineConjugate(_Polyhedral):
    """Exact polyhedral conjugate of a max-affine function f.

    f*(y) is +inf farther than 1e-6 from conv(slopes), else f*(p) =
    max { <p, x> - t : <s_i, x> - t <= o_i } at y's nearest hull point p
    (_hull_point): one LP over f's epigraph, read exactly where it stops.
    The Fenchel dual re-reads its final value at p, and conjugate() reads
    f**'s offsets f*(s_i) off the same LP with no screen.  The screen's and
    the LP's data and solve_qp memos live on the node and die with it.
    """

    @cached_property
    def _screen(self):
        """The screen's 2SS' and its solve_qp memo."""
        return 2.0 * (self.slopes @ self.slopes.T), {}

    @cached_property
    def _epigraph(self):
        """The epigraph LP over z = (x, t), rows G = (S, -1) against h = o:
        its zero P, G, its start (0, f(0)) with the least offset's row
        active, and its solve_qp memo."""
        (k, n), o = self.slopes.shape, self.offsets
        P, G = np.zeros((n + 1, n + 1)), np.hstack([self.slopes, -np.ones((k, 1))])
        return P, G, np.concatenate((np.zeros(n), [-o.min()])), (int(o.argmin()),), {}


@dataclass(frozen=True)
class SupportFunction:
    """Exact conjugate of an indicator: y -> sup over the body of <x, y>."""

    body: object

    @property
    def dim(self) -> int:
        return dimension_of(self.body)


@dataclass(frozen=True)
class InfConv:
    """(f [] g)(x) = inf over the box in y of f(y) + g(x - y)."""

    left: object
    right: object
    box: Box

    def __post_init__(self):
        if self.left.dim != self.right.dim or self.box.dim != self.left.dim:
            raise DimensionMismatchError("convolution operands disagree in dimension")

    @property
    def dim(self) -> int:
        return self.left.dim


@dataclass(frozen=True)
class ProxAvg:
    """Proximal average: inf over y+z=x of (1/2*f)(y) + (1/2*g)(z) + 1/2||y-z||^2."""

    left: object
    right: object
    box: Box

    def __post_init__(self):
        if self.left.dim != self.right.dim or self.box.dim != self.left.dim:
            raise DimensionMismatchError("average operands disagree in dimension")

    @property
    def dim(self) -> int:
        return self.left.dim


def _compass_directions(d):
    """Poll rows: nonzero {-1, 0, 1}^d up to d = 3, else signed axes, diagonals."""
    if d <= 3:
        dirs = np.array(list(_iterproduct((-1.0, 0.0, 1.0), repeat=d)))
        return dirs[dirs.any(axis=1)]
    axes = np.kron(np.eye(d), [[1.0], [-1.0]])
    return np.vstack([axes, np.array(list(_iterproduct((-1.0, 1.0), repeat=d)))])


def _compass(fun, x0, f0, box):
    """Compass search from (x0, f0): each step clips its candidates as one
    array and polls, in order, those the box does not clip back onto x; it
    moves to the first that improves and halves the step when none does."""
    span = box.hi - box.lo
    dirs = _compass_directions(box.dim)
    x, fx = x0.copy(), f0
    s = 0.125
    while s > 1e-9:
        for _ in range(200):
            cands = (x + (s * span) * dirs).clip(box.lo, box.hi)
            for cand in cands[(cands != x).any(axis=1)]:
                fc = fun(cand)
                if fc < fx:
                    x, fx = cand, fc
                    break
            else:
                break
        s *= 0.5
    return x, fx


def _grid_density(d):
    return 33 if d == 1 else (9 if d == 2 else 5)


def _box_minimize(fun, box, extra_points=()):
    """Grid + compass minimization over the box.

    extra_points are additional probe starts (e.g. the slope points of a
    polyhedral domain, which a coarse grid can miss entirely); every probe
    is evaluated.  Returns (value, argmin, on_boundary); the value is +inf,
    with no argmin, when the objective is +inf everywhere probed.
    """
    grid = box.grid(_grid_density(box.dim))
    if len(extra_points):
        grid = np.vstack([grid, np.asarray(extra_points, dtype=float)])
    vals = np.array([fun(p) for p in grid])
    finite = np.isfinite(vals)
    if not finite.any():
        return INF, None, False
    order = vals.argsort(kind="stable")
    best_x, best_v = None, INF
    for idx in [i for i in order[:2] if finite[i]]:
        x0 = grid[idx].clip(box.lo, box.hi)
        f0 = float(vals[idx]) if np.array_equal(x0, grid[idx]) else fun(x0)
        if not np.isfinite(f0):
            x, v = grid[idx], float(vals[idx])  # probe outside the box
        else:
            x, v = _compass(fun, x0, f0, box)
        if v < best_v:
            best_x, best_v = x, v
    margin = 1e-9 * (box.hi - box.lo)
    on_boundary = bool(
        (best_x - box.lo <= margin).any() or (box.hi - best_x <= margin).any()
    )
    return best_v, best_x, on_boundary


def _inner_minimize(fun, box, extra_points=()):
    """Minimize over the box with the doubling divergence protocol.

    Returns (minimum, argmin): (inf, None) when the objective is +inf on
    every probed box, and (-inf, None) when two consecutive doublings keep
    improving the optimum by more than 1e-3.  Each caller decides what an
    infinite minimum means for its node.
    """
    v0, x0, boundary = _box_minimize(fun, box, extra_points)
    if v0 < INF and not boundary:
        return v0, x0
    v1, x1, _ = _box_minimize(fun, box.doubled(), extra_points)
    v2, x2, _ = _box_minimize(fun, box.doubled().doubled(), extra_points)
    base = v0 if v0 < INF else v1
    # inf - inf is nan, so a box with no finite probe never counts as a gain.
    if (base - v1) > DIVERGENCE_IMPROVEMENT and (v1 - v2) > DIVERGENCE_IMPROVEMENT:
        return -INF, None
    return min(((v0, x0), (v1, x1), (v2, x2)), key=lambda c: c[0])


def _polyhedral_conjugate_value(node: MaxAffineConjugate, y) -> float:
    """f*(y) at any y: +inf farther than 1e-6 from conv(slopes), else f*(p)
    at y's nearest hull point p: one epigraph LP from the node's start, where
    conjugate() starts f**'s first LP, read by _epigraph_offset on the rows
    it stops on."""
    nearest = _hull_point(node, y)
    # The distance itself, not the expanded quadratic's value, which loses
    # its last digits to cancellation near the 1e-6 threshold.
    if float(np.linalg.norm(nearest - y)) > POLYHEDRAL_INFEASIBLE_TOL:
        return INF
    P, G, z0, start, memo = node._epigraph
    _, info = solve_qp(
        P, np.concatenate((-nearest, [1.0])), (), (), G, node.offsets, z0,
        initial_active=start, memo=memo, name="epigraph LP",
    )
    return _epigraph_offset(node.slopes, node.offsets, nearest, info["active"])


def _hull_point(node, y):
    """The screen: y's exact projection onto conv(slopes); y itself at a
    slope, where the screen's QP may stop at another slope a hair away."""
    S, (Q, memo) = node.slopes, node._screen
    if (S == y).all(axis=1).any():
        return y
    report = minimize_quadratic_over_simplex(Q, -2.0 * (S @ y), S.shape[0], memo=memo)
    return S.T @ report.argmin.weights


def eval(expr, x) -> float:  # noqa: A001 - module-level eval is the API
    """Evaluate an expression tree at x; +inf is a value, -inf is an error."""
    x = as_vector(x)
    if x.shape[0] != expr.dim:
        raise DimensionMismatchError(
            f"point has dimension {x.shape[0]}, function expects {expr.dim}"
        )
    return _eval(expr, x)


def _eval(expr, x) -> float:
    if isinstance(expr, Quadratic):
        return 0.5 * float(x @ x)
    if isinstance(expr, MaxAffine):
        return float((expr.slopes @ x - expr.offsets).max())
    if isinstance(expr, Indicator):
        return 0.0 if distance(x, expr.body) <= MEMBERSHIP_TOL else INF
    if isinstance(expr, Kappa):
        h = expr.half_dim
        d = x[:h] - x[h:]
        return 0.5 * float(d @ d)
    if isinstance(expr, Sum):
        total = 0.0
        for coeff, child in zip(expr.coefficients, expr.children):
            if coeff == 0.0:
                continue
            v = _eval(child, x)
            if v == INF:
                return INF
            total += coeff * v
        return total
    if isinstance(expr, Scale):
        return expr.factor * _eval(expr.child, x)
    if isinstance(expr, EpiScale):
        return expr.factor * _eval(expr.child, x / expr.factor)
    if isinstance(expr, Translate):
        v = _eval(expr.child, x - expr.shift)
        if v == INF:
            return INF
        return v + dot(x, expr.slope) + expr.offset
    if isinstance(expr, MaxAffineConjugate):
        return _polyhedral_conjugate_value(expr, x)
    if isinstance(expr, SupportFunction):
        body = expr.body
        if hasattr(body, "radius"):  # Ball
            return float(body.center @ x) + body.radius * float(np.linalg.norm(x))
        return float((body.vertices @ x).max())
    if isinstance(expr, Conjugate):
        child = expr.child
        if isinstance(child, (MaxAffine, Indicator, MaxAffineConjugate)):
            return _eval(conjugate(child), x)

        def neg_slope(z):
            return _eval(child, z) - float(z @ x)

        m, _ = _inner_minimize(neg_slope, expr.box)
        if m == INF:
            raise ImproperFunctionError(
                f"Conjugate({type(child).__name__})",
                "child is +inf on the whole box; conjugate would be -inf",
            )
        return -m  # +inf when the supremum escapes every box
    if isinstance(expr, InfConv):
        f, g = expr.left, expr.right
        # A single-point indicator is the shift element: f [] delta_p = f(. - p).
        for a, b in ((f, g), (g, f)):
            if (
                isinstance(a, Indicator)
                and isinstance(a.body, Polytope)
                and a.body.n_vertices == 1
            ):
                return _eval(b, x - a.body.vertices[0])

        def total(ylocal):
            a = _eval(f, ylocal)
            if a == INF:
                return INF
            b = _eval(g, x - ylocal)
            if b == INF:
                return INF
            return a + b

        m, _ = _inner_minimize(total, expr.box)
        if m == -INF:
            name = f"InfConv({type(f).__name__},{type(g).__name__})"
            raise BoxExhaustionError(
                name, f"infimal convolution diverges to -inf in node {name}"
            )
        return m
    if isinstance(expr, ProxAvg):
        f, g = expr.left, expr.right

        def total(ylocal):
            a = _eval(f, 2.0 * ylocal)
            if a == INF:
                return INF
            b = _eval(g, 2.0 * (x - ylocal))
            if b == INF:
                return INF
            d = 2.0 * ylocal - x
            return 0.5 * a + 0.5 * b + 0.5 * float(d @ d)

        m, _ = _inner_minimize(total, expr.box)
        if m == -INF:
            raise BoxExhaustionError(f"ProxAvg({type(f).__name__},{type(g).__name__})")
        return m
    raise TypeError(f"unknown expression node: {type(expr).__name__}")


def conjugate(f, box=None):
    """The conjugate of f as a node, and the one place that picks an exact
    conjugate: MaxAffineConjugate for a max-affine f, SupportFunction for an
    indicator, and MaxAffine for a polyhedral conjugate, whose offsets f*(s_i)
    are read off f*'s own epigraph LP with no hull screen: each exit vertex
    prices every slope it settles, and only the others get an LP, started
    where the last one stopped.  Any other f gets Conjugate(f, box), the box
    search, which raises without a box."""
    if isinstance(f, MaxAffine):
        return MaxAffineConjugate(f.slopes, f.offsets)
    if isinstance(f, Indicator):
        return SupportFunction(f.body)
    if isinstance(f, MaxAffineConjugate):
        # x.y - f*(y) is affine on each cell of f*'s subdivision of
        # conv(slopes), and every cell vertex is a slope (Rockafellar,
        # Convex Analysis, section 19): f** = max_i (s_i.x - f*(s_i)).
        # f*(s_i) is f*'s epigraph LP at s_i, the same feasible set for every
        # slope: each LP starts where the last stopped, the first at the
        # node's start, and all share its memo.  Each exit vertex, on rows
        # A, prices every unread slope s_j: when G_A is square and
        # nonsingular and G_A' mu = G_j', i.e. (S_A'; 1') mu = (s_j; 1), has
        # mu >= 0, mu certifies the vertex, and s_j's LP started there would
        # stop at once on the same rows.  Only the rest get an LP.
        S, o = f.slopes, f.offsets
        P, G, z, active, memo = f._epigraph
        offsets = np.full(o.shape, np.nan)  # nan until read
        for i in range(o.size):
            if not np.isnan(offsets[i]):
                continue
            z, info = solve_qp(
                P, -G[i], (), (), G, o, z, initial_active=active, memo=memo,
                name="epigraph LP",
            )
            active, unread = info["active"], np.isnan(offsets).nonzero()[0]
            try:
                mu = np.linalg.solve(G[active].T, G[unread].T)
                unread = unread[(mu >= 0.0).all(axis=0)]
            except np.linalg.LinAlgError:  # singular, or not square
                unread = unread[:0]
            for j in {i, *unread}:  # i even where rounding puts its own mu below 0
                offsets[j] = _epigraph_offset(S, o, S[j], active)
        return MaxAffine(S, offsets)
    return Conjugate(f, box)


def _epigraph_offset(S, o, s, rows):
    """f*(s) read off the exit rows A of its epigraph LP: o_j itself when a
    row j with s_j == s is in A (tight, and e_j is feasible with that value),
    else o_A.mu for the multipliers (S_A'; 1') mu = (s; 1), refined once."""
    same = rows[(S[rows] == s).all(axis=1)]
    if same.size:
        return float(o[same].min())
    M = np.vstack([S[rows].T, np.ones(rows.size)])
    rhs, mu = np.concatenate((s, [1.0])), np.zeros(rows.size)
    for _ in range(2):  # a solve, then one step of iterative refinement
        r = rhs - M @ mu
        try:
            mu = mu + np.linalg.solve(M, r)
        except np.linalg.LinAlgError:  # singular, or not square
            mu = mu + np.linalg.lstsq(M, r, rcond=None)[0]
    return float(o[rows] @ mu)


def inf_conv(f, g, box):
    return InfConv(f, g, box)


def prox_avg(f, g, box):
    return ProxAvg(f, g, box)


def scale_ops(f, factor, mode):
    """Scale (mode='mul', lambda*f) or epi-scale (mode='epi', lambda star f)."""
    if mode == "mul":
        return Scale(factor, f)
    if mode == "epi":
        return EpiScale(factor, f)
    raise ValueError(f"mode must be 'mul' or 'epi', got {mode!r}")


def biconjugate_check(f, samples, *, primal_box=None, dual_box=None):
    """max |f**(x) - f(x)| over the samples; samples must be in dom f.  f**
    of a max-affine f is the MaxAffine node conjugate() prices off
    warm-started LPs over f's epigraph, once per call, and needs no box or
    screen; any other f* raises without a dual_box."""
    f_star = conjugate(f, primal_box)
    f_star_star = conjugate(f_star, dual_box)
    worst = 0.0
    for s in samples:
        s = as_vector(s)
        fv = eval(f, s)
        if fv == INF:
            raise ValueError(f"sample {s} is outside dom f")
        worst = max(worst, abs(eval(f_star_star, s) - fv))
    return worst


def delta_expr(a, b):
    """The coupled quadratic delta(x, y) = 1/2||(a-x, b-y)||^2 - <x, y> built
    from a translated 2n-dimensional quadratic."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape != b.shape:
        raise DimensionMismatchError("a and b must share a dimension")
    n = a.shape[0]
    shift = np.concatenate([a, b])
    slope = -np.concatenate([b, a])
    return Translate(shift, slope, float(a @ b), Quadratic(2 * n))


def delta_conjugate_identity_check(a, b, samples):
    """max gap of delta*(x*, y*) = delta(-y*, -x*) over sampled (x*, y*)."""
    a = as_vector(a)
    b = as_vector(b)
    n = a.shape[0]
    samples = [as_vector(s) for s in samples]
    # delta is quadratic, so the conjugate's argmax is s + (a+b, a+b) up to
    # coordinate pairing; the search box covers those points with slack.
    reach = sum(float(np.abs(v).max()) for v in (np.array(samples), a, b))
    d = delta_expr(a, b)
    d_star = Conjugate(d, cube(reach + 3.0, 2 * n))
    worst = 0.0
    for s in samples:
        xs, ys = s[:n], s[n:]
        lhs = eval(d_star, s)
        rhs = eval(d, np.concatenate([-ys, -xs]))
        worst = max(worst, abs(lhs - rhs))
    return worst


def fenchel_duality_solve(f, neg_g, box):
    """Fenchel duality for convex f and concave g supplied as neg_g = -g.

    primal = inf over the box of f - g; dual = max over the box of g* - f*,
    g*(y) = inf_x (<x, y> - g(x)) = -(neg_g)*(-y) read off conjugate(neg_g,
    box).  The final y moves to the hull points of max-affine operands,
    neg_g's then f's, where the dual is re-read.  Returns (primal, dual, gap),
    which is (inf, -inf, inf) when f or neg_g is +inf on the whole box.
    """
    if f.dim != neg_g.dim or box.dim != f.dim:
        raise DimensionMismatchError("operands disagree in dimension")

    def primal_obj(z):
        a = _eval(f, z)
        return INF if a == INF else a + _eval(neg_g, z)

    primal, _ = _inner_minimize(primal_obj, box)
    if primal == -INF:
        raise BoxExhaustionError("FenchelPrimal")

    f_star, neg_g_star = conjugate(f, box), conjugate(neg_g, box)

    def dual_neg(y):
        gs = _eval(neg_g_star, -y)
        return INF if gs == INF else _eval(f_star, y) + gs

    # Polyhedral operands pin the dual domain: probe their slope points,
    # which a coarse grid over the box may miss (affine g has a point domain).
    probes = []
    if isinstance(f, MaxAffine):
        probes.extend(f.slopes)
    if isinstance(neg_g, MaxAffine):
        probes.extend(-neg_g.slopes)
    try:
        m, y = _inner_minimize(dual_neg, box, extra_points=probes)
    except ImproperFunctionError:
        # f or neg_g is +inf on the whole box, whatever y: no dual value.
        return primal, -INF, INF
    if m == -INF:
        raise BoxExhaustionError("FenchelDual")
    if m < INF and (isinstance(f, MaxAffine) or isinstance(neg_g, MaxAffine)):
        if isinstance(neg_g, MaxAffine):
            y = -_hull_point(neg_g_star, -y)
        if isinstance(f, MaxAffine):
            y = _hull_point(f_star, y)
        reread = dual_neg(y)  # +inf where the domains meet only in the collar
        m = reread if reread < INF else m
    return primal, -m, primal + m


def fenchel_young_check(f, pairs, *, box=None):
    """min over sampled (x, x*) of f(x) + f*(x*) - <x, x*>; must be >= -1e-6."""
    f_star = conjugate(f, box)
    worst = INF
    for x, xs in pairs:
        x = as_vector(x)
        xs = as_vector(xs)
        fv = eval(f, x)
        fsv = eval(f_star, xs)
        if fv == INF or fsv == INF:
            continue
        worst = min(worst, fv + fsv - dot(x, xs))
    return worst
