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
again; Conjugate is the box search of any other child.  Fenchel's dual reads
its final value at a hull point of a polyhedral conjugate, whose 1e-6 collar
takes the nearest hull point's value.

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
        if lo.shape != hi.shape or np.any(lo >= hi):
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
    """Exact polyhedral conjugate of a max-affine function.

    Value at y is min { sum_i l_i o_i : sum_i l_i s_i = y, l in simplex },
    +inf farther than 1e-6 from conv(slopes), else the value at y's nearest
    hull point p (_hull_point), where the Fenchel dual re-reads its final
    value.  Its own conjugate, from conjugate(), is the MaxAffine with these
    slopes and offsets f*(s_i).  The QPs' constant data and the screen's and
    the LP's solve_qp memos of working-set factors are memoised on the node
    and freed with it.
    """

    @cached_property
    def _constants(self):
        """The screen's 2SS'; the LP's zero P, A_eq, bounds -I and zero h;
        the screen's and the LP's solve_qp memos."""
        S = self.slopes
        k = S.shape[0]
        return (
            2.0 * (S @ S.T), np.zeros((k, k)), np.vstack([S.T, np.ones((1, k))]),
            -np.eye(k), np.zeros(k), {}, {},
        )


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
            cands = np.clip(x + (s * span) * dirs, box.lo, box.hi)
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
    if not np.any(finite):
        return INF, None, False
    order = np.argsort(vals, kind="stable")
    best_x, best_v = None, INF
    for idx in [i for i in order[:2] if finite[i]]:
        x0 = np.clip(grid[idx], box.lo, box.hi)
        f0 = float(vals[idx]) if np.array_equal(x0, grid[idx]) else fun(x0)
        if not np.isfinite(f0):
            x, v = grid[idx], float(vals[idx])  # probe outside the box
        else:
            x, v = _compass(fun, x0, f0, box)
        if v < best_v:
            best_x, best_v = x, v
    margin = 1e-9 * (box.hi - box.lo)
    on_boundary = bool(
        np.any(best_x - box.lo <= margin) or np.any(box.hi - best_x <= margin)
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
    """min { o'l : S'l = y, l in simplex } as one exact LP.

    A screen, the exact projection of y onto conv(slopes), returns +inf when
    y is farther than 1e-6 from the hull; otherwise its weights l1 start
    solve_qp (P = 0) on the LP with target S'l1, the nearest hull point, so
    the start is feasible, and l1's zero weights start in the working set.
    """
    nearest, lam1 = _hull_point(node, y)
    # The distance itself, not the expanded quadratic's value, which loses
    # its last digits to cancellation near the 1e-6 threshold.
    if float(np.linalg.norm(nearest - y)) > POLYHEDRAL_INFEASIBLE_TOL:
        return INF
    _, P0, A_eq, G, h, _, lp_memo = node._constants
    lam, _ = solve_qp(
        P0, node.offsets, A_eq, np.append(nearest, 1.0), G, h, lam1,
        initial_active=np.flatnonzero(lam1 == 0.0), memo=lp_memo,
        name="conjugate LP",
    )
    np.clip(lam, 0.0, None, out=lam)
    return float(node.offsets @ (lam / lam.sum()))


def _hull_point(node, y):
    """The screen: y's exact projection S'l1 onto conv(slopes), and l1."""
    S, constants = node.slopes, node._constants
    lam1 = minimize_quadratic_over_simplex(
        constants[0], -2.0 * (S @ y), S.shape[0], memo=constants[5]
    ).argmin.weights
    return S.T @ lam1, lam1


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
        return float(np.max(expr.slopes @ x - expr.offsets))
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
        return float(np.max(body.vertices @ x))
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
    indicator, and MaxAffine for a polyhedral conjugate.  Any other f gets
    Conjugate(f, box), the box search, which raises without a box."""
    if isinstance(f, MaxAffine):
        return MaxAffineConjugate(f.slopes, f.offsets)
    if isinstance(f, Indicator):
        return SupportFunction(f.body)
    if isinstance(f, MaxAffineConjugate):
        # x.y - f*(y) is affine on each cell of f*'s subdivision of
        # conv(slopes), and every cell vertex is a slope (Rockafellar,
        # Convex Analysis, section 19): f** = max_i (s_i.x - f*(s_i)).
        offsets = [_polyhedral_conjugate_value(f, s) for s in f.slopes]
        return MaxAffine(f.slopes, offsets)
    return Conjugate(f, box)


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
    of a max-affine f is the MaxAffine node conjugate() builds from k LPs,
    once per call, and needs no box; any other f* raises without a
    dual_box."""
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
    reach = sum(float(np.max(np.abs(v))) for v in (np.array(samples), a, b))
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
            y = -_hull_point(neg_g_star, -y)[0]
        if isinstance(f, MaxAffine):
            y = _hull_point(f_star, y)[0]
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
