"""Lipschitz and uniformly continuous extension of finite map data.

Two independent routes extend L-Lipschitz data {(a_i, b_i)} in R^m -> R^n to
any query point:

* extend_minimax solves, per query x, the ball-intersection problem
  "find y with ||y - b_i|| <= L ||x - a_i|| for all i" by taking the
  Chebyshev center of those balls (solvers.chebyshev_center), which is
  guaranteed feasible for consistent data.  Each value is feasible on its
  own; the map x -> y carries no Lipschitz guarantee.
* extend_proxavg runs the firmly-non-expansive pipeline: zero-pad to a square
  dimension, rescale to a non-expansive map, pass to g = (id + f)/2, read off
  the monotone graph T = g^{-1} - id, and evaluate the resolvent of the
  maximal monotone extension of T per query; y = L (2 G(x) - x), un-padded.
  The resolvent is firmly non-expansive, so this map is L-Lipschitz.

Scalar data additionally supports McShane-Whitney envelopes with a general
modulus of continuity, the Riesz/Tietze continuous extension, and the
empirical-modulus pipeline (concave majorant + envelope) for uniformly
continuous data.  extend_coordinatewise applies the scalar envelope per
output coordinate, giving the classical sqrt(n) L baseline.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import as_vector, pair_index, pairwise, row_norms
from .errors import (
    DataConsistencyError,
    DimensionMismatchError,
    ModulusViolationError,
)
from .solvers import chebyshev_center
from .convex_sets import distance, project
from .monotone import OperatorGraph, graph_of_resolvent, resolvent_eval

DUPLICATE_TOL = 1e-9
LIPSCHITZ_SLACK = 1e-9


def _scan_data(points, values, L):
    """Worst pair score of FiniteMapData and its witness: the ratio
    ||db|| / ||da|| (L None; 0 for duplicate points) or the excess
    ||db|| - (L ||da|| + slack).  Raises on duplicate points carrying
    different values."""

    def kernel(dp, dv):
        da = row_norms(dp)
        db = row_norms(dv)
        dup = da <= 1e-12
        if L is None:
            score = db / np.where(dup, np.inf, da)
        else:
            score = db - (L * da + LIPSCHITZ_SLACK)
        return np.where(dup & (db > DUPLICATE_TOL), np.inf, score)

    worst, pair = pairwise(points, values, kernel)
    if worst == np.inf:
        i, j = pair
        raise DataConsistencyError(
            f"duplicate points {i} and {j} carry different values", witness=pair
        )
    return worst, pair


@dataclass(frozen=True)
class FiniteMapData:
    """Finite L-Lipschitz sample {(a_i, b_i)} with a_i in R^m, b_i in R^n.

    L may be supplied (a finite L >= 0, then verified against every pair,
    slack 1e-9) or omitted to be computed as the empirical constant.
    """

    points: np.ndarray
    values: np.ndarray
    L: float = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if pts.ndim != 2 or vals.ndim != 2 or pts.shape[0] != vals.shape[0]:
            raise ValueError("points and values must be matching (k, dim) arrays")
        if pts.shape[0] < 1:
            raise ValueError("need at least one data point")
        if 0 in (pts.shape[1], vals.shape[1]):
            raise ValueError("points and values need at least one coordinate")
        if not (np.isfinite(pts).all() and np.isfinite(vals).all()):
            raise ValueError("data has non-finite entries")
        pts.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        L = None if self.L is None else float(self.L)
        if L is not None and not 0.0 <= L < np.inf:
            raise ValueError(f"L must be finite and >= 0, got {L}")
        worst, pair = _scan_data(pts, vals, L)
        if L is None:
            L = max(0.0, worst)
        elif worst > 0.0:
            i, j = pair
            da = float(np.linalg.norm(pts[i] - pts[j]))
            db = float(np.linalg.norm(vals[i] - vals[j]))
            raise DataConsistencyError(
                f"data is not {L}-Lipschitz: pair ({i}, {j}) has "
                f"||db|| = {db:.6g} > L ||da|| = {L * da:.6g}",
                witness=pair,
            )
        object.__setattr__(self, "L", L)

    @property
    def m(self) -> int:
        return self.points.shape[1]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]


def lipschitz_constant(data: FiniteMapData) -> float:
    """Empirical constant max ||b_i - b_j|| / ||a_i - a_j|| (0 for one point)."""
    return max(0.0, _scan_data(data.points, data.values, None)[0])


def extend_minimax(data: FiniteMapData, x):
    """One-point extension to the Chebyshev center of the constraint balls.

    The value is solvers.chebyshev_center of the balls B(b_i, L ||x - a_i||):
    the deepest point of their intersection, which is non-empty for
    consistent data.  It interpolates the data and each value meets every
    ball constraint up to solver error.  It is a pointwise Kirszbraun value
    only; x -> y is not L-Lipschitz in general (on tight random data
    ||y1 - y2|| / (L ||x1 - x2||) reached 1.35-1.60).

    Returns (y, residual) with residual = max_i (||y - b_i|| - L ||x - a_i||).
    One ExtensionModel query; for batch queries build the model once instead.
    """
    return ExtensionModel(data, "minimax").query(x)


def extend_proxavg(data: FiniteMapData, x):
    """One-point extension through the firmly-non-expansive pipeline.

    Returns (y, residual); the residual is the resolvent certificate (the
    value of a convex program whose optimum is exactly 0).  For batch queries
    build an ExtensionModel once instead.
    """
    return ExtensionModel(data, "proxavg").query(x)


@dataclass(frozen=True)
class Modulus:
    """Piecewise-linear modulus of continuity on a breakpoint grid.

    Starts at (0, 0), interpolates linearly, extrapolates with the last
    slope.  is_concave and is_subadditive are computed on first read; a
    concave modulus is subadditive, any other is checked on the (K+3)^2
    grid of breakpoint sums.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = as_vector(self.breakpoints)
        v = as_vector(self.values)
        if t.shape != v.shape:
            raise ValueError("breakpoints and values must match")
        if t[0] != 0.0 or (t[1:] <= t[:-1]).any():
            raise ValueError("breakpoints must start at 0 and strictly increase")
        if v[0] != 0.0:
            raise ValueError("a modulus must satisfy w(0) = 0")
        if (v < 0).any() or (v[1:] - v[:-1] < -1e-12).any():
            raise ValueError("modulus values must be non-negative and non-decreasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "breakpoints", t)
        object.__setattr__(self, "values", v)

    @cached_property
    def is_concave(self) -> bool:
        # Slopes may also rise by what a few ulps of the values explain: a
        # concave majorant on breakpoints 1e-7 apart shows rises of 5e-10.
        t, v = self.breakpoints, self.values
        if t.size < 3:
            return True
        h = t[1:] - t[:-1]
        dv = (v[1:] - v[:-1]) / h
        rise = dv[1:] - dv[:-1]
        ulps = 8.0 * np.finfo(float).eps * v[2:] * (1.0 / h[:-1] + 1.0 / h[1:])
        return bool((rise <= 1e-12 + ulps).all())

    @cached_property
    def is_subadditive(self) -> bool:
        # A concave w with w(0) = 0 has w(s + t) <= w(s) + w(t).
        if self.is_concave:
            return True
        t = self.breakpoints
        probes = np.concatenate([t, t[-1] * np.array([1.5, 2.0, 3.0])])
        s = probes[:, None] + probes[None, :]
        lhs = self(s.ravel()).reshape(s.shape)
        rhs = self(probes)[:, None] + self(probes)[None, :]
        # Relative tolerance: values scale with the modulus (L * t for a
        # Lipschitz one), so an absolute 1e-12 rejects valid moduli at large L.
        return bool((lhs <= rhs + 1e-12 * (1.0 + np.abs(rhs))).all())

    @cached_property
    def _tail(self):
        """(last breakpoint, last value, last slope), None for one breakpoint."""
        t, v = self.breakpoints, self.values
        return (t[-1], v[-1], (v[-1] - v[-2]) / (t[-1] - t[-2])) if t.size > 1 else None

    def __call__(self, t):
        return _modulus_value(t, self.breakpoints, self.values, self._tail)


def _modulus_value(t, breakpoints, values, tail):
    """w(t) of the modulus on (breakpoints, values) whose tail is (last
    breakpoint, last value, last slope), or None for one breakpoint:
    Modulus.__call__, and the coordinatewise query's linear_modulus(L,
    scale) without building it.  That Modulus's checks hold by
    construction there: L is finite and >= 0 (FiniteMapData checks it), and
    scale = 1 + max|a_i| + max|x| >= 1 is finite."""
    t = np.asarray(t, dtype=float)
    if (t < -1e-15).any():
        raise ValueError("modulus arguments must be >= 0")
    t = t.clip(0.0, None)
    out = np.interp(t, breakpoints, values)
    if tail is not None:
        last_t, last_v, slope = tail
        beyond = t > last_t
        if beyond.any():
            out = np.where(beyond, last_v + slope * (t - last_t), out)
    return float(out) if out.ndim == 0 else out


def linear_modulus(L: float, scale: float = 1.0) -> Modulus:
    """The Lipschitz modulus w(t) = L t (exact under linear extrapolation)."""
    return Modulus(np.array([0.0, scale]), np.array([0.0, L * scale]))


def _raise_on_modulus_failure(points, values, omega: Modulus, worst: float, pair):
    """Both modulus checks' one message: raise on the witness pair when its
    score worst = |db| - (w(||da||) + 1e-9) is positive."""
    if worst > 0.0:
        i, j = pair
        raise ModulusViolationError(
            f"modulus fails on pair ({i}, {j}): |db| = "
            f"{float(np.abs(values[i, 0] - values[j, 0])):.6g} > "
            f"w(||da||) = {float(omega(np.linalg.norm(points[i] - points[j]))):.6g}",
            witness=pair,
        )


def _check_modulus_for_data(points, values, omega: Modulus):
    """Raise on the first pair, in row-major order, whose |db| exceeds
    w(||da||) + 1e-9 by the most.  ||da|| is row_norms(dp), the distance
    every check decides by, taken block by block in O(block) memory."""
    worst, pair = pairwise(
        points,
        values,
        lambda dp, dv: np.abs(dv[:, 0]) - (omega(row_norms(dp)) + 1e-9),
    )
    _raise_on_modulus_failure(points, values, omega, worst, pair)


def _check_modulus_on_scan(points, values, omega: Modulus, scan):
    """_check_modulus_for_data(points, values, omega), values (k, 1), over
    scan = _pair_scan(points), with its scores, decision, witness and
    message: ||da|| is row_norms(D), and w is evaluated in the scan's sorted
    order, where np.interp runs about four times faster, then scattered
    back to row-major order."""
    I, J, D, _, order = scan
    if I.size == 0:
        return
    da = row_norms(D)
    w = np.empty_like(da)
    w[order] = omega(da[order])
    vals = values[:, 0]
    scores = np.abs(vals.take(I) - vals.take(J)) - (w + 1e-9)
    b = int(scores.argmax())
    _raise_on_modulus_failure(
        points, values, omega, float(scores[b]), (int(I[b]), int(J[b]))
    )


def _envelope(points, values, omega: Modulus, x, side: str) -> np.ndarray:
    """Envelope of every value coordinate at x: max_i (b_i - w(||x - a_i||))
    for side 'lower', min_i (b_i + w(||x - a_i||)) otherwise."""
    w = omega(row_norms(points - x))[:, None]
    if side == "lower":
        return (values - w).max(axis=0)
    return (values + w).min(axis=0)


def extend_mcshane(data: FiniteMapData, omega: Modulus, x, side: str) -> float:
    """McShane-Whitney envelope for scalar data under a general modulus.

    side='lower' is the smallest extension sup_i (b_i - w(||x - a_i||)),
    side='upper' the largest inf_i (b_i + w(||x - a_i||)); lower <= upper
    pointwise.  The modulus must be increasing and subadditive and must
    dominate the data (both checked on every call, witness reported); an
    ExtensionModel, whose modulus is fixed by the data, skips both.
    """
    if data.n != 1:
        raise ValueError("McShane-Whitney extension needs scalar values (n = 1)")
    if not omega.is_subadditive:
        raise ValueError("modulus must be subadditive")
    _check_modulus_for_data(data.points, data.values, omega)
    x = as_vector(x)
    if x.shape[0] != data.m:
        raise DimensionMismatchError("query dimension does not match the data")
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    return float(_envelope(data.points, data.values, omega, x, side)[0])


def extend_coordinatewise(data: FiniteMapData, x) -> np.ndarray:
    """Apply the scalar lower envelope with w(t) = L t to each coordinate.

    Every coordinate of L-Lipschitz data is itself L-Lipschitz, so the
    envelope max_i (b_i - w(||x - a_i||)) is taken for all coordinates at once
    without re-validating them.  The result interpolates the data and is
    sqrt(n) L-Lipschitz.  One ExtensionModel query.
    """
    return ExtensionModel(data, "coordinatewise").query(x)[0]


def extend_project_domain(data: FiniteMapData, domain, x) -> np.ndarray:
    """Extend beyond a convex domain containing the data by projecting the
    query onto the domain first, then taking the minimax value there.

    Like extend_minimax, each value meets every ball constraint at the
    projected query; there is no Lipschitz guarantee for the map x -> y.
    """
    return ExtensionModel(data, "project_domain", domain=domain).query(x)[0]


def _tau(t):
    return 1.5 + t / (2.0 * np.sqrt(1.0 + t * t))


def _tau_inv(s):
    u = s - 1.5
    return u / np.sqrt(0.25 - u * u)


def tietze_extend(data: FiniteMapData, x) -> float:
    """Riesz-formula continuous extension of scalar data.

    Values are passed through the homeomorphism t -> 3/2 + t/(2 sqrt(1+t^2))
    onto (1, 2), extended by inf_i f(a_i) d(x, a_i) / d(x, A), and mapped
    back.  At (numerically) zero distance the nearest data value is returned.
    One ExtensionModel query.
    """
    return float(ExtensionModel(data, "tietze").query(x)[0][0])


def affine_majorant(omega: Modulus):
    """Affine majorant (slope, intercept) = (1/delta, 2) of a subadditive
    modulus, where delta is the largest breakpoint prefix with values < 1.

    Raises ValueError when no breakpoint has value < 1 (the modulus does not
    sink below 1 near 0) or when majorization fails on the grid (the input
    was not subadditive).
    """
    t, v = omega.breakpoints, omega.values
    above = (v[1:] >= 1.0).nonzero()[0]
    prefix_end = int(above[0]) if above.size else t.size - 1
    if prefix_end == 0:
        raise ValueError("no admissible delta: modulus does not drop below 1 at 0+")
    delta = float(t[prefix_end])
    slope, intercept = 1.0 / delta, 2.0
    if (v > intercept + slope * t + 1e-12).any():
        raise ValueError("affine majorant fails on the grid; modulus not subadditive")
    return slope, intercept


def concave_majorant(omega: Modulus) -> Modulus:
    """Least concave majorant on the breakpoint grid: the upper concave hull
    of (t_k, w(t_k)), evaluated back on the same grid and extended by the
    last hull slope.

    On non-decreasing values the monotone chain skips the points after the
    first, p_a, of each run of equal values, except the last point and the
    runs whose guard (v_a - v_{a-1}) (t_{a+1} - t_a - 4 eps t_max) > 2e-15
    fails.  The stack ends the same: a later point of the run pops the one
    above p_a (cross exactly 0); the next run's first point pops the run's
    last (cross >= 0); and for h below p_a the computed cross of
    (h, p_a, p_j) does not increase with t_j and lies within about
    2 eps t_max (v_a - v_h) of -(v_a - v_h)(t_j - t_a), with
    v_a - v_h >= v_a - v_{a-1}, so the guard keeps it below -1e-15: no
    point of the run pops p_a.
    """
    affine_majorant(omega)  # gate: extendability requires an affine majorant
    t, v = omega.breakpoints, omega.values
    keep = np.ones(t.size, dtype=bool)
    if (v[1:] - v[:-1] >= 0.0).all():
        first = np.concatenate(([True], v[1:] != v[:-1]))
        guard = np.ones(t.size, dtype=bool)
        guard[1:-1] = (v[1:-1] - v[:-2]) * (
            t[2:] - t[1:-1] - 4.0 * np.finfo(float).eps * t[-1]
        ) > 2e-15
        run_head = np.maximum.accumulate(np.where(first, np.arange(t.size), 0))
        keep = first | ~guard[run_head]
        keep[-1] = True
    hull = []
    for p in zip(t[keep].tolist(), v[keep].tolist()):
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
    return Modulus(t, np.interp(t, ht, hv))


def _pair_scan(points):
    """(I, J, D, dist, order): the row-major pairs i < j, D = points[I] -
    points[J], its distances and their stable sort order."""
    k = points.shape[0]
    I, J = pair_index(k, 0, k - 1)
    D = points.take(I, axis=0) - points.take(J, axis=0)
    # vecdot (NumPy >= 2.0) matches the per-pair np.linalg.norm bit for bit;
    # row_norms (norm(axis=1)) and einsum move the last bit of some distances.
    dist = np.sqrt(np.vecdot(D, D))
    return I, J, D, dist, dist.argsort(kind="stable")


def empirical_modulus(data: FiniteMapData) -> Modulus:
    """Exact empirical modulus on the grid of pairwise distances.

    The distances are _pair_scan's, each pair's own np.linalg.norm bit for
    bit.  Sorted distances above 1e-15 merge into the last breakpoint while
    within 1e-15 of it, and it takes the running maximum of the gaps
    |b_i - b_j| at the group's last pair.  A distance more than 1e-15 above
    its predecessor starts a group, an exact tie joins its predecessor's,
    and one forward pass decides the near-duplicates (0 < step <= 1e-15) by
    their group's start.  Groups end where the distance changes, so the
    order among tied distances leaves every value as it is.
    """
    if data.n != 1:
        raise ValueError("empirical modulus needs scalar values (n = 1)")
    return Modulus(*_modulus_of_scan(data.values[:, 0], _pair_scan(data.points)))


def _modulus_of_scan(vals, scan):
    """empirical_modulus of scalar values over a _pair_scan of their points,
    as its (breakpoints, values) arrays."""
    I, J, _, dist, order = scan
    running = np.maximum.accumulate(np.abs(vals.take(I) - vals.take(J))[order])
    t = dist[order]
    keep = t > 1e-15
    t, running = t[keep], running[keep]
    if t.size == 0:  # one point, or no distance above 1e-15
        return np.array([0.0, 1.0]), np.array([0.0, 0.0])
    step = t - np.concatenate(([0.0], t[:-1]))
    start = step > 1e-15
    head = np.maximum.accumulate(np.where(start, np.arange(t.size), 0))
    last = 0
    for i in ((step > 0.0) & ~start).nonzero()[0].tolist():
        last = max(last, int(head[i]))
        if t[i] - t[last] > 1e-15:
            start[i] = True
            last = i
    starts = start.nonzero()[0]
    ends = np.concatenate((starts[1:] - 1, [t.size - 1]))
    return np.concatenate(([0.0], t[starts])), np.concatenate(([0.0], running[ends]))


def uniform_extend(data: FiniteMapData, x) -> float:
    """Extend scalar uniformly continuous data: empirical modulus, concave
    majorant, then the lower McShane-Whitney envelope.

    Values are normalized so the empirical modulus passes the affine-majorant
    gate regardless of the data's scale; the result is scaled back.  For
    batch queries build an ExtensionModel once instead.
    """
    return float(ExtensionModel(data, "uniform").query(x)[0][0])


class ExtensionModel:
    """A reusable evaluator for one extension method over fixed data.

    The work that depends only on the data is done once, here: the proxavg
    graph, the mcshane modulus w(t) = L t (FiniteMapData's pair check
    ||db|| <= L ||da|| + 1e-9 already shows that it dominates the data),
    tietze's tau(b_i), coordinatewise's 1 + max|a_i|, uniform's rescaled
    values b_i / s (the array scaled_values), concave majorant and their
    checks, and project_domain's check that the domain holds every data
    point.  uniform scans its pairs once: the modulus reads the scan's vecdot
    distances (per-pair norms) and its check row_norms(D), the
    np.linalg.norm(D, axis=1) bits, as _check_modulus_for_data does.  A
    query validates x once and evaluates every method itself; extend_minimax,
    extend_proxavg, extend_coordinatewise, extend_project_domain,
    tietze_extend and uniform_extend are each one query of a fresh model.
    mcshane, tietze and uniform require scalar values.
    """

    METHODS = (
        "minimax",
        "proxavg",
        "mcshane",
        "coordinatewise",
        "project_domain",
        "tietze",
        "uniform",
    )

    def __init__(self, data: FiniteMapData, method: str, *, domain=None):
        if method not in self.METHODS:
            raise ValueError(f"unknown method {method!r}")
        if method in ("mcshane", "tietze", "uniform") and data.n != 1:
            raise ValueError(f"{method} requires scalar values (n = 1)")
        if method == "project_domain" and domain is None:
            raise ValueError("project_domain requires a convex domain")
        self.data = data
        self.method = method
        self.domain = domain
        if method == "proxavg":
            # T = g^{-1} - id for g = (id + f / L) / 2, f zero-padded to a
            # square dimension; None when the data is constant.
            self.graph = None
            if data.L > 1e-14 and data.size > 1:
                dim = max(data.m, data.n)
                pads, vals = np.zeros((data.size, dim)), np.zeros((data.size, dim))
                pads[:, : data.m] = data.points
                vals[:, : data.n] = data.values / data.L
                g = OperatorGraph(pads, (pads + vals) / 2.0, multi_valued=True)
                self.graph = graph_of_resolvent(g)
        if method == "mcshane":
            amax, bmax = np.abs(data.points).max(), np.abs(data.values).max()
            scale = 1.0 + float(amax) + float(bmax)
            self.omega = linear_modulus(data.L, 4.0 * scale)
        if method == "tietze":
            self.tau = _tau(data.values[:, 0])
        if method == "coordinatewise":
            self.reach = 1.0 + float(np.abs(data.points).max())
        if method == "uniform":
            # Values are divided by s so that the empirical modulus passes
            # the affine-majorant gate whatever the data's scale.
            scan = _pair_scan(data.points)
            t, v = _modulus_of_scan(data.values[:, 0], scan)
            s = self.scale = max(1.0, 2.0 * float(v.max()))
            self.omega = concave_majorant(Modulus(t, v / s))
            self.scaled_values = data.values / s
            if not self.omega.is_subadditive:
                raise ValueError("modulus must be subadditive")
            _check_modulus_on_scan(data.points, self.scaled_values, self.omega, scan)
        if method == "project_domain":
            for i, a in enumerate(data.points):
                d = distance(a, domain)
                if d > 1e-9:
                    raise ValueError(f"data point {i} lies outside the domain by {d:.3e}")

    def query(self, x):
        """Return (value vector in R^n, residual)."""
        x = as_vector(x)
        data = self.data
        if x.shape[0] != data.m:
            raise DimensionMismatchError("query dimension does not match the data")
        method = self.method
        if method == "project_domain":
            x, method = project(x, self.domain), "minimax"
        if method == "minimax":
            dist = row_norms(data.points - x)
            exact = (dist == 0.0).nonzero()[0]
            if exact.size:
                return data.values[exact[0]].copy(), 0.0
            if data.size == 1:
                return data.values[0].copy(), 0.0
            return chebyshev_center(data.values, data.L * dist)
        if method == "proxavg":
            if self.graph is None:
                return data.values[0].copy(), 0.0
            xhat = np.zeros(self.graph.dim)
            xhat[: data.m] = x
            g, residual = resolvent_eval(self.graph, xhat)
            return data.L * (2.0 * g - xhat)[: data.n], residual
        if method == "mcshane":
            return _envelope(data.points, data.values, self.omega, x, "lower"), 0.0
        if method == "tietze":
            d = row_norms(data.points - x)
            dmin = float(d.min())
            if dmin <= 1e-12:
                return data.values[int(d.argmin())].copy(), 0.0
            return np.array([_tau_inv((self.tau * d / dmin).min())]), 0.0
        if method == "uniform":
            y = _envelope(data.points, self.scaled_values, self.omega, x, "lower")
            return self.scale * y, 0.0
        scale = self.reach + float(np.abs(x).max())
        top = data.L * scale
        grid, vals = np.array([0.0, scale]), np.array([0.0, top])
        tail = (scale, top, top / scale)

        def omega(t):
            return _modulus_value(t, grid, vals, tail)

        return _envelope(data.points, data.values, omega, x, "lower"), 0.0
