"""Finite set-valued maps, Fitzpatrick functions, and resolvent evaluation.

A finite operator graph T = {(x_i, x_i*)} in R^n x R^n induces:

* its Fitzpatrick function Phi(x, x*) = max_i <x, a_i*> + <a_i, x*> - <a_i, a_i*>,
  a max-affine function of (x, x*) with slopes (a_i*, a_i);
* the conjugate Phi*, an exact polyhedral program on conv{(a_i*, a_i)};
* Psi, the proximal average of Phi and Phi*t, an autoconjugate function whose
  equality set {Psi = <.,.>} is the graph of a maximal monotone extension of
  a monotone T;
* the resolvent of that extension, evaluated per query by one convex program.

Psi and every derived quantity are computed through a single reduction: the
constraint that the conjugate argument stays in dom Phi* is enforced by a
simplex parametrization z = sum_i l_i (a_i, a_i*), the quarter-kappa coupling
term collapses to 1/2 ||x~ - z||^2, and the remaining max-affine term is
moved into an epigraph variable.  The result is a linearly constrained convex
QP solved exactly by the dense active-set solver, so residuals reach machine
precision rather than first-order-method accuracy.
"""

from collections import ChainMap
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import SimplexWeights, as_vector, dot, pairwise, row_dots, row_norms
from .errors import DimensionMismatchError
from .solvers import solve_qp
from .convex_functions import MaxAffineConjugate, _polyhedral_conjugate_value


@dataclass(frozen=True)
class OperatorGraph:
    """Finite graph of a set-valued map R^n => R^n.

    Set multi_valued=True to allow one x to carry several x* values;
    otherwise duplicate points with conflicting values (beyond 1e-12) are
    rejected.  The QPs' query-independent data are memoised on the graph,
    with the working sets of each QP family's last call.
    """

    points: np.ndarray
    values: np.ndarray
    multi_valued: bool = False

    def __post_init__(self):
        xs = np.asarray(self.points, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if xs.ndim != 2 or vs.ndim != 2 or xs.shape != vs.shape or xs.shape[0] < 1:
            raise ValueError("need matching non-empty (k, n) point and value arrays")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise ValueError("graph has non-finite entries")
        xs.setflags(write=False)
        vs.setflags(write=False)
        object.__setattr__(self, "points", xs)
        object.__setattr__(self, "values", vs)
        if not self.multi_valued:
            pair = _first_conflict(xs, vs, 1e-12)
            if pair is not None:
                i, j = pair
                raise ValueError(
                    f"points {i} and {j} coincide with conflicting values; "
                    "pass multi_valued=True for set-valued graphs"
                )

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def pairs(self):
        return list(zip(self.points, self.values))

    @cached_property
    def _atoms(self):
        """Rows a~_i = (a_i, a_i*), transposed rows (a_i*, a_i), offsets
        <a_i, a_i*>, and BA = Brows Arows'."""
        Arows = np.hstack([self.points, self.values])
        Brows = np.hstack([self.values, self.points])
        o = row_dots(self.points, self.values)
        return Arows, Brows, o, Brows @ Arows.T

    @cached_property
    def _fitzpatrick_node(self):
        """Phi* as a polyhedral-conjugate node on the transposed atoms."""
        return MaxAffineConjugate(*self._atoms[1:3])

    @cached_property
    def _psi_constants(self):
        """Psi's QP over z = (l, t)."""
        k = self.size
        return _epigraph_qp(self, np.zeros((0, 0)), np.zeros((0, k)), np.zeros((k, 0)))

    @cached_property
    def _psi_conj_constants(self):
        """Psi*'s QP over z = (x~, l, t)."""
        Arows, Brows = self._atoms[:2]
        return _epigraph_qp(self, np.eye(2 * self.dim), Arows.T, 2.0 * Brows)

    @cached_property
    def _resolvent_constants(self):
        """The resolvent's QP over z = (y, l, t): x~ = M y + (0, x) for
        M y = (y, -y), and M'Arows' has columns a_j - a_j*."""
        MtA, dA = (self.points - self.values).T, 2.0 * (self.values - self.points)
        return _epigraph_qp(self, 4.0 * np.eye(self.dim), MtA, dA)


def _first_conflict(points, values, tol):
    """First pair of points within tol whose values differ beyond tol (both
    in the max-abs norm), or None.  Each row's max is taken across the
    columns, not by numpy's row-at-a-time axis=1 reduce; max is exact."""

    def kernel(dp, dv):
        same = np.maximum.reduce(list(np.abs(dp.T))) <= tol
        return same & (np.maximum.reduce(list(np.abs(dv.T))) > tol)

    worst, pair = pairwise(points, values, kernel)
    return pair if worst > 0.0 else None


@dataclass(frozen=True)
class PairwiseCheck:
    passed: bool
    worst_value: float
    worst_pair: object


def _min_check(G: OperatorGraph, neg_kernel) -> PairwiseCheck:
    """First minimum over the pairs of -neg_kernel; passes when >= -1e-10."""
    best, pair = pairwise(G.points, G.values, neg_kernel)
    return PairwiseCheck(-best >= -1e-10, -best, pair)


def is_monotone(T: OperatorGraph) -> PairwiseCheck:
    """Exhaustive pair check of <x_i - x_j, x_i* - x_j*> >= -1e-10."""
    return _min_check(T, lambda dx, dv: -row_dots(dx, dv))


def firmly_nonexpansive_check(F: OperatorGraph) -> PairwiseCheck:
    """Min over pairs of <df, dx> - ||df||^2; passes when >= -1e-10."""
    return _min_check(F, lambda dx, df: -(row_dots(df, dx) - row_dots(df, df)))


def _nonexpansive_check(F: OperatorGraph):
    """Raise on the pair where ||df|| exceeds ||dx|| (1 + 1e-10) + 1e-10 most."""

    def kernel(dx, df):
        return row_norms(df) - (row_norms(dx) * (1.0 + 1e-10) + 1e-10)

    worst, pair = pairwise(F.points, F.values, kernel)
    if worst > 0.0:
        raise ValueError(f"map is not non-expansive on pair {pair}")


def resolvent_of_graph(T: OperatorGraph) -> OperatorGraph:
    """Push graph(T) through (x, x*) -> (x + x*, x), the graph of (T + id)^-1.

    Monotone input gives ||dx|| <= ||dy|| for every pair, dy = d(x + x*), so
    the image is single-valued.  A pair with ||dy|| <= 1e-10 and ||dx|| >
    ||dy|| + 1e-12 (Euclidean norms) therefore signals non-monotone input and
    is raised; this one scan decides the image, which is built as
    multi_valued so that the constructor does not scan the pairs again.
    """
    ys = T.points + T.values

    def kernel(dy, dx):
        ny = row_norms(dy)
        return (ny <= 1e-10) & (row_norms(dx) > ny + 1e-12)

    worst, pair = pairwise(ys, T.points, kernel)
    if worst > 0.0:
        raise ValueError(
            f"resolvent image is multi-valued on pairs {pair}; "
            "the input graph is not monotone"
        )
    return OperatorGraph(ys, T.points.copy(), multi_valued=True)


def graph_of_resolvent(F: OperatorGraph) -> OperatorGraph:
    """Inverse transform (y, y*) -> (y*, y - y*)."""
    return OperatorGraph(F.values.copy(), F.points - F.values, multi_valued=True)


def nonexpansive_to_firm(F: OperatorGraph) -> OperatorGraph:
    """g = (id + f) / 2; input must be non-expansive."""
    _nonexpansive_check(F)
    return OperatorGraph(F.points.copy(), (F.points + F.values) / 2.0)


def firm_to_nonexpansive(G: OperatorGraph) -> OperatorGraph:
    """f = 2 g - id; input must be firmly non-expansive."""
    check = firmly_nonexpansive_check(G)
    if not check.passed:
        raise ValueError(
            f"map is not firmly non-expansive (worst slack {check.worst_value:.3e} "
            f"on pair {check.worst_pair})"
        )
    return OperatorGraph(G.points.copy(), 2.0 * G.values - G.points)


def _pair_point(T: OperatorGraph, x, xstar):
    """x~ = (x, x*), each half checked against the graph's dimension."""
    x = as_vector(x)
    xstar = as_vector(xstar)
    if x.shape[0] != T.dim or xstar.shape[0] != T.dim:
        raise DimensionMismatchError("argument dimension does not match the graph")
    return np.concatenate([x, xstar])


def fitzpatrick_eval(T: OperatorGraph, x, xstar) -> float:
    """Exact max over the graph of <x, a*> + <a, x*> - <a, a*>."""
    xt = _pair_point(T, x, xstar)
    x, xstar = xt[: T.dim], xt[T.dim :]
    best = -np.inf
    for a, astar in zip(T.points, T.values):
        term = dot(x, astar) + dot(a, xstar) - dot(a, astar)
        if term > best:
            best = term
    return best


def fitzpatrick_conj_eval(T: OperatorGraph, y, ystar) -> float:
    """Conjugate of the Fitzpatrick function by the exact polyhedral rule.

    Phi is max-affine with slopes (a_i*, a_i) and offsets <a_i, a_i*>, so
    Phi*(y, y*) = min { sum l_i <a_i, a_i*> : sum l_i (a_i*, a_i) = (y, y*) },
    +inf when (y, y*) is outside the hull of the transposed atoms.
    """
    return _polyhedral_conjugate_value(T._fitzpatrick_node, _pair_point(T, y, ystar))


def _epigraph_rows(Brows, BA, o, xt, lam):
    """p = 2 B x~ - BA l - o, the affine pieces the epigraph variable t bounds."""
    return 2.0 * (Brows @ xt) - BA @ lam - o


def _psi_value_at(Arows, Brows, o, BA, xt, lam):
    p = _epigraph_rows(Brows, BA, o, xt, lam)
    r = xt - Arows.T @ lam
    return 0.5 * float(np.max(p)) + 0.5 * float(o @ lam) + 0.5 * float(r @ r)


def _vertex_start(P, q, G, h, u):
    """Start (z0, working set) of an epigraph QP over z = (u, l, t) whose
    prefix stays at u: the vertex (u, e_j, t_j) of least objective
    1/2 z'Pz + q'z, ties to the lowest j.

    t_j = max_i (G_prefix u - h_rows)_i - BA[i, j] is the least t that the
    epigraph rows allow at l = e_j, and the scores of all k vertices come
    from one O(k^2) pass over P, q, G and h.  The working set is the row
    that attains t_j plus the k - 1 bounds l_i >= 0 with i != j, so the
    start is a vertex in (l, t): optimal supports hold few atoms, and the
    cheapest vertex often holds one of them.
    """
    d, k = u.shape[0], G.shape[0] // 2
    lam = slice(d, d + k)
    need = (G[:k, :d] @ u - h[:k])[:, None] + G[:k, lam]
    t = np.max(need, axis=0)
    score = (0.5 * float(u @ P[:d, :d] @ u) + float(q[:d] @ u)) + (
        u @ P[:d, lam] + 0.5 * np.diagonal(P)[lam] + q[lam] + q[-1] * t
    )
    j = int(np.argmin(score))
    z0 = np.zeros(d + k + 1)
    z0[:d], z0[d + j], z0[-1] = u, 1.0, t[j]
    return z0, [int(np.argmax(need[:, j]))] + [k + i for i in range(k) if i != j]


def _epigraph_qp(T, D, M, G_prefix):
    """(P, G, A_eq, memo) of an epigraph QP over z = (u, l, t) on T's atoms:
    P = [[D, -M, 0], [-M', Arows Arows', 0], [0, 0, 0]]; the rows
    G_prefix u - BA l - t and the bounds -l <= 0; sum l = 1; and the
    solve_qp memo that carries the last call's working sets (see
    _solve_epigraph_qp)."""
    Arows, _, _, BA = T._atoms
    k, d = G_prefix.shape
    nz = d + k + 1
    P = np.zeros((nz, nz))
    P[:d, :d] = D
    P[:d, d : d + k] = -M
    P[d : d + k, :d] = -M.T
    P[d : d + k, d : d + k] = Arows @ Arows.T
    G = np.zeros((2 * k, nz))
    G[:k, :d] = G_prefix
    G[:k, d : d + k] = -BA
    G[:k, d + k] = -1.0
    G[k:, d : d + k] = -np.eye(k)
    A_eq = np.zeros((1, nz))
    A_eq[0, d : d + k] = 1.0
    return P, G, A_eq, ChainMap()


def _solve_epigraph_qp(qp, q, h_rows, prefix0, what):
    """Solve min 1/2 z'Pz + q'z, qp = (P, G, A_eq, memo), with G z <=
    (h_rows, 0) from the least-objective vertex with u = prefix0 (see
    _vertex_start).  Returns (u, l) for z = (u, l, t), l cleaned by
    SimplexWeights; at its cap solve_qp raises SolverCapError("<what> QP
    capped at ...").

    The memo is a ChainMap whose last map holds the working sets of the
    family's previous call, where solve_qp looks first; it writes the ones
    it meets into the first map, which then replaces the last, also when
    solve_qp raises.  So a graph keeps one call's working sets per family."""
    P, G, A_eq, memo = qp
    d, k = prefix0.shape[0], G.shape[0] // 2
    h = np.concatenate([h_rows, np.zeros(k)])
    z0, active = _vertex_start(P, q, G, h, prefix0)
    try:
        z, _ = solve_qp(
            P, q, A_eq, [1.0], G, h, z0, initial_active=active, memo=memo,
            name=f"{what} QP",
        )
    finally:
        memo.maps = [{}, memo.maps[0]]
    return z[:d], SimplexWeights(z[d : d + k]).weights


def psi_eval(T: OperatorGraph, x, xstar) -> float:
    """Proximal average of Phi and Phi*t evaluated at (x, x*): the epigraph
    form of Psi's inner problem, minimized at the point x~ = (x, x*)."""
    xt = _pair_point(T, x, xstar)
    Arows, Brows, o, BA = T._atoms
    q = np.concatenate([-(Arows @ xt) + 0.5 * o, [0.5]])
    _, lam = _solve_epigraph_qp(
        T._psi_constants, q, o - 2.0 * (Brows @ xt), np.zeros(0), "Psi"
    )
    return _psi_value_at(Arows, Brows, o, BA, xt, lam)


def psi_conj_eval(T: OperatorGraph, y, ystar) -> float:
    """Conjugate of Psi, evaluated exactly (no search box needed):
    Psi*(w~) = sup over x~ of <w~, x~> - Psi(x~) at w~ = (y, y*).

    The inner minimization over the simplex commutes with the outer supremum
    (the objective is jointly concave in (x~, -l)), so the whole conjugate is
    one concave-maximization QP over (x~, l, t).
    """
    wt = _pair_point(T, y, ystar)
    Arows, Brows, o, BA = T._atoms
    q = np.concatenate([-wt, 0.5 * o, [0.5]])
    xt0 = np.concatenate([wt[T.dim :], wt[: T.dim]])
    xt, lam = _solve_epigraph_qp(T._psi_conj_constants, q, o, xt0, "Psi conjugate")
    return float(wt @ xt) - _psi_value_at(Arows, Brows, o, BA, xt, lam)


def autoconjugacy_check(T: OperatorGraph, samples) -> float:
    """max over samples x~ of |Psi*(x~^t) - Psi(x~)|; ~0 for monotone T."""
    n = T.dim
    worst = 0.0
    for s in samples:
        s = as_vector(s)
        if s.shape[0] != 2 * n:
            raise DimensionMismatchError("samples must live in R^(2n)")
        st = np.concatenate([s[n:], s[:n]])
        gap = abs(psi_conj_eval(T, st[:n], st[n:]) - psi_eval(T, s[:n], s[n:]))
        worst = max(worst, gap)
    return worst


def resolvent_eval(T: OperatorGraph, x):
    """Evaluate the resolvent of the maximal monotone extension of T at x.

    Minimizes h(y, l) = Psi(y, x - y) - <y, x - y> jointly over y and the
    simplex parametrization of the conjugate block; the optimum value is 0,
    so the returned residual doubles as the convergence certificate
    (converged iff residual <= 1e-6; the active-set solve normally lands at
    ~1e-14).  The QP's P, G and A_eq are built once per graph and memoised
    on T; only q, h and the start, the least-objective vertex at y = x / 2
    (_vertex_start), are per query.  T also carries the factors of the
    working sets that its last query met, and this query looks each working
    set up there before it factors it (no iterate carries over, so the
    result is the same bits as on a fresh graph).
    Returns (y, residual); a QP stopped at its iteration cap raises
    SolverCapError.
    """
    x = as_vector(x)
    if x.shape[0] != T.dim:
        raise DimensionMismatchError("query dimension does not match the graph")
    Arows, Brows, o, BA = T._atoms
    q = np.concatenate([-2.0 * x, -(T.values @ x) + 0.5 * o, [0.5]])
    y, lam = _solve_epigraph_qp(
        T._resolvent_constants, q, o - 2.0 * (T.points @ x), x / 2.0, "resolvent"
    )
    xt = np.concatenate([y, x - y])
    psi_upper = _psi_value_at(Arows, Brows, o, BA, xt, lam)
    residual = max(psi_upper - float(y @ (x - y)), 0.0)
    return y, residual
