"""Deterministic convex solvers shared by the algorithmic modules.

Two public entry points:

* minimize_quadratic_over_simplex -- 1/2 l'Ql + c'l over one probability
  simplex, solved exactly by solve_qp from the best vertex and certified by
  the duality gap g'l - min g.  Its callers are chebyshev_center, polytope
  projection, the minimum-enclosing-ball dual and the polyhedral-conjugate
  screen.
* chebyshev_center -- the point minimizing max_i (||y - c_i|| - r_i) over a
  finite family of balls, by Newton root-finding on the simplex dual.  It is
  the one engine behind extend_minimax (balls B(b_i, L ||x - a_i||)) and
  the Helly checks on ball families.

TOL = 1e-9 is the simplex solve's converged bound.

Internal helper used by other modules:

* solve_qp -- dense primal active-set solver for small convex QPs with
  equality constraints and linear inequalities (the simplex QPs above, the
  monotone QPs, the polyhedral-conjugate LP, and the least-squares points
  of a family of bodies, which decide the Helly families that hold a
  polytope and give the closest pair of two polytopes).  It terminates on
  an exact KKT point, which is what lets epigraph reformulations of
  max-affine objectives reach 1e-12 accuracy.
  Its ratio test lets every inactive row with (G d)_i > 0 block a step, so
  a step crosses no row by more than rounding, however long the ray.  At a
  stationary point it drops the row with the most negative multiplier
  (Dantzig's rule), and after the solve's first step with alpha = 0 the
  lowest-index one (Bland's rule, which cannot cycle).  A dropped row that
  blocks the very step its drop opened, at alpha = 0, had a multiplier
  whose sign is rounding: it goes back in and is not dropped again until
  the point moves, so drop/add 2-cycles at degenerate points end.
  Its iteration cap follows from the number of inequalities, and it
  raises SolverCapError there, named after the caller's QP, as it does on
  an unbounded QP: a result it returns is a KKT point.  An active
  bound (a row of G with one nonzero) pins its coordinate, so the SVD
  covers only the equalities and the active general rows over the free
  coordinates.  It is done once per working set: its null space gives the
  steps, and its range factors give the multipliers of the equalities and
  general rows at a stationary point, while each bound's multiplier is read
  off its column.
  With P = 0 it solves the conjugate LP with no eigendecomposition: every
  step is a ray.

Memo contract.  solve_qp and minimize_quadratic_over_simplex take an
optional memo, a mapping that the caller owns and passes to every call of
one fixed QP family: the same P, A_eq and G, and any q.  It maps each
working set, keyed by the active mask's bytes, to its factors, so a working
set met again in a later call is not refactored.  With P = 0 the entry also
holds the step plan of the q that built it (the direction, or the rows a
drop may take in Dantzig's order, never the drop itself); another q
rebuilds and replaces it.  The QP's bound rows sit under the key None, and
the simplex wrapper's constants (half of Q's diagonal, the sum row, -I and
zero h) under "simplex".  A call writes every entry it uses back into the
memo, found or built, so a collections.ChainMap(fresh, last) gathers
exactly that call's entries in fresh while it reads last's.  Entries depend
only on the fixed data, the working set and a plan's q, not on a solve's
drop-rule state, so passing a memo never moves a bit of a result.  Owners:
the polyhedral conjugate node keeps one memo for its screen and one for its
LP; chebyshev_center shares one among its Newton steps' duals; each
monotone.OperatorGraph carries, per QP family, the working sets of its last
call only.  Nothing here keeps a memo between calls.

All routines are pure and deterministic: identical inputs produce
bit-identical reports.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import SimplexWeights
from .errors import SolverCapError

TOL = 1e-9


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    residual is the simplex duality gap, an upper bound on the
    suboptimality, and always within TOL (1 + |value|): a solve that misses
    that bound raises SolverCapError instead of reporting.
    """

    argmin: object
    value: float
    residual: float
    iters: int
    converged = True  # not a field: a report exists only within its gap


def minimize_quadratic_over_simplex(quad, c, k, *, constant=0.0, memo=None):
    """Minimize 1/2 l'Ql + c'l (+ constant) over the probability simplex.

    One solve_qp from the best vertex e_j, j = argmin_j (Q_jj / 2 + c_j), with
    every other bound l_i >= 0 in the working set.  When e_j is already a KKT
    point, that is no bound's multiplier g_i - g_j (g = Q e_j + c) is below
    -1e-11 (1 + max |g|), e_j is returned with iters = 1 and no solve_qp:
    this is the decision of solve_qp's first iteration.  quad is a dense PSD
    matrix.  memo is passed on to solve_qp: calls that share it share quad,
    and it also keeps the QP's constants, built once.  The returned residual
    is the duality gap g'l - min g at the solution, a valid upper bound on
    the suboptimality for any PSD instance.  Raises SolverCapError when the
    QP stops at its cap or the gap exceeds TOL (1 + |value|).
    """
    Q = np.asarray(quad, dtype=float)
    c = np.asarray(c, dtype=float)
    K = int(k)
    if c.shape[0] != K:
        raise ValueError("linear term length does not match k")
    if memo is None:
        memo = {}
    consts = memo.get("simplex")
    if consts is None:
        consts = 0.5 * np.diag(Q), np.ones((1, K)), -np.eye(K), np.zeros(K)
    memo["simplex"] = consts
    half_diag, ones, bounds, zeros = consts
    j = int(np.argmin(half_diag + c))
    z = zeros.copy()
    z[j] = 1.0
    # solve_qp's first iteration from e_j, decided here: the bound on l_i
    # has multiplier g_i - g_j, so e_j is a KKT point iff none is negative.
    g = Q @ z + c
    if (g - g[j] < -1e-11 * (1.0 + float(np.abs(g).max()))).any():
        z, info = solve_qp(
            Q, c, ones, [1.0], bounds, zeros, z,
            initial_active=[i for i in range(K) if i != j], memo=memo,
            name="simplex QP",
        )
    else:
        info = {"iters": 1}
    weights = SimplexWeights(z)
    z = weights.weights
    Qz = Q @ z
    g = Qz + c
    gap = float(g @ z - np.min(g))
    value = 0.5 * float(z @ Qz) + float(c @ z) + constant
    if gap > TOL * (1.0 + abs(value)):
        raise SolverCapError(f"simplex QP stopped with duality gap {gap:.3e}")
    return SolveReport(argmin=weights, value=value, residual=gap, iters=info["iters"])


def chebyshev_center(centers, radii):
    """Chebyshev center of the balls B(c_i, r_i), r_i >= 0: (y, t) with y
    minimizing max_i (||y - c_i|| - r_i) and t that value, so the balls share
    a point iff t <= 0, and then y is the deepest point of the intersection.

    Computed by safeguarded Newton root-finding on the concave value function
    phi(t) = min_y max_i (||y - c_i||^2 - (r_i + t)^2), each evaluation being
    one concave dual over the simplex (maximize sum l_i (||c_i||^2 -
    (r_i+t)^2) - ||sum l_i c_i||^2, recover y = sum l_i c_i); phi(t*) = 0 at
    the Chebyshev value t*, with phi'(t) = -2 sum l_i (r_i + t) read off the
    dual weights.  t* is bracketed by -min r_i and the value at y = c_0.  A
    final Gauss-Newton step over the balls tight at y is kept when it lowers
    the residual.  The work is done in coordinates centered on c_0, since a
    Gram matrix of raw coordinates far from the origin loses the family's
    shape to cancellation.  Raises SolverCapError when 80 Newton steps meet
    neither stop test.
    """
    C = np.asarray(centers, dtype=float)
    origin = C[0]
    C = C - origin
    radii = np.asarray(radii, dtype=float)
    Q = 2.0 * (C @ C.T)
    sq_norms = np.sum(C * C, axis=1)
    scale = 1.0 + float(np.max(radii) ** 2) + float(np.max(np.abs(sq_norms)))
    memo = {}  # every dual shares Q

    def dual_solve(t):
        infl = radii + t
        gains = sq_norms - infl ** 2
        report = minimize_quadratic_over_simplex(Q, -gains, C.shape[0], memo=memo)
        lam = report.argmin.weights
        phi = -report.value
        slope = -2.0 * float(lam @ infl)
        return phi, slope, lam

    t_lo = -float(np.min(radii))
    t_hi = max(0.0, float(np.max(np.linalg.norm(C, axis=1) - radii)))
    t = 0.0
    for _ in range(80):
        phi, slope, lam = dual_solve(t)
        if phi > 0.0:
            t_lo = max(t_lo, t)
        else:
            t_hi = min(t_hi, t)
        if abs(phi) <= 1e-13 * scale or (t_hi - t_lo) <= 1e-13:
            break
        if slope < -1e-18:
            t_new = t - phi / slope
        else:
            t_new = 0.5 * (t_lo + t_hi)
        if not (t_lo < t_new < t_hi):
            t_new = 0.5 * (t_lo + t_hi)
        t = t_new
    else:
        raise SolverCapError("Chebyshev-center Newton loop capped at 80 steps")
    y = lam @ C
    dist = np.linalg.norm(y - C, axis=1)
    gaps = dist - radii
    residual = float(np.max(gaps))
    # On a degenerate dual (every ball through one point, as on tight data)
    # the QP's support can be a thin simplex that magnifies rounding in y.
    # One Gauss-Newton step on the linearised ||y - c_i|| - r_i = tau over
    # every ball tight at y pins y by all of them; keep it if it helps.
    tight = (gaps >= residual - 1e-12 * (1.0 + np.max(radii))) & (dist > 0.0)
    rows = np.hstack([(y - C[tight]) / dist[tight, None], -np.ones((tight.sum(), 1))])
    step, *_ = np.linalg.lstsq(rows, -gaps[tight], rcond=None)
    y_step = y + step[:-1]
    residual_step = float(np.max(np.linalg.norm(y_step - C, axis=1) - radii))
    if residual_step < residual:
        return y_step + origin, residual_step
    return y + origin, residual


def _nullspace(C, K, fixed):
    """Orthonormal K x r basis Z of {d : C d = 0, d[fixed] = 0}, and the
    rank part (u, s, vt) of the SVD of C over the free columns, or None when
    C has no rows.

    fixed is a boolean mask of pinned columns.  The SVD runs only on the free
    columns of C, and the basis is zero on the pinned ones.  Singular values
    up to 1e-13 max(shape) s_max count as zero in both.
    """
    free = (~fixed).nonzero()[0]
    Cf = C[:, free]
    if Cf.shape[0] == 0:
        basis, svd = np.eye(free.size), None
    else:
        u, s, vt = np.linalg.svd(Cf, full_matrices=True)
        rank_tol = max(Cf.shape) * (s[0] if s.size else 0.0) * 1e-13
        rank = int((s > rank_tol).sum())
        # Copies, so that a memo does not keep the full u and vt alive.
        basis, svd = vt[rank:].T, (u[:, :rank].copy(), s[:rank], vt[:rank].copy())
    Z = np.zeros((K, basis.shape[1]))
    Z[free] = basis
    return Z, svd


def _restore_equalities(A_eq, b_eq, z):
    """z moved by the least-squares correction onto A_eq z = b_eq; z itself
    when the residual is exactly zero (or there are no equalities)."""
    resid = b_eq - A_eq @ z
    if resid.any():
        corr, *_ = np.linalg.lstsq(A_eq, resid, rcond=None)
        z += corr
    return z


class _WorkingSet:
    """One working set's factors: its pinned columns, C (A_eq over the active
    general rows), the null space Z and the rank part of the SVD of C over
    the free columns, and once needed the eigendecomposition of Z'PZ
    (P != 0) or the step plan of one q, with q's bytes (P = 0)."""

    __slots__ = ("fixed", "C", "Z", "svd", "eig", "plan")

    def __init__(self, A_eq, G, active, single, pin_col):
        K = A_eq.shape[1]
        self.fixed = np.zeros(K, dtype=bool)
        self.fixed[pin_col[active & single]] = True
        rows = active & ~single
        self.C = np.concatenate((A_eq, G[rows])) if rows.any() else A_eq
        self.Z, self.svd = _nullspace(self.C, K, self.fixed)
        self.eig = self.plan = None


def _drop_row(grad, local, active, ws, G, single, pin_col, me):
    """The active rows whose multiplier is below -1e-11 local at a stationary
    point, in Dantzig's order: most negative first, ties by index.  Empty at
    a KKT point.  solve_qp drops the first of them that is not frozen, or
    the lowest-index one once a step of the solve has had alpha = 0.

    nu solves C_f' nu = -grad_f in least squares over the free columns f,
    through the working set's own SVD C_f = u diag(s) vt, as nu = u (vt
    (-grad_f) / s); then each active bound's multiplier is read off its
    pinned column, where nothing else balances the gradient.
    """
    act_idx = active.nonzero()[0]
    is_bound = single[act_idx]
    resid = grad
    mult = np.empty(act_idx.size)
    C, free = ws.C, ~ws.fixed
    if C.shape[0]:
        u, s, vt = ws.svd
        nu = u @ ((vt @ -grad[free]) / s)
        resid = grad + C.T @ nu
        mult[~is_bound] = nu[me:]
    bounds = act_idx[is_bound]
    cols = pin_col[bounds]
    mult[is_bound] = -resid[cols] / G[bounds, cols]
    neg = (mult < -1e-11 * local).nonzero()[0]
    return act_idx[neg[np.argsort(mult[neg], kind="stable")]].tolist()


def _direction(P, linear, grad, local, z, ws):
    """The step from z on the working set: (d, True) along a ray, (d, False)
    for a Newton step, or (None, False) at a stationary point."""
    Z = ws.Z
    gr = Z.T @ grad
    if float(np.abs(gr).max(initial=0.0)) <= 1e-11 * local:
        # Stationary on the working set.  Testing Z'grad, not only the step,
        # matters: a Newton step along a tiny positive curvature magnifies
        # rounding in Z'grad and would cycle to the cap.
        return None, False
    if linear:
        # Zero reduced Hessian: the step is the ray -Z Z'grad.
        return Z @ -gr, True
    # Reduced Hessian by eigendecomposition: small positive curvature is
    # genuine (take the long Newton step along it); only the true null space
    # turns the subproblem linear (follow the ray).
    if ws.eig is None:
        H = Z.T @ P @ Z
        w, V = np.linalg.eigh(0.5 * (H + H.T))
        ws.eig = w, V, w > max(1e-13, float(w.max(initial=0.0)) * 1e-12)
    w, V, pos = ws.eig
    g_eig = V.T @ gr
    g_null = V[:, ~pos] @ g_eig[~pos]
    if float(np.abs(g_null).max(initial=0.0)) > 1e-11 * local:
        return Z @ (-g_null), True
    d = Z @ -(V[:, pos] @ (g_eig[pos] / w[pos]))
    if float(np.abs(d).max()) <= 1e-11 * (1.0 + float(np.abs(z).max(initial=0.0))):
        return None, False
    return d, False


def solve_qp(P, q, A_eq, b_eq, G, h, z0, initial_active=(), memo=None, name="QP"):
    """Dense primal active-set method for a small convex QP.

    Minimizes 1/2 z'Pz + q'z subject to A_eq z = b_eq and G z <= h, starting
    from a feasible z0 with the rows initial_active in the working set.  P
    must be PSD (possibly singular: each equality-constrained subproblem is
    solved in the null space of the working set, splitting the reduced
    gradient into curvature and ray components, so linear descent directions
    are followed to their blocking constraints).

    Rows of G with a single nonzero are bounds: while one is active its
    coordinate is pinned, and the null space Z is found by an SVD of A_eq
    and the active general rows restricted to the unpinned coordinates.  At a
    stationary point the same rows get their least-squares multipliers from
    that SVD's range factors, and each active bound's multiplier is read off
    its pinned column.  The row dropped is the one with the most negative
    multiplier (Dantzig's rule, ties by index) until a step of the solve has
    alpha = 0, and the lowest-index one from then on (Bland's rule).  A
    dropped row that blocks the next step at alpha = 0 is added back and
    frozen: no frozen row is dropped until a step moves z, so the next
    candidate is tried, and with none left the point is KKT to rounding and
    the solve ends.  The ratio test's blocking rows are the
    inactive rows with (G d)_i > 0, with no tolerance: a row skipped for a
    tiny (G d)_i is crossed by alpha (G d)_i on a long ray step, and Kelley's
    cuts in convex_sets then cycle.  A ray that no row blocks and no
    curvature bounds raises SolverCapError("<name> is unbounded below").
    When P is zero the reduced Hessian is zero, so the step is the ray
    -Z Z'grad, or none when that ray is below 1e-11 of the gradient scale.
    A point is stationary when the step or the reduced gradient Z'grad is
    below 1e-11 of its scale.  The cap is 200 + 80 (rows of G + 1)
    iterations, where it raises SolverCapError("<name> capped at <cap>
    iterations"); name only labels these messages.  Returns (z, info) with
    info carrying iters and converged, always True.

    Each working set's factors are memoised in memo, keyed by the active
    mask's bytes, under the module's memo contract: the pinned columns, C,
    Z, the rank part of the SVD and, once needed, the eigh of Z'PZ; with
    P = 0 also the step plan (the ray, or the rows a drop may take in
    Dantzig's order, empty at convergence) and the bytes of the q it was
    built for.  A plan depends on q, not on z or on the drop rule's state:
    it is reused for that q and rebuilt and replaced for any other.  The
    bound rows, the pinned column of each and whether P is zero sit under
    the key None.  Without a memo one lives for the one call.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    K = q.shape[0]
    A_eq = np.asarray(A_eq, dtype=float).reshape(-1, K)
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    G = np.asarray(G, dtype=float).reshape(-1, K)
    h = np.asarray(h, dtype=float).reshape(-1)
    me, mi = A_eq.shape[0], G.shape[0]
    if memo is None:
        memo = {}
    consts = memo.get(None)
    if consts is None:
        # A row with one nonzero (a bound) pins its column while it is active.
        consts = np.count_nonzero(G, axis=1) == 1, np.argmax(G != 0, axis=1), not P.any()
    memo[None] = consts
    single, pin_col, linear = consts
    q_bytes = q.tobytes()
    z = _restore_equalities(A_eq, b_eq, np.asarray(z0, dtype=float).copy())
    active = np.zeros(mi, dtype=bool)
    for i in initial_active:
        active[i] = True
    max_iters = 200 + 80 * (mi + 1)
    grad = q
    local = 1.0 + float(np.abs(q).max(initial=0.0))
    ws = None  # the working set's factors; None after it changes
    bland = False  # after a step with alpha = 0, drops follow Bland's rule
    frozen = set()  # dropped rows that blocked at alpha = 0, until z moves
    dropped = -1  # the row dropped since the last step
    for iters in range(1, max_iters + 1):
        if ws is None:
            key = active.tobytes()
            ws = memo.get(key)
            if ws is None:
                ws = _WorkingSet(A_eq, G, active, single, pin_col)
            memo[key] = ws
        if ws.plan is not None and ws.plan[0] == q_bytes:
            _, d, ray, drops = ws.plan
        else:
            if not linear:
                grad = P @ z + q
                local = 1.0 + float(np.abs(grad).max(initial=0.0))
            d, ray = _direction(P, linear, grad, local, z, ws)
            drops = None
            if d is None:
                drops = _drop_row(grad, local, active, ws, G, single, pin_col, me)
            if linear:
                ws.plan = q_bytes, d, ray, drops
        if d is None:
            rows = [i for i in drops if i not in frozen]
            if not rows:
                break
            dropped = min(rows) if bland else rows[0]
            active[dropped] = False
            ws = None
            continue
        gd = G @ d
        blocking = (~active & (gd > 0.0)).nonzero()[0]
        alpha_max = np.inf
        block_idx = -1
        if blocking.size:
            slack = (h - G @ z).clip(0.0, None)
            ratios = slack[blocking] / gd[blocking]
            alpha_max = max(float(ratios.min()), 0.0)
            ties = (ratios <= alpha_max * (1.0 + 1e-12) + 1e-15).nonzero()[0]
            block_idx = int(blocking[ties[0]])  # Bland tie-break by index
        if ray:
            curv = 0.0 if linear else float(d @ (P @ d))
            slope = float(grad @ d)
            if curv > 1e-14 * local:
                alpha = min(-slope / curv, alpha_max)
            elif np.isfinite(alpha_max):
                alpha = alpha_max
            else:
                raise SolverCapError(f"{name} is unbounded below")
        else:
            alpha = min(1.0, alpha_max)
        if alpha > 0.0:
            z = z + alpha * d
            frozen.clear()
        else:
            bland = True
            if block_idx == dropped:
                # The row just dropped blocks the step it opened: its
                # multiplier's sign is rounding, so it goes back in and
                # stays until z moves.
                frozen.add(dropped)
        dropped = -1
        if block_idx >= 0 and alpha_max <= alpha + 1e-15:
            active[block_idx] = True
            ws = None
        if iters % 16 == 0:
            z = _restore_equalities(A_eq, b_eq, z)
    else:
        raise SolverCapError(f"{name} capped at {iters} iterations")
    # "converged" is always True; bench/tracing.py reads it.
    info = {"converged": True, "iters": iters}
    return _restore_equalities(A_eq, b_eq, z), info
