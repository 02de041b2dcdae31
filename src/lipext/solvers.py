"""Deterministic convex solvers shared by the algorithmic modules.

Two public entry points:

* minimize_quadratic_over_simplex -- Frank-Wolfe with away steps and exact
  line search for 1/2 l'Ql + c'l over one probability simplex, certified by
  the Frank-Wolfe duality gap.  A KKT polish on the final support pushes the
  gap to machine precision.  Its callers are the minimax duals, polytope
  projection, the minimum-enclosing-ball dual and the polyhedral-conjugate
  screen.
* polyak_subgradient -- subgradient descent with Polyak steps for problems
  whose optimal value is known in advance (helly.common_point drives
  max_i d(x, C_i) to target 0).

SolverConfig's tol and max_iters bound these two (and helly's target
halving); seed feeds Welzl's shuffle in helly.jung_ball.

Internal helper used by other modules:

* solve_qp -- dense primal active-set solver for small convex QPs with
  equality constraints and linear inequalities (the monotone QPs, the
  polyhedral-conjugate LP and the closest pair of two polytopes).  It
  terminates on an exact KKT point, which is what lets epigraph
  reformulations of max-affine objectives reach 1e-12 accuracy.  Its
  iteration cap follows from the number of inequalities.  An active bound
  (a row of G with one nonzero) pins its coordinate, so each iteration's SVD
  covers only the equalities and the active general rows over the free
  coordinates.  With P = 0 it solves the conjugate LP and skips the
  reduced-Hessian eigendecomposition: every step is a ray.

All routines are pure and deterministic: identical inputs and config produce
bit-identical reports.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import SimplexWeights
from .errors import SolverCapError

@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-9
    max_iters: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve.

    residual is the problem-specific optimality certificate (Frank-Wolfe gap
    or value above target).  converged means the residual met the
    tolerance declared in the config, in the sense of each solver's contract.
    """

    argmin: object
    value: float
    residual: float
    iters: int
    converged: bool


def _polish_simplex(Q, c, z):
    """Solve the equality-KKT system on the support of z and return the
    polished point, or None if the solve leaves the simplex."""
    K = z.shape[0]
    support = z > 1e-10
    if not np.any(support):
        support[int(np.argmax(z))] = True
    for _ in range(K + 1):
        idx = np.flatnonzero(support)
        s = idx.size
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = Q[np.ix_(idx, idx)]
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        rhs = np.append(-c[idx], 1.0)
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        zs = sol[:s]
        if np.min(zs) >= -1e-12:
            out = np.zeros(K)
            out[idx] = np.clip(zs, 0.0, None)
            tot = out.sum()
            return out / tot if tot > 0 else None
        support[idx[int(np.argmin(zs))]] = False
        if not np.any(support):
            return None
    return None


def minimize_quadratic_over_simplex(quad, c, k, cfg=None, constant=0.0):
    """Minimize 1/2 l'Ql + c'l (+ constant) over the probability simplex.

    Away-step Frank-Wolfe with exact line search from the vertex e_0, then a
    KKT polish on the final support.  quad is a dense PSD matrix.  The
    returned residual is the Frank-Wolfe duality gap g'l - min g at the final
    iterate, a valid upper bound on the suboptimality for any PSD instance.
    """
    cfg = cfg or SolverConfig()
    Q = np.asarray(quad, dtype=float)
    c = np.asarray(c, dtype=float)
    K = int(k)
    if c.shape[0] != K:
        raise ValueError("linear term length does not match k")

    z = np.zeros(K)
    z[0] = 1.0
    Qz = Q @ z

    def value_at(zz, Qzz):
        return 0.5 * float(zz @ Qzz) + float(c @ zz) + constant

    iters = 0
    while iters < cfg.max_iters:
        g = Qz + c
        gap = float(g @ z - np.min(g))
        if gap <= cfg.tol * (1.0 + abs(value_at(z, Qz))):
            break
        d_fw = -z.copy()
        d_fw[int(np.argmin(g))] += 1.0
        gap_fw = -float(g @ d_fw)
        # Away direction: the worst active coordinate.
        active = np.flatnonzero(z > 1e-14)
        j = active[int(np.argmax(g[active]))] if active.size > 1 else None
        if j is not None and float(g[j] - g @ z) > gap_fw:
            d = z.copy()
            d[j] -= 1.0
            zj = z[j]
            gamma_max = zj / (1.0 - zj) if zj < 1.0 else 0.0
        else:
            d = d_fw
            gamma_max = 1.0
        slope = float(g @ d)
        if slope >= 0.0 or gamma_max <= 0.0:
            iters += 1
            continue
        Qd = Q @ d
        curv = float(d @ Qd)
        if curv <= 1e-18:
            gamma = gamma_max
        else:
            gamma = min(gamma_max, -slope / curv)
        z = z + gamma * d
        Qz = Qz + gamma * Qd
        np.clip(z, 0.0, None, out=z)
        iters += 1
        if iters % 256 == 0:  # guard against slow drift of the sum
            z /= z.sum()
            Qz = Q @ z

    polished = _polish_simplex(Q, c, z)
    if polished is not None:
        Qp = Q @ polished
        gp = Qp + c
        gap_p = float(gp @ polished - np.min(gp))
        if value_at(polished, Qp) <= value_at(z, Qz) + 1e-15 or gap_p < gap:
            z, Qz, gap = polished, Qp, gap_p

    value = value_at(z, Qz)
    return SolveReport(
        argmin=SimplexWeights(z),
        value=value,
        residual=gap,
        iters=iters,
        converged=gap <= cfg.tol * (1.0 + abs(value)),
    )


def polyak_subgradient(oracle, target, x0, cfg=None):
    """Drive a convex function with known minimum <= target below target.

    oracle(x) returns (value, subgradient).  Steps are
    (f(x) - target) / ||g||^2 along -g; the iteration stops as soon as the
    best value is within cfg.tol of the target.  Never reports converged=True
    unless f(best) <= target + tol.
    """
    cfg = cfg or SolverConfig()
    x = np.asarray(x0, dtype=float).copy()
    f, g = oracle(x)
    best_x, best_f = x.copy(), f
    iters = 0
    while best_f > target + cfg.tol and iters < cfg.max_iters:
        ng2 = float(g @ g)
        if ng2 < 1e-28:
            break  # numerically stationary; cannot certify the target
        x = x - ((f - target) / ng2) * g
        f, g = oracle(x)
        if f < best_f:
            best_f, best_x = f, x.copy()
        iters += 1
    residual = max(best_f - target, 0.0)
    return SolveReport(
        argmin=best_x,
        value=best_f,
        residual=residual,
        iters=iters,
        converged=residual <= cfg.tol,
    )


def _nullspace(C, K, fixed):
    """Orthonormal K x r basis of {d : C d = 0, d[fixed] = 0}.

    fixed is a boolean mask of pinned columns.  The SVD runs only on the free
    columns of C, and the basis is zero on the pinned ones.
    """
    free = np.flatnonzero(~fixed)
    Cf = C[:, free]
    if Cf.shape[0] == 0:
        basis = np.eye(free.size)
    else:
        _, s, vt = np.linalg.svd(Cf, full_matrices=True)
        rank_tol = max(Cf.shape) * (s[0] if s.size else 0.0) * 1e-13
        rank = int(np.sum(s > rank_tol))
        basis = vt[rank:].T
    Z = np.zeros((K, basis.shape[1]))
    Z[free] = basis
    return Z


def solve_qp(P, q, A_eq, b_eq, G, h, z0, initial_active=()):
    """Dense primal active-set method for a small convex QP.

    Minimizes 1/2 z'Pz + q'z subject to A_eq z = b_eq and G z <= h, starting
    from a feasible z0 with the rows initial_active in the working set.  P
    must be PSD (possibly singular: each equality-constrained subproblem is
    solved in the null space of the working set, splitting the reduced
    gradient into curvature and ray components, so linear descent directions
    are followed to their blocking constraints).

    Rows of G with a single nonzero are bounds: while one is active its
    coordinate is pinned, and the null space is found by an SVD of A_eq and
    the active general rows restricted to the unpinned coordinates.  The
    whole working set enters only the least-squares multipliers at a
    stationary point.  When P is zero the reduced Hessian is zero, so the
    step is the ray -Z Z'grad, or none when that ray is below 1e-11 of the
    gradient scale.  A point is stationary when the step or the reduced
    gradient Z'grad is below 1e-11 of its scale.  The cap is
    200 + 80 (rows of G + 1) iterations.  Returns (z, info) with info
    carrying converged / iters.
    """
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    K = q.shape[0]
    A_eq = np.asarray(A_eq, dtype=float).reshape(-1, K)
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    G = np.asarray(G, dtype=float).reshape(-1, K)
    h = np.asarray(h, dtype=float).reshape(-1)
    me, mi = A_eq.shape[0], G.shape[0]
    z = np.asarray(z0, dtype=float).copy()
    if me:
        corr, *_ = np.linalg.lstsq(A_eq, b_eq - A_eq @ z, rcond=None)
        z += corr
    active = np.zeros(mi, dtype=bool)
    for i in initial_active:
        active[i] = True
    # A row with one nonzero (a bound) pins its column while it is active.
    single = np.count_nonzero(G, axis=1) == 1
    pin_col = np.argmax(G != 0, axis=1)
    linear = not np.any(P)
    max_iters = 200 + 80 * (mi + 1)
    converged = False
    iters = 0
    while iters < max_iters:
        iters += 1
        grad = P @ z + q
        local = 1.0 + float(np.max(np.abs(grad), initial=0.0))
        fixed = np.zeros(K, dtype=bool)
        fixed[pin_col[active & single]] = True
        Z = _nullspace(np.vstack([A_eq, G[active & ~single]]), K, fixed)
        gr = Z.T @ grad
        ray = False
        if float(np.max(np.abs(gr), initial=0.0)) <= 1e-11 * local:
            # Stationary on the working set.  Testing Z'grad, not only the
            # step, matters: a Newton step along a tiny positive curvature
            # magnifies rounding in Z'grad and would cycle to the cap.
            d = np.zeros(K)
        elif linear:
            # Zero reduced Hessian: the step is the ray -Z Z'grad.
            d = Z @ -gr
            ray = True
        else:
            # Reduced Hessian by eigendecomposition: small positive curvature
            # is genuine (take the long Newton step along it); only the true
            # null space turns the subproblem linear (follow the ray).
            H = Z.T @ P @ Z
            w, V = np.linalg.eigh(0.5 * (H + H.T))
            w_tol = max(1e-13, float(w.max(initial=0.0)) * 1e-12)
            pos = w > w_tol
            g_eig = V.T @ gr
            g_null = V[:, ~pos] @ g_eig[~pos]
            if float(np.max(np.abs(g_null), initial=0.0)) > 1e-11 * local:
                d = Z @ (-g_null)
                ray = True
            else:
                dr = -(V[:, pos] @ (g_eig[pos] / w[pos]))
                d = Z @ dr
        if not ray and float(np.max(np.abs(d))) <= 1e-11 * (
            1.0 + float(np.max(np.abs(z), initial=0.0))
        ):
            act_idx = np.flatnonzero(active)
            C = np.vstack([A_eq, G[act_idx]])
            mult = None
            if C.shape[0]:
                mu, *_ = np.linalg.lstsq(C.T, -grad, rcond=None)
                mult = mu[me:]
            if mult is None or mult.size == 0 or np.min(mult) >= -1e-11 * local:
                converged = True
                break
            # Bland's rule: drop the lowest-index violating constraint.
            neg = np.flatnonzero(mult < -1e-11 * local)
            drop = act_idx[int(neg[0])]
            active[drop] = False
            continue
        gd = G @ d
        slack = np.clip(h - G @ z, 0.0, None)
        gd_tol = 1e-13 * (1.0 + float(np.max(np.abs(gd), initial=0.0)))
        blocking = np.flatnonzero(~active & (gd > gd_tol))
        alpha_max = np.inf
        block_idx = -1
        if blocking.size:
            ratios = slack[blocking] / gd[blocking]
            alpha_max = max(float(np.min(ratios)), 0.0)
            ties = np.flatnonzero(ratios <= alpha_max * (1.0 + 1e-12) + 1e-15)
            block_idx = int(blocking[ties[0]])  # Bland tie-break by index
        if ray:
            curv = float(d @ (P @ d))
            slope = float(grad @ d)
            if curv > 1e-14 * local:
                alpha = min(-slope / curv, alpha_max)
            elif np.isfinite(alpha_max):
                alpha = alpha_max
            elif slope < 0:
                raise SolverCapError("QP is unbounded below")
            else:
                alpha = 0.0
        else:
            alpha = min(1.0, alpha_max)
        if not np.isfinite(alpha):
            alpha = 1.0
        if alpha > 0.0:
            z = z + alpha * d
        if block_idx >= 0 and alpha_max <= alpha + 1e-15:
            active[block_idx] = True
        if me and iters % 16 == 0:
            corr, *_ = np.linalg.lstsq(A_eq, b_eq - A_eq @ z, rcond=None)
            z += corr
    if me:
        corr, *_ = np.linalg.lstsq(A_eq, b_eq - A_eq @ z, rcond=None)
        z += corr
    return z, {"converged": converged, "iters": iters}
