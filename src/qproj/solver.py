"""Dense operator-splitting (ADMM) solver for convex QPs.

Solves  min 1/2 y'Qy + c'y  s.t.  Ay <= b  by splitting the constraint as
Ay + s = b, s >= 0. Each ADMM step solves the regularized KKT system in
its reduced (normal-equation) form, whose n x n matrix Q + sigma I + rho A'A
is Cholesky-factored once per value of rho (OSQP, Stellato et al. 2020,
section 5), so a step costs O(n^2 + mn) however many rows A has. Returns
both primal and dual solutions; an optional finish makes them exact up to
round-off, which matters because downstream gradients consume the duals.

The finish is a Goldfarb-Idnani dual active-set crossover warm-started from
the rows the duals guess active. It needs Q to pass a gate checked once per
solve: LAPACK potrf succeeds and the pocon estimate of its reciprocal
condition number is at least CROSSOVER_RCOND. Singular Q (the full portfolio
and control problems after equality elimination, LPs) fails it; there the
crossover runs on Q + delta I with linear term c - delta y from the current
iterate y, delta = CROSSOVER_PROX * max(||Q||_1, 1), for up to
CROSSOVER_PROX_ROUNDS rounds of the proximal point method (Rockafellar 1976).
When Q passes the gate the finish is tried first, before ADMM is even set
up: from the active set of the caller's guess, or from the empty active set
(the unconstrained minimizer, the natural start of the dual method) when
there is none. A caller that solves a sequence of nearby problems (training
re-solves each instance every epoch under a slightly different projection)
passes the last duals as that guess. A start that meets the tolerances ends
the solve at iteration 0. ADMM runs below the gate, with polish off, or
after that start missed; the finish is then tried at every termination
check (every CHECK_INTERVAL iterations) and once on the best iterate when
max_iter runs out. A finished point is kept only when its KKT merit meets
the tolerances, so a status never comes from the finish alone, and an
active set whose finish missed is not tried again in the same solve.

A non-finite iterate ends the solve with status NumericalError.

The returned result is declared Solved only when the iterate satisfies,
in infinity norm,

    max(Ay - b, 0)        <= eps_abs + eps_rel * ||b||
    Qy + c + A'lambda     <= eps_abs + eps_rel * ||c||
    |lambda_m (Ay - b)_m| <= 10 * (eps_abs + eps_rel * ||b||)   for all m

with lambda >= 0 held exactly by the iteration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs, dtrtrs

from .core import QpInstance, objective

ALPHA = 1.6                 # over-relaxation
CHECK_INTERVAL = 25         # termination test cadence
RHO_INTERVAL = 100          # adaptive rho cadence
RHO_MIN, RHO_MAX = 1e-6, 1e6
RHO_REFACTOR_RATIO = 5.0
RHO_0 = 0.1                 # first ADMM step size
SIGMA = 1e-6                # step regularization
CROSSOVER_RCOND = 1e-10     # Q better conditioned than this crosses over
CROSSOVER_DEP_TOL = 1e-10   # relative norm below which a row is dependent
CROSSOVER_VIOL_TOL = 1e-12  # relative violation that counts as round-off
CROSSOVER_MAX_STEPS = 4     # crossover steps allowed per variable and row
CROSSOVER_PROX = 1e-6       # proximal weight for Q below the gate, per ||Q||_1
CROSSOVER_PROX_ROUNDS = 4   # proximal rounds per finish
CERT_TOL = 1e-8             # infeasibility certificate tolerance (scaled)
DIVERGE_NORM = 1e14


class SolveStatus(enum.Enum):
    SOLVED = "Solved"
    MAX_ITER_REACHED = "MaxIterReached"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    NUMERICAL_ERROR = "NumericalError"


@dataclass
class SolverSettings:
    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    max_iter: int = 20000
    polish: bool = True

    def __post_init__(self):
        for name in ("eps_abs", "eps_rel"):
            value = getattr(self, name)
            # a NaN fails every comparison, so test for the good case
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"solver setting {name!r} must be finite and positive, "
                                 f"got {value!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def settings_from_json(section) -> SolverSettings:
    """SolverSettings from the "solver" mapping of a config file or an
    experiment spec. A section that is not a mapping, an unknown key or a
    value of the wrong type raises ValueError naming the key: the settings
    class itself would raise TypeError."""
    if not isinstance(section, dict):
        raise ValueError(f"key 'solver' must be an object, got {section!r}")
    defaults = vars(SolverSettings())
    for key, value in section.items():
        if key not in defaults:
            raise ValueError(f"unknown solver setting {key!r}")
        kind = type(defaults[key])
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
            raise ValueError(f"solver setting {key!r} must be a {kind.__name__}, got {value!r}")
    return SolverSettings(**section)


@dataclass
class SolveResult:
    y_star: np.ndarray
    lambda_star: np.ndarray
    status: SolveStatus
    objective: float
    iterations: int
    message: str = ""


def kkt_residuals(inst: QpInstance, y, lam):
    """(violation, dual residual, complementarity residual), infinity norms."""
    y = np.asarray(y, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if inst.n_cons:
        slack = inst.A @ y - inst.b
        viol = max(0.0, slack.max())
        compl_res = np.abs(lam * slack).max()
    else:
        viol = 0.0
        compl_res = 0.0
    dual = inst.Q @ y + inst.c
    if inst.n_cons:
        dual = dual + inst.A.T @ lam
    dual_res = np.abs(dual).max(initial=0.0)
    return float(viol), float(dual_res), float(compl_res)


def _factor(Q, A, sigma, rho):
    """Upper Cholesky factor of Q + sigma I + rho A'A, the matrix of the
    step's normal equations, or None when it is not numerically positive
    definite (LAPACK potrf info > 0)."""
    chol, info = dpotrf(Q + sigma * np.eye(Q.shape[0]) + rho * (A.T @ A))
    return chol if info == 0 else None


def _step(chol, A, c, sigma, rho, xb, zb, yb):
    """The ADMM linear step. Eliminating nu = rho (A x - zb) + yb from the
    KKT system [Q + sigma I, A'; A, -I/rho] [x; nu] = [sigma xb - c;
    zb - yb/rho] leaves (Q + sigma I + rho A'A) x = sigma xb - c +
    A'(rho zb - yb), and z = zb + (nu - yb)/rho = A x. Returns (x, z)."""
    x, _ = dpotrs(chol, sigma * xb - c + A.T @ (rho * zb - yb))
    return x, A @ x


def _ruiz_equilibrate(Q, c, A, b, iters=10, reg=1e-8):
    """Symmetric diagonal scaling of the KKT data plus cost normalization.
    Returns scaled copies and the scaling vectors (d, e, gamma); iterates run
    in the scaled space while residual checks use the original data.

    The copies are scaled in place, |Q| and |A| are refilled into one buffer
    each, and the column maxima of |Q| taken for the cost normalization,
    times its factor g, are the next iteration's: rounding is monotone, so
    max |g x| = g max |x| exactly."""
    n, m = Q.shape[0], A.shape[0]
    d = np.ones(n)
    e = np.ones(m)
    gamma = 1.0
    Qs, cs, As, bs = Q.copy(), c.copy(), A.copy(), b.copy()
    abs_q, abs_a = np.abs(Qs), np.empty_like(As)
    col_q = abs_q.max(axis=0, initial=0.0)
    for _ in range(iters):
        if m:
            np.abs(As, out=abs_a)
            col_x = np.maximum(col_q, abs_a.max(axis=0, initial=0.0))
            col_z = abs_a.max(axis=1, initial=0.0)
            dz = 1.0 / np.sqrt(np.where(col_z > reg, col_z, 1.0))
        else:
            col_x = col_q
        dx = 1.0 / np.sqrt(np.where(col_x > reg, col_x, 1.0))
        Qs *= dx[:, None]
        Qs *= dx
        cs *= dx
        if m:
            As *= dz[:, None]
            As *= dx
            bs *= dz
            e *= dz
        d *= dx
        # cost normalization
        col_q = np.abs(Qs, out=abs_q).max(axis=0, initial=0.0)
        q_scale = max(float(col_q.mean()) if n else 0.0,
                      float(np.abs(cs).max(initial=0.0)))
        g = 1.0 / q_scale if q_scale > reg else 1.0
        Qs *= g
        cs *= g
        col_q *= g
        gamma *= g
    return Qs, cs, As, bs, d, e, gamma


def _tri(R, v, trans=0):
    """R^-1 v, or R^-T v when trans is 1, for upper-triangular R: LAPACK
    trtrs called as scipy.linalg.solve_triangular calls it (a C-ordered R is
    passed as the lower-triangular R' with trans flipped), so the answer is
    bitwise the same, without that function's per-call wrapper cost. A
    singular R raises LinAlgError; empty operands return at once, since
    trtrs rejects the zero leading dimension of a 0 x 0 R."""
    if not v.size:
        return np.empty_like(v, dtype=np.float64)
    if R.flags.f_contiguous:
        x, info = dtrtrs(R, v, lower=0, trans=trans)
    else:
        x, info = dtrtrs(R.T, v, lower=1, trans=1 - trans)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return x


def _crossover_factor(Q):
    """Upper Cholesky factor of Q when Q passes the crossover gate: LAPACK
    potrf succeeds and the pocon estimate of the reciprocal 1-norm condition
    number is at least CROSSOVER_RCOND. Else None."""
    chol, info = dpotrf(Q)
    if info != 0:
        return None
    rcond, info = dpocon(chol, np.abs(Q).sum(axis=0).max(initial=0.0))
    return chol if info == 0 and rcond >= CROSSOVER_RCOND else None


def _crossover(Q, c, A, b, lam, chol=None):
    """Goldfarb-Idnani dual active-set solve (Math. Prog. 27, 1983) of
    min 1/2 y'Qy + c'y s.t. Ay <= b for Q positive definite, warm-started
    from the rows active in the dual guess lam. Returns (y, lambda), exact
    up to round-off, or None when the problem is infeasible (a step bound is
    infinite) or the step cap is hit. `chol` is the upper Cholesky factor R
    of Q = R'R when the caller has it.

    The work runs in the metric of Q. With g = R^-T(-c) and the active rows
    W factored as R^-T A_W' = F T (thin QR, updated one column at a time, so
    a step costs O(n^2 + mn)), the optimum on W held as equalities is
    y = R^-1 (g - F T u) with T u = F'g - T^-T b_W."""
    n, m = Q.shape[0], A.shape[0]
    if chol is None:
        chol, info = dpotrf(Q)
        if info != 0:
            return None

    def insert(F, T, v):
        """Thin QR with v appended (qr_insert mishandles an empty factor)."""
        if not T.size:
            return np.linalg.qr(v[:, None])
        return scipy.linalg.qr_insert(F, T, v, T.shape[1], which="col", check_finite=False)

    def delete(F, T, j):
        """Thin QR without column j (at |W| = n, qr_delete sees a full QR)."""
        F, T = scipy.linalg.qr_delete(F, T, j, which="col", check_finite=False)
        return F[:, :T.shape[1]], T[:T.shape[1]]

    g = _tri(chol, -c, trans=1)
    # 1. a linearly independent prefix of the guessed rows (pivoted QR)
    W = np.flatnonzero(lam > 0)
    M = _tri(chol, A[W].T, trans=1)
    F, T, piv = scipy.linalg.qr(M, mode="economic", pivoting=True)
    dep = np.abs(np.diag(T)) <= CROSSOVER_DEP_TOL * np.linalg.norm(M, axis=0)[piv[:T.shape[0]]]
    del M
    keep = np.argmax(dep) if dep.any() else dep.size
    W, F, T = W[piv[:keep]], F[:, :keep], T[:keep, :keep]
    # 2. drop every negative multiplier and refactor, until the start is dual
    # feasible: any independent set with u >= 0 is a valid start, and one QR
    # per round is cheaper than one update per dropped row
    while True:
        u = _tri(T, F.T @ g - _tri(T, b[W], trans=1))
        if not W.size or u.min() >= 0.0:
            break
        W = W[u >= 0.0]
        F, T = scipy.linalg.qr(_tri(chol, A[W].T, trans=1), mode="economic", overwrite_a=True)
    y = _tri(chol, g - F @ (T @ u))
    # 3. add the most violated row: partial steps drop a blocking row, a
    # full step makes the added row active
    steps = 0
    while m:
        Ay = A @ y
        p = int(np.argmax(Ay - b))
        s_p, u_p = Ay[p] - b[p], 0.0
        # 4. stop when no row is violated beyond round-off
        if s_p <= CROSSOVER_VIOL_TOL * (1.0 + np.abs(b).max() + np.abs(Ay).max()):
            break
        v = _tri(chol, A[p], trans=1)
        while True:
            steps += 1
            if steps > CROSSOVER_MAX_STEPS * (n + m):
                return None
            coef = F.T @ v
            r = _tri(T, coef)              # rate at which the multipliers fall
            w = v - F @ coef               # R times the primal step direction
            w2 = w @ w
            dependent = np.sqrt(w2) <= CROSSOVER_DEP_TOL * np.linalg.norm(v)
            t_full = math.inf if dependent else s_p / w2
            block = np.flatnonzero(r > 0.0)
            ratios = u[block] / r[block]
            t_part = ratios.min(initial=math.inf)
            if math.isinf(t_full) and math.isinf(t_part):
                return None
            t = min(t_full, t_part)
            u, u_p = u - t * r, u_p + t
            if not dependent:
                y = y - t * _tri(chol, w)
                s_p -= t * w2
            if t_full <= t_part:
                W, u = np.append(W, p), np.append(u, u_p)
                F, T = insert(F, T, v)
                break
            drop = block[np.argmin(ratios)]
            W, u = np.delete(W, drop), np.delete(u, drop)
            F, T = delete(F, T, drop)
    lam_out = np.zeros(m)
    lam_out[W] = np.maximum(u, 0.0)
    return y, lam_out


def solve_qp(inst: QpInstance, settings: SolverSettings | None = None,
             guess=None) -> SolveResult:
    """Solve an inequality-form convex QP, returning primal and dual solutions.

    Q is assumed PSD (validated when the QpInstance was constructed).
    MaxIterReached / infeasibility / failed-factorization (NumericalError)
    outcomes are reported in the status, never raised.

    guess, m duals of a nearby problem, is tried as described in the
    module docstring; one of another shape or with a non-finite entry
    raises ValueError.
    """
    if settings is None:
        settings = SolverSettings()
    Q, c, A, b = inst.Q, inst.c, inst.A, inst.b
    n, m = inst.n_vars, inst.n_cons
    if guess is not None:
        guess = np.asarray(guess, dtype=np.float64)
        if guess.shape != (m,) or not np.isfinite(guess).all():
            raise ValueError(f"guess must be a finite vector of {m} duals")

    eps_pri = settings.eps_abs + settings.eps_rel * np.abs(b).max(initial=0.0)
    eps_dua = settings.eps_abs + settings.eps_rel * np.abs(c).max(initial=0.0)
    eps_compl = 10.0 * eps_pri

    best = None   # (merit, x, y, iteration)
    missed = set()   # guessed active sets whose finish missed
    q_prox, delta, q_chol = Q, 0.0, None
    if settings.polish:
        q_chol = _crossover_factor(Q)
        if q_chol is None:
            # Q + delta I passes the gate for any Q that QpInstance accepts,
            # since PSD_RTOL is far below CROSSOVER_PROX; the floor of 1
            # covers Q = 0
            delta = CROSSOVER_PROX * max(np.abs(Q).sum(axis=0).max(initial=0.0), 1.0)
            q_prox = Q + delta * np.eye(n)
            q_chol = _crossover_factor(q_prox)

    def merit(viol, dual, compl_res):
        """KKT merit, at most 1 within tolerance; a non-finite residual counts
        as infinite (Python's max would drop a NaN operand)."""
        ratios = (viol / eps_pri, dual / eps_dua, compl_res / eps_compl)
        return max(ratios) if all(map(math.isfinite, ratios)) else math.inf

    def finish(xc, yc, status, k, message=""):
        return SolveResult(
            y_star=xc.copy(),
            lambda_star=np.maximum(yc, 0.0),
            status=status,
            objective=objective(inst, xc),
            iterations=k,
            message=message,
        )

    def fail(k, message):
        """NumericalError with the best finite iterate so far (or zeros)."""
        _, x, y, _ = best or (None, np.zeros(n), np.zeros(m), 0)
        return finish(x, y, SolveStatus.NUMERICAL_ERROR, k, message=message)

    def crossover(x, lam, target):
        """The crossover's (y, lambda) from the iterate (x, lam) if its merit
        is at most target, else None: one call when Q passes the gate, else
        up to CROSSOVER_PROX_ROUNDS proximal rounds, each from the last. An
        active set of lam that missed once is not tried again."""
        key = np.flatnonzero(lam > 0).tobytes()
        if q_chol is None or key in missed:
            return None
        pol = (x, lam)
        for _ in range(CROSSOVER_PROX_ROUNDS if delta else 1):
            c_prox = c - delta * pol[0] if delta else c
            pol = _crossover(q_prox, c_prox, A, b, pol[1], chol=q_chol)
            if pol is None:
                break
            if merit(*kkt_residuals(inst, *pol)) <= target:
                return pol
        missed.add(key)
        return None

    # cold start: the finish from the guess, or from the empty active set (the
    # unconstrained minimizer); below the gate the proximal rounds start from
    # a primal iterate, which neither has, so there ADMM runs first
    if q_chol is not None and not delta:
        pol = crossover(None, np.zeros(m) if guess is None else guess, 1.0)
        if pol is not None:
            return finish(pol[0], pol[1], SolveStatus.SOLVED, 0)

    Qs, cs, As, bs, d_sc, e_sc, gamma = _ruiz_equilibrate(Q, c, A, b)
    rho = RHO_0
    chol = _factor(Qs, As, SIGMA, rho)

    xb = np.zeros(n)       # scaled-space iterates
    zb = np.zeros(m)
    yb = np.zeros(m)

    x_last_check = np.zeros(n)
    y_last_check = np.zeros(m)

    a_scale = max(1.0, np.abs(A).max(initial=0.0))
    b_scale = max(1.0, np.abs(b).max(initial=0.0))
    c_scale = max(1.0, np.abs(c).max(initial=0.0))
    q_scale = max(1.0, np.abs(Q).max(initial=0.0))

    for k in range(1, settings.max_iter + 1):
        if chol is None:
            return fail(k - 1, f"Cholesky factorization failed at rho={rho:.3e}: "
                               "Q + sigma I + rho A'A is not numerically positive definite")
        x_t, z_t = _step(chol, As, cs, SIGMA, rho, xb, zb, yb)
        xb = ALPHA * x_t + (1.0 - ALPHA) * xb
        if m:
            v = ALPHA * z_t + (1.0 - ALPHA) * zb + yb / rho
            zb = np.minimum(v, bs)
            yb = rho * (v - zb)    # >= 0 exactly for one-sided constraints

        if k % CHECK_INTERVAL != 0 and k != settings.max_iter:
            continue

        x = d_sc * xb
        y = (e_sc * yb) / gamma if m else yb
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            return fail(k, f"non-finite iterate at iteration {k}")
        Ax = A @ x if m else np.zeros(0)
        slack = Ax - b if m else np.zeros(0)
        viol = max(0.0, slack.max()) if m else 0.0
        dual_vec = Q @ x + c + (A.T @ y if m else 0.0)
        dual = np.abs(dual_vec).max(initial=0.0)
        compl_res = np.abs(y * slack).max() if m else 0.0
        cur = merit(viol, dual, compl_res)
        if best is None or cur < best[0]:
            best = (cur, x.copy(), y.copy(), k)

        # the finish at every check; an iterate within tolerance keeps its
        # point unless the finish does at least as well
        pol = crossover(x, y, min(cur, 1.0))
        if pol is not None:
            return finish(pol[0], pol[1], SolveStatus.SOLVED, k)
        if cur <= 1.0:
            return finish(x, y, SolveStatus.SOLVED, k)

        # infeasibility certificates on check-to-check directions
        if m:
            dy = y - y_last_check
            dy_norm = np.abs(dy).max()
            if dy_norm > 1e-12:
                e_dir = dy / dy_norm
                if (
                    e_dir.min() >= -CERT_TOL
                    and b @ e_dir < -CERT_TOL * b_scale
                    and np.abs(A.T @ e_dir).max() <= CERT_TOL * a_scale
                ):
                    return finish(
                        x, y, SolveStatus.PRIMAL_INFEASIBLE, k,
                        message="certificate: direction e>=0 with A'e=0, b'e<0",
                    )
        dx = x - x_last_check
        dx_norm = np.abs(dx).max(initial=0.0)
        if dx_norm > 1e-12:
            d_dir = dx / dx_norm
            if (
                c @ d_dir < -CERT_TOL * c_scale
                and np.abs(Q @ d_dir).max() <= CERT_TOL * q_scale
                and (not m or (A @ d_dir).max() <= CERT_TOL * a_scale)
            ):
                return finish(
                    x, y, SolveStatus.DUAL_INFEASIBLE, k,
                    message="certificate: ray d with Qd=0, c'd<0, Ad<=0",
                )
        if np.abs(x).max(initial=0.0) > DIVERGE_NORM:
            return finish(
                x, y, SolveStatus.DUAL_INFEASIBLE, k,
                message="iterate norm diverged; problem appears unbounded below",
            )
        x_last_check, y_last_check = x, y

        # adaptive rho on the classical scaled residual ratio
        if m and k % RHO_INTERVAL == 0 and k < settings.max_iter:
            z_unscaled = zb / e_sc
            rp = np.abs(Ax - z_unscaled).max(initial=0.0)
            rp_scale = max(np.abs(Ax).max(initial=0.0),
                           np.abs(z_unscaled).max(initial=0.0), 1e-10)
            rd_scale = max(
                np.abs(Q @ x).max(initial=0.0),
                np.abs(A.T @ y).max(initial=0.0),
                np.abs(c).max(initial=0.0),
                1e-10,
            )
            ratio = (rp / rp_scale) / max(dual / rd_scale, 1e-16)
            rho_new = float(np.clip(rho * np.sqrt(ratio), RHO_MIN, RHO_MAX))
            if rho_new / rho > RHO_REFACTOR_RATIO or rho / rho_new > RHO_REFACTOR_RATIO:
                rho = rho_new
                chol = _factor(Qs, As, SIGMA, rho)

    _, xbest, ybest, kb = best
    pol = crossover(xbest, ybest, 1.0)
    if pol is not None:
        return finish(pol[0], pol[1], SolveStatus.SOLVED, settings.max_iter)
    return finish(
        xbest, ybest, SolveStatus.MAX_ITER_REACHED, settings.max_iter,
        message=f"best iterate from iteration {kb}",
    )
