"""Dense exact solver for convex QPs.

Solves  min 1/2 y'Qy + c'y  s.t.  Ay <= b  with the Goldfarb-Idnani dual
active-set method (Math. Prog. 27, 1983), which returns primal and dual
solutions exact up to round-off; that matters because downstream gradients
consume the duals.

The method needs Q positive definite. Q is Cholesky-factored once per
solve and passes a gate when LAPACK potrf succeeds and the pocon estimate
of its reciprocal condition number is at least CROSSOVER_RCOND; then one
active-set solve is the answer. Singular Q (the full portfolio and control
problems after equality elimination, LPs) fails it. There Q + delta I is
factored instead, delta = CROSSOVER_PROX * max(||Q||_1, 1), and up to
CROSSOVER_PROX_ROUNDS rounds of the proximal point method (Rockafellar
1976) each solve the problem with linear term c - delta y_{k-1}, from
y_0 = 0, warm-started from the last round's duals.

The first active-set solve starts from the rows active in the caller's dual
guess: a caller that solves a sequence of nearby problems (training
re-solves each instance every epoch under a slightly different projection)
passes the last duals. Without a guess it starts from the rows that the
unconstrained minimizer -(Q + delta I)^-1 c violates.

An active-set solve holds its active rows as a thin QR factor in the metric
of Q. The start factors the guessed rows in one QR; after that, a step that
makes a row active appends the Gram-Schmidt column the step has already
computed (reorthogonalized when cancellation calls for it: Daniel, Gragg,
Kaufman & Stewart 1976), and a dropped row is a qr_delete.
SolveResult.adds and SolveResult.drops count those steps, summed over the
proximal rounds: a guess that names the optimum's active set makes neither.

A result is declared Solved only when it satisfies, in infinity norm,

    max(Ay - b, 0)        <= eps_abs + eps_rel * ||b||
    Qy + c + A'lambda     <= eps_abs + eps_rel * ||c||
    |lambda_m (Ay - b)_m| <= 10 * (eps_abs + eps_rel * ||b||)   for all m

with lambda >= 0 held exactly by the method. Infeasibility is reported
only with a certificate that passes its checks at CERT_TOL: PrimalInfeasible
when an active-set solve stops at a violated row that depends on the active
rows with no multiplier to block it (a Farkas vector e >= 0 with A'e = 0,
b'e < 0), DualInfeasible when the normalized step y_k - y_{k-1} of the
proximal rounds is a ray d with Qd = 0, c'd < 0, Ad <= 0. The step cap of
the active-set solve and the round cap end a solve MaxIterReached; a failed
factorization, or an answer that passes none of these tests, ends it
NumericalError. SolveResult.iterations counts proximal rounds, 0 when Q
passes the gate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs, dtrtrs

from .core import QpInstance, objective

CROSSOVER_RCOND = 1e-10     # Q better conditioned than this crosses over
CROSSOVER_DEP_TOL = 1e-10   # relative norm below which a row is dependent
CROSSOVER_VIOL_TOL = 1e-12  # relative violation that counts as round-off
CROSSOVER_MAX_STEPS = 4     # crossover steps allowed per variable and row
CROSSOVER_PROX = 1e-6       # proximal weight for Q below the gate, per ||Q||_1
CROSSOVER_PROX_ROUNDS = 4   # proximal rounds per solve
CERT_TOL = 1e-8             # infeasibility certificate tolerance (scaled)


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

    def __post_init__(self):
        for name, value in vars(self).items():
            # a NaN fails every comparison, so test for the good case
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"solver setting {name!r} must be finite and positive, "
                                 f"got {value!r}")


def settings_from_json(section) -> SolverSettings:
    """SolverSettings from the "solver" mapping of a config file or an
    experiment spec. A section that is not a mapping, an unknown key or a
    value that is not a number raises ValueError naming the key: the
    settings class itself would raise TypeError."""
    if not isinstance(section, dict):
        raise ValueError(f"key 'solver' must be an object, got {section!r}")
    fields = vars(SolverSettings())
    for key, value in section.items():
        if key not in fields:
            raise ValueError(f"unknown solver setting {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"solver setting {key!r} must be a number, got {value!r}")
    return SolverSettings(**section)


@dataclass
class SolveResult:
    y_star: np.ndarray
    lambda_star: np.ndarray
    status: SolveStatus
    objective: float
    iterations: int
    adds: int
    drops: int
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


def _is_farkas(A, b, e):
    """Whether e, scaled to max |e| = 1, certifies Ay <= b infeasible:
    e >= 0, A'e = 0 and b'e < 0, each to CERT_TOL."""
    e_norm = np.abs(e).max(initial=0.0)
    if e_norm <= 1e-12:
        return False
    e = e / e_norm
    return bool(e.min() >= -CERT_TOL
                and b @ e < -CERT_TOL * max(1.0, np.abs(b).max())
                and np.abs(A.T @ e).max() <= CERT_TOL * max(1.0, np.abs(A).max()))


def _is_ray(Q, c, A, d):
    """Whether d, scaled to max |d| = 1, certifies the QP unbounded below
    (its dual infeasible): Qd = 0, c'd < 0 and Ad <= 0, each to CERT_TOL."""
    d_norm = np.abs(d).max(initial=0.0)
    if d_norm <= 1e-12:
        return False
    d = d / d_norm
    return bool(c @ d < -CERT_TOL * max(1.0, np.abs(c).max())
                and np.abs(Q @ d).max() <= CERT_TOL * max(1.0, np.abs(Q).max())
                and (A @ d).max(initial=-math.inf)
                <= CERT_TOL * max(1.0, np.abs(A).max(initial=0.0)))


def _tri(R, v, trans=0):
    """R^-1 v, or R^-T v when trans is 1, for upper-triangular R: LAPACK
    trtrs called as scipy.linalg.solve_triangular calls it (a C-ordered R is
    passed as the lower-triangular R' with trans flipped), so the answer is
    bitwise the same, without that function's per-call wrapper cost. A
    Fortran-ordered R with more rows than columns is read as its upper-left
    square block, at its own leading dimension. A singular R raises
    LinAlgError; empty operands return at once, since trtrs rejects the zero
    leading dimension of a 0 x 0 R."""
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
    from the rows active in the dual guess lam. Returns (y, lambda, adds,
    drops): y and lambda exact up to round-off, adds and drops the rows that
    step 3 made active and dropped. y is None when the solve stops early:
    then lambda is a Farkas vector e (e >= 0, A'e = 0, b'e < 0) when the
    problem is infeasible (a step bound is infinite), or None when the step
    cap is hit or Q fails potrf. `chol` is the upper Cholesky factor R of
    Q = R'R when the caller has it.

    The work runs in the metric of Q. With g = R^-T(-c) and the active rows
    W factored as R^-T A_W' = F T (thin QR), the optimum on W held as
    equalities is y = R^-1 (g - F T u) with T u = F'g - T^-T b_W. A step
    computes the Gram-Schmidt products F'v and v - F F'v of the row it adds,
    so a full step appends that column to F in place (with a second pass
    when cancellation calls for it: Daniel, Gragg, Kaufman & Stewart 1976)
    and a drop is a qr_delete: a step costs O(n^2 + mn). Before the first
    step of step 3, F and T move into Fortran-ordered buffers of min(n, m)
    columns; T is the first k columns of its buffer, whose upper-left k x k
    block trtrs reads at the buffer's leading dimension without a copy."""
    n, m = Q.shape[0], A.shape[0]
    adds = drops = 0
    if chol is None:
        chol, info = dpotrf(Q)
        if info != 0:
            return None, None, adds, drops

    def delete(F, T, j):
        """Thin QR without column j, written back into the buffers (at
        |W| = n, qr_delete sees a full QR)."""
        k = F.shape[1] - 1
        F1, T1 = scipy.linalg.qr_delete(F, T[:k + 1], j, which="col", check_finite=False)
        F[:, :k], T[:k, :k] = F1[:, :k], T1[:k, :k]
        return F[:, :k], T[:, :k]

    g = _tri(chol, -c, trans=1)
    # 1. a linearly independent prefix of the guessed rows (pivoted QR)
    W = np.flatnonzero(lam > 0)
    M = _tri(chol, A[W].T, trans=1)
    F, T, piv = scipy.linalg.qr(M, mode="economic", pivoting=True)
    dep = np.abs(np.diag(T)) <= CROSSOVER_DEP_TOL * np.linalg.norm(M, axis=0)[piv[:T.shape[0]]]
    keep = np.argmax(dep) if dep.any() else dep.size
    cols = piv[:keep]
    W, F, T = W[cols], F[:, :keep], T[:keep, :keep]
    # 2. drop every negative multiplier and refactor the kept columns of M,
    # until the start is dual feasible: any independent set with u >= 0 is a
    # valid start, and one QR per round is cheaper than one update per
    # dropped row
    while True:
        u = _tri(T, F.T @ g - _tri(T, b[W], trans=1))
        if not W.size or u.min() >= 0.0:
            break
        W, cols = W[u >= 0.0], cols[u >= 0.0]
        F, T = scipy.linalg.qr(M[:, cols], mode="economic", overwrite_a=True)
    del M
    y = _tri(chol, g - F @ (T @ u))
    basis = None
    # 3. add the most violated row: partial steps drop a blocking row, a
    # full step makes the added row active
    steps = 0
    b_max = np.abs(b).max(initial=0.0)
    a_max = np.abs(A).sum(axis=1).max(initial=0.0)
    while m:
        Ay = A @ y
        p = int(np.argmax(Ay - b))
        s_p, u_p = Ay[p] - b[p], 0.0
        # 4. stop when no row is violated beyond round-off
        # (the scale bounds the round-off of A @ y, cancellation included)
        if s_p <= CROSSOVER_VIOL_TOL * (1.0 + b_max + a_max * np.abs(y).max()):
            break
        v = _tri(chol, A[p], trans=1)
        v2 = v @ v
        if basis is None:
            k = F.shape[1]
            basis = np.empty((n, min(n, m)), order="F")
            tri = np.zeros((min(n, m), min(n, m)), order="F")
            basis[:, :k], tri[:k, :k] = F, T
            F, T = basis[:, :k], tri[:, :k]
        while True:
            steps += 1
            if steps > CROSSOVER_MAX_STEPS * (n + m):
                return None, None, adds, drops
            coef = F.T @ v
            r = _tri(T, coef)              # rate at which the multipliers fall
            w = v - F @ coef               # R times the primal step direction
            w2 = w @ w
            dependent = np.sqrt(w2) <= CROSSOVER_DEP_TOL * np.sqrt(v2)
            t_full = math.inf if dependent else s_p / w2
            block = np.flatnonzero(r > 0.0)
            ratios = u[block] / r[block]
            t_part = ratios.min(initial=math.inf)
            if math.isinf(t_full) and math.isinf(t_part):
                # a_p = A_W' r with r <= 0, and A_W y = b_W: e_W = -r, e_p = 1
                # gives A'e = 0 and b'e = b_p - r'b_W = -s_p < 0
                e = np.zeros(m)
                e[W], e[p] = -r, 1.0
                return None, e, adds, drops
            t = min(t_full, t_part)
            u, u_p = u - t * r, u_p + t
            if not dependent:
                y = y - t * _tri(chol, w)
                s_p -= t * w2
            if t_full <= t_part:
                # append q = w / ||w|| to F and [coef; ||w||] to T, after a
                # second Gram-Schmidt pass when ||w||^2 < ||v||^2 / 2
                if w2 < 0.5 * v2:
                    coef2 = F.T @ w
                    w -= F @ coef2
                    coef += coef2
                    w2 = w @ w
                k = F.shape[1]
                basis[:, k] = w / np.sqrt(w2)
                tri[:k, k], tri[k, k] = coef, np.sqrt(w2)
                F, T = basis[:, :k + 1], tri[:, :k + 1]
                W, u = np.append(W, p), np.append(u, u_p)
                adds += 1
                break
            drop = block[np.argmin(ratios)]
            W, u = np.delete(W, drop), np.delete(u, drop)
            F, T = delete(F, T, drop)
            drops += 1
    lam_out = np.zeros(m)
    lam_out[W] = np.maximum(u, 0.0)
    return y, lam_out, adds, drops


def solve_qp(inst: QpInstance, settings: SolverSettings | None = None,
             guess=None) -> SolveResult:
    """Solve an inequality-form convex QP, returning primal and dual solutions.

    Q is assumed PSD (validated when the QpInstance was constructed).
    MaxIterReached / infeasibility / failed-factorization (NumericalError)
    outcomes are reported in the status, never raised.

    guess, m duals of a nearby problem, picks the first active set as
    described in the module docstring; one of another shape or with a
    non-finite entry raises ValueError.
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

    def merit(viol, dual, compl_res):
        """KKT merit, at most 1 within tolerance; a non-finite residual counts
        as infinite (Python's max would drop a NaN operand)."""
        ratios = (viol / eps_pri, dual / eps_dua, compl_res / eps_compl)
        return max(ratios) if all(map(math.isfinite, ratios)) else math.inf

    def result(y, lam, status, k, message=""):
        return SolveResult(
            y_star=y.copy(),
            lambda_star=np.maximum(lam, 0.0),
            status=status,
            objective=objective(inst, y),
            iterations=k,
            adds=adds,
            drops=drops,
            message=message,
        )

    y, lam = np.zeros(n), np.zeros(m)
    adds = drops = 0
    q_prox, delta = Q, 0.0
    chol = _crossover_factor(Q)
    if chol is None:
        # Q + delta I passes the gate for any Q that QpInstance accepts,
        # since PSD_RTOL is far below CROSSOVER_PROX; the floor of 1 covers
        # Q = 0
        delta = CROSSOVER_PROX * max(np.abs(Q).sum(axis=0).max(initial=0.0), 1.0)
        q_prox = Q + delta * np.eye(n)
        chol = _crossover_factor(q_prox)
        if chol is None:
            return result(y, lam, SolveStatus.NUMERICAL_ERROR, 0,
                          "Cholesky factorization failed: Q + delta I is not "
                          "numerically positive definite")
    # the first active set is the guess's, or else the rows that the
    # unconstrained minimizer violates; a later round starts from the last
    # round's duals. k counts proximal rounds, 0 when Q passes the gate.
    if guess is None:
        guess = (A @ dpotrs(chol, -c)[0] > b).astype(np.float64)
    for k in range(1, CROSSOVER_PROX_ROUNDS + 1) if delta else [0]:
        y_k, lam_k, k_adds, k_drops = _crossover(q_prox, c - delta * y, A, b, guess, chol=chol)
        adds, drops = adds + k_adds, drops + k_drops
        if y_k is None and lam_k is None:
            return result(y, lam, SolveStatus.MAX_ITER_REACHED, k,
                          message="the active-set step cap was hit")
        if y_k is None:
            if _is_farkas(A, b, lam_k):
                return result(y, lam_k, SolveStatus.PRIMAL_INFEASIBLE, k,
                              message="certificate: direction e>=0 with A'e=0, b'e<0")
            return result(y, lam, SolveStatus.NUMERICAL_ERROR, k,
                          message="a dependent row stopped the active-set solve, "
                                  "but its Farkas vector fails the certificate checks")
        y_last, y, lam = y, y_k, lam_k
        guess = lam
        cur = merit(*kkt_residuals(inst, y, lam))
        if cur <= 1.0:
            return result(y, lam, SolveStatus.SOLVED, k)
        if delta and _is_ray(Q, c, A, y - y_last):
            return result(y, lam, SolveStatus.DUAL_INFEASIBLE, k,
                          message="certificate: ray d with Qd=0, c'd<0, Ad<=0")
    if delta:
        return result(y, lam, SolveStatus.MAX_ITER_REACHED, k,
                      message=f"no proximal round met the tolerances (KKT merit {cur:.3g})")
    return result(y, lam, SolveStatus.NUMERICAL_ERROR, 0,
                  message=f"the active-set solve missed the tolerances (KKT merit {cur:.3g})")
