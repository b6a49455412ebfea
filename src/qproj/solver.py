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
y_0 = 0. The first active-set solve starts from the rows that the
unconstrained minimizer -(Q + delta I)^-1 c violates, and each later round
from the last round's duals: a result depends only on the instance and
the settings.

An active-set solve holds its active rows as a thin QR factor in the metric
of Q, and grows it in block rounds, as in primal-dual active-set methods
(Hintermuller, Ito & Kunisch 2002) but keeping the start dual feasible.
Round 0 appends the starting rows to the empty factor; each later round
makes every row the current point violates active at once, when there are
at least 2 and they fit in the free dimensions. A round then drops every
negative multiplier at once, refactoring only the factor's columns after
the first dropped one, through the triangular factor. The rounds go on
while each drops fewer than half of the rows it appends, for every Q, in
every proximal round. After that, a step that makes a row active appends
the Gram-Schmidt column the step has already computed (reorthogonalized
when cancellation calls for it: Daniel, Gragg, Kaufman & Stewart 1976), and
a dropped row is a qr_delete. SolveResult.adds and SolveResult.drops count
the rows that the block rounds after round 0 and the steps make active and
drop, summed over the proximal rounds: a start at the optimum's active set
makes neither. The factor, the active rows and their multipliers live in
buffers allocated once per solve, and each QR is a direct LAPACK call.

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
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgeqp3, dgeqrf, dorgqr, dpocon, dpotrf, dpotrs, dtrtrs

from .core import NUMBER, QpInstance, objective, read_fields

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


SOLVER = {f.name: NUMBER.otherwise(f.default) for f in fields(SolverSettings)}


def settings_from_json(section) -> SolverSettings:
    """SolverSettings from the "solver" object of a config file or an
    experiment spec, read by SOLVER: an unknown key is an error too."""
    return SolverSettings(**read_fields(section, SOLVER, "solver section", closed=True))


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


def _qr(a, lwork, pivoting):
    """scipy.linalg.qr(a, mode="economic", pivoting=pivoting) bitwise, as
    (Q, R, piv), piv None without pivoting: LAPACK geqp3 or geqrf, then
    orgqr, without that function's per-call wrapper cost. Q overwrites the
    leading columns of a Fortran-ordered a. lwork is _qr_lwork's."""
    k = min(a.shape)
    if not a.size:
        piv = np.arange(a.shape[1], dtype=np.int32) if pivoting else None
        return a[:, :k], np.empty((k, a.shape[1])), piv
    if pivoting:
        a, piv, tau, _, _ = dgeqp3(a, lwork, overwrite_a=1)
        piv -= 1
    else:
        (a, tau, _, _), piv = dgeqrf(a, lwork, overwrite_a=1), None
    R = np.triu(a[:k])              # before orgqr overwrites the factored a
    return dorgqr(a[:, :k], tau, lwork, overwrite_a=1)[0], R, piv


def _qr_lwork(a):
    """The largest optimal workspace of _qr's routines on a, enough for any
    QR of fewer rows or columns; a smaller one changes LAPACK's blocking."""
    q = a[:, :min(a.shape)]
    return int(max(dgeqp3(a, -1, 1)[3][0], dgeqrf(a, -1, 1)[2][0],
                   dorgqr(q, np.empty(q.shape[1]), -1, 1)[1][0]))


def _crossover_factor(Q):
    """Upper Cholesky factor of Q when Q passes the crossover gate: LAPACK
    potrf succeeds and the pocon estimate of the reciprocal 1-norm condition
    number is at least CROSSOVER_RCOND. Else None."""
    chol, info = dpotrf(Q)
    if info != 0:
        return None
    rcond, info = dpocon(chol, np.abs(Q).sum(axis=0).max(initial=0.0))
    return chol if info == 0 and rcond >= CROSSOVER_RCOND else None


def _crossover(Q, c, A, b, lam, chol):
    """Goldfarb-Idnani dual active-set solve (Math. Prog. 27, 1983) of
    min 1/2 y'Qy + c'y s.t. Ay <= b for Q = R'R positive definite, with chol
    its upper Cholesky factor R, started from the rows where the dual
    vector lam is positive. Returns (y, lambda, adds, drops): y and lambda
    exact up to round-off, adds and drops the rows that the block rounds
    after round 0 and step 3 made active and dropped. y is None when the
    solve stops early: then lambda is a Farkas vector e (e >= 0, A'e = 0,
    b'e < 0) when the problem is infeasible (a step bound is infinite), or
    None when the step cap is hit.

    The work runs in the metric of Q. With g = R^-T(-c) and the active rows
    W factored as R^-T A_W' = F T (thin QR), the optimum on W held as
    equalities is y = R^-1 (g - F T u) with T u = F'g - T^-T b_W. Any
    linearly independent W with u >= 0 is a valid start, so the start is
    built in block rounds. A block round appends rows to F and T (R^-T A'
    of the rows, orthogonalized against F by two block Gram-Schmidt passes,
    then a pivoted QR of the remainder whose independent prefix is kept)
    and drops every negative multiplier until none is left. A bulk drop
    keeps the columns before the first dropped one, j0, and refactors the
    kept columns after it through T: T[j0:k, kept] = q S gives F[:, j0:]
    the columns F[:, j0:k] q and T their S, the many-column form of
    qr_delete. Round 0 appends the starting rows to the empty factor. Each
    later round takes every row that y violates beyond step 4's tolerance,
    when there are at least 2 and they fit in the min(n, m) - |W| free
    dimensions; the rounds go on while each round, round 0 included, drops
    fewer than half of the rows it appends, and step 3 finishes the solve
    one row at a time. A step computes the Gram-Schmidt products F'v and
    v - F F'v of the row it adds, so a full step appends that column to F
    in place (with a second pass when cancellation calls for it: Daniel,
    Gragg, Kaufman & Stewart 1976) and a drop is a qr_delete: a step costs
    O(n^2 + mn). F and T are the first k columns of Fortran-ordered buffers
    allocated once, and trtrs reads T's upper-left k x k block at the
    buffer's leading dimension without a copy; W and u are the first k
    entries of two more buffers (a full step writes entry k, a drop shifts
    the tail), and every QR is one of _qr's direct LAPACK calls. Block
    rounds after round 0 count against the step cap like steps."""
    n, m = Q.shape[0], A.shape[0]
    adds = drops = 0
    start = (lam > 0).nonzero()[0]
    # round 0 writes every starting row into the basis buffer before its QR
    basis = np.empty((n, max(min(n, m), start.size)), order="F")
    tri = np.zeros((min(n, m), min(n, m)), order="F")
    W_buf, u_buf = np.empty(min(n, m), dtype=np.intp), np.empty(min(n, m))
    lwork = _qr_lwork(basis)          # every QR of the solve fits in the basis buffer

    def delete(F, T, j):
        """Thin QR without column j, written back into the buffers (at
        |W| = n, qr_delete sees a full QR)."""
        k = F.shape[1] - 1
        F1, T1 = scipy.linalg.qr_delete(F, T[:k + 1], j, which="col", check_finite=False)
        F[:, :k], T[:k, :k] = F1[:, :k], T1[:k, :k]
        return F[:, :k], T[:, :k]

    def bulk_delete(F, T, kept):
        """F, T and W without the columns where the mask kept is false, in the
        buffers: the kept columns after the first dropped one are refactored."""
        j0, k = int(kept.argmin()), F.shape[1]
        tail = j0 + kept[j0:].nonzero()[0]
        k1 = j0 + tail.size
        q, S, _ = _qr(T[j0:k, tail], lwork, False)
        tri[:j0, j0:k1], tri[j0:k1, j0:k1] = T[:j0, tail], S
        basis[:, j0:k1] = F[:, j0:k] @ q
        W_buf[j0:k1] = W_buf[tail]
        return basis[:, :k1], tri[:, :k1]

    def append(F, T, rows):
        """F and T with the rows that are independent of F and of each other
        appended in the buffers, and their number: R^-T A_rows' is formed in
        the free columns of the basis buffer, orthogonalized against F twice
        and factored there by a pivoted _qr, whose Q's prefix is F's new columns."""
        k = F.shape[1]
        M = basis[:, k:k + rows.size]
        np.take(A, rows, axis=0, mode="clip", out=M.T)
        M[:] = dtrtrs(chol, M, trans=1, overwrite_b=1)[0]   # chol passed the gate
        norms = np.sqrt(np.add.reduce(M * M, axis=0))     # np.linalg.norm(M, axis=0)
        coef = np.zeros((k, rows.size))
        for _ in range(2 if k else 0):
            coef2 = F.T @ M
            M -= F @ coef2
            coef += coef2
        _, S, piv = _qr(M, lwork, True)
        # round 0 may bring more rows than n, and S then fewer rows than M
        dep = np.abs(S.diagonal()) <= CROSSOVER_DEP_TOL * norms[piv[:S.shape[0]]]
        keep = int(dep.argmax()) if dep.any() else dep.size
        tri[:k, k:k + keep], tri[k:k + keep, k:k + keep] = coef[:, piv[:keep]], S[:keep, :keep]
        W_buf[k:k + keep] = rows[piv[:keep]]
        return basis[:, :k + keep], tri[:, :k + keep], keep

    def multipliers(F, T):
        return _tri(T, F.T @ g - _tri(T, b[W_buf[:F.shape[1]]], trans=1))

    def block_round(F, T, rows):
        """Append rows, then drop every negative multiplier at once until
        none is left: returns F, T, y and the number of rows appended."""
        F, T, added = append(F, T, rows)
        u = multipliers(F, T)
        while u.size and u.min() < 0.0:
            F, T = bulk_delete(F, T, u >= 0.0)
            u = multipliers(F, T)
        u_buf[:u.size] = u
        return F, T, _tri(chol, g - F @ (T[:u.size] @ u)), added

    g = _tri(chol, -c, trans=1)
    # 1-2. round 0: the independent starting rows with u >= 0. The block
    # rounds go on while each round, this one included, grows W and drops
    # fewer than half of the rows it appends: else the rows that y violates
    # are a poor guess of the optimum's active set
    F, T, y, added = block_round(basis[:, :0], tri[:, :0], start)
    block = 2 * F.shape[1] > added
    # 3. add the most violated row: partial steps drop a blocking row, a
    # full step makes the added row active
    steps = 0
    b_max = float(np.abs(b).max(initial=0.0))
    a_max = float(np.abs(A).sum(axis=1).max(initial=0.0))
    while m:
        slack = A @ y - b
        p = int(slack.argmax())
        s_p, u_p, k = float(slack[p]), 0.0, F.shape[1]
        # 4. stop when no row is violated beyond round-off
        # (the scale bounds the round-off of A @ y, cancellation included)
        tol = CROSSOVER_VIOL_TOL * (1.0 + b_max + a_max * float(np.abs(y).max()))
        if s_p <= tol:
            break
        if block:
            rows = (slack > tol).nonzero()[0]
            block = 2 <= rows.size <= min(n, m) - k
        if block:
            steps += 1
            if steps > CROSSOVER_MAX_STEPS * (n + m):
                return None, None, adds, drops
            F, T, y, added = block_round(F, T, rows)
            adds += added
            drops += k + added - F.shape[1]
            block = 2 * (F.shape[1] - k) > added
            continue
        v = _tri(chol, A[p], trans=1)
        v2 = float(v @ v)
        while True:
            steps += 1
            if steps > CROSSOVER_MAX_STEPS * (n + m):
                return None, None, adds, drops
            k = F.shape[1]
            coef = F.T @ v
            r = _tri(T, coef)              # rate at which the multipliers fall
            w = v - F @ coef               # R times the primal step direction
            w2 = float(w @ w)
            dependent = math.sqrt(w2) <= CROSSOVER_DEP_TOL * math.sqrt(v2)
            t_full = math.inf if dependent else s_p / w2
            ratios = np.full(k + 1, math.inf)      # entry k: no r_j > 0
            np.divide(u_buf[:k], r, out=ratios[:k], where=r > 0.0)
            j = int(ratios.argmin())
            t_part = float(ratios[j])
            if math.isinf(t_full) and math.isinf(t_part):
                # a_p = A_W' r with r <= 0, and A_W y = b_W: e_W = -r, e_p = 1
                # gives A'e = 0 and b'e = b_p - r'b_W = -s_p < 0
                e = np.zeros(m)
                e[W_buf[:k]], e[p] = -r, 1.0
                return None, e, adds, drops
            t = min(t_full, t_part)
            u_buf[:k] -= t * r
            u_p += t
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
                    w2 = float(w @ w)
                basis[:, k] = w / math.sqrt(w2)
                tri[:k, k], tri[k, k] = coef, math.sqrt(w2)
                F, T = basis[:, :k + 1], tri[:, :k + 1]
                W_buf[k], u_buf[k] = p, u_p
                adds += 1
                break
            W_buf[j:k - 1], u_buf[j:k - 1] = W_buf[j + 1:k], u_buf[j + 1:k]
            F, T = delete(F, T, j)
            drops += 1
    lam_out = np.zeros(m)
    lam_out[W_buf[:F.shape[1]]] = np.maximum(u_buf[:F.shape[1]], 0.0)
    return y, lam_out, adds, drops


def solve_qp(inst: QpInstance, settings: SolverSettings | None = None) -> SolveResult:
    """Solve an inequality-form convex QP, returning primal and dual solutions.

    Q is assumed PSD (validated when the QpInstance was constructed).
    MaxIterReached / infeasibility / failed-factorization (NumericalError)
    outcomes are reported in the status, never raised.
    """
    if settings is None:
        settings = SolverSettings()
    Q, c, A, b = inst.Q, inst.c, inst.A, inst.b
    n, m = inst.n_vars, inst.n_cons

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
    # the first active set is the rows that the unconstrained minimizer
    # violates; a later round starts from the last round's duals. k counts
    # proximal rounds, 0 when Q passes the gate.
    start = (A @ dpotrs(chol, -c)[0] > b).astype(np.float64)
    for k in range(1, CROSSOVER_PROX_ROUNDS + 1) if delta else [0]:
        y_k, lam_k, k_adds, k_drops = _crossover(q_prox, c - delta * y, A, b, start, chol)
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
        start = lam
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
