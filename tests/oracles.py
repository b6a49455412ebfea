"""Independent oracles used by the tests.

The brute-force QP oracle enumerates all active-constraint subsets and keeps
the feasible minimum; it shares no code with qproj.solver. The
finite-difference helpers re-solve perturbed problems from scratch.
"""

import itertools

import numpy as np

from qproj.core import QpInstance
from qproj.solver import SolverSettings, solve_qp


def brute_force_min(Q, c, A, b, feas_tol=1e-11):
    """Minimum objective over all equality-KKT candidates that are primal
    feasible to feas_tol * (1 + ||b||_inf). For convex QPs the feasible
    minimum over all subsets is the optimum (the true active set contributes
    it); a looser tolerance lets a slightly infeasible vertex undercut it."""
    Q = np.asarray(Q, float)
    c = np.asarray(c, float).ravel()
    A = np.asarray(A, float).reshape(-1, Q.shape[0])
    b = np.asarray(b, float).ravel()
    n, m = Q.shape[0], A.shape[0]
    best = np.inf
    best_x = None
    for r in range(min(m, n) + 1):
        for subset in itertools.combinations(range(m), r):
            act = list(subset)
            A_act = A[act]
            kkt = np.zeros((n + r, n + r))
            kkt[:n, :n] = Q
            if r:
                kkt[:n, n:] = A_act.T
                kkt[n:, :n] = A_act
            rhs = np.concatenate([-c, b[act]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(sol)):
                continue
            x = sol[:n]
            # discard inaccurate solves of near-singular systems
            if np.abs(kkt @ sol - rhs).max() > 1e-6 * max(1.0, np.abs(rhs).max()):
                continue
            if m and (A @ x - b).max() > feas_tol * (1.0 + np.abs(b).max()):
                continue
            val = 0.5 * x @ (Q @ x) + c @ x
            if val < best:
                best = val
                best_x = x
    return best, best_x


def random_pd_instance(rng, n, m, feasible_margin=0.1):
    """Random strictly convex QP with a nonempty feasible region."""
    B = rng.normal(size=(n, n))
    Q = B @ B.T + (0.5 + rng.uniform()) * np.eye(n)
    c = rng.normal(size=n) * 2.0
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    b = A @ x0 + rng.uniform(feasible_margin, 1.0 + feasible_margin, size=m)
    return QpInstance(Q=Q, c=c, A=A, b=b)


def reduced_instance_raw(inst, P):
    """Projected instance for an arbitrary full-rank P (no orthonormality
    requirement), used by finite-difference oracles."""
    P = np.asarray(P, float)
    Qr = P.T @ inst.Q @ P
    return QpInstance(Q=0.5 * (Qr + Qr.T), c=P.T @ inst.c, A=inst.A @ P,
                      b=inst.b, constant=inst.constant)


def u_of_raw_projection(inst, P, settings=None):
    """Optimal value of the reduced problem at a raw (possibly perturbed)
    projection; also returns the solve result for active-set inspection."""
    if settings is None:
        settings = SolverSettings(eps_abs=1e-10, eps_rel=1e-10)
    res = solve_qp(reduced_instance_raw(inst, P), settings)
    return res.objective, res


def active_set(result, tol=1e-8):
    return frozenset(np.flatnonzero(result.lambda_star > tol).tolist())
