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


def dense_gnn(params, inst, G):
    """qproj.gnn's network written plainly: every row of A, bound rows
    included, passes its messages by one dense product. Returns the
    orthonormal output P and the gradient of <G, P> with respect to the
    parameter vector (QR adjoint as in gnn.qr_backward; no jitter fallback)."""
    Q, A, c, b = inst.Q, inst.A, inst.c, inst.b
    inv = [np.array([1.0 / d if d else 0.0 for d in np.count_nonzero(M, axis=ax)])[:, None]
           for M, ax in ((Q, 0), (A, 0), (A, 1))]
    zv, zc = [c[:, None] * params.w0v + params.s0v], [b[:, None] * params.w0c + params.s0c]
    agg_vv, agg_cv, agg_vc = [], [], []
    for l in range(params.layers):
        agg_vv.append(inv[0] * (Q @ zv[l]))
        agg_cv.append(inv[1] * (A.T @ zc[l]))
        agg_vc.append(inv[2] * (A @ zv[l]))
        zv.append(np.maximum(0.0, zv[l] @ params.Wv[l].T + agg_vv[l] @ params.Wvv[l].T
                             + agg_cv[l] @ params.Wcv[l].T))
        zc.append(np.maximum(0.0, zc[l] @ params.Wc[l].T + agg_vc[l] @ params.Wvc[l].T))
    leaky = lambda x: np.where(x > 0, x, 0.01 * x)
    dleaky = lambda x: np.where(x > 0, 1.0, np.where(x < 0, 0.01, 0.0))
    h1 = zv[-1] @ params.g1.T + params.b1
    h2 = leaky(h1) @ params.g2.T + params.b2
    p_raw = leaky(h2) @ params.g3.T + params.b3
    qf, r = np.linalg.qr(p_raw)
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    P, r = qf * signs, signs[:, None] * r
    gm = P.T @ G
    d_raw = np.linalg.solve(r, (G - P @ (np.triu(gm) + np.triu(gm, 1).T)).T).T

    g = params.zeros_like()
    g.g3, g.b3 = d_raw.T @ leaky(h2), d_raw.sum(axis=0)
    d_h2 = (d_raw @ params.g3) * dleaky(h2)
    g.g2, g.b2 = d_h2.T @ leaky(h1), d_h2.sum(axis=0)
    d_h1 = (d_h2 @ params.g2) * dleaky(h1)
    g.g1, g.b1 = d_h1.T @ zv[-1], d_h1.sum(axis=0)
    d_zv, d_zc = d_h1 @ params.g1, np.zeros_like(zc[-1])
    for l in reversed(range(params.layers)):
        d_v, d_c = d_zv * (zv[l + 1] > 0), d_zc * (zc[l + 1] > 0)
        g.Wv[l], g.Wvv[l], g.Wcv[l] = d_v.T @ zv[l], d_v.T @ agg_vv[l], d_v.T @ agg_cv[l]
        g.Wc[l], g.Wvc[l] = d_c.T @ zc[l], d_c.T @ agg_vc[l]
        d_zv = (d_v @ params.Wv[l] + Q.T @ (inv[0] * (d_v @ params.Wvv[l]))
                + A.T @ (inv[2] * (d_c @ params.Wvc[l])))
        d_zc = d_c @ params.Wc[l] + A @ (inv[1] * (d_v @ params.Wcv[l]))
    g.w0v, g.s0v = c @ d_zv, d_zv.sum(axis=0)
    g.w0c, g.s0c = b @ d_zc, d_zc.sum(axis=0)
    return P, g.to_vector()
