"""Independent checks of the program's outputs.

Everything here is plain numpy on the raw instance data (Q, c, A, b). No
check calls qproj's own residual, feasibility or scoring code, so a fault in
those cannot hide itself. Each check returns a list of problems, empty when
the output passes.

Tolerances are the solver's stated ones: a Solved result must have primal
violation <= eps_pri = eps_abs + eps_rel * ||b||_inf, stationarity
<= eps_dua = eps_abs + eps_rel * ||c||_inf and complementarity
<= 10 * eps_pri. Each bound is widened only by a floating-point rounding
allowance, (n + m) * machine-eps times the magnitude of the terms summed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

EPS = np.finfo(np.float64).eps

# The records.csv schema documented in the package README.
EVAL_COLUMNS = ["instance_id", "method", "k", "relative_error", "feasible",
                "projection_time_s", "solve_time_s", "total_time_s",
                "objective", "u_star"]


def stated_tolerances(b, c, eps_abs, eps_rel):
    """(eps_pri, eps_dua, eps_compl) of a problem with data b and c."""
    eps_pri = eps_abs + eps_rel * np.abs(b).max(initial=0.0)
    eps_dua = eps_abs + eps_rel * np.abs(c).max(initial=0.0)
    return eps_pri, eps_dua, 10.0 * eps_pri


def _rounding(terms, count):
    return count * EPS * float(np.max(terms, initial=0.0))


def lifted_problems(A, b, x, eps_pri):
    """x must satisfy A x <= b within eps_pri."""
    slack = A @ x - b
    viol = max(0.0, float(slack.max(initial=0.0)))
    allow = _rounding(np.abs(A) @ np.abs(x) + np.abs(b), A.shape[1] + 1)
    if viol > eps_pri + allow:
        return [f"lifted point violates A x <= b by {viol:.3e} > {eps_pri:.3e}"]
    return []


def kkt_problems(Q, c, A, b, y, lam, eps_abs, eps_rel, P=None):
    """KKT residuals of a result that claims Solved.

    With P given, (y, lam) is a solution of the reduced problem
    min 1/2 y'(P'QP)y + (P'c)'y s.t. (AP) y <= b, rebuilt here from P as
    x = P y and the reduced gradient P'(Q x + c + A' lam).
    """
    y = np.asarray(y, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    n, m = A.shape
    x = y if P is None else P @ y
    c_red = c if P is None else P.T @ c
    eps_pri, eps_dua, eps_compl = stated_tolerances(b, c_red, eps_abs, eps_rel)
    problems = []
    if lam.size and lam.min() < 0.0:
        problems.append(f"negative multiplier {lam.min():.3e}")
    problems += lifted_problems(A, b, x, eps_pri)

    grad = Q @ x + c + A.T @ lam
    mag = np.abs(Q) @ np.abs(x) + np.abs(c) + np.abs(A.T) @ np.abs(lam)
    if P is not None:
        grad = P.T @ grad
        mag = np.abs(P.T) @ mag
    stat = float(np.abs(grad).max(initial=0.0))
    if stat > eps_dua + _rounding(mag, 2 * (n + m)):
        problems.append(f"stationarity residual {stat:.3e} > {eps_dua:.3e}")

    compl_terms = np.abs(lam) * (np.abs(A) @ np.abs(x) + np.abs(b))
    compl = float(np.abs(lam * (A @ x - b)).max(initial=0.0))
    if compl > eps_compl + _rounding(compl_terms, n + 1):
        problems.append(f"complementarity residual {compl:.3e} > {eps_compl:.3e}")
    return problems


def objective(Q, c, x):
    return float(0.5 * x @ (Q @ x) + c @ x)


def relative_error_problems(Q, c, A, b, x_hat, P, y_hat, lam_hat, x_star, lam_star,
                            eps_abs, eps_rel):
    """Relative error (u_hat - u*) / (0 - u*) of the lifted point x_hat of a
    Solved reduced result (y_hat, lam_hat), against a Solved full result
    (x_star, lam_star), with its bounds. Both results must already pass
    kkt_problems; the bounds follow from weak duality at the stated
    tolerances.

    Lower (u* <= u_hat): u_hat >= u* - eps_dua ||x_hat - x*||_1
    - ||lam*||_1 viol(x_hat) - m eps_compl. Upper (error <= 1): x = 0 is
    feasible (b >= 0 up to rounding) with objective 0, so u_hat <=
    eps_dua' ||y_hat||_1 + m eps_compl + ||lam_hat||_1 max(0, -min b), with
    eps_dua' the reduced problem's tolerance. Returns (error, problems).
    """
    u_hat, u_star = objective(Q, c, x_hat), objective(Q, c, x_star)
    if not u_star < 0.0:
        return math.nan, [f"u* = {u_star!r} >= 0: relative error undefined"]
    n, m = A.shape
    _, eps_dua, eps_compl = stated_tolerances(b, c, eps_abs, eps_rel)
    _, eps_dua_red, _ = stated_tolerances(b, P.T @ c, eps_abs, eps_rel)
    mag_obj = (np.abs(x_hat) @ (np.abs(Q) @ np.abs(x_hat)) + np.abs(c) @ np.abs(x_hat)
               + np.abs(x_star) @ (np.abs(Q) @ np.abs(x_star)) + np.abs(c) @ np.abs(x_star))
    rounding = (n + m) * EPS * mag_obj
    viol_hat = max(0.0, float((A @ x_hat - b).max(initial=0.0)))
    low_slack = (eps_dua * np.abs(x_hat - x_star).sum()
                 + np.abs(lam_star).sum() * viol_hat + m * eps_compl + rounding)
    high_slack = (eps_dua_red * np.abs(y_hat).sum() + m * eps_compl
                  + np.abs(lam_hat).sum() * max(0.0, -b.min(initial=0.0)) + rounding)
    problems = []
    if u_hat < u_star - low_slack:
        problems.append(f"u_hat {u_hat!r} below u* {u_star!r} by more than {low_slack:.3e}")
    if u_hat > high_slack:
        problems.append(f"u_hat {u_hat!r} above u(0) = 0 by more than {high_slack:.3e}")
    return (u_hat - u_star) / (0.0 - u_star), problems


def orthonormal_problems(P, tol=1e-8):
    gram = float(np.linalg.norm(P.T @ P - np.eye(P.shape[1]), "fro"))
    return [] if gram <= tol else [f"projection not orthonormal: {gram:.3e}"]


def read_records(path):
    """(header, rows) of a records.csv file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, [dict(zip(header, row)) for row in reader]


def records_problems(tables, test_ids, methods=("ours", "rand", "full")):
    """(header, rows) of the records.csv files of the ours, rand and full
    evaluations of one test split.

    Exactly the documented columns; one row per method and instance; each
    error recomputed from its row and within [0, 1], 1 when infeasible; u*
    the same for every method of an instance; the full method's error about
    0; ours better than rand on average.
    """
    for header, _ in tables:
        if header != EVAL_COLUMNS:
            return [f"records.csv columns {header} != {EVAL_COLUMNS}"]
    problems = []
    by_method = {name: {} for name in methods}
    for row in (row for _, rows in tables for row in rows):
        if row["method"] not in by_method:
            problems.append(f"unexpected method {row['method']!r}")
            continue
        by_method[row["method"]][row["instance_id"]] = row
    for name, recs in by_method.items():
        if sorted(recs) != sorted(test_ids):
            problems.append(f"{name}: {len(recs)} rows, instance ids do not match the test split")
    if problems:
        return problems

    for name, recs in by_method.items():
        for iid, row in recs.items():
            err, obj, u_star = (float(row[k]) for k in ("relative_error", "objective", "u_star"))
            if row["feasible"] not in ("True", "False"):
                problems.append(f"{name} {iid}: feasible = {row['feasible']!r}")
            elif row["feasible"] == "False":
                if err != 1.0:
                    problems.append(f"{name} {iid}: infeasible but error {err!r} != 1")
                continue
            if not u_star < 0.0:
                problems.append(f"{name} {iid}: u* = {u_star!r} >= 0")
                continue
            expect = (obj - u_star) / (0.0 - u_star)
            if abs(err - expect) > 1e-9 * max(1.0, abs(expect)):
                problems.append(f"{name} {iid}: error {err!r} != (obj - u*)/(0 - u*) = {expect!r}")
            if not -1e-6 <= err <= 1.0 + 1e-6:
                problems.append(f"{name} {iid}: error {err!r} outside [0, 1]")
    for iid in test_ids:
        stars = {name: float(by_method[name][iid]["u_star"]) for name in methods}
        ref = stars[methods[0]]
        if any(abs(v - ref) > 1e-9 * max(1.0, abs(ref)) for v in stars.values()):
            problems.append(f"{iid}: u* differs across methods {stars}")
        full_err = float(by_method["full"][iid]["relative_error"])
        if abs(full_err) > 1e-6:
            problems.append(f"{iid}: full method error {full_err!r} is not about 0")
    means = {name: float(np.mean([float(r["relative_error"]) for r in recs.values()]))
             for name, recs in by_method.items()}
    if not means["ours"] < means["rand"]:
        problems.append(f"ours mean error {means['ours']:.4f} not below rand {means['rand']:.4f}")
    return problems
