"""Each checker accepts a correct output and rejects a perturbed one.

Plain numpy on a small QP with a known solution:
    min 1/2 x'x - 1'x  s.t.  x_i <= 0.5 (i = 0, 1),  x_2 <= 2
has x* = (0.5, 0.5, 1), multipliers (0.5, 0.5, 0) and optimum -1.25.
"""

import numpy as np

import checkers

Q = np.eye(3)
C = -np.ones(3)
A = np.eye(3)
B = np.array([0.5, 0.5, 2.0])
X_STAR = np.array([0.5, 0.5, 1.0])
LAM_STAR = np.array([0.5, 0.5, 0.0])
EPS = (1e-8, 1e-8)
P = np.eye(3)[:, :2]                 # keeps x_0, x_1: reduced optimum (0.5, 0.5)
Y_HAT = np.array([0.5, 0.5])
LAM_HAT = np.array([0.5, 0.5, 0.0])


def test_kkt_accepts_the_optimum():
    assert checkers.kkt_problems(Q, C, A, B, X_STAR, LAM_STAR, *EPS) == []


def test_kkt_rejects_primal_violation():
    x = X_STAR + np.array([1e-6, 0.0, 0.0])
    found = checkers.kkt_problems(Q, C, A, B, x, LAM_STAR, *EPS)
    assert any("violates" in p for p in found)


def test_kkt_rejects_stationarity_error():
    x = X_STAR - np.array([0.0, 0.0, 1e-6])
    found = checkers.kkt_problems(Q, C, A, B, x, LAM_STAR, *EPS)
    assert any("stationarity" in p for p in found)


def test_kkt_rejects_negative_multiplier():
    lam = np.array([0.5, 0.5, -1e-12])
    found = checkers.kkt_problems(Q, C, A, B, X_STAR, lam, *EPS)
    assert any("negative multiplier" in p for p in found)


def test_kkt_rejects_complementarity_error():
    # the multiplier of the slack constraint x_2 <= 2 moves to 1e-3 and the
    # gradient is compensated, so only complementarity is off
    lam = np.array([0.5, 0.5, 1e-3])
    x = X_STAR - np.array([0.0, 0.0, 1e-3])
    found = checkers.kkt_problems(Q, C, A, B, x, lam, *EPS)
    assert found and all("complementarity" in p for p in found)


def test_reduced_kkt_rebuilt_from_p():
    assert checkers.kkt_problems(Q, C, A, B, Y_HAT, LAM_HAT, *EPS, P=P) == []
    found = checkers.kkt_problems(Q, C, A, B, Y_HAT + 1e-6, LAM_HAT, *EPS, P=P)
    assert found


def test_lifted_feasibility():
    eps_pri = checkers.stated_tolerances(B, C, *EPS)[0]
    assert checkers.lifted_problems(A, B, P @ Y_HAT, eps_pri) == []
    assert checkers.lifted_problems(A, B, P @ (Y_HAT + 1e-6), eps_pri)


def test_relative_error_within_bounds():
    err, found = checkers.relative_error_problems(    # u_hat = -0.75, u* = -1.25
        Q, C, A, B, P @ Y_HAT, P, Y_HAT, LAM_HAT, X_STAR, LAM_STAR, *EPS)
    assert found == []
    assert abs(err - 0.4) < 1e-12


def test_relative_error_rejects_u_hat_below_u_star():
    # a reference that is not the optimum: x = (0.5, 0.5, 0), u = -0.75,
    # against a lifted point reaching -1.25
    x_ref = np.array([0.5, 0.5, 0.0])
    err, found = checkers.relative_error_problems(
        Q, C, A, B, X_STAR, np.eye(3), X_STAR, LAM_STAR, x_ref, LAM_STAR, *EPS)
    assert any("below u*" in p for p in found)


def test_relative_error_rejects_u_hat_above_zero():
    y = np.array([3.0, 3.0])               # objective 3 > u(0) = 0
    err, found = checkers.relative_error_problems(
        Q, C, A, B, P @ y, P, y, LAM_HAT, X_STAR, LAM_STAR, *EPS)
    assert any("above u(0)" in p for p in found)
    assert err > 1.0


def test_orthonormal():
    assert checkers.orthonormal_problems(P) == []
    assert checkers.orthonormal_problems(P * 1.001)


def _tables(ours_err=0.2, rand_err=0.5, full_err=0.0, u_star=-2.0,
            columns=None, drop=None):
    header = list(columns or checkers.EVAL_COLUMNS)
    tables = []
    for method, err in (("ours", ours_err), ("rand", rand_err), ("full", full_err)):
        rows = []
        for iid in ("a", "b"):
            obj = u_star + err * (0.0 - u_star)
            values = {"instance_id": iid, "method": method, "k": "2",
                      "relative_error": repr(err), "feasible": "True",
                      "projection_time_s": "0.0", "solve_time_s": "0.0",
                      "total_time_s": "0.0", "objective": repr(obj),
                      "u_star": repr(u_star)}
            if (method, iid) != drop:
                rows.append({c: values.get(c, "") for c in header})
        tables.append((header, rows))
    return tables


def test_records_accepts_consistent_tables():
    assert checkers.records_problems(_tables(), ["a", "b"]) == []


def test_records_rejects_extra_column():
    tables = _tables(columns=checkers.EVAL_COLUMNS + ["iterations"])
    assert checkers.records_problems(tables, ["a", "b"])


def test_records_rejects_missing_row():
    assert checkers.records_problems(_tables(drop=("rand", "b")), ["a", "b"])


def test_records_rejects_u_star_disagreement():
    tables = _tables()
    tables[1][1][0]["u_star"] = repr(-2.001)
    tables[1][1][0]["objective"] = repr(-2.001 + 0.5 * 2.001)
    found = checkers.records_problems(tables, ["a", "b"])
    assert any("differs across methods" in p for p in found)


def test_records_rejects_nonzero_full_error():
    found = checkers.records_problems(_tables(full_err=0.01), ["a", "b"])
    assert any("full method error" in p for p in found)


def test_records_rejects_ours_not_better_than_rand():
    found = checkers.records_problems(_tables(ours_err=0.5, rand_err=0.4), ["a", "b"])
    assert any("not below rand" in p for p in found)


def test_records_rejects_inconsistent_error():
    tables = _tables()
    tables[0][1][0]["relative_error"] = repr(0.3)
    found = checkers.records_problems(tables, ["a", "b"])
    assert any("!= (obj - u*)" in p for p in found)
