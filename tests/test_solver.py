import numpy as np
import pytest

from qproj import solver
from qproj.core import QpInstance, objective, project
from qproj.datasets import gen_regression
from qproj.gnn import forward, init_params
from qproj.solver import SolveStatus, SolverSettings, kkt_residuals, solve_qp

from oracles import brute_force_min, random_pd_instance


def test_analytic_clipped_minimum():
    inst = QpInstance(Q=[[2.0]], c=[-2.0], A=[[1.0]], b=[0.5])
    res = solve_qp(inst)
    assert res.status is SolveStatus.SOLVED
    assert res.y_star[0] == pytest.approx(0.5, abs=1e-9)
    assert res.lambda_star[0] == pytest.approx(1.0, abs=1e-8)
    assert res.objective == pytest.approx(-0.75, abs=1e-9)


def test_interior_minimum():
    inst = QpInstance(Q=np.eye(2), c=[0.0, 0.0], A=[[1.0, 0.0]], b=[1.0])
    res = solve_qp(inst)
    assert res.status is SolveStatus.SOLVED
    np.testing.assert_allclose(res.y_star, [0.0, 0.0], atol=1e-9)
    assert res.lambda_star[0] == pytest.approx(0.0, abs=1e-9)
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_oracle_equivalence_random():
    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        inst = random_pd_instance(rng, n, m)
        res = solve_qp(inst)
        assert res.status is SolveStatus.SOLVED
        ref, _ = brute_force_min(inst.Q, inst.c, inst.A, inst.b)
        assert res.objective == pytest.approx(ref, abs=1e-6)


def test_kkt_residual_invariants_many():
    rng = np.random.default_rng(8)
    settings = SolverSettings()
    for trial in range(100):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(0, 2 * n))
        inst = random_pd_instance(rng, n, max(m, 0))
        res = solve_qp(inst, settings)
        assert res.status is SolveStatus.SOLVED
        viol, dual, compl_res = kkt_residuals(inst, res.y_star, res.lambda_star)
        eps_pri = settings.eps_abs + settings.eps_rel * np.abs(inst.b).max(initial=0.0)
        eps_dua = settings.eps_abs + settings.eps_rel * np.abs(inst.c).max(initial=0.0)
        assert viol <= eps_pri
        assert dual <= eps_dua
        assert compl_res <= 10.0 * eps_pri
        assert res.lambda_star.min(initial=0.0) >= -1e-10


def test_determinism_bitwise():
    rng = np.random.default_rng(9)
    inst = random_pd_instance(rng, 10, 14)
    r1 = solve_qp(inst)
    r2 = solve_qp(inst)
    np.testing.assert_array_equal(r1.y_star, r2.y_star)
    np.testing.assert_array_equal(r1.lambda_star, r2.lambda_star)
    assert r1.objective == r2.objective
    assert r1.iterations == r2.iterations


def test_unconstrained_problem():
    # m = 0: the cold finish from the empty active set is the whole answer
    inst = QpInstance(Q=2.0 * np.eye(3), c=[-2.0, -4.0, 2.0],
                      A=np.zeros((0, 3)), b=[])
    res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.SOLVED, 0)
    np.testing.assert_allclose(res.y_star, [1.0, 2.0, -1.0], atol=1e-12)


def test_dual_infeasible_detected():
    inst = QpInstance(Q=[[1.0, 0.0], [0.0, 0.0]], c=[0.0, -1.0],
                      A=[[1.0, 0.0]], b=[1.0])
    res = solve_qp(inst)
    assert res.status is SolveStatus.DUAL_INFEASIBLE
    assert res.message


def test_primal_infeasible_detected():
    inst = QpInstance(Q=[[2.0]], c=[0.0], A=[[1.0], [-1.0]], b=[1.0, -2.0])
    res = solve_qp(inst)
    assert res.status is SolveStatus.PRIMAL_INFEASIBLE
    assert res.message


def test_max_iter_returned_not_raised(monkeypatch):
    # the step cap of the active-set solve, and below the gate the round cap
    # of the proximal rounds, each end a solve MaxIterReached
    inst = random_pd_instance(np.random.default_rng(10), 8, 12)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "CROSSOVER_MAX_STEPS", 0)
        res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.MAX_ITER_REACHED, 0)
    assert res.y_star.shape == (8,)
    assert np.isfinite(res.objective)
    # this LP takes 2 proximal rounds
    inst = _singular_box_instance(np.random.default_rng(0), 3, 0, 2)
    assert solve_qp(inst).iterations == 2
    monkeypatch.setattr(solver, "CROSSOVER_PROX_ROUNDS", 1)
    res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.MAX_ITER_REACHED, 1)
    assert "proximal round" in res.message


def test_a_finish_that_fails_its_checks_is_a_numerical_error(monkeypatch):
    # a point outside the tolerances is not Solved, and a Farkas vector that
    # fails the certificate checks is not PrimalInfeasible
    inst = random_pd_instance(np.random.default_rng(11), 4, 6)
    for out, message in (((np.zeros(4), np.zeros(6), 0, 0), "missed the tolerances"),
                         ((None, np.zeros(6), 0, 0), "fails the certificate checks")):
        monkeypatch.setattr(solver, "_crossover", lambda *args, out=out, **kw: out)
        res = solve_qp(inst)
        assert (res.status, res.iterations) == (SolveStatus.NUMERICAL_ERROR, 0)
        assert message in res.message


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(eps_abs=0.0)
    with pytest.raises(ValueError):
        SolverSettings(eps_rel=-1e-8)


# a NaN passed the old `<= 0` tests: NaN tolerances ran all 20,000
# iterations to MaxIterReached
@pytest.mark.parametrize("name", ["eps_abs", "eps_rel"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_settings_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"'{name}' must be finite and positive"):
        SolverSettings(**{name: value})


def test_infeasibility_agrees_with_lp_oracle():
    # random subspace restrictions of feasible QPs are sometimes infeasible;
    # the status must agree with an independent LP feasibility check
    from scipy.optimize import linprog

    from qproj.core import ProjectionMatrix, project

    rng = np.random.default_rng(2)
    seen_infeasible = 0
    for trial in range(10):
        inst = random_pd_instance(rng, 6, 5)
        q, _ = np.linalg.qr(rng.normal(size=(6, 4)))
        red = project(inst, ProjectionMatrix(P=q[:, :2]))
        res = solve_qp(red)
        lp = linprog(c=np.zeros(2), A_ub=red.A, b_ub=red.b,
                     bounds=[(None, None)] * 2, method="highs")
        if res.status is SolveStatus.PRIMAL_INFEASIBLE:
            seen_infeasible += 1
            assert lp.status != 0
        elif res.status is SolveStatus.SOLVED:
            assert lp.status == 0
    assert seen_infeasible > 0


def test_psd_singular_hessian_supported():
    # flat direction but bounded: objective constant along x2
    inst = QpInstance(Q=[[1.0, 0.0], [0.0, 0.0]], c=[-1.0, 0.0],
                      A=[[1.0, 0.0]], b=[2.0])
    res = solve_qp(inst)
    assert res.status is SolveStatus.SOLVED
    assert res.objective == pytest.approx(-0.5, abs=1e-8)


def _reduced_reg500(seed):
    inst = gen_regression(500, 50, seed=seed)
    proj, _ = forward(init_params(0, k=30), inst, 30)
    return project(inst, proj)


def test_f2_reduced_reg500_seed1_is_solved():
    # F2: this reduced solve used to end MaxIterReached after 20,000
    # iterations, the polish never guessing the active set
    res = solve_qp(_reduced_reg500(1))
    assert res.status is SolveStatus.SOLVED
    assert res.iterations < 20000


def test_seed_1011_full_solve_is_solved_at_its_first_finish():
    # Q positive definite (rcond about 6e-3): the first finish attempt, at
    # iteration 9,100, used to miss, and ADMM alone needed 18,300 iterations;
    # the solve is now one active-set run, and it lands
    inst = gen_regression(100, 20, t=200, seed=1011)
    assert solver._crossover_factor(inst.Q) is not None
    res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.SOLVED, 0)


@pytest.mark.parametrize("seed, u_star", [
    (0, -84.79491298012431),
    (1, -45.034209327846334),
    (2, -75.7789213626402),
    (3, -98.54776690651525),
    (4, -43.475454110912054),
    (5, -87.19768780553004),
    (6, -71.93810642550194),
    (7, -89.6195376420878),
])
def test_full_reg500_is_solved_at_iteration_0(seed, u_star):
    # Q passes the gate, so one active-set run from the rows that the
    # unconstrained minimizer violates is the solve. The optima of seeds 0-2
    # are those of the ADMM-then-crossover solves that finished at iteration
    # 100-1,075; those of seeds 3-7 are those of the active-set finish that
    # still called qr_insert. Seed 1 makes the longest chain: its start keeps
    # 184 rows, and five block rounds append 216 rows and drop 11, which
    # leaves the optimum's 389 active rows and no single step
    from qproj.datasets import generate_instance

    inst = generate_instance("regression", {"n": 500, "m": 50}, seed)
    res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.SOLVED, 0)
    assert res.objective == pytest.approx(u_star, rel=1e-12, abs=0.0)
    scale = 1.0 + np.abs(inst.b).max() + np.abs(inst.c).max()
    assert max(kkt_residuals(inst, res.y_star, res.lambda_star)) <= 1e-12 * scale
    if seed == 1:
        assert (res.adds, np.count_nonzero(res.lambda_star)) == (216, 389)


@pytest.mark.parametrize("family, sizes", [
    ("portfolio", {"n": 100}),
    ("control", {"s": 10, "v": 10, "t": 5}),
    ("regression", {"n": 100, "m": 20}),
], ids=["portfolio", "control", "regression"])
def test_cold_reduced_solves_are_solved_at_iteration_0(family, sizes):
    # the finish starts from the rows that the unconstrained minimizer
    # violates; these solves used to run 25-100 iterations of an
    # operator-splitting method first
    from qproj.datasets import generate_instance

    for seed in range(3):
        inst = generate_instance(family, sizes, seed)
        proj, _ = forward(init_params(0, k=10), inst, 10)
        red = project(inst, proj)
        assert solver._crossover_factor(red.Q) is not None
        res = solve_qp(red)
        assert (res.status, res.iterations) == (SolveStatus.SOLVED, 0), seed
        # exact up to round-off, far inside the tolerances of Solved
        scale = 1.0 + np.abs(red.b).max() + np.abs(red.c).max()
        assert max(kkt_residuals(red, res.y_star, res.lambda_star)) <= 1e-12 * scale, seed


def test_crossover_start_refactors_once_per_round():
    # a cold solve of full reg500 seed 0 starts from the 257 rows that the
    # unconstrained minimizer violates; 48 of them get a negative multiplier.
    # Dropping all of those per round and refactoring the columns after the
    # first dropped one takes 3 QRs where one drop per row would take 48.
    # Two more block rounds then append the 43 and 6 rows that round 0's
    # point and the next one violate, dropping 2, and step 3 takes no step
    # (adding the rows one at a time would take about 256 adds)
    from qproj.datasets import generate_instance

    inst = generate_instance("regression", {"n": 500, "m": 50}, 0)
    res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.SOLVED, 0)
    assert res.drops <= 5
    assert res.adds <= 50
    y, lam = res.y_star, res.lambda_star
    # the optimum of the one-row-at-a-time start, to round-off
    assert objective(inst, y) == pytest.approx(-84.7949129801243, rel=1e-12, abs=0.0)
    assert np.linalg.norm(y) == pytest.approx(0.5756672761455097, rel=1e-12, abs=0.0)
    assert lam.sum() == pytest.approx(3945.9496333470674, rel=1e-12, abs=0.0)
    assert np.count_nonzero(lam) == 256


@pytest.mark.parametrize("seed, u_star", [
    (0, -1.32848689470285), (8, -3.6633905104109736), (14, -0.965007635252624),
])
def test_block_rounds_run_below_the_gate(monkeypatch, seed, u_star):
    # full control solves fail the gate and take proximal rounds on
    # Q + delta I. These three also take a block round: they make more
    # pivoted QRs (one round 0 per proximal round, and the block rounds)
    # than they take proximal rounds. The optima are those of the single
    # steps that finished these solves before
    from qproj.datasets import generate_instance

    pivoted = 0
    qr = solver._qr

    def counting_qr(a, lwork, pivoting):
        nonlocal pivoted
        pivoted += pivoting
        return qr(a, lwork, pivoting)

    monkeypatch.setattr(solver, "_qr", counting_qr)
    inst = generate_instance("control", {"s": 10, "v": 10, "t": 5}, seed)
    res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.SOLVED, 2)
    assert pivoted > res.iterations
    assert res.objective == pytest.approx(u_star, rel=1e-12, abs=0.0)
    # the dual residual is the last proximal term delta (y_2 - y_1), about
    # 1e-11 here, not round-off
    scale = 1.0 + np.abs(inst.b).max() + np.abs(inst.c).max()
    viol, dual, compl_res = kkt_residuals(inst, res.y_star, res.lambda_star)
    assert max(viol, compl_res) <= 1e-12 * scale
    assert dual <= 1e-10 * scale


def _wedge_instance(rng, n, eps):
    """Strictly convex QP whose optimum x_opt sits in the tip of a thin wedge:
    a random row a and the row -a + eps z, both active with multipliers of
    about 1e3, plus two inactive random rows. Once either wedge row is
    active, the other lies within about eps of the active span."""
    B = rng.normal(size=(n, n))
    Q = B @ B.T + np.eye(n)
    x_opt = rng.normal(size=n)
    a = rng.normal(size=n)
    A = np.vstack([a, -a + eps * rng.normal(size=n), rng.normal(size=(2, n))])
    b = A @ x_opt
    b[2:] += rng.uniform(0.1, 1.0, size=2)
    u = np.zeros(4)
    u[1] = 1e3 * rng.uniform(0.5, 1.5)
    u[0] = u[1] + rng.uniform(0.5, 1.5)
    return QpInstance(Q=Q, c=-Q @ x_opt - A.T @ u, A=A, b=b)


def test_rows_added_near_the_active_span_match_brute_force_oracle():
    # from an empty start every active row is added by a full step. When both
    # wedge rows end active, the later one was appended with the other in
    # the factor, at ||w|| about 1e-7 ||v||: the second Gram-Schmidt pass ran
    both_active = 0
    for seed in range(20):
        inst = _wedge_instance(np.random.default_rng(seed), 4, 1e-7)
        y, lam, _, _ = solver._crossover(inst.Q, inst.c, inst.A, inst.b, np.zeros(4),
                                         solver._crossover_factor(inst.Q))
        assert y is not None, seed
        ref, _ = brute_force_min(inst.Q, inst.c, inst.A, inst.b)
        # the oracle keeps candidates infeasible by up to 1e-11 (1 + ||b||),
        # which undercut the optimum by at most lambda'(that violation)
        undercut = lam.sum() * 1e-11 * (1.0 + np.abs(inst.b).max())
        tol = 1e-9 * (1.0 + abs(ref))
        assert ref - tol <= objective(inst, y) <= ref + undercut + tol, seed
        both_active += lam[:2].min() > 0.0
    assert both_active >= 10


@pytest.mark.parametrize("family, sizes, seed, u_star", [
    ("portfolio", {"n": 100}, 1, -0.45875358656486454),   # passes potrf
    ("portfolio", {"n": 100}, 2, -0.4419941774607872),
    ("control", {"s": 10, "v": 10, "t": 5}, 0, -1.3284868947028494),  # potrf fails
], ids=["portfolio-1", "portfolio-2", "control-0"])
def test_singular_full_solves_cross_over(monkeypatch, family, sizes, seed, u_star):
    # singular Q fails the gate, so the crossover runs on Q + delta I in
    # proximal rounds from y = 0. These solves used to wait for 25-125
    # iterations of an operator-splitting method; the optima are those of
    # the heuristic polish that finished them before.
    from qproj.datasets import generate_instance

    inst = generate_instance(family, sizes, seed)
    assert solver._crossover_factor(inst.Q) is None
    outputs = []

    def recording_crossover(*args, **kwargs):
        outputs.append(real_crossover(*args, **kwargs))
        return outputs[-1]

    real_crossover = solver._crossover
    monkeypatch.setattr(solver, "_crossover", recording_crossover)
    res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.SOLVED, len(outputs))
    assert 1 <= len(outputs) <= solver.CROSSOVER_PROX_ROUNDS
    assert res.y_star.tobytes() == outputs[-1][0].tobytes()
    assert res.objective == pytest.approx(u_star, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", range(5))
def test_scaled_singular_full_solve_is_solved(seed):
    # the proximal weight was 1e-6 * max(||Q||_1, 1): with Q and c of a
    # control N=100 instance scaled by 1e-6 it stood as large as Q itself,
    # and each of these solves ended MaxIterReached after its four rounds
    from qproj.datasets import generate_instance

    inst = generate_instance("control", {"s": 10, "v": 10, "t": 5}, seed)
    scaled = QpInstance(Q=inst.Q * 1e-6, c=inst.c * 1e-6, A=inst.A, b=inst.b)
    assert solver._crossover_factor(scaled.Q) is None
    res = solve_qp(scaled)
    assert res.status is SolveStatus.SOLVED
    assert res.objective == pytest.approx(objective(scaled, solve_qp(inst).y_star), rel=1e-8)


def _singular_box_instance(rng, n, rank, m_extra):
    """A QP with Q of the given rank (0: an LP), a box |y_i| <= u_i and
    m_extra random rows that keep a random point of the box feasible."""
    B = rng.normal(size=(n, rank))
    A_rand = rng.normal(size=(m_extra, n))
    u = rng.uniform(0.5, 2.0, size=n)
    x0 = rng.uniform(-0.5, 0.5, size=n) * u
    A = np.vstack([np.eye(n), -np.eye(n), A_rand])
    b = np.concatenate([u, u, A_rand @ x0 + rng.uniform(0.0, 1.0, size=m_extra)])
    return QpInstance(Q=B @ B.T, c=rng.normal(size=n) * 2.0, A=A, b=b)


def test_singular_qps_and_lps_match_brute_force_oracle():
    # rank 0 (LPs) to n - 1: Q fails the crossover gate, and the proximal
    # rounds finish every solve; the heuristic polish they replaced needed
    # up to 1,125 iterations of an operator-splitting method
    for trial in range(60):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(2, 6))
        inst = _singular_box_instance(rng, n, trial % n, int(rng.integers(0, 4)))
        assert solver._crossover_factor(inst.Q) is None, trial
        res = solve_qp(inst)
        assert res.status is SolveStatus.SOLVED, trial
        assert res.iterations <= solver.CROSSOVER_PROX_ROUNDS, trial
        ref, _ = brute_force_min(inst.Q, inst.c, inst.A, inst.b)
        assert res.objective == pytest.approx(ref, rel=1e-7, abs=1e-12), trial


def test_singular_unbounded_and_infeasible_problems_end_by_certificate():
    # the proximal subproblems are bounded and feasible-or-not like the
    # original; neither may turn into a Solved
    unbounded = QpInstance(Q=np.diag([1.0, 0.0, 0.0]), c=[1.0, -1.0, 0.5],
                           A=[[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]],
                           b=[1.0, 1.0, 3.0])
    lp = QpInstance(Q=np.zeros((2, 2)), c=[1.0, 0.0],
                    A=[[1.0, 1.0], [-1.0, -1.0], [0.0, 1.0]], b=[1.0, -2.0, 5.0])
    for inst, status in ((unbounded, SolveStatus.DUAL_INFEASIBLE),
                         (lp, SolveStatus.PRIMAL_INFEASIBLE)):
        assert solver._crossover_factor(inst.Q) is None
        res = solve_qp(inst)
        assert res.status is status
        assert "certificate" in res.message


def test_crossover_on_infeasible_problems(monkeypatch):
    # x <= 1 and x >= 2; and in 3-D, x1 <= -1, x1 >= 1 plus a feasible row.
    # Q passes the gate; the crossover stops at a violated row that depends
    # on the active ones, and its Farkas vector ends the solve at once
    cases = [
        QpInstance(Q=[[2.0]], c=[0.0], A=[[1.0], [-1.0]], b=[1.0, -2.0]),
        QpInstance(Q=np.diag([1.0, 2.0, 3.0]), c=[1.0, -1.0, 0.5],
                   A=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
                   b=[-1.0, -1.0, 4.0]),
    ]
    for inst in cases:
        m = inst.n_cons
        chol = solver._crossover_factor(inst.Q)
        assert chol is not None
        for start in (np.zeros(m), np.ones(m), np.eye(m)[0]):
            y, e, _, _ = solver._crossover(inst.Q, inst.c, inst.A, inst.b, start, chol)
            assert y is None and e.min() >= 0.0
            assert np.abs(inst.A.T @ e).max() <= 1e-12 and inst.b @ e < 0.0
        res = solve_qp(inst)
        assert res.status is SolveStatus.PRIMAL_INFEASIBLE
        assert "certificate" in res.message
        assert res.iterations == 0


def _degenerate_pd_instance(rng, n, m):
    """Strictly convex QP whose optimum x_opt has a random number of active
    rows (often more than n), some rows being positive multiples of others
    and some active rows carrying a zero multiplier."""
    B = rng.normal(size=(n, n))
    Q = B @ B.T + (0.5 + rng.uniform()) * np.eye(n)
    x_opt = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    b = A @ x_opt
    n_active = int(rng.integers(1, m + 1))
    b[n_active:] += rng.uniform(0.1, 1.0, size=m - n_active)
    for i, j in enumerate(rng.integers(0, m, size=int(rng.integers(0, m)))):
        if i != j:
            scale = rng.uniform(0.5, 2.0)
            A[i], b[i] = scale * A[j], scale * b[j]
    active = np.flatnonzero(np.abs(A @ x_opt - b) <= 1e-12 * (1.0 + np.abs(b)))
    u = np.zeros(m)
    u[active] = rng.uniform(size=active.size) * (rng.uniform(size=active.size) < 0.8)
    return QpInstance(Q=Q, c=-Q @ x_opt - A.T @ u, A=A, b=b)


def test_crossover_matches_brute_force_oracle():
    # 200 seeded instances, half of them degenerate, each from a random
    # start of the active set (empty, partial, wrong or too large)
    many_active = 0
    for trial in range(200):
        rng = np.random.default_rng(trial)
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 13))
        if trial % 2:
            inst = _degenerate_pd_instance(rng, n, m)
        else:
            inst = random_pd_instance(rng, n, m)
        start = rng.uniform(size=m) * (rng.uniform(size=m) < rng.uniform())
        y, lam, _, _ = solver._crossover(inst.Q, inst.c, inst.A, inst.b, start,
                                         solver._crossover_factor(inst.Q))
        assert y is not None, trial
        # the oracle's tight feasibility tolerance matters here: at 1e-8 it
        # accepted a point 2e-8 infeasible whose objective lies 8e-9 below
        # the optimum
        ref, _ = brute_force_min(inst.Q, inst.c, inst.A, inst.b)
        assert objective(inst, y) == pytest.approx(ref, abs=1e-9 * (1.0 + abs(ref))), trial
        scale = 1.0 + np.abs(inst.b).max() + np.abs(inst.c).max()
        viol, dual, compl_res = kkt_residuals(inst, y, lam)
        assert max(viol, dual, compl_res) <= 1e-12 * scale, trial
        assert lam.min() >= 0.0
        many_active += np.sum(np.abs(inst.A @ y - inst.b) <= 1e-9 * scale) > n
    assert many_active >= 20


def test_a_start_at_the_optimum_active_set_makes_no_update():
    # a later proximal round starts from the last round's duals; when they
    # name the optimum's active set the finish adds and drops no row. Random
    # strictly convex QPs and a reduced portfolio problem; some cold starts
    # do change rows, so a finish that ignored its start would fail here
    from qproj.datasets import generate_instance

    rng = np.random.default_rng(12)
    cases = [random_pd_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 15)))
             for _ in range(12)]
    inst = generate_instance("portfolio", {"n": 30}, 0)
    proj, _ = forward(init_params(0, h=8, l=2, k=6, h_g=8), inst, 6)
    cases.append(project(inst, proj))
    cold_updates = 0
    for i, inst in enumerate(cases):
        cold = solve_qp(inst)
        assert (cold.status, cold.iterations) == (SolveStatus.SOLVED, 0), i
        cold_updates += cold.adds + cold.drops
        y, lam, adds, drops = solver._crossover(inst.Q, inst.c, inst.A, inst.b,
                                                cold.lambda_star,
                                                solver._crossover_factor(inst.Q))
        assert (adds, drops) == (0, 0), i
        assert objective(inst, y) == pytest.approx(cold.objective, rel=1e-9, abs=1e-12), i
        assert np.count_nonzero(lam) == np.count_nonzero(cold.lambda_star), i
    assert cold_updates > 0


def _bound_instance(rng, n):
    """Strictly convex QP over a box |y_i| <= u_i with a cut row a'y <= h
    that the box meets, plus an exact duplicate, a scaled copy and a sum of
    bound rows. The unconstrained minimizer often violates several bound
    rows; the point on the cut row then violates more of them, duplicates
    and sums included, so block rounds meet dependent violated rows."""
    B = rng.normal(size=(n, n))
    Q = B @ B.T + 0.1 * np.eye(n)
    u = rng.uniform(0.5, 1.5, size=n)
    x_u = rng.normal(size=n) * rng.choice([0.3, 3.0])
    a = rng.normal(size=n)
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([u, u])
    i, j, k = rng.choice(2 * n, size=3, replace=False)
    A = np.vstack([a, A, A[i], 2.0 * A[j], A[j] + A[k]])
    b = np.concatenate([[-np.abs(a) @ u * rng.uniform(0.3, 0.9)], b,
                        [b[i], 2.0 * b[j], b[j] + b[k]]])
    return QpInstance(Q=Q, c=-Q @ x_u, A=A, b=b)


def test_block_rounds_match_brute_force_oracle(monkeypatch):
    # Q passes the gate, so after round 0 the rows that y violates join the
    # active set together, in block rounds, before single steps finish the
    # solve. Cold solves of box QPs start from the rows that the
    # unconstrained minimizer violates; starts from one random row of random
    # QPs make rounds whose appended rows turn multipliers negative, which
    # the round drops at once. Round 0 and the block rounds are the only
    # pivoted QRs (solver._qr), a bulk drop the only QR without pivoting,
    # and a single step's drop the only qr_delete
    import scipy.linalg

    counts = {"solves": 0, "rounds": 0, "dependent": 0, "bulk": 0, "qr_delete": 0}
    qr, qr_delete, crossover = solver._qr, scipy.linalg.qr_delete, solver._crossover

    def counting_crossover(*args):
        counts["solves"] += 1
        return crossover(*args)

    def counting_qr(a, lwork, pivoting):
        out = qr(a, lwork, pivoting)
        if pivoting:
            diag = np.abs(np.diag(out[1]))
            counts["rounds"] += 1
            counts["dependent"] += diag.min(initial=np.inf) <= 1e-12 * diag.max(initial=0.0)
        else:
            counts["bulk"] += 1
        return out

    def counting_qr_delete(*args, **kwargs):
        counts["qr_delete"] += 1
        return qr_delete(*args, **kwargs)

    monkeypatch.setattr(solver, "_qr", counting_qr)
    monkeypatch.setattr(scipy.linalg, "qr_delete", counting_qr_delete)
    monkeypatch.setattr(solver, "_crossover", counting_crossover)
    # min 1/2 |y|^2 - 2 y_3 with rows 1 and 2 equal: round 0 takes row 0,
    # whose point (0, 0, 1, 0) violates rows 1-3, and they fit in the 3 free
    # dimensions. The next round appends rows 1 and 3 but not row 2, which
    # would make the factor singular
    A = np.array([[0, 0, 1, 0], [1, 0, -1, 0], [1, 0, -1, 0], [0, 1, -1, 0]], float)
    inst = QpInstance(Q=np.eye(4), c=[0.0, 0.0, -2.0, 0.0], A=A, b=[1.0, -1.5, -1.5, -1.5])
    res = solve_qp(inst)
    assert (res.status, res.adds, res.drops) == (SolveStatus.SOLVED, 2, 0)
    assert counts == {"solves": 1, "rounds": 2, "dependent": 1, "bulk": 0, "qr_delete": 0}
    np.testing.assert_allclose(res.y_star, [-0.5, -0.5, 1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(res.lambda_star, [2.0, 0.5, 0.0, 0.5], atol=1e-14)
    bulk_dropped = 0
    for trial in range(120):
        rng = np.random.default_rng(trial)
        if trial % 2:
            inst = random_pd_instance(rng, int(rng.integers(3, 7)), int(rng.integers(6, 14)))
            inst = QpInstance(Q=inst.Q, c=5.0 * inst.c, A=inst.A, b=inst.b)
            start = np.eye(inst.n_cons)[rng.integers(inst.n_cons)]
        else:
            inst = _bound_instance(rng, int(rng.integers(3, 6)))
            start = (inst.A @ np.linalg.solve(inst.Q, -inst.c) > inst.b).astype(float)
        before = dict(counts)
        y, lam, _, drops = solver._crossover(inst.Q, inst.c, inst.A, inst.b, start,
                                             solver._crossover_factor(inst.Q))
        bulk_dropped += counts["bulk"] > before["bulk"]
        ref, _ = brute_force_min(inst.Q, inst.c, inst.A, inst.b)
        assert objective(inst, y) == pytest.approx(ref, abs=1e-9 * (1.0 + abs(ref))), trial
        scale = 1.0 + np.abs(inst.b).max() + np.abs(inst.c).max()
        assert max(kkt_residuals(inst, y, lam)) <= 1e-12 * scale, trial
        assert lam.min() >= 0.0
        # the active rows stay linearly independent: a round appends no
        # duplicate or sum of rows already in the factor
        active = inst.A[lam > 0.0]
        assert np.linalg.matrix_rank(active) == active.shape[0], trial
        if trial % 2 == 0:
            res = solve_qp(inst)
            assert (res.status, res.iterations) == (SolveStatus.SOLVED, 0), trial
            assert res.y_star.tobytes() == y.tobytes(), trial
    # every solve's first pivoted QR is its round 0
    assert counts["rounds"] - counts["solves"] >= 30
    assert counts["dependent"] >= 4
    assert bulk_dropped >= 3 and counts["qr_delete"] > 0


def test_crossover_stop_test_scales_with_the_iterate():
    # a cold proximal round starts near y = -c/delta, about 1e6 here; the
    # stop test scaled with ||Ay|| missed the cancellation in A @ y and kept
    # re-adding an active row until the step cap (None on a feasible
    # problem), so the LP with Q = 0 ended MaxIterReached
    rng = np.random.default_rng(34)
    n, m = int(rng.integers(2, 6)), int(rng.integers(1, 9))
    A, b, c = rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=n)
    assert (n, m) == (2, 1)
    Q = 1e-6 * np.eye(2)
    y, lam, _, _ = solver._crossover(Q, c, A, b, np.zeros(1), solver._crossover_factor(Q))
    assert np.abs(y).max() > 1e5 and (A @ y - b).max() <= 1e-12 * np.abs(A).sum() * np.abs(y).max()
    res = solve_qp(QpInstance(Q=np.zeros((n, n)), c=c, A=A, b=b))
    assert res.status is SolveStatus.DUAL_INFEASIBLE
    assert "certificate" in res.message


def test_lp_status_matches_highs():
    # 120 seeded LPs, every third made infeasible by a row that contradicts
    # a positive combination of the others; HiGHS gives the status. 12 of
    # the infeasible ones used to end DualInfeasible.
    from scipy.optimize import linprog

    want = {0: SolveStatus.SOLVED, 2: SolveStatus.PRIMAL_INFEASIBLE,
            3: SolveStatus.DUAL_INFEASIBLE}
    seen = set()
    for trial in range(120):
        rng = np.random.default_rng(trial)
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 9))
        A, b, c = rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=n)
        if trial % 3 == 2:
            w = rng.uniform(0.1, 1.0, size=m)
            A = np.vstack([A, -w @ A])
            b = np.append(b, -w @ b - rng.uniform(0.1, 1.0))
        lp = linprog(c, A_ub=A, b_ub=b, bounds=[(None, None)] * n, method="highs")
        res = solve_qp(QpInstance(Q=np.zeros((n, n)), c=c, A=A, b=b))
        assert res.status is want[lp.status], trial
        if lp.status == 0:
            assert res.objective == pytest.approx(lp.fun, rel=1e-7, abs=1e-12), trial
        else:
            assert "certificate" in res.message, trial
        seen.add(lp.status)
    assert seen == set(want)


def _recorded_qr_deletes(monkeypatch):
    """(column, columns) of every qr_delete, which only a single step's drop
    makes, recorded in a list that the caller may clear."""
    import scipy.linalg

    calls, qr_delete = [], scipy.linalg.qr_delete

    def recording(Q, R, j, *args, **kwargs):
        calls.append((j, Q.shape[1]))
        return qr_delete(Q, R, j, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr_delete", recording)
    return calls


def test_single_step_drops_then_full_steps_match_brute_force_oracle(monkeypatch):
    # W and u live in buffers: a full step writes entry k, and a single
    # step's drop shifts the entries after the dropped one. Random starts
    # make drops of rows inside W, not only its last one; a solve that
    # returns a point ends every step loop with a full step
    calls = _recorded_qr_deletes(monkeypatch)
    inner = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(3, 7)), int(rng.integers(4, 10))
        inst = random_pd_instance(rng, n, m)
        inst = QpInstance(Q=inst.Q, c=5.0 * inst.c, A=inst.A, b=inst.b)
        start = (rng.uniform(size=m) < 0.5).astype(float)
        calls.clear()
        y, lam, adds, drops = solver._crossover(inst.Q, inst.c, inst.A, inst.b, start,
                                                solver._crossover_factor(inst.Q))
        assert y is not None and drops >= len(calls), seed
        ref, _ = brute_force_min(inst.Q, inst.c, inst.A, inst.b)
        assert objective(inst, y) == pytest.approx(ref, rel=1e-9, abs=1e-9), seed
        scale = 1.0 + np.abs(inst.b).max() + np.abs(inst.c).max()
        assert max(kkt_residuals(inst, y, lam)) <= 1e-12 * scale, seed
        assert lam.min() >= 0.0
        inner += any(j < k - 1 for j, k in calls)
    assert inner >= 8


def _farkas_instance(rng):
    """Strictly convex QP whose last row contradicts a positive combination
    of the others: infeasible."""
    n, m = int(rng.integers(2, 6)), int(rng.integers(2, 8))
    B = rng.normal(size=(n, n))
    A, b, c = rng.normal(size=(m, n)), rng.normal(size=m), 5.0 * rng.normal(size=n)
    w = rng.uniform(0.1, 1.0, size=m)
    return QpInstance(Q=B @ B.T + np.eye(n), c=c, A=np.vstack([A, -w @ A]),
                      b=np.append(b, -w @ b - rng.uniform(0.1, 1.0)))


def test_farkas_vector_after_a_single_step_drop(monkeypatch):
    # from an empty start a single step drops a row inside W, and a later
    # step meets a violated row that depends on W with no multiplier to
    # block it: the Farkas vector is -r on the buffered W and 1 on that row
    calls = _recorded_qr_deletes(monkeypatch)
    inner = 0
    for seed in range(40):
        inst = _farkas_instance(np.random.default_rng(seed))
        calls.clear()
        y, e, _, drops = solver._crossover(inst.Q, inst.c, inst.A, inst.b, np.zeros(inst.n_cons),
                                           solver._crossover_factor(inst.Q))
        assert y is None and e is not None, seed
        assert solver._is_farkas(inst.A, inst.b, e), seed
        assert solve_qp(inst).status is SolveStatus.PRIMAL_INFEASIBLE, seed
        inner += any(j < k - 1 for j, k in calls)
    assert inner >= 5


def test_step_cap_exit_after_some_steps(monkeypatch):
    # a cap of s steps (block rounds count too) ends the solve at step s + 1
    # with neither a point nor a vector, after the steps before it wrote the
    # buffers; the smallest cap that lets it finish gives the oracle's optimum
    rng = np.random.default_rng(3)
    inst = random_pd_instance(rng, 6, 12)
    inst = QpInstance(Q=inst.Q, c=5.0 * inst.c, A=inst.A, b=inst.b)
    chol = solver._crossover_factor(inst.Q)
    cols = inst.n_vars + inst.n_cons
    capped = []
    for s in range(0, 40):
        monkeypatch.setattr(solver, "CROSSOVER_MAX_STEPS", (s + 0.5) / cols)
        y, lam, adds, drops = solver._crossover(inst.Q, inst.c, inst.A, inst.b,
                                                np.zeros(inst.n_cons), chol)
        if y is not None:
            break
        assert lam is None
        capped.append(adds + drops)
    assert len(capped) >= 4 and capped[-1] > capped[0]
    ref, _ = brute_force_min(inst.Q, inst.c, inst.A, inst.b)
    assert objective(inst, y) == pytest.approx(ref, rel=1e-9, abs=1e-9)
    monkeypatch.setattr(solver, "CROSSOVER_MAX_STEPS", 1.5 / cols)
    res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.MAX_ITER_REACHED, 0)
    assert "step cap" in res.message


def test_no_rows_leave_the_buffers_empty():
    # m = 0: the buffers of W and u hold nothing, round 0 factors an empty
    # block, and the step loop never runs, above the gate and below it
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        B = rng.normal(size=(n, n))
        inst = QpInstance(Q=B @ B.T + 0.1 * np.eye(n), c=rng.normal(size=n),
                          A=np.zeros((0, n)), b=np.zeros(0))
        res = solve_qp(inst)
        assert (res.status, res.iterations, res.adds, res.drops) == (SolveStatus.SOLVED, 0, 0, 0)
        assert res.lambda_star.shape == (0,)
        ref, _ = brute_force_min(inst.Q, inst.c, inst.A, inst.b)
        assert res.objective == pytest.approx(ref, rel=1e-9, abs=1e-9), seed
    inst = QpInstance(Q=[[1.0, 0.0], [0.0, 0.0]], c=[-1.0, 0.0], A=np.zeros((0, 2)), b=[])
    res = solve_qp(inst)
    assert res.status is SolveStatus.SOLVED and res.iterations > 0
    assert res.objective == pytest.approx(-0.5, rel=1e-9)
