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
    # still called qr_insert. Each row added by step 3 is appended to the
    # active rows' factor in place; seed 1 makes the longest chain, 208
    # appends to 389 active rows
    from qproj.datasets import generate_instance

    inst = generate_instance("regression", {"n": 500, "m": 50}, seed)
    res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.SOLVED, 0)
    assert res.objective == pytest.approx(u_star, rel=1e-12, abs=0.0)
    scale = 1.0 + np.abs(inst.b).max() + np.abs(inst.c).max()
    assert max(kkt_residuals(inst, res.y_star, res.lambda_star)) <= 1e-12 * scale
    if seed == 1:
        assert (res.adds, np.count_nonzero(res.lambda_star)) == (208, 389)


@pytest.mark.parametrize("family, sizes", [
    ("portfolio", {"n": 100}),
    ("control", {"s": 10, "v": 10, "t": 5}),
    ("regression", {"n": 100, "m": 20}),
], ids=["portfolio", "control", "regression"])
def test_cold_reduced_solves_are_solved_at_iteration_0(family, sizes):
    # without a guess the finish starts from the rows that the unconstrained
    # minimizer violates; these solves used to run 25-100 iterations of an
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
    # Dropping all of those per round and refactoring takes 3 QRs where one
    # drop per row would take 48, and leaves 49 adds and 2 drops for step 3
    # (adding the rows one at a time would take about 256 adds)
    from qproj.datasets import generate_instance

    inst = generate_instance("regression", {"n": 500, "m": 50}, 0)
    res = solve_qp(inst)
    assert (res.status, res.iterations) == (SolveStatus.SOLVED, 0)
    assert res.drops <= 5
    assert res.adds <= 60
    y, lam = res.y_star, res.lambda_star
    # the point of the one-row-at-a-time start
    assert objective(inst, y) == pytest.approx(-84.7949129801243, rel=1e-12, abs=0.0)
    assert np.linalg.norm(y) == pytest.approx(0.5756672761455097, rel=1e-12, abs=0.0)
    assert lam.sum() == pytest.approx(3945.9496333470674, rel=1e-12, abs=0.0)
    assert np.count_nonzero(lam) == 256


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
    # from an empty guess every active row is added by a full step. When both
    # wedge rows end active, the later one was appended with the other in
    # the factor, at ||w|| about 1e-7 ||v||: the second Gram-Schmidt pass ran
    both_active = 0
    for seed in range(20):
        inst = _wedge_instance(np.random.default_rng(seed), 4, 1e-7)
        res = solve_qp(inst, guess=np.zeros(4))
        assert res.status is SolveStatus.SOLVED, seed
        ref, _ = brute_force_min(inst.Q, inst.c, inst.A, inst.b)
        # the oracle keeps candidates infeasible by up to 1e-11 (1 + ||b||),
        # which undercut the optimum by at most lambda'(that violation)
        undercut = res.lambda_star.sum() * 1e-11 * (1.0 + np.abs(inst.b).max())
        tol = 1e-9 * (1.0 + abs(ref))
        assert ref - tol <= res.objective <= ref + undercut + tol, seed
        both_active += res.lambda_star[:2].min() > 0.0
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
        assert solver._crossover_factor(inst.Q) is not None
        for guess in (np.zeros(m), np.ones(m), np.eye(m)[0]):
            y, e, _, _ = solver._crossover(inst.Q, inst.c, inst.A, inst.b, guess)
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
    # guess of the active set (empty, partial, wrong or too large)
    many_active = 0
    for trial in range(200):
        rng = np.random.default_rng(trial)
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 13))
        if trial % 2:
            inst = _degenerate_pd_instance(rng, n, m)
        else:
            inst = random_pd_instance(rng, n, m)
        guess = rng.uniform(size=m) * (rng.uniform(size=m) < rng.uniform())
        y, lam, _, _ = solver._crossover(inst.Q, inst.c, inst.A, inst.b, guess)
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


def _guess_cases():
    """(instance, label) pairs whose Q passes the crossover gate: random
    strictly convex QPs and a reduced portfolio problem."""
    from qproj.datasets import generate_instance

    rng = np.random.default_rng(12)
    cases = [(random_pd_instance(rng, int(rng.integers(2, 9)), int(rng.integers(1, 15))),
              f"random {i}") for i in range(12)]
    inst = generate_instance("portfolio", {"n": 30}, 0)
    proj, _ = forward(init_params(0, h=8, l=2, k=6, h_g=8), inst, 6)
    cases.append((project(inst, proj), "reduced portfolio"))
    return cases


def test_a_right_guess_lands_at_iteration_0():
    # the duals of the cold solve guess its own active set exactly, so the
    # finish starts at the optimum and adds or drops no row; some cold starts
    # do change rows, so a solver that dropped the guess would fail here
    cold_updates = 0
    for inst, label in _guess_cases():
        cold = solve_qp(inst)
        cold_updates += cold.adds + cold.drops
        warm = solve_qp(inst, guess=cold.lambda_star)
        assert (warm.status, warm.iterations) == (SolveStatus.SOLVED, 0), label
        assert (warm.adds, warm.drops) == (0, 0), label
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12), label
    assert cold_updates > 0


def test_wrong_guesses_still_give_the_cold_optimum():
    # every row, no row and random rows guessed active: the crossover is exact
    # from any guess. Some guesses land on the optimum's active set with no
    # row change, and some need changes
    rng = np.random.default_rng(13)
    landed = guesses = 0
    for inst, label in _guess_cases():
        cold = solve_qp(inst)
        assert cold.status is SolveStatus.SOLVED, label
        m = inst.n_cons
        for guess in (np.ones(m), np.zeros(m), rng.normal(size=m)):
            res = solve_qp(inst, guess=guess)
            assert res.status is SolveStatus.SOLVED, label
            assert res.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12), label
            viol, dual, compl_res = kkt_residuals(inst, res.y_star, res.lambda_star)
            eps = 1e-8 + 1e-8 * max(np.abs(inst.b).max(), np.abs(inst.c).max())
            assert max(viol, dual, compl_res / 10.0) <= eps, label
            landed += res.adds == res.drops == 0
            guesses += 1
    assert 0 < landed < guesses


def test_a_guess_of_the_wrong_shape_or_not_finite_raises():
    inst = random_pd_instance(np.random.default_rng(14), 4, 6)
    for guess in (np.zeros(5), np.zeros(7), np.zeros((6, 1)), [0.0, 1.0, np.nan, 0.0, 0.0, 0.0],
                  np.full(6, np.inf)):
        with pytest.raises(ValueError, match="guess"):
            solve_qp(inst, guess=guess)


def test_below_the_gate_a_guess_reaches_the_same_optimum():
    # below the gate (singular Q) the guess picks the first proximal round's
    # active set, as it does above the gate
    rng = np.random.default_rng(15)
    for trial in range(4):
        inst = _singular_box_instance(rng, 4, trial, 2)
        assert solver._crossover_factor(inst.Q) is None
        cold = solve_qp(inst)
        assert cold.status is SolveStatus.SOLVED, trial
        for guess in (cold.lambda_star, np.ones(inst.n_cons), rng.normal(size=inst.n_cons)):
            res = solve_qp(inst, guess=guess)
            assert res.status is SolveStatus.SOLVED, trial
            assert res.objective == pytest.approx(cold.objective, rel=1e-7, abs=1e-12), trial


def test_crossover_stop_test_scales_with_the_iterate():
    # a cold proximal round starts near y = -c/delta, about 1e6 here; the
    # stop test scaled with ||Ay|| missed the cancellation in A @ y and kept
    # re-adding an active row until the step cap (None on a feasible
    # problem), so the LP with Q = 0 ended MaxIterReached
    rng = np.random.default_rng(34)
    n, m = int(rng.integers(2, 6)), int(rng.integers(1, 9))
    A, b, c = rng.normal(size=(m, n)), rng.normal(size=m), rng.normal(size=n)
    assert (n, m) == (2, 1)
    y, lam, _, _ = solver._crossover(1e-6 * np.eye(2), c, A, b, np.zeros(1))
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
