import numpy as np
import pytest

from qproj import baselines, training
from qproj.core import ProjectionMatrix, QpInstance, project
from qproj.evaluate import (
    SolutionCache,
    direct_method,
    evaluate_method,
    fixed_method,
    ours_method,
)
from qproj.gnn import forward, init_params, backward
from qproj.solver import SolveStatus, SolverSettings, solve_qp
from qproj.training import (
    VALIDATION_PENALTY,
    TrainConfig,
    envelope_grad,
    train,
    validation_loss,
)

from oracles import random_pd_instance, u_of_raw_projection, active_set


def test_envelope_grad_zero_solution():
    inst = QpInstance(Q=np.eye(3), c=[0, 0, 0], A=np.zeros((1, 3)), b=[1.0])
    P = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 2)))[0]
    g = envelope_grad(inst, P, np.zeros(2), np.zeros(1))
    np.testing.assert_array_equal(g, np.zeros((3, 2)))


def test_envelope_grad_hand_example():
    # stationary reparametrization: P = identity on a solved instance
    inst = QpInstance(Q=[[2.0]], c=[-2.0], A=[[1.0]], b=[0.5])
    g = envelope_grad(inst, np.array([[1.0]]), np.array([0.5]), np.array([1.0]))
    assert g[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_envelope_grad_dimension_checks():
    inst = QpInstance(Q=np.eye(2), c=[0, 0], A=np.zeros((1, 2)), b=[1.0])
    with pytest.raises(ValueError):
        envelope_grad(inst, np.eye(2), np.zeros(3), np.zeros(1))
    with pytest.raises(ValueError):
        envelope_grad(inst, np.eye(2), np.zeros(2), np.zeros(2))


def test_envelope_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    fd_settings = SolverSettings(eps_abs=1e-10, eps_rel=1e-10)
    checked = 0
    for trial in range(6):
        n, m, k = 5, 6, 2
        inst = random_pd_instance(rng, n, m)
        q, _ = np.linalg.qr(rng.normal(size=(n, k)))
        P = q
        red = project(inst, ProjectionMatrix(P=P))
        res = solve_qp(red, fd_settings)
        if res.status is not SolveStatus.SOLVED:
            continue
        g = envelope_grad(inst, P, res.y_star, res.lambda_star)
        h = 1e-5
        base_act = active_set(res)
        for i, j in [(0, 0), (2, 1), (4, 0)]:
            E = np.zeros_like(P)
            E[i, j] = h
            up, rp = u_of_raw_projection(inst, P + E, fd_settings)
            um, rm = u_of_raw_projection(inst, P - E, fd_settings)
            fd = (up - um) / (2 * h)
            if active_set(rp) != base_act or active_set(rm) != base_act:
                continue          # kink: envelope derivative not defined
            if max(abs(fd), abs(g[i, j])) < 1e-6:
                continue
            checked += 1
            assert abs(fd - g[i, j]) / max(abs(fd), abs(g[i, j])) <= 1e-3
    assert checked >= 8


def test_surrogate_gradient_realizes_chain_rule():
    # d/dtheta <envelope_grad(frozen), P(theta)> equals finite differences of
    # u(f_theta(pi), pi)
    rng = np.random.default_rng(8)
    fd_settings = SolverSettings(eps_abs=1e-10, eps_rel=1e-10)
    n, m, k = 6, 5, 2
    B = rng.normal(size=(n, n))
    inst = QpInstance(Q=B @ B.T + np.eye(n), c=2 * rng.normal(size=n),
                      A=rng.normal(size=(m, n)), b=rng.uniform(0.5, 2.0, m))

    params = None
    for seed in range(40):
        cand = init_params(seed, h=4, l=2, k=k, h_g=4)
        _, tape = forward(cand, inst, k)
        s = np.linalg.svd(tape.p_raw, compute_uv=False)
        if s[-1] > 0.05 * s[0]:
            params = cand
            break
    assert params is not None

    def u_of(vec):
        proj, _ = forward(params.from_vector(vec), inst, k)
        res = solve_qp(project(inst, proj), fd_settings)
        assert res.status is SolveStatus.SOLVED
        return res.objective, proj

    vec = params.to_vector()
    proj0, tape0 = forward(params, inst, k)
    res0 = solve_qp(project(inst, proj0), fd_settings)
    g_env = envelope_grad(inst, proj0.P, res0.y_star, res0.lambda_star)
    grad_theta = backward(tape0, params, g_env).to_vector()

    h = 1e-6
    agree = 0
    for trial in range(10):
        d = rng.normal(size=vec.size)
        d /= np.linalg.norm(d)
        up, _ = u_of(vec + h * d)
        um, _ = u_of(vec - h * d)
        fd = (up - um) / (2 * h)
        an = float(grad_theta @ d)
        if abs(fd - an) / max(abs(fd), abs(an), 1e-8) <= 1e-2:
            agree += 1
    assert agree >= 9


def test_validation_loss_counts_failures():
    # every full solve is Solved. The shared 1 x 1 projection is the identity
    # on the three one-variable instances, so their errors are ~0; on the
    # two-variable instance it is zero-padded to e1, the projection onto x0,
    # so the reduced problem cannot meet x1 >= 1 and is infeasible
    good = [QpInstance(Q=[[2.0]], c=[-1.0], A=[[1.0]], b=[1.0]) for _ in range(3)]
    bad = QpInstance(Q=np.eye(2), c=[0.0, 0.0], A=[[0.0, -1.0]], b=[-1.0])
    cache = SolutionCache()
    assert all(e["status"] == "Solved" for e in cache.warm(good + [bad]))
    loss = validation_loss(fixed_method(np.eye(1), "sharedp"), good + [bad], cache)
    assert loss == pytest.approx(1.0 + 0.25 * 1e6, abs=1e-3)


def _recording_fits(monkeypatch):
    """The (vector, best epoch, losses) of every adam_fit call of a trainer."""
    fits, adam_fit = [], training.adam_fit

    def recording_fit(*args, **kwargs):
        fits.append(adam_fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(training, "adam_fit", recording_fit)
    monkeypatch.setattr(baselines, "adam_fit", recording_fit)
    return fits


@pytest.mark.parametrize("trainer", ["ours", "sharedp", "direct"])
def test_best_validation_loss_is_the_eval_sum(monkeypatch, trainer):
    # the loss each trainer keeps for its best epoch is, bit for bit, the
    # summed relative error that evaluate_method reports for the returned
    # model or projection on the validation split, plus the failure penalty
    train_set, val_set = _tiny_family(10, 6, n=6), _tiny_family(11, 3, n=6)
    cfg = TrainConfig(k=1 if trainer == "direct" else 2, batch_size=3, max_epochs=3,
                      hidden=4, layers=1, head_hidden=4, record_timings=False)
    fits = _recording_fits(monkeypatch)
    if trainer == "ours":
        method = ours_method(train(train_set, val_set, cfg)[0])
    elif trainer == "sharedp":
        method = fixed_method(baselines.sharedp_train(train_set, val_set, cfg).P,
                                       "sharedp")
    else:
        method = direct_method(baselines.direct_train(train_set, val_set, cfg)[0])
    best = min(losses[epoch] for _, epoch, losses in fits)
    records = evaluate_method(method, val_set, timing_repeats=0)
    failures = sum(not rec.feasible for rec in records)
    assert best == (sum(rec.relative_error for rec in records)
                    + (failures / len(records)) * VALIDATION_PENALTY)


def _tiny_family(seed, count, n=10, m=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        B = rng.normal(size=(2 * n, n)) * 0.5
        Q = 2.0 * B.T @ B
        c = -2.0 * B.T @ rng.normal(size=2 * n)
        A = np.vstack([rng.uniform(0, 1, size=(m, n)), -np.eye(n)])
        b = np.concatenate([rng.uniform(0.5, 1.5, m) * n, np.zeros(n)])
        out.append(QpInstance(Q=Q, c=c, A=A, b=b))
    return out


def test_train_trivial_instance_loss_zero():
    # optimum is y = 0 for any projection, so the inner optimum is always 0
    inst = QpInstance(Q=np.eye(3), c=[0, 0, 0], A=np.eye(3), b=np.ones(3))
    cfg = TrainConfig(k=2, batch_size=1, max_epochs=3, hidden=4, layers=1,
                      head_hidden=4, seed=1)
    params, report = train([inst], [inst], cfg)
    assert all(abs(v) <= 1e-9 for v in report.train_loss)
    assert all(abs(v) <= 1e-6 for v in report.val_loss)


def test_train_decreases_objective_and_is_deterministic():
    train_set = _tiny_family(0, 8)
    val_set = _tiny_family(1, 3)
    cfg = TrainConfig(k=3, batch_size=4, max_epochs=6, hidden=6, layers=2,
                      head_hidden=6, seed=2, record_timings=False)
    params_a, report_a = train(train_set, val_set, cfg)
    params_b, report_b = train(train_set, val_set, cfg)
    np.testing.assert_array_equal(params_a.to_vector(), params_b.to_vector())
    assert report_a.train_loss == report_b.train_loss
    assert report_a.val_loss == report_b.val_loss
    assert report_a.failures == report_b.failures
    # best epoch minimizes validation loss
    assert report_a.best_epoch == int(np.argmin(report_a.val_loss))
    # learning signal: final epochs beat the first
    assert min(report_a.train_loss[1:]) < report_a.train_loss[0] + 1e-12


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(k=0)
    with pytest.raises(ValueError):
        TrainConfig(k=2, learning_rate=-1.0)
    inst = QpInstance(Q=np.eye(2), c=[0, 0], A=np.zeros((0, 2)), b=[])
    with pytest.raises(ValueError):
        train([inst], [inst], TrainConfig(k=1, batch_size=5, max_epochs=1))


def test_train_report_csv(tmp_path):
    train_set = _tiny_family(3, 3, n=6)
    cfg = TrainConfig(k=2, batch_size=3, max_epochs=2, hidden=4, layers=1,
                      head_hidden=4, record_timings=False)
    _, report = train(train_set, train_set, cfg)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,failures,seconds"
    assert len(lines) == 3
    assert all(line.split(",")[4] == "0.0" for line in lines[1:])


@pytest.mark.parametrize("family, sizes", [
    ("portfolio", {"n": 40}),
    ("control", {"s": 4, "v": 4, "t": 5}),
])
def test_best_validation_loss_is_reproducible_from_the_parameters(family, sizes):
    # the loss train() records for its best epoch is the validation loss of
    # the returned parameters, bit for bit: no solve depends on the solves
    # before it. It differed by 7e-14 (portfolio) and 7e-16 (control) while
    # training guessed each validation solve from its duals of the last epoch
    from qproj.datasets import generate_instance

    n_train, n_val, epochs = 12, 6, 3
    sets = [generate_instance(family, sizes, seed) for seed in range(n_train + n_val)]
    train_set, val_set = sets[:n_train], sets[n_train:]
    cfg = TrainConfig(k=10, batch_size=4, max_epochs=epochs, hidden=8, layers=2,
                      head_hidden=8, record_timings=False)
    params, report = train(train_set, val_set, cfg)
    assert report.failures == [0] * epochs
    assert report.best_epoch > 0
    loss = validation_loss(ours_method(params), val_set, SolutionCache(settings=cfg.solver))
    assert loss == report.val_loss[report.best_epoch]
