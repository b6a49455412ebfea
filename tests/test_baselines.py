import numpy as np
import pytest

from qproj.baselines import (
    adapt_projection,
    direct_loss_grad,
    direct_train,
    load_projection,
    pca_projection,
    rand_projection,
    save_projection,
    sharedp_train,
)
from qproj.core import ProjectionMatrix, QpInstance, project
from qproj.evaluate import direct_method
from qproj.solver import solve_qp
from qproj.training import TrainConfig

from oracles import random_pd_instance


def test_rand_projection_selection_properties():
    pm = rand_projection(10, 3, seed=0)
    assert pm.P.shape == (10, 3)
    # every column is a distinct identity column
    assert np.all(pm.P.sum(axis=0) == 1.0)
    assert np.all((pm.P == 0.0) | (pm.P == 1.0))
    assert np.all(pm.P.sum(axis=1) <= 1.0)

    full = rand_projection(4, 4, seed=1)
    np.testing.assert_allclose(full.P @ full.P.T, np.eye(4))  # permutation

    a = rand_projection(10, 3, seed=0)
    np.testing.assert_array_equal(a.P, pm.P)
    b = rand_projection(10, 3, seed=1)
    assert not np.array_equal(a.P, b.P)
    with pytest.raises(ValueError):
        rand_projection(3, 4, seed=0)


def test_pca_projection_rank_one():
    v = np.array([1.0, 2.0, -2.0])
    sols = np.tile(v, (5, 1))
    pm = pca_projection(sols, 1)
    direction = pm.P[:, 0]
    assert abs(abs(direction @ v) / np.linalg.norm(v) - np.linalg.norm(direction)) <= 1e-12
    np.testing.assert_allclose(np.abs(direction), np.abs(v) / np.linalg.norm(v),
                               atol=1e-12)


def test_pca_projection_span_containment():
    # solutions spanning a 2-dim subspace: any instance optimized within that
    # span is solved exactly by the projected problem
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.normal(size=(6, 2)))[0]
    sols = (basis @ rng.normal(size=(2, 8))).T
    pm = pca_projection(sols, 2)
    np.testing.assert_allclose(pm.P.T @ pm.P, np.eye(2), atol=1e-12)

    # an instance whose unconstrained optimum lies in the span
    x_star = basis @ np.array([1.0, -0.5])
    Q = np.eye(6) * 2.0
    c = -Q @ x_star
    inst = QpInstance(Q=Q, c=c, A=np.zeros((0, 6)), b=[])
    res_full = solve_qp(inst)
    res_proj = solve_qp(project(inst, pm))
    assert res_proj.objective == pytest.approx(res_full.objective, abs=1e-8)


def test_pca_projection_rank_deficient_padding():
    sols = np.tile(np.array([1.0, 0.0, 0.0]), (4, 1))
    with pytest.warns(UserWarning, match="padding"):
        pm = pca_projection(sols, 2)
    np.testing.assert_allclose(pm.P.T @ pm.P, np.eye(2), atol=1e-12)


def test_adapt_projection_pad_and_truncate():
    rng = np.random.default_rng(1)
    P = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    padded = adapt_projection(P, 8)
    assert padded.P.shape == (8, 2)
    np.testing.assert_array_equal(padded.P[5:], 0.0)
    np.testing.assert_allclose(padded.P.T @ padded.P, np.eye(2), atol=1e-12)
    with pytest.warns(UserWarning, match="truncating"):
        cut = adapt_projection(P, 3)
    np.testing.assert_allclose(cut.P.T @ cut.P, np.eye(2), atol=1e-10)


def _feasible_zero_family(seed, count, n=6, m=4):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        B = rng.normal(size=(n, n))
        out.append(QpInstance(Q=B @ B.T + np.eye(n), c=rng.normal(size=n) * 2,
                              A=rng.normal(size=(m, n)),
                              b=rng.uniform(0.3, 1.5, m)))
    return out


def test_sharedp_train_improves_over_random():
    train_set = _feasible_zero_family(0, 6)
    val_set = _feasible_zero_family(1, 2)
    cfg = TrainConfig(k=2, batch_size=3, max_epochs=8, learning_rate=0.05,
                      seed=0)
    shared = sharedp_train(train_set, val_set, cfg)
    np.testing.assert_allclose(shared.P.T @ shared.P, np.eye(2), atol=1e-8)

    rand_p = rand_projection(6, 2, seed=0)
    better = 0
    for inst in val_set:
        u_shared = solve_qp(project(inst, adapt_projection(shared.P, 6))).objective
        u_rand = solve_qp(project(inst, rand_p)).objective
        if u_shared <= u_rand + 1e-9:
            better += 1
    assert better >= 1


def test_sharedp_rejects_mixed_sizes():
    mixed = _feasible_zero_family(0, 2, n=5) + _feasible_zero_family(1, 2, n=6)
    with pytest.raises(ValueError, match="single N"):
        sharedp_train(mixed, mixed[:1], TrainConfig(k=2, batch_size=1, max_epochs=1))


def test_sharedp_zero_padding_rule():
    pm = adapt_projection(np.eye(4)[:, :2], 7)
    assert pm.P.shape == (7, 2)
    np.testing.assert_array_equal(pm.P[4:], 0.0)


def test_direct_loss_grad_values():
    inst = QpInstance(Q=np.eye(1) * 2, c=[0.0], A=[[1.0]], b=[0.0])
    # feasible exact prediction: loss 0
    loss, _ = direct_loss_grad(inst, [0.0], [0.0], 10.0)
    assert loss == 0.0
    # penalty arithmetic: x = 2 violates by 2, coefficient 10 -> adds 20
    loss, _ = direct_loss_grad(inst, [2.0], [2.0], 10.0)
    assert loss == pytest.approx(20.0)


def test_direct_loss_grad_finite_difference():
    rng = np.random.default_rng(2)
    inst = random_pd_instance(rng, 5, 4)
    x_star = rng.normal(size=5)
    x = rng.normal(size=5)
    for lam in (0.1, 10.0):
        _, g = direct_loss_grad(inst, x, x_star, lam)
        h = 1e-7
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            lp, _ = direct_loss_grad(inst, x + e, x_star, lam)
            lm, _ = direct_loss_grad(inst, x - e, x_star, lam)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8) <= 1e-4


def test_direct_train_and_predict():
    train_set = _feasible_zero_family(3, 5)
    val_set = _feasible_zero_family(4, 2)
    cfg = TrainConfig(k=1, batch_size=5, max_epochs=4, hidden=4, layers=1,
                      head_hidden=4, seed=0)
    params, lambda_pen = direct_train(train_set, val_set, cfg)
    assert params.k == 1
    assert lambda_pen in (0.1, 1.0, 10.0, 100.0)
    x = direct_method(params).predict(val_set[0])
    assert x.shape == (6,)


def test_artifact_round_trips(tmp_path):
    rng = np.random.default_rng(5)
    P = np.linalg.qr(rng.normal(size=(5, 2)))[0]

    # the direct model is a model checkpoint, whose round trip
    # test_same_bytes.py checks
    save_projection(tmp_path / "sharedp.json", ProjectionMatrix(P=P), "sharedp")
    back = load_projection(tmp_path / "sharedp.json")
    np.testing.assert_array_equal(back.P, P)

    pca = pca_projection((P @ rng.normal(size=(2, 6))).T, 2)
    save_projection(tmp_path / "pca.json", pca, "pca")
    back = load_projection(tmp_path / "pca.json")
    np.testing.assert_array_equal(back.P, pca.P)
