import numpy as np
import pytest

from qproj.core import QpInstance
from qproj.gnn import (
    backward,
    forward,
    forward_raw,
    init_params,
    load_checkpoint,
    save_checkpoint,
)


def _unconstrained(q, c):
    q = np.asarray(q, float)
    return QpInstance(Q=q, c=c, A=np.zeros((0, q.shape[0])), b=[])


def test_param_count_formula():
    params = init_params(0, h=32, l=4, k=10, h_g=32)
    assert params.to_vector().size == 4 * 32 + 5 * 4 * 32 * 32 + (
        32 * 32 + 32 + 32 * 32 + 32 + 10 * 32 + 10)


def test_init_determinism():
    a = init_params(3, h=8, l=2, k=4, h_g=8)
    b = init_params(3, h=8, l=2, k=4, h_g=8)
    np.testing.assert_array_equal(a.to_vector(), b.to_vector())
    c = init_params(4, h=8, l=2, k=4, h_g=8)
    assert not np.array_equal(a.to_vector(), c.to_vector())
    assert np.all(a.s0v == 0) and np.all(a.b1 == 0)


def test_forward_orthonormality_random():
    rng = np.random.default_rng(0)
    params = init_params(1, h=8, l=2, k=4, h_g=8)
    for trial in range(10):
        n, m = int(rng.integers(5, 15)), int(rng.integers(0, 8))
        B = rng.normal(size=(n, n))
        inst = QpInstance(Q=B @ B.T + np.eye(n), c=rng.normal(size=n),
                          A=rng.normal(size=(m, n)), b=rng.normal(size=m))
        proj, tape = forward(params, inst, 4)
        assert not tape.fallback
        err = np.linalg.norm(proj.P.T @ proj.P - np.eye(4))
        assert err <= 1e-8
        assert np.all(np.diag(tape.r) >= 0)


def test_forward_size_independence():
    params = init_params(2, h=8, l=3, k=2, h_g=8)
    rng = np.random.default_rng(1)
    for n, m in [(5, 3), (9, 0), (12, 7), (3, 11)]:
        B = rng.normal(size=(n, n))
        inst = QpInstance(Q=B @ B.T, c=rng.normal(size=n),
                          A=rng.normal(size=(m, n)), b=rng.normal(size=m))
        proj, _ = forward(params, inst, 2)
        assert proj.P.shape == (n, 2)


def test_zero_params_fallback():
    params = init_params(0, h=4, l=2, k=3, h_g=4)
    zero = params.from_vector(np.zeros(params.to_vector().size))
    inst = _unconstrained(np.eye(5), np.ones(5))
    proj, tape = forward(zero, inst, 3)
    assert tape.fallback
    assert np.linalg.norm(proj.P.T @ proj.P - np.eye(3)) <= 1e-12
    grad = backward(tape, zero, np.ones((5, 3)))
    assert np.all(np.isfinite(grad.to_vector()))


def test_forward_requires_matching_k():
    params = init_params(0, h=4, l=1, k=3, h_g=4)
    inst = _unconstrained(np.eye(5), np.ones(5))
    with pytest.raises(ValueError):
        forward(params, inst, 2)
    small = _unconstrained(np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        forward(params, small, 3)


# --- permutation symmetry -----------------------------------------------
# All message-passing arithmetic is kept exact by using power-of-two data
# grids and power-of-two neighbor counts, so sums are order-independent and
# bitwise assertions are meaningful. Only QR is order-sensitive.

def _dyadic_instance(seed, n=4, m=2):
    rng = np.random.default_rng(seed)
    while True:
        B = rng.integers(-4, 5, size=(n, n)).astype(float) / 8.0
        Q = B.T @ B
        A = rng.integers(1, 5, size=(m, n)).astype(float) / 8.0
        A *= rng.choice([-1.0, 1.0], size=(m, n))
        c = rng.integers(-4, 5, size=n).astype(float) / 8.0
        b = rng.integers(-4, 5, size=m).astype(float) / 8.0
        if np.all(Q != 0) and np.all(A != 0):
            return QpInstance(Q=Q, c=c, A=A, b=b)


def _dyadic_params(seed, k):
    params = init_params(seed, h=4, l=2, k=k, h_g=4)
    vec = np.round(params.to_vector() * 8.0) / 8.0
    params = params.from_vector(vec)
    # positive head hidden weights keep leaky-relu on its exact (identity)
    # branch for the nonnegative post-relu embeddings
    rng = np.random.default_rng(seed + 1)
    params.g1 = rng.integers(1, 5, size=params.g1.shape).astype(float) / 8.0
    params.g2 = rng.integers(1, 5, size=params.g2.shape).astype(float) / 8.0
    return params


def test_constraint_permutation_invariance_bitwise():
    inst = _dyadic_instance(0)
    params = _dyadic_params(5, k=2)
    proj, _ = forward(params, inst, 2)
    perm = np.array([1, 0])
    inst_p = QpInstance(Q=inst.Q, c=inst.c, A=inst.A[perm], b=inst.b[perm])
    proj_p, _ = forward(params, inst_p, 2)
    np.testing.assert_array_equal(proj.P, proj_p.P)


def test_variable_permutation_equivariance():
    inst = _dyadic_instance(3)
    params = _dyadic_params(7, k=2)
    proj, tape = forward(params, inst, 2)
    perm = np.array([2, 0, 3, 1])
    inst_p = QpInstance(Q=inst.Q[np.ix_(perm, perm)], c=inst.c[perm],
                        A=inst.A[:, perm], b=inst.b)
    proj_p, tape_p = forward(params, inst_p, 2)
    # pre-QR head output permutes bitwise (all arithmetic exact)
    np.testing.assert_array_equal(tape_p.p_raw, tape.p_raw[perm])
    # after QR: equivariant up to factorization roundoff, signs pinned
    np.testing.assert_allclose(proj_p.P, proj.P[perm], atol=1e-12)
    assert np.all(np.diag(tape.r) >= 0) and np.all(np.diag(tape_p.r) >= 0)


def test_empty_neighbor_sets_contribute_zero():
    # no constraints and diagonal Q: var-con term must vanish, not NaN
    params = init_params(1, h=4, l=2, k=2, h_g=4)
    inst = _unconstrained(np.eye(4), np.ones(4))
    proj, tape = forward(params, inst, 2)
    assert np.all(np.isfinite(proj.P))
    assert np.all(tape.agg_cv[0] == 0.0)


# --- gradients ------------------------------------------------------------

def _loss_and_grad(params, inst, k, G):
    proj, tape = forward(params, inst, k)
    return float(np.sum(G * proj.P)), backward(tape, params, G).to_vector()


def _well_conditioned_setup(n, m, k, h, l, h_g):
    """Choose a seed whose raw head output is well conditioned, so central
    differences are trustworthy at moderate step sizes."""
    rng = np.random.default_rng(1234)
    B = rng.normal(size=(n, n))
    inst = QpInstance(Q=B @ B.T + np.eye(n), c=rng.normal(size=n),
                      A=rng.normal(size=(m, n)), b=rng.uniform(0.5, 2.0, m))
    for seed in range(50):
        params = init_params(seed, h=h, l=l, k=k, h_g=h_g)
        _, tape = forward(params, inst, k)
        s = np.linalg.svd(tape.p_raw, compute_uv=False)
        if s[-1] > 0.05 * s[0]:
            return params, inst
    raise AssertionError("no well-conditioned seed found")


def test_backward_zero_cotangent_gives_zero_gradient():
    params, inst = _well_conditioned_setup(6, 4, 2, 4, 2, 4)
    _, tape = forward(params, inst, 2)
    grad = backward(tape, params, np.zeros((6, 2)))
    assert np.all(grad.to_vector() == 0.0)


def test_backward_toy_model_finite_difference():
    # two variables, one layer, one hidden unit, one output column
    params, inst = _well_conditioned_setup(2, 1, 1, 1, 1, 1)
    rng = np.random.default_rng(0)
    G = rng.normal(size=(2, 1))
    _, grad = _loss_and_grad(params, inst, 1, G)
    vec = params.to_vector()
    h = 1e-5
    for i in range(vec.size):
        e = np.zeros_like(vec)
        e[i] = h
        lp, _ = _loss_and_grad(params.from_vector(vec + e), inst, 1, G)
        lm, _ = _loss_and_grad(params.from_vector(vec - e), inst, 1, G)
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(grad[i]), 1e-6)   # floor: both-zero entries
        assert abs(fd - grad[i]) / denom <= 1e-4, f"parameter {i}"


def test_backward_full_model_directional_derivatives():
    params, inst = _well_conditioned_setup(8, 5, 3, 4, 2, 4)
    rng = np.random.default_rng(3)
    G = rng.normal(size=(8, 3))
    _, grad = _loss_and_grad(params, inst, 3, G)
    vec = params.to_vector()
    h = 1e-6
    for trial in range(20):
        d = rng.normal(size=vec.size)
        d /= np.linalg.norm(d)
        lp, _ = _loss_and_grad(params.from_vector(vec + h * d), inst, 3, G)
        lm, _ = _loss_and_grad(params.from_vector(vec - h * d), inst, 3, G)
        fd = (lp - lm) / (2 * h)
        an = float(grad @ d)
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-10) <= 1e-3


def test_backward_raw_path_exact():
    rng = np.random.default_rng(4)
    B = rng.normal(size=(6, 6))
    inst = QpInstance(Q=B @ B.T, c=rng.normal(size=6),
                      A=rng.normal(size=(3, 6)), b=rng.normal(size=3))
    params = init_params(2, h=4, l=2, k=1, h_g=4)
    G = rng.normal(size=(6, 1))
    x, tape = forward_raw(params, inst)
    grad = backward(tape, params, G).to_vector()
    vec = params.to_vector()
    h = 1e-6
    for trial in range(5):
        d = rng.normal(size=vec.size)
        d /= np.linalg.norm(d)
        def val(v):
            praw, _ = forward_raw(params.from_vector(v), inst)
            return float(np.sum(G * praw))
        fd = (val(vec + h * d) - val(vec - h * d)) / (2 * h)
        assert abs(fd - grad @ d) / max(abs(fd), 1e-10) <= 1e-6


def test_checkpoint_round_trip(tmp_path):
    params = init_params(11, h=6, l=2, k=3, h_g=5)
    path = tmp_path / "model.json"
    save_checkpoint(path, params, seed=11, extra={"note": "test"})
    back = load_checkpoint(path)
    np.testing.assert_array_equal(back.to_vector(), params.to_vector())
    assert back.hidden == 6 and back.layers == 2 and back.k == 3
