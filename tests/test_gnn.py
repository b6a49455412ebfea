import numpy as np
import pytest

from qproj import gnn
from qproj.core import QpInstance, project
from qproj.datasets import gen_regression
from qproj.gnn import (
    backward,
    forward,
    forward_raw,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from qproj.solver import SolveStatus, SolverSettings, solve_qp
from qproj.training import envelope_grad

from oracles import dense_gnn


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


def test_constraint_permutation_invariance_bitwise_with_bound_rows(monkeypatch):
    # dyadic bound rows in pairs per column (boxes) keep every column degree
    # at 2 or 4; the split sorts them by column, so a row permutation changes
    # only the order of exact sums
    monkeypatch.setattr(gnn, "SPLIT_MIN_ENTRIES", 0)
    inst = _dyadic_instance(0)
    e = np.eye(4)
    A = np.vstack([inst.A, 0.5 * e[[1]], -2.5 * e[[1]], 0.25 * e[[3]], -e[[3]],
                   0.75 * e[[0]], -0.5 * e[[0]]])
    b = np.concatenate([inst.b, [0.5, 0.25, 0.125, 0.5, 0.75, 0.25]])
    params = _dyadic_params(5, k=2)
    proj, tape = forward(params, QpInstance(Q=inst.Q, c=inst.c, A=A, b=b), 2)
    assert tape.rows.split == 2
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(len(b))
        proj_p, _ = forward(params, QpInstance(Q=inst.Q, c=inst.c, A=A[perm], b=b[perm]), 2)
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


# --- bound rows -----------------------------------------------------------
# A row of A with one nonzero passes its messages by a gather and a
# scatter-add; tests.oracles.dense_gnn is the same network with every row
# in one dense product. SPLIT_MIN_ENTRIES = 0 puts these small instances on
# the split path; in each, at least half of the rows are bounds.

def _bound_instance(case, n=6):
    rng = np.random.default_rng(20)
    B = rng.normal(size=(n, n))
    e, dense = np.eye(n), rng.normal(size=(2, n))
    A = {"regression": np.vstack([dense, -e]),                # [A'; -I]
         "box": np.vstack([e[[1]], dense, -e[[1]], -e[[4]]]),  # two rows on x_1
         "coefficient": np.vstack([dense, 2.5 * e[[3]], -e[[0]]]),
         "zero_row": np.vstack([dense[:1], np.zeros((1, n)), -e[[2]], e[[5]], dense[1:],
                                e[[0]]]),
         "all_bounds": np.vstack([-e[[5, 0, 2]], e[[0]]]),
         "no_rows": np.zeros((0, n))}[case]
    return QpInstance(Q=B @ B.T + np.eye(n), c=rng.normal(size=n), A=A,
                      b=rng.uniform(0.5, 2.0, len(A)))


def _assert_matches_dense(params, inst, k):
    G = np.random.default_rng(5).normal(size=(inst.n_vars, k))
    proj, tape = forward(params, inst, k)
    assert not tape.fallback
    P_ref, grad_ref = dense_gnn(params, inst, G)
    np.testing.assert_allclose(proj.P, P_ref, rtol=0, atol=1e-12)
    grad = backward(tape, params, G).to_vector()
    assert np.abs(grad - grad_ref).max() <= 1e-10 * np.abs(grad_ref).max()
    return tape


@pytest.mark.parametrize("case", ["regression", "box", "coefficient", "zero_row",
                                  "all_bounds", "no_rows"])
def test_bound_rows_match_dense_reference(case, monkeypatch):
    monkeypatch.setattr(gnn, "SPLIT_MIN_ENTRIES", 0)
    inst = _bound_instance(case)
    tape = _assert_matches_dense(init_params(3, h=8, l=2, k=3, h_g=8), inst, 3)
    n_bound = int((np.count_nonzero(inst.A, axis=1) == 1).sum())
    assert tape.rows.split == inst.n_cons - n_bound


def test_split_size_rule():
    # regression N=100 (s * N = 10^4) stays on the dense path, N=200
    # (4 * 10^4) splits its 200 bound rows (91% of A's) off. Control
    # s = v = 40 has 80 bound rows of 800 (s * N = 32,000): too few of the
    # rows for the split to pay for copying the other rows out of A
    from qproj.datasets import gen_control

    params = init_params(1, h=8, l=2, k=3, h_g=8)
    _, tape = forward(params, gen_regression(n=100, m=10, seed=0), 3)
    assert tape.rows.split == 110 and tape.rows.val is None
    tape = _assert_matches_dense(params, gen_regression(n=200, m=20, seed=0), 3)
    assert tape.rows.split == 20
    inst = gen_control(s=40, v=40, t=5, seed=0)
    nz = inst.A != 0.0
    bound = nz.sum(axis=1) == 1
    assert (inst.A.shape, int(bound.sum())) == ((800, 400), 80)
    assert int(bound.sum()) * inst.A.shape[1] >= gnn.SPLIT_MIN_ENTRIES
    _, tape = forward(params, inst, 3)
    assert tape.rows.split == 800 and tape.rows.val is None


def test_end_to_end_theta_gradient_with_bound_rows(monkeypatch):
    # criterion 3 on an instance whose bound rows include a box on x_1, so
    # the finite differences pass through the gather and the scatter-add
    monkeypatch.setattr(gnn, "SPLIT_MIN_ENTRIES", 0)
    fd_settings = SolverSettings(eps_abs=1e-10, eps_rel=1e-10)
    rng = np.random.default_rng(11)
    n, k = 8, 3
    B, e = rng.normal(size=(n, n)), np.eye(n)
    A = np.vstack([rng.normal(size=(3, n)), e[[1]], -e[[1]], 2.5 * e[[4]], -e[[6]]])
    inst = QpInstance(Q=B @ B.T + np.eye(n), c=2 * rng.normal(size=n), A=A,
                      b=np.concatenate([rng.uniform(0.5, 2.0, 3), [0.3, 0.2, 1.0, 0.1]]))
    params = None
    for seed in range(60):
        cand = init_params(seed, h=4, l=2, k=k, h_g=4)
        _, tape = forward(cand, inst, k)
        s = np.linalg.svd(tape.p_raw, compute_uv=False)
        if s[-1] > 0.05 * s[0]:
            params = cand
            break
    assert params is not None and tape.rows.split == 3

    proj0, tape0 = forward(params, inst, k)
    res0 = solve_qp(project(inst, proj0), fd_settings)
    assert res0.status is SolveStatus.SOLVED
    assert (res0.lambda_star > 1e-8).any()
    grad = backward(tape0, params, envelope_grad(inst, proj0.P, res0.y_star,
                                                 res0.lambda_star)).to_vector()

    def u_of(vec):
        proj, _ = forward(params.from_vector(vec), inst, k)
        res = solve_qp(project(inst, proj), fd_settings)
        assert res.status is SolveStatus.SOLVED
        return res.objective

    vec, h = params.to_vector(), 1e-6
    for trial in range(20):
        d = rng.normal(size=vec.size)
        d /= np.linalg.norm(d)
        fd = (u_of(vec + h * d) - u_of(vec - h * d)) / (2 * h)
        an = float(grad @ d)
        # 2.5e-7 at worst here; criterion 3's 1e-2 would let a scatter that
        # drops one row of the box through (7e-3)
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-10) <= 1e-4, f"direction {trial}"


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
