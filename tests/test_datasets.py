import numpy as np
import pytest

from qproj.core import (
    EqQpInstance,
    QpInstance,
    eliminate_eq_doubling,
    eliminate_eq_nullspace,
    max_violation,
    objective,
    read_json_object,
    save_instance,
)
from qproj.datasets import (
    DatasetManifest,
    _check_generated,
    control_eq_instance,
    gen_control,
    gen_portfolio,
    gen_regression,
    gen_split,
    portfolio_eq_instance,
)
from qproj.solver import solve_qp


def test_regression_shapes_and_feasibility():
    inst = gen_regression(n=8, m=3, t=16, seed=0)
    assert inst.n_vars == 8
    assert inst.n_cons == 3 + 8
    assert max_violation(inst, np.zeros(8)) == 0.0
    assert inst.b.min() >= 0.0
    assert inst.eigenvalues[0] > 0


def test_regression_default_t_and_scaling():
    inst = gen_regression(n=6, m=2, seed=1)
    assert inst.meta["t"] == 12
    # b' entries were scaled by n: all in (0, n)
    assert inst.b[:2].max() <= 6.0
    assert inst.b[:2].min() > 0.0


def test_regression_determinism():
    a = gen_regression(n=4, m=2, t=8, seed=0)
    b = gen_regression(n=4, m=2, t=8, seed=0)
    np.testing.assert_array_equal(a.Q, b.Q)
    np.testing.assert_array_equal(a.c, b.c)
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.b, b.b)
    c = gen_regression(n=4, m=2, t=8, seed=1)
    assert not np.array_equal(a.Q, c.Q)


def test_portfolio_structure():
    eq, u0 = portfolio_eq_instance(12, seed=3)
    # uniform point satisfies the budget and return constraints exactly
    assert abs(eq.A_eq @ u0 - eq.b_eq).max() <= 1e-12
    assert (eq.A_ineq @ u0 - eq.b_ineq).max() <= 1e-12
    # covariance shift keeps eigenvalues >= 1e-2
    assert np.linalg.eigvalsh(eq.Q).min() >= 1e-2 - 1e-12

    inst = gen_portfolio(12, seed=3)
    assert inst.n_vars == 12
    assert inst.n_cons == 13           # -x <= 0 rows plus the return row
    assert inst.b.min() >= -1e-10      # x = 0 feasible
    assert inst.eigenvalues[1] > 0      # one structural zero per equality row


def test_portfolio_round_trip_objective():
    eq, u0 = portfolio_eq_instance(10, seed=4)
    inst, rec = eliminate_eq_nullspace(eq, u0)
    # transformed objective at x = 0 plus the stored constant equals the
    # uniform-portfolio variance
    uniform_risk = 0.5 * u0 @ (eq.Q @ u0)
    assert objective(inst, np.zeros(10)) + rec.constant == pytest.approx(
        uniform_risk, rel=1e-12)
    assert inst.meta == {} or True
    assert gen_portfolio(10, seed=4).meta["recovery_constant"] == pytest.approx(
        rec.constant)


def test_control_structure():
    eq, u0 = control_eq_instance(s=3, v=2, t=4, seed=5)
    n = (3 + 2) * 4
    assert eq.n_vars == n
    assert eq.A_eq.shape == (3 * 4, n)
    assert eq.A_ineq.shape == (2 * n, n)
    # feasible point satisfies dynamics and the initial condition exactly
    assert np.abs(eq.A_eq @ u0 - eq.b_eq).max() <= 1e-12
    assert (eq.A_ineq @ u0 - eq.b_ineq).max() <= 0.0
    # pre-elimination Hessian is block diagonal with identity state blocks
    assert np.all(np.diag(eq.Q)[:3] == 1.0)
    weight = eq.Q[3, 3]
    assert np.all(np.diag(eq.Q)[3:5] == weight)

    inst = gen_control(s=3, v=2, t=4, seed=5)
    assert inst.n_vars == n
    assert inst.n_cons == 2 * n
    assert inst.b.min() >= -1e-10
    assert inst.eigenvalues[3 * 4] > 0


def _desk_instance(family, seed):
    """A desk-size instance of family before its generator's check, with the
    elimination's projector D and the number of equality rows it removed."""
    if family == "regression":
        return gen_regression(n=100, m=50, seed=seed), np.eye(100), 0
    if family == "portfolio":
        eq, u0 = portfolio_eq_instance(100, seed)
    else:
        eq, u0 = control_eq_instance(s=10, v=10, t=5, seed=seed)
    inst, rec = eliminate_eq_nullspace(eq, u0)
    return inst, rec.D, eq.A_eq.shape[0]


def _passes_check(inst, D):
    try:
        _check_generated(inst, D)
    except ValueError as exc:
        assert "not positive definite on its subspace" in str(exc)
        return False
    return True


@pytest.mark.parametrize("family", ["regression", "portfolio", "control"])
def test_generated_check_makes_the_eigenvalue_decision(family):
    # the Cholesky test on Q + (I - D) passes exactly when the smallest
    # eigenvalue past the n_eq structural zeros is above 1e-10: on each
    # seed's Q, and on that Q with that eigenvalue taken out
    for seed in range(5):
        inst, D, n_eq = _desk_instance(family, seed)
        eigs, vecs = np.linalg.eigh(inst.Q)
        v = vecs[:, n_eq]
        deflated = QpInstance(Q=inst.Q - eigs[n_eq] * np.outer(v, v), c=inst.c,
                              A=inst.A, b=inst.b)
        for q_inst, expected in ((inst, True), (deflated, False)):
            rule = np.linalg.eigvalsh(q_inst.Q)[n_eq] > 1e-10
            assert rule == expected
            assert _passes_check(q_inst, D) == rule


def test_generated_check_rejects_a_hessian_singular_on_its_subspace():
    # regression with fewer targets than variables: Q = 2 F'F has rank t < n
    with pytest.raises(ValueError, match="not positive definite on its subspace"):
        gen_regression(n=20, m=5, t=10, seed=0)
    # Q vanishes on e3, which lies in null(A_eq)
    eq = EqQpInstance(Q=np.diag([1.0, 1.0, 0.0]), c=np.zeros(3),
                      A_ineq=np.zeros((0, 3)), b_ineq=[],
                      A_eq=[[1.0, 1.0, 0.0]], b_eq=[0.0])
    inst, rec = eliminate_eq_nullspace(eq, np.zeros(3))
    with pytest.raises(ValueError, match="not positive definite on its subspace"):
        _check_generated(inst, rec.D)


def test_control_n_500_at_full_scale():
    # shape-only check of the full-scale default dimensions
    eq, _ = control_eq_instance(s=50, v=50, t=5, seed=0)
    assert eq.n_vars == 500
    assert eq.A_ineq.shape[0] == 1000
    assert eq.A_eq.shape[0] == 250


def test_control_doubling_and_nullspace_agree():
    eq, u0 = control_eq_instance(s=2, v=2, t=3, seed=6)
    u_doubling = solve_qp(eliminate_eq_doubling(eq)).objective
    inst, rec = eliminate_eq_nullspace(eq, u0)
    u_null = solve_qp(inst).objective + rec.constant
    assert u_doubling == pytest.approx(u_null, abs=1e-6)


def test_gen_split_writes_manifest_and_files(tmp_path):
    man = gen_split("regression", {"n": 6, "m": 2, "t": 12},
                    {"train": 3, "val": 2, "test": 2}, base_seed=10,
                    out_dir=tmp_path)
    assert len(man.files) == 7
    loaded = DatasetManifest.load(tmp_path / "manifest.json")
    assert loaded.family == "regression"
    assert loaded.counts == {"train": 3, "val": 2, "test": 2}
    train = loaded.load_split("train")
    assert len(train) == 3
    assert train[0].meta["split"] == "train"
    # disjoint seed ranges across splits
    seeds = [f["seed"] for f in loaded.files]
    assert seeds == list(range(10, 17))


def test_gen_split_bitwise_reproducible(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    gen_split("portfolio", {"n": 6}, {"train": 2, "val": 1, "test": 1},
              base_seed=0, out_dir=d1)
    gen_split("portfolio", {"n": 6}, {"train": 2, "val": 1, "test": 1},
              base_seed=0, out_dir=d2)
    for f in sorted(p.name for p in d1.iterdir()):
        assert (d1 / f).read_bytes() == (d2 / f).read_bytes(), f


def test_gen_split_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        gen_split("nope", {}, {"train": 1, "val": 1, "test": 1}, 0, tmp_path)
    with pytest.raises(ValueError):
        gen_split("regression", {"n": 4, "m": 1, "t": 8},
                  {"train": 1, "val": 0, "test": 1}, 0, tmp_path)


def test_manifest_records_rng():
    inst = gen_regression(n=4, m=1, t=8, seed=0)
    assert inst.meta["family"] == "regression"
    # manifest carries the generator identity


def test_trivial_objective_is_zero():
    for inst in [gen_regression(n=5, m=2, t=10, seed=2),
                 gen_portfolio(6, seed=2), gen_control(2, 2, 3, seed=2)]:
        assert objective(inst, np.zeros(inst.n_vars)) == 0.0
        assert max_violation(inst, np.zeros(inst.n_vars)) <= 1e-10


@pytest.mark.parametrize("make", [lambda seed: gen_portfolio(12, seed=seed),
                                  lambda seed: gen_control(s=3, v=3, t=4, seed=seed)],
                         ids=["portfolio", "control"])
def test_generated_instance_is_built_once(make):
    # the eliminated instance is tagged in place; building it a second time
    # gives the same arrays, constant and meta
    for seed in range(3):
        inst = make(seed)
        again = QpInstance(Q=inst.Q, c=inst.c, A=inst.A, b=inst.b,
                           constant=inst.constant, meta=inst.meta)
        for name in ("Q", "c", "A", "b"):
            assert getattr(again, name).tobytes() == getattr(inst, name).tobytes(), name
        assert again.constant == inst.constant and again.meta == inst.meta


@pytest.mark.parametrize("make", [lambda: gen_regression(n=8, m=3, t=16, seed=0),
                                  lambda: gen_portfolio(12, seed=0),
                                  lambda: gen_control(s=3, v=3, t=4, seed=0)],
                         ids=["regression", "portfolio", "control"])
def test_generation_computes_the_eigenvalues_once(make, monkeypatch, tmp_path):
    # generation proves Q PSD and positive definite on its subspace with
    # Cholesky factors; the eigenvalues cost one eigvalsh, on first read
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    inst = make()
    assert calls == []
    eigs = inst.eigenvalues
    assert calls == [inst.Q.shape]
    assert inst.eigenvalues is eigs
    assert calls == [inst.Q.shape]
    assert eigs.tobytes() == real(inst.Q).tobytes()
    assert not eigs.flags.writeable
    save_instance(inst, tmp_path / "inst.json")
    assert "eigenvalues" not in read_json_object(tmp_path / "inst.json", "an instance")
