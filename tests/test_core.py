import json
import math
import re
import struct

import numpy as np
import pytest

from qproj.core import (
    PSD_RTOL,
    AffineRecovery,
    EqQpInstance,
    ProjectionMatrix,
    QpInstance,
    eliminate_eq_doubling,
    eliminate_eq_nullspace,
    load_instance,
    max_violation,
    objective,
    array,
    project,
    read_fields,
    read_json_object,
    recover,
    save_instance,
)
from qproj.cli import main
from qproj.solver import solve_qp

from oracles import random_pd_instance

RT2 = math.sqrt(2.0)


def test_objective_examples():
    inst = QpInstance(Q=np.eye(2), c=[0, 0], A=np.zeros((0, 2)), b=[])
    assert objective(inst, [0, 0]) == 0.0

    inst = QpInstance(Q=[[2.0]], c=[-2.0], A=np.zeros((0, 1)), b=[])
    assert objective(inst, [0.5]) == pytest.approx(-0.75, abs=1e-15)

    inst = QpInstance(Q=np.eye(2), c=[1, 1], A=np.zeros((0, 2)), b=[])
    assert objective(inst, [1, 1]) == pytest.approx(3.0, abs=1e-15)


def test_objective_dimension_mismatch():
    inst = QpInstance(Q=np.eye(2), c=[0, 0], A=np.zeros((0, 2)), b=[])
    with pytest.raises(ValueError):
        objective(inst, [1, 2, 3])


def test_max_violation_examples():
    inst = QpInstance(Q=[[1.0]], c=[0], A=[[1.0]], b=[1.0])
    assert max_violation(inst, [0.0]) == 0.0
    assert max_violation(inst, [2.0]) == pytest.approx(1.0, abs=1e-15)

    inst = QpInstance(Q=[[1.0]], c=[0], A=[[1.0], [-1.0]], b=[0.0, 0.0])
    assert max_violation(inst, [0.0]) == 0.0


def test_project_identity_and_selection():
    rng = np.random.default_rng(0)
    inst = random_pd_instance(rng, 4, 3)
    full = project(inst, ProjectionMatrix(P=np.eye(4)))
    np.testing.assert_array_equal(full.Q, inst.Q)
    np.testing.assert_array_equal(full.c, inst.c)
    np.testing.assert_array_equal(full.A, inst.A)
    np.testing.assert_array_equal(full.b, inst.b)
    assert full.constant == inst.constant

    sel = project(inst, ProjectionMatrix(P=np.eye(4)[:, :2]))
    np.testing.assert_allclose(sel.Q, inst.Q[:2, :2])
    np.testing.assert_allclose(sel.c, inst.c[:2])
    np.testing.assert_allclose(sel.A, inst.A[:, :2])


def test_project_hand_example():
    inst = QpInstance(Q=np.eye(2), c=[1.0, 0.0], A=[[1.0, 1.0]], b=[1.0])
    P = ProjectionMatrix(P=np.array([[1.0], [1.0]]) / RT2)
    red = project(inst, P)
    assert red.Q == pytest.approx(np.array([[1.0]]))
    assert red.c == pytest.approx(np.array([1.0 / RT2]))
    assert red.A == pytest.approx(np.array([[RT2]]))
    assert red.b == pytest.approx(np.array([1.0]))


def test_recover_examples():
    P = ProjectionMatrix(P=np.array([[1.0], [1.0]]) / RT2)
    assert recover(P, [0.0]) == pytest.approx(np.zeros(2))
    np.testing.assert_allclose(recover(P, [RT2]), [1.0, 1.0], atol=1e-15)

    Pi = ProjectionMatrix(P=np.eye(3))
    y = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(recover(Pi, y), y)
    with pytest.raises(ValueError):
        recover(Pi, [1.0, 2.0])


def _random_orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return ProjectionMatrix(P=q)


def test_feasibility_and_objective_transfer():
    rng = np.random.default_rng(1)
    for trial in range(20):
        n = rng.integers(3, 9)
        m = rng.integers(1, 7)
        k = int(rng.integers(1, n + 1))
        inst = random_pd_instance(rng, int(n), int(m))
        proj = _random_orthonormal(rng, int(n), k)
        red = project(inst, proj)
        # random feasible point of the reduced problem (shrink toward an
        # interior anchor until feasible)
        y = rng.normal(size=k)
        for _ in range(60):
            if max_violation(red, y) <= 0.0:
                break
            y *= 0.5
        if max_violation(red, y) > 0.0:
            continue
        x = recover(proj, y)
        assert max_violation(inst, x) <= 1e-9
        scale = max(1.0, abs(objective(inst, x)))
        assert abs(objective(inst, x) - objective(red, y)) <= 1e-9 * scale


def test_subspace_monotonicity():
    # instances with y = 0 feasible, so every projected problem is solvable
    rng = np.random.default_rng(2)
    for trial in range(10):
        n, m, k = 6, 5, 2
        base = random_pd_instance(rng, n, m)
        inst = QpInstance(Q=base.Q, c=base.c, A=base.A,
                          b=np.abs(base.b) + 0.1)
        q, _ = np.linalg.qr(rng.normal(size=(n, k + 2)))
        small = ProjectionMatrix(P=q[:, :k])
        large = ProjectionMatrix(P=q)        # appends orthonormal columns
        rs = solve_qp(project(inst, small))
        rl = solve_qp(project(inst, large))
        assert rs.status.value == "Solved" and rl.status.value == "Solved"
        assert rl.objective <= rs.objective + 1e-6


def test_eliminate_doubling_examples():
    e = EqQpInstance(Q=np.eye(2), c=[0, 0], A_ineq=[[1.0, 0.0]], b_ineq=[1.0],
                     A_eq=[[1.0, 1.0]], b_eq=[1.0])
    out = eliminate_eq_doubling(e)
    assert out.n_cons == 3
    np.testing.assert_array_equal(out.A[1], [1.0, 1.0])
    np.testing.assert_array_equal(out.A[2], [-1.0, -1.0])
    assert out.b[1] == 1.0 and out.b[2] == -1.0

    e0 = EqQpInstance(Q=np.eye(2), c=[0, 0], A_ineq=[[1.0, 0.0]], b_ineq=[1.0],
                      A_eq=np.zeros((0, 2)), b_eq=[])
    out0 = eliminate_eq_doubling(e0)
    assert out0.n_cons == 1
    np.testing.assert_array_equal(out0.A, e0.A_ineq)


def test_nullspace_projector_hand_example():
    e = EqQpInstance(Q=np.eye(2), c=[0, 0], A_ineq=np.zeros((0, 2)), b_ineq=[],
                     A_eq=[[1.0, 1.0]], b_eq=[1.0])
    _, rec = eliminate_eq_nullspace(e, [0.5, 0.5])
    np.testing.assert_allclose(rec.D, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_nullspace_no_equalities():
    e = EqQpInstance(Q=np.eye(2), c=[1.0, 0.0], A_ineq=[[1.0, 0.0]], b_ineq=[2.0],
                     A_eq=np.zeros((0, 2)), b_eq=[])
    inst, rec = eliminate_eq_nullspace(e, [1.0, 0.0])
    np.testing.assert_allclose(rec.D, np.eye(2))
    np.testing.assert_allclose(inst.b, [1.0])     # b_ineq - A_ineq u0


def test_nullspace_round_trip_objective():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n, mi, me = 6, 4, 2
        B = rng.normal(size=(n, n))
        Q = B @ B.T + np.eye(n)
        c = rng.normal(size=n)
        A_eq = rng.normal(size=(me, n))
        u0 = rng.normal(size=n)
        b_eq = A_eq @ u0
        A_in = rng.normal(size=(mi, n))
        b_in = A_in @ u0 + rng.uniform(0.1, 1.0, mi)
        e = EqQpInstance(Q=Q, c=c, A_ineq=A_in, b_ineq=b_in, A_eq=A_eq, b_eq=b_eq)
        inst, rec = eliminate_eq_nullspace(e, u0)
        assert inst.b.min() >= -1e-10          # x = 0 feasible
        for _ in range(5):
            x = rng.normal(size=n)
            u = rec.apply(x)
            orig = 0.5 * u @ (Q @ u) + c @ u
            assert objective(inst, x) + rec.constant == pytest.approx(orig, abs=1e-8)


def test_nullspace_vs_doubling_optimum():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n, mi, me = 5, 4, 2
        B = rng.normal(size=(n, n))
        Q = B @ B.T + np.eye(n)
        c = rng.normal(size=n)
        A_eq = rng.normal(size=(me, n))
        u0 = rng.normal(size=n) * 0.3
        b_eq = A_eq @ u0
        A_in = rng.normal(size=(mi, n))
        b_in = A_in @ u0 + rng.uniform(0.2, 1.0, mi)
        e = EqQpInstance(Q=Q, c=c, A_ineq=A_in, b_ineq=b_in, A_eq=A_eq, b_eq=b_eq)
        u_doubling = solve_qp(eliminate_eq_doubling(e)).objective
        inst, rec = eliminate_eq_nullspace(e, u0)
        u_null = solve_qp(inst).objective + rec.constant
        assert u_doubling == pytest.approx(u_null, abs=1e-6)


def test_nullspace_infeasible_u0_rejected():
    e = EqQpInstance(Q=np.eye(2), c=[0, 0], A_ineq=[[1.0, 0.0]], b_ineq=[0.0],
                     A_eq=[[1.0, 1.0]], b_eq=[1.0])
    with pytest.raises(ValueError):
        eliminate_eq_nullspace(e, [1.0, 0.0])    # violates the inequality
    with pytest.raises(ValueError):
        eliminate_eq_nullspace(e, [-1.0, 0.5])   # violates the equality


def test_dependent_eq_rows_dropped():
    with pytest.warns(UserWarning, match="dependent"):
        e = EqQpInstance(Q=np.eye(3), c=np.zeros(3),
                         A_ineq=np.zeros((0, 3)), b_ineq=[],
                         A_eq=[[1.0, 0, 0], [2.0, 0, 0], [0, 1.0, 0]],
                         b_eq=[1.0, 2.0, 0.5])
    assert e.dropped_eq_rows == 1
    assert e.A_eq.shape[0] == 2
    svals = np.linalg.svd(e.A_eq, compute_uv=False)
    assert svals.min() > 1e-10 * svals.max()


def test_construction_checks():
    with pytest.raises(ValueError, match="symmetric"):
        QpInstance(Q=[[1.0, 0.5], [0.0, 1.0]], c=[0, 0], A=np.zeros((0, 2)), b=[])
    with pytest.raises(ValueError, match="semidefinite"):
        QpInstance(Q=[[-1.0]], c=[0], A=np.zeros((0, 1)), b=[])
    with pytest.raises(ValueError):
        QpInstance(Q=np.eye(2), c=[0], A=np.zeros((0, 2)), b=[])
    # symmetrization of tiny asymmetry
    q = np.array([[1.0, 0.5 + 1e-15], [0.5, 1.0]])
    inst = QpInstance(Q=q, c=[0, 0], A=np.zeros((0, 2)), b=[])
    np.testing.assert_array_equal(inst.Q, inst.Q.T)


def _planted_spectra(n):
    """Spectra with |lambda| <= 1 whose largest magnitude is 1 (n >= 2): a
    zero smallest eigenvalue, negative ones on both sides of the eigenvalue
    rule's -PSD_RTOL * ||Q||_2, a rank-deficient PSD one, and Q = 0."""
    rest = np.linspace(1.0, 0.5, n - 1)
    spectra = [np.concatenate([[0.0], rest])]
    spectra += [np.concatenate([[-k * PSD_RTOL], rest]) for k in (0.3, 0.9, 1.1, 3, 1e3)]
    spectra.append(np.concatenate([np.zeros(n // 2), np.linspace(1.0, 0.5, n - n // 2)]))
    spectra.append(np.zeros(n))
    return spectra


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_psd_check_makes_the_eigenvalue_rule_decisions(n, scale, monkeypatch):
    # QpInstance proves Q PSD with a shifted Cholesky factor and falls back to
    # the eigenvalue rule: it must accept exactly the Q that rule accepts,
    # with one eigvalsh at most, and none for a nonzero Q that is PSD
    rng = np.random.default_rng(n)
    calls = []
    real = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    decisions = []
    for spectrum in _planted_spectra(n):
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        Q = (basis * (scale * spectrum)) @ basis.T
        Q = 0.5 * (Q + Q.T)
        eigs = real(Q)
        accepts = eigs[0] >= -PSD_RTOL * max(np.abs(eigs).max(), 1e-300)
        calls.clear()
        if accepts:
            QpInstance(Q=Q, c=np.zeros(n), A=np.zeros((0, n)), b=[])
        else:
            message = f"Q is not positive semidefinite (min eigenvalue {eigs[0]:.3e})"
            with pytest.raises(ValueError, match=re.escape(message)):
                QpInstance(Q=Q, c=np.zeros(n), A=np.zeros((0, n)), b=[])
        assert len(calls) <= 1
        if spectrum[0] >= 0 and spectrum.any():
            assert calls == []
        decisions.append(accepts)
    # the planted spectra reach both decisions
    assert any(decisions) and not all(decisions)


def test_projection_matrix_invariants():
    with pytest.raises(ValueError):
        ProjectionMatrix(P=np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        ProjectionMatrix(P=np.eye(2)[:1].T @ np.ones((1, 3)))  # K > N
    pm = ProjectionMatrix(P=np.eye(3)[:, :2])
    assert pm.n == 3 and pm.k == 2


def test_affine_recovery_idempotence_check():
    with pytest.raises(ValueError, match="idempotent"):
        AffineRecovery(D=np.array([[2.0, 0], [0, 1.0]]), u0=[0.0, 0.0])


def test_instance_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    inst = random_pd_instance(rng, 4, 3)
    inst = QpInstance(Q=inst.Q, c=inst.c, A=inst.A, b=inst.b, constant=1.25,
                      meta={"id": "t-0001", "family": "test"})
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    np.testing.assert_array_equal(back.Q, inst.Q)
    np.testing.assert_array_equal(back.c, inst.c)
    np.testing.assert_array_equal(back.A, inst.A)
    np.testing.assert_array_equal(back.b, inst.b)
    assert back.constant == inst.constant
    assert back.meta == inst.meta
    # serialization is deterministic byte-for-byte
    save_instance(back, tmp_path / "inst2.json")
    assert (tmp_path / "inst.json").read_bytes() == (tmp_path / "inst2.json").read_bytes()


def test_instances_immutable():
    inst = QpInstance(Q=np.eye(2), c=[0, 0], A=np.zeros((0, 2)), b=[])
    with pytest.raises(ValueError):
        inst.Q[0, 0] = 5.0


def _same_value(a, b) -> bool:
    """a and b are the same JSON value: the same types, keys in the same
    order and the same float bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_value, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(map(_same_value, a.values(), b.values()))
    return a == b


def _json_load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("family, sizes", [
    ("regression", ["--n", "6", "--m", "2", "--t", "12"]), ("portfolio", ["--n", "6"]),
    ("control", ["--s", "3", "--v", "3", "--t", "4"])], ids=["regression", "portfolio", "control"])
def test_reader_matches_json_on_generated_files(tmp_path, family, sizes):
    assert main(["--out", str(tmp_path), "gen-data", "--family", family, *sizes,
                 "--train", "2", "--val", "1", "--test", "1", "--base-seed", "4"]) == 0
    paths = sorted(tmp_path.glob("*.json"))
    assert len(paths) == 5                        # the manifest and four instances
    for path in paths:
        assert _same_value(read_json_object(path, "a document"), _json_load(path)), path


# halfway cases, subnormals, the extremes of the range and 17-digit values:
# the doubles a fast parser is most likely to round differently
HARD_DOUBLES = ["0.0", "-0.0", "0", "-0", "4.9e-324", "-4.9e-324", "5e-324",
                "2.4703282292062327e-324", "2.4703282292062328e-324",
                "2.2250738585072011e-308", "2.2250738585072014e-308",
                "2.2250738585072012e-308", "1.7976931348623157e308",
                "-1.7976931348623157e308", "1.7976931348623158e308",
                "9007199254740993", "9007199254740993.0", "9007199254740993e0",
                "0.1", "0.30000000000000004", "1e23", "8.98846567431158e307",
                "1.00000000000000011102230246251565404236316680908203125",
                "1.00000000000000011102230246251565404236316680908203124",
                "7.2057594037927933e16", "1e-400", "-1e-400", "1E+2", "123456789012345678e-20",
                "9223372036854775807", "-9223372036854775808", "18446744073709551615"]


def test_reader_matches_json_on_hard_doubles(tmp_path):
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**63 - 2**52, size=2000, dtype=np.int64)   # finite doubles
    bits[::2] |= np.int64(-2**63)                                         # half negative
    random = [f"{x:.17g}" for x in bits.view(np.float64)]
    path = tmp_path / "doubles.json"
    path.write_text('{"hard": [' + ", ".join(HARD_DOUBLES) + '], "random": ['
                    + ", ".join(random) + "]}")
    doc = read_json_object(path, "a document")
    assert _same_value(doc, _json_load(path))
    assert [type(x) for x in doc["hard"][2:4]] == [int, int]


# the zeros and extremes, and the doubles that orjson and json write
# differently: the band 1e-5 <= |x| < 1e-4, which orjson writes as 0.0000123;
# exponents of one digit and from 16 up; and 0.0000 as the tail of a number
WRITER_DOUBLES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  1e-5, 9.99999e-5, 1e-4, -3e-5, 1.00001e-5,
                  1e15, 1e16, 9999999999999998.0, 1e22, 1e-7, 10.00001, -100.00001]


def test_saved_instance_loads_back_bitwise(tmp_path):
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2**63 - 2**52, size=2000, dtype=np.int64)   # finite doubles
    bits[::2] |= np.int64(-2**63)                                         # half negative
    values = np.concatenate([WRITER_DOUBLES, np.negative(WRITER_DOUBLES), bits.view(np.float64)])
    path, n = tmp_path / "inst.json", 60
    for m in (0, 2):
        # c, A and b of each instance take the next n + m n + m values
        size = n + m * n + m
        for chunk in np.concatenate([values, np.zeros(-values.size % size)]).reshape(-1, size):
            inst = QpInstance(Q=np.eye(n), c=chunk[:n], A=chunk[n:n + m * n].reshape(m, n),
                              b=chunk[n + m * n:], constant=chunk[0],
                              meta={"id": "t-0001", "note": "\u00e9"})
            save_instance(inst, path)
            back = load_instance(path)
            for name in ("Q", "c", "A", "b"):
                assert getattr(back, name).tobytes() == getattr(inst, name).tobytes(), name
            assert _same_value(back.constant, inst.constant)
            assert back.meta == inst.meta


def test_saved_instance_has_the_golden_bytes(tmp_path):
    # orjson's layout for Q, c, A and b: an orjson that writes them otherwise
    # changes every instance file and fails here
    inst = QpInstance(Q=[[2.0, -0.5], [-0.5, 1e16]], c=[3e-5, -0.0], A=[[5e-324, 1.0]],
                      b=[0.1], constant=1e-7, meta={"id": "t-0001", "note": "\u00e9"})
    save_instance(inst, tmp_path / "inst.json")
    assert (tmp_path / "inst.json").read_bytes() == (
        b'{"n":2,"m":1,"Q":[2.0,-0.5,-0.5,1e16],"c":[0.00003,-0.0],"A":[5e-324,1.0],'
        b'"b":[0.1],"constant":1e-07,"meta":{"id":"t-0001","note":"\\u00e9"}}')
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_instance(QpInstance(Q=inst.Q, c=inst.c, A=inst.A, b=inst.b,
                                 meta={"x": math.nan}), tmp_path / "nan.json")


# orjson refuses the first four, and is not given the last; json parses them
@pytest.mark.parametrize("text", ['{"x": [NaN, Infinity, -Infinity]}', '{"x": 1e400}',
                                  '{"x": "\\ud800"}', '{"x": ' + "9" * 400 + "}",
                                  '{"x": [' + ", ".join(['{"y": [1.5]}'] * 600) + "]}"],
                         ids=["nan-tokens", "beyond-range", "lone-surrogate", "long-integer",
                              "many-brackets"])
def test_reader_matches_json_on_refused_documents(tmp_path, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert _same_value(read_json_object(path, "a document"), _json_load(path))


def test_reader_reads_integers_beyond_64_bits_as_floats(tmp_path):
    # the one difference from json on a document both accept
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"big": 2**64, "small": -2**63 - 1, "top": 2**64 - 1}))
    assert read_json_object(path, "a document") == {"big": 2.0**64, "small": -2.0**63,
                                                    "top": 2**64 - 1}
    assert type(read_json_object(path, "a document")["big"]) is float


def test_array_rejects_a_boolean_in_a_nested_row():
    table = {"a": array("r", "c")}
    doc = {"a": [[1.0, 2.0], [3, 4.5]]}
    np.testing.assert_array_equal(read_fields(doc, table, "doc", r=2, c=2)["a"],
                                  [[1.0, 2.0], [3.0, 4.5]])
    for bad in ([[1.0, 2.0], [True, 4.5]], [[1, 2], [3, False]]):
        with pytest.raises(ValueError, match="doc field 'a'"):
            read_fields({"a": bad}, table, "doc", r=2, c=2)
