import math

import numpy as np
import pytest

from qproj.core import QpInstance
from qproj.datasets import gen_regression
from qproj.gnn import init_params
from qproj.solver import SolveStatus, solve_qp
from qproj.theory import (
    AssumptionConstants,
    gen_bound,
    lipschitz_consts,
    validate_norm_bound,
    y_max,
)


def _consts(**kw):
    base = dict(sigma_q=2.0, sigma_p=1.0, q0=1.0, c0=1.0, b=3.0, n=4, k=2)
    base.update(kw)
    return AssumptionConstants(**base)


def test_y_max_hand_values():
    assert y_max(_consts(c0=0.0, b=0.0)) == 0.0
    # sqrt(4) * (1 + sqrt(1 + 12)) / 2 = 1 + sqrt(13)
    expected = 1.0 + math.sqrt(13.0)
    assert abs(y_max(_consts()) - expected) <= 1e-12 * expected


def test_y_max_monotone_in_b_and_c0():
    vals_b = [y_max(_consts(b=b)) for b in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(x <= y for x, y in zip(vals_b, vals_b[1:]))
    vals_c = [y_max(_consts(c0=c)) for c in (0.0, 0.5, 1.0, 2.0)]
    assert all(x <= y for x, y in zip(vals_c, vals_c[1:]))


def test_lipschitz_consts_hand_values():
    c_prime, c = lipschitz_consts(_consts())
    ym = 1.0 + math.sqrt(13.0)
    expected_prime = 1.0 * (4 * 2) * ym * ym + 1.0 * ym
    assert abs(c_prime - expected_prime) <= 1e-12 * expected_prime
    assert abs(c - math.sqrt(8.0) * expected_prime) <= 1e-12 * c

    zero_prime, zero_c = lipschitz_consts(_consts(c0=0.0, b=0.0))
    assert zero_prime == 0.0 and zero_c == 0.0


def test_lipschitz_linear_in_q0():
    c1, _ = lipschitz_consts(_consts(q0=1.0))
    c2, _ = lipschitz_consts(_consts(q0=2.0))
    ym = y_max(_consts())
    assert c2 - c1 == pytest.approx(8 * ym * ym, rel=1e-12)


def test_gen_bound_hand_values():
    # collapsed terms
    val = gen_bound(epsilon=1e-9, delta=0.5, d=10, b=1.0, log_n_cover=0.0, c=0.0)
    assert val == pytest.approx(math.sqrt(2.0 * math.log(4.0) / 10.0), rel=1e-12)
    # full arithmetic
    val = gen_bound(epsilon=0.01, delta=0.05, d=100, b=1.0, log_n_cover=50.0,
                    c=10.0)
    expected = 0.1 + 2.0 + math.sqrt(2.0 * math.log(40.0) / 100.0)
    assert abs(val - expected) <= 1e-12 * expected


def test_gen_bound_nonincreasing_in_d():
    vals = [gen_bound(0.01, 0.05, d, 1.0, 50.0, 10.0)
            for d in (10, 50, 100, 1000)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))


def test_gen_bound_validation():
    with pytest.raises(ValueError):
        gen_bound(0.0, 0.5, 10, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gen_bound(0.1, 1.5, 10, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gen_bound(0.1, 0.5, 0, 1.0, 0.0, 1.0)


def test_constants_validation():
    with pytest.raises(ValueError):
        _consts(sigma_q=0.0)
    with pytest.raises(ValueError):
        _consts(q0=-1.0)
    with pytest.raises(ValueError):
        _consts(k=5)     # k > n


def test_validate_norm_bound_zero_violations():
    instances = [gen_regression(n=10, m=3, t=20, seed=s) for s in range(8)]
    params = init_params(0, h=4, l=2, k=3, h_g=4)
    report = validate_norm_bound(instances, params)
    assert report.skipped == 0
    assert len(report.rows) == 8
    assert report.violations == 0
    assert all(r.margin >= 0 for r in report.rows)


def test_validate_norm_bound_controlled_falsification():
    # active constraint pushes y* away from 0 while c = 0; with the honest
    # b the bound is tight, and an understated b breaks it
    inst = QpInstance(Q=[[1.0]], c=[0.0], A=[[-1.0]], b=[-1.0])
    params = init_params(0, h=4, l=1, k=1, h_g=4)
    honest = validate_norm_bound([inst], params)
    assert honest.violations == 0
    forced = validate_norm_bound([inst], params, b_override=0.1)
    assert forced.violations == 1
    assert forced.rows[0].margin < 0


def test_norm_bound_csv(tmp_path):
    instances = [gen_regression(n=8, m=2, t=16, seed=s) for s in range(3)]
    params = init_params(1, h=4, l=1, k=2, h_g=4)
    report = validate_norm_bound(instances, params)
    path = tmp_path / "bound.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "instance,l1_norm,y_max,margin"
    assert len(lines) == 4


def test_validate_norm_bound_needs_a_solved_reference():
    # b was |objective| of the full solve whatever its status: solves cut
    # short ended MaxIterReached, and 5 of 6 rows took a b 0.01-0.53% off the
    # true |u*|. Here one full problem is unbounded along its last variable
    # (no curvature, no row, c < 0 there), while its reduced problem is not.
    instances = [gen_regression(n=30, m=5, t=60, seed=s) for s in range(6)]
    inst, keep = instances[3], np.append(np.ones(29), 0.0)
    instances[3] = QpInstance(Q=keep[:, None] * inst.Q * keep, c=np.append(inst.c[:29], -1.0),
                              A=inst.A * keep, b=inst.b)
    params = init_params(0, h=4, l=1, k=2, h_g=4)
    assert solve_qp(instances[3]).status is SolveStatus.DUAL_INFEASIBLE
    with pytest.raises(ValueError, match="DualInfeasible, not Solved"):
        validate_norm_bound(instances, params)


# a NaN passed every `<= 0` test, so theory printed NaN and Infinity
# tokens, which are not JSON, and exited 0
@pytest.mark.parametrize("name", ["sigma_q", "sigma_p", "q0", "c0", "b"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_constants_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        _consts(**{name: value})


@pytest.mark.parametrize("index", range(4))
def test_gen_bound_rejects_non_finite_values(index):
    args = list(np.random.default_rng(42).uniform(0.1, 0.9, size=6))
    args[2] = 10
    args[[0, 3, 4, 5][index]] = math.nan
    with pytest.raises(ValueError, match="must be finite"):
        gen_bound(*args)


@pytest.mark.parametrize("flags", [
    {"--sigma-q": "nan"}, {"--epsilon": "nan"}, {"--b": "inf"}, {"--c0": "inf"},
    # y_max overflows to infinity: with epsilon the bound rejects C, without
    # it the JSON encoder rejects y_max
    {"--b": "1e308", "--sigma-q": "1e308"},
    {"--b": "1e308", "--sigma-q": "1e308", "--epsilon": None},
    # an n beyond the float range escaped as an OverflowError (exit code 1)
    {"--n": "1" + "0" * 400},
], ids=["sigma-q-nan", "epsilon-nan", "b-inf", "c0-inf", "overflow-bound",
        "overflow-y-max", "n-beyond-float"])
def test_theory_command_never_prints_nan_or_infinity(capsys, flags):
    from qproj.cli import main

    rng = np.random.default_rng(43)
    values = {"--sigma-q": rng.uniform(1, 3), "--q0": rng.uniform(0, 2),
              "--c0": rng.uniform(0, 2), "--b": rng.uniform(1, 5), "--n": 4, "--k": 2,
              "--epsilon": rng.uniform(0.01, 0.1)} | flags
    argv = [str(x) for key, value in values.items() if value is not None
            for x in (key, value)]
    assert main(["theory", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")
