"""Seeded regression tests for defects: each failed before its fix."""

import json

import numpy as np
import pytest

from qproj import solver
from qproj.baselines import direct_train, save_projection, sharedp_train
from qproj.cli import main
from qproj.core import (
    ProjectionMatrix,
    QpInstance,
    max_violation,
    project,
    recover,
    save_instance,
)
from qproj.datasets import gen_regression, generate_instance
from qproj.evaluate import FullMethod, OursMethod, RandMethod, evaluate_method
from qproj.gnn import forward, init_params, load_checkpoint, save_checkpoint
from qproj.solver import SolveStatus, SolverSettings, solve_qp
from qproj.training import TrainConfig, train

from oracles import random_pd_instance


def _poisoned(field, value, seed):
    """The data of a random feasible QP with one entry of `field` replaced."""
    inst = random_pd_instance(np.random.default_rng(seed), 3, 4)
    data = {"Q": inst.Q.copy(), "c": inst.c.copy(), "A": inst.A.copy(),
            "b": inst.b.copy()}
    data[field].flat[1] = value
    if field == "Q":
        data["Q"][1, 0] = value     # stays symmetric
    return data


# NaN in Q used to hang LAPACK inside the solver; NaN in c used to return a
# Solved result with objective NaN.
@pytest.mark.parametrize("field", ["Q", "c", "A", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_data_rejected(field, value):
    with pytest.raises(ValueError, match="NaN or infinite"):
        QpInstance(**_poisoned(field, value, seed=31))


def test_non_finite_constant_rejected():
    inst = random_pd_instance(np.random.default_rng(32), 3, 4)
    with pytest.raises(ValueError, match="NaN or infinite"):
        QpInstance(Q=inst.Q, c=inst.c, A=inst.A, b=inst.b, constant=np.nan)


def test_cli_rejects_instance_file_with_nan(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(random_pd_instance(np.random.default_rng(33), 3, 4), path)
    doc = json.loads(path.read_text())
    doc["c"][0] = float("nan")
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path)]) == 2


def _indefinite_instance():
    """A QpInstance whose Q was made indefinite after validation, so that
    the Cholesky factorization of the step matrix fails."""
    inst = QpInstance(Q=np.eye(2), c=[1.0, -1.0], A=[[1.0, 1.0]], b=[1.0])
    object.__setattr__(inst, "Q", np.diag([1.0, -1.0]))
    return inst


def test_failed_cholesky_is_a_status():
    res = solve_qp(_indefinite_instance())
    assert res.status is SolveStatus.NUMERICAL_ERROR
    assert "Cholesky" in res.message
    assert res.iterations == 0
    assert np.all(np.isfinite(res.y_star))


def test_failed_cholesky_after_rho_change_is_a_status(monkeypatch):
    # random_pd_instance(default_rng(0), 8, 12) refactors at iteration 100;
    # with the finish on, the crossover would land it before that
    inst = random_pd_instance(np.random.default_rng(0), 8, 12)
    real_factor, calls = solver._factor, []

    def factor_fails_on_refactor(Q, A, sigma, rho):
        calls.append(rho)
        return real_factor(Q, A, sigma, rho) if len(calls) == 1 else None

    monkeypatch.setattr(solver, "_factor", factor_fails_on_refactor)
    res = solve_qp(inst, SolverSettings(polish=False))
    assert len(calls) == 2
    assert res.status is SolveStatus.NUMERICAL_ERROR
    assert res.iterations == 100
    assert "Cholesky" in res.message
    assert np.all(np.isfinite(res.y_star))


def test_feasibility_judged_at_instance_tolerance():
    # Solved at a lifted violation of about 1.9e-6, inside the solver's own
    # tolerance (about 1.4e-3) but above the absolute 1e-6 once used. The
    # unfinished ADMM point at a looser tolerance gives that slack: with the
    # default settings the crossover now lands this solve exactly.
    inst = gen_regression(500, 50, seed=4)
    params = init_params(0, k=30)
    proj, _ = forward(params, inst, 30)
    settings = SolverSettings(eps_abs=3e-6, eps_rel=3e-6, polish=False)
    res = solve_qp(project(inst, proj), settings)
    assert res.status is SolveStatus.SOLVED
    assert max_violation(inst, recover(proj, res.y_star)) > 1e-6
    [rec] = evaluate_method(OursMethod(params), [inst], settings=settings,
                            timing_repeats=0)
    assert rec.feasible
    assert rec.relative_error < 1.0


def test_non_finite_iterate_is_a_numerical_error(monkeypatch):
    # Python's max() dropped the NaN residuals, so this returned Solved at
    # iteration 25 with a NaN y_star and objective
    inst = generate_instance("portfolio", {"n": 20}, 0)
    real_step, calls = solver._step, []

    def step_goes_nan(*args):
        calls.append(None)
        x, z = real_step(*args)
        if len(calls) >= 20:
            x, z = np.full_like(x, np.nan), np.full_like(z, np.nan)
        return x, z

    monkeypatch.setattr(solver, "_step", step_goes_nan)
    res = solve_qp(inst, SolverSettings(polish=False))
    assert res.status is SolveStatus.NUMERICAL_ERROR
    assert res.iterations == 25
    assert "non-finite" in res.message
    assert np.all(np.isfinite(res.y_star))
    assert np.isfinite(res.objective)


def test_eval_scores_trivial_optimum_zero():
    # x = 0 is optimal (u* = 0); relative_error raised on the zero
    # denominator and aborted the whole eval
    inst = QpInstance(Q=np.eye(3), c=np.ones(3), A=-np.eye(3), b=np.zeros(3))
    [rec] = evaluate_method(FullMethod(), [inst], timing_repeats=0)
    assert rec.u_star == 0.0
    assert rec.feasible
    assert rec.relative_error == 0.0


@pytest.mark.parametrize("case", ["format", "nan"])
def test_bad_checkpoint_rejected(tmp_path, case, capsys):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, init_params(0, h=4, l=1, k=2, h_g=4))
    doc = json.loads(path.read_text())
    if case == "format":
        doc["format"] = "qproj-model-v0"
    else:
        doc["params"]["w0v"][0] = float("nan")   # written as a NaN token
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format" if case == "format" else "NaN"):
        load_checkpoint(path)

    data = tmp_path / "data"
    assert main(["--out", str(data), "gen-data", "--family", "regression",
                 "--n", "6", "--m", "2", "--t", "12", "--train", "2",
                 "--val", "1", "--test", "1", "--base-seed", "0"]) == 0
    assert main(["--out", str(tmp_path / "eval"), "eval", "--manifest",
                 str(data / "manifest.json"), "--method", "ours",
                 "--checkpoint", str(path), "--timing-repeats", "0"]) == 2
    capsys.readouterr()


def test_reference_optimum_must_be_solved(tmp_path, capsys):
    # a full solve cut at max_iter=10 without the crossover finish ends
    # MaxIterReached at u = -0.9438 (the optimum is -0.8930); eval took it
    # as u* and scored rand 0.855 against it
    inst = generate_instance("control", {"s": 5, "v": 5, "t": 3}, 0)
    settings = SolverSettings(max_iter=10, polish=False)
    assert solve_qp(inst, settings).status is SolveStatus.MAX_ITER_REACHED
    with pytest.raises(ValueError, match="MaxIterReached, not Solved"):
        evaluate_method(RandMethod(5), [inst], settings=settings, timing_repeats=0)
    # training read the validation u* from the same unchecked solve
    config = TrainConfig(k=2, batch_size=1, max_epochs=1, hidden=4, layers=1,
                         head_hidden=4, solver=settings)
    for fit in (lambda: train([inst], [inst], config),
                lambda: sharedp_train([inst], [inst], 2, config),
                lambda: direct_train([inst], [inst], config)):
        with pytest.raises(ValueError, match="MaxIterReached, not Solved"):
            fit()

    # the CLI reports it as a configuration error; instance 0 is the train split
    data = tmp_path / "data"
    assert main(["--out", str(data), "gen-data", "--family", "control", "--s", "5",
                 "--v", "5", "--t", "3", "--train", "1", "--val", "1",
                 "--test", "1", "--base-seed", "0"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"solver": {"max_iter": 10, "polish": False}}))
    assert main(["--config", str(config), "--out", str(tmp_path / "eval"), "eval",
                 "--manifest", str(data / "manifest.json"), "--split", "train",
                 "--method", "rand", "--k", "5", "--timing-repeats", "0"]) == 2
    assert "control-train-0000 ended MaxIterReached" in capsys.readouterr().err


def test_empty_instance_rejected(tmp_path, capsys):
    # n = m = 0 passed validation and crashed LAPACK inside the solver
    with pytest.raises(ValueError, match="at least one variable"):
        QpInstance(Q=np.zeros((0, 0)), c=[], A=np.zeros((0, 0)), b=[])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"n": 0, "m": 0, "Q": [], "c": [], "A": [], "b": []}))
    assert main(["solve", "--instance", str(path)]) == 2
    assert "at least one variable" in capsys.readouterr().err


# each used to escape SolverSettings(**section) as a TypeError (exit code 1)
@pytest.mark.parametrize("section, key", [
    ({"bogus": 1}, "'bogus'"),
    ([1], "'solver'"),
    ({"max_iter": "10"}, "'max_iter'"),
    # NaN tolerances ran 20,000 iterations to MaxIterReached, and a NaN rho
    # ended NumericalError; both exited 0. rho and sigma are no longer
    # settings, so those rows are now unknown keys
    ({"eps_abs": float("nan")}, "'eps_abs'"),
    ({"eps_rel": float("nan")}, "'eps_rel'"),
    ({"rho": float("nan")}, "'rho'"),
    ({"sigma": float("inf")}, "'sigma'"),
])
def test_bad_solver_config_rejected(tmp_path, capsys, section, key):
    path = tmp_path / "inst.json"
    save_instance(random_pd_instance(np.random.default_rng(34), 3, 4), path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"solver": section}))
    assert main(["--config", str(config), "solve", "--instance", str(path)]) == 2
    assert key in capsys.readouterr().err


# each escaped instance_from_dict as a TypeError (exit code 1)
@pytest.mark.parametrize("doc, message", [
    ([1], "must be a JSON object"),
    ({"n": None, "m": 0, "Q": [1.0], "c": [0.0], "A": [], "b": []}, "'n'"),
    ({"n": 1, "m": "0", "Q": [1.0], "c": [0.0], "A": [], "b": []}, "'m'"),
    ({"n": 1, "m": 0, "Q": [1.0], "c": [0.0], "A": [], "b": [], "meta": [1]}, "'meta'"),
], ids=["list", "n-null", "m-string", "meta-list"])
def test_malformed_instance_file_rejected(tmp_path, capsys, doc, message):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path)]) == 2
    assert message in capsys.readouterr().err


# a spec that is a list ended in an AttributeError and a sweep that is not a
# mapping in a TypeError (exit code 1); the spec's solver and timing_repeats
# skipped the checks a config file's solver section gets and escaped as a
# TypeError too, and so did a sweep's k and rand_seed, read with int(); a
# string k_values (on a real manifest) and the removed key feas_tol ran and
# exited 0
@pytest.mark.parametrize("spec, message", [
    ([1], "must be a JSON object"),
    ({"sweeps": ["x"]}, "sweeps[0]"),
    ({"sweeps": 5}, "'sweeps'"),
    ({"solver": {"bogus": 1}}, "'bogus'"),
    ({"solver": [1]}, "'solver'"),
    ({"solver": {"max_iter": "10"}}, "'max_iter'"),
    ({"timing_repeats": [1]}, "'timing_repeats'"),
    ({"sweeps": [{"type": "k_sweep", "manifest": "m.json", "methods": ["rand"],
                  "k_values": "23"}]}, "'k_values'"),
    ({"feas_tol": 1e-3}, "'feas_tol'"),
    ({"sweeps": [{"type": "generalization_sweep", "manifests": {"6": "m.json"},
                  "methods": ["rand"], "k": [2]}]}, "'k'"),
    ({"sweeps": [{"type": "generalization_sweep", "manifests": {}, "methods": ["rand"],
                  "k": 2, "rand_seed": [1]}]}, "'rand_seed'"),
], ids=["list", "sweep-string", "sweeps-number", "solver-unknown-key", "solver-list",
        "solver-string", "timing-repeats-list", "k-values-string", "removed-feas-tol",
        "sweep-k-list", "sweep-rand-seed-list"])
def test_malformed_experiment_spec_rejected(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--out", str(tmp_path / "exp"), "experiment", "--spec", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def test_gen_data_below_the_smallest_portfolio_rejected(tmp_path, capsys):
    # n = 1 leaves no variable after the budget row is eliminated; it ended
    # in an IndexError (exit code 1)
    assert main(["--out", str(tmp_path / "d"), "gen-data", "--family", "portfolio",
                 "--n", "1", "--train", "1", "--val", "1", "--test", "1"]) == 2
    assert "n >= 2" in capsys.readouterr().err


def _regression_data(tmp_path):
    """A regression N=6 manifest with one test instance, made through the CLI."""
    data = tmp_path / "data"
    assert main(["--out", str(data), "gen-data", "--family", "regression", "--n", "6",
                 "--m", "2", "--t", "12", "--train", "2", "--val", "1", "--test", "1",
                 "--base-seed", "0"]) == 0
    return data / "manifest.json"


def _malformed_file(tmp_path, kind, edit, seed):
    """The qproj arguments that read a file of `kind` whose document is
    edit(doc) of a valid one."""
    if kind == "instance":
        path = tmp_path / "inst.json"
        save_instance(random_pd_instance(np.random.default_rng(seed), 3, 4), path)
        args = ["solve", "--instance", str(path)]
    else:
        manifest = _regression_data(tmp_path)
        path = manifest
        args = ["--out", str(tmp_path / "eval"), "eval", "--manifest", str(manifest),
                "--timing-repeats", "0", "--method", "full"]
        if kind == "checkpoint":
            path = tmp_path / "checkpoint.json"
            save_checkpoint(path, init_params(seed, h=4, l=1, k=2, h_g=4), seed=seed)
            args[-1:] = ["ours", "--checkpoint", str(path)]
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return args


# each escaped cli.main as a TypeError (exit code 1 with a traceback)
@pytest.mark.parametrize("kind, edit, message", [
    ("instance", lambda d: {**d, "Q": {}}, "instance field 'Q'"),
    ("instance", lambda d: {**d, "constant": [1]}, "instance field 'constant'"),
    ("manifest", lambda d: [d], "manifest must be a JSON object"),
    ("manifest", lambda d: {**d, "files": [1]}, "manifest field 'files'"),
    ("checkpoint", lambda d: {**d, "hidden": "4"}, "checkpoint field 'hidden'"),
    ("checkpoint", lambda d: {**d, "params": [1]}, "checkpoint field 'params'"),
], ids=["instance-Q-object", "instance-constant-list", "manifest-list",
        "manifest-files-number", "checkpoint-hidden-string", "checkpoint-params-list"])
def test_malformed_input_file_rejected(tmp_path, capsys, kind, edit, message):
    args = _malformed_file(tmp_path, kind, edit, seed=35)
    capsys.readouterr()
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "eval" / "records.csv").exists()


def test_non_finite_projection_rejected(tmp_path, capsys):
    # a NaN P passed the orthonormality check (NaN > tol is False), and the
    # CLI reported the projected instance's "Q holds NaN" instead
    P = np.eye(4)[:, :2]
    P[1, 0] = np.nan
    with pytest.raises(ValueError, match="P holds NaN or infinite entries"):
        ProjectionMatrix(P=P)
    manifest = _regression_data(tmp_path)
    rng = np.random.default_rng(36)
    path = tmp_path / "pca_artifact.json"
    save_projection(path, ProjectionMatrix(P=np.linalg.qr(rng.normal(size=(6, 2)))[0]), "pca")
    doc = json.loads(path.read_text())
    doc["P"][3] = float("nan")                  # written as a NaN token
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "eval"), "eval", "--manifest", str(manifest),
                 "--method", "pca", "--artifact", str(path), "--timing-repeats", "0"]) == 2
    assert "P holds NaN" in capsys.readouterr().err


# a config section that is not a mapping ended in an AttributeError, a
# value int() rejects in a TypeError, and so did a path that is not a string,
# from os.makedirs or open (exit code 1)
@pytest.mark.parametrize("config, argv, message", [
    ({"eval": [1]}, ["eval", "--method", "rand", "--k", "2"], "section 'eval'"),
    ({"eval": {"timing-repeats": [1]}}, ["eval", "--method", "rand", "--k", "2"],
     "'timing-repeats'"),
    ({"train": {"epochs": [2]}}, ["train", "--k", "2"], "'epochs'"),
    ({"eval": {"cache-dir": [1]}}, ["eval", "--method", "rand", "--k", "2"], "'cache-dir'"),
    ({"eval": {"manifest": [1]}}, ["eval", "--method", "rand", "--k", "2"], "'manifest'"),
    ({"eval": {"checkpoint": [1]}}, ["eval", "--method", "ours"], "'checkpoint'"),
    ({"eval": {"artifact": [1]}}, ["eval", "--method", "pca"], "'artifact'"),
    ({"solve": {"instance": [1]}}, ["solve"], "'instance'"),
    ({"experiment": {"spec": [1]}}, ["experiment"], "'spec'"),
], ids=["eval-section-list", "eval-timing-repeats-list", "train-epochs-list",
        "eval-cache-dir-list", "eval-manifest-list", "eval-checkpoint-list",
        "eval-artifact-list", "solve-instance-list", "experiment-spec-list"])
def test_malformed_config_rejected(tmp_path, capsys, config, argv, message):
    section = config.get(argv[0])
    if argv[0] in ("eval", "train") and not (isinstance(section, dict) and "manifest" in section):
        argv = [*argv, "--manifest", str(_regression_data(tmp_path))]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["--config", str(path), "--out", str(tmp_path / "out"), *argv]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
