"""Seeded regression tests for defects: each failed before its fix."""

import json

import numpy as np
import pytest

from qproj.baselines import direct_train, save_projection, sharedp_train
from qproj.cli import main
from qproj.core import (
    ProjectionMatrix,
    QpInstance,
    feasibility_tol,
    is_feasible,
    load_instance,
    max_violation,
    objective,
    project,
    recover,
    save_instance,
)
from qproj.datasets import gen_regression, generate_instance
from qproj.evaluate import FULL, evaluate_method, rand_method, score
from qproj.gnn import forward, init_params, load_checkpoint, save_checkpoint
from qproj.solver import SolveStatus, solve_qp
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
    the Cholesky factorization of Q + delta I fails."""
    inst = QpInstance(Q=np.eye(2), c=[1.0, -1.0], A=[[1.0, 1.0]], b=[1.0])
    object.__setattr__(inst, "Q", np.diag([1.0, -1.0]))
    return inst


def test_failed_cholesky_is_a_status():
    res = solve_qp(_indefinite_instance())
    assert res.status is SolveStatus.NUMERICAL_ERROR
    assert "Cholesky" in res.message
    assert res.iterations == 0
    assert np.all(np.isfinite(res.y_star))


def test_feasibility_judged_at_instance_tolerance():
    # a lifted point is feasible up to core.feasibility_tol, 1e-6 * (1 + ||b||),
    # not up to the absolute 1e-6 once used. The solver's lifted points are
    # exact, so one is shifted along a row normal into the band between.
    inst = gen_regression(500, 50, seed=4)
    proj, _ = forward(init_params(0, k=30), inst, 30)
    res = solve_qp(project(inst, proj))
    assert res.status is SolveStatus.SOLVED
    x = recover(proj, res.y_star)
    tol = feasibility_tol(inst)
    i = int(np.argmax(inst.A @ x - inst.b))
    a = inst.A[i]
    x = x + (np.sqrt(1e-6 * tol) - (a @ x - inst.b[i])) / (a @ a) * a
    assert 1e-6 < max_violation(inst, x) <= tol
    assert is_feasible(inst, x)
    err, feasible = score(inst, x, objective(inst, x), solve_qp(inst).objective)
    assert feasible
    assert err < 1.0


def test_eval_scores_trivial_optimum_zero():
    # x = 0 is optimal (u* = 0); relative_error raised on the zero
    # denominator and aborted the whole eval
    inst = QpInstance(Q=np.eye(3), c=np.ones(3), A=-np.eye(3), b=np.zeros(3))
    [rec] = evaluate_method(FULL, [inst], timing_repeats=0)
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


def _made_infeasible(inst):
    """inst plus the rows y_0 <= -1 and -y_0 <= -1, which no point meets."""
    row = np.eye(inst.n_vars)[0]
    return QpInstance(Q=inst.Q, c=inst.c, A=np.vstack([inst.A, row, -row]),
                      b=np.append(inst.b, [-1.0, -1.0]), constant=inst.constant,
                      meta=inst.meta)


def test_reference_optimum_must_be_solved(tmp_path, capsys):
    # eval took the objective of an unsolved full solve as u* (a solve cut
    # short ended at u = -0.9438 where the optimum is -0.8930, and rand
    # scored 0.855 against it); an infeasible instance has no optimum at all
    inst = _made_infeasible(generate_instance("control", {"s": 5, "v": 5, "t": 3}, 0))
    assert solve_qp(inst).status is SolveStatus.PRIMAL_INFEASIBLE
    with pytest.raises(ValueError, match="PrimalInfeasible, not Solved"):
        evaluate_method(rand_method(5), [inst], timing_repeats=0)
    # training read the validation u* from the same unchecked solve
    config = TrainConfig(k=2, batch_size=1, max_epochs=1, hidden=4, layers=1,
                         head_hidden=4)
    for fit in (lambda: train([inst], [inst], config),
                lambda: sharedp_train([inst], [inst], config),
                lambda: direct_train([inst], [inst], config)):
        with pytest.raises(ValueError, match="PrimalInfeasible, not Solved"):
            fit()

    # the CLI reports it as a configuration error; instance 0 is the train split
    data = tmp_path / "data"
    assert main(["--out", str(data), "gen-data", "--family", "control", "--s", "5",
                 "--v", "5", "--t", "3", "--train", "1", "--val", "1",
                 "--test", "1", "--base-seed", "0"]) == 0
    (path,) = data.glob("*train*")
    save_instance(_made_infeasible(load_instance(path)), path)
    assert main(["--out", str(tmp_path / "eval"), "eval",
                 "--manifest", str(data / "manifest.json"), "--split", "train",
                 "--method", "rand", "--k", "5", "--timing-repeats", "0"]) == 2
    assert "control-train-0000 ended PrimalInfeasible" in capsys.readouterr().err


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
    # max_iter, rho, sigma and polish are no longer settings, so their rows
    # are now unknown keys. NaN tolerances ran 20,000 iterations to
    # MaxIterReached, and a NaN rho ended NumericalError; both exited 0.
    ({"max_iter": 10}, "'max_iter'"),
    ({"eps_abs": float("nan")}, "'eps_abs'"),
    ({"eps_rel": float("nan")}, "'eps_rel'"),
    ({"rho": float("nan")}, "'rho'"),
    ({"sigma": float("inf")}, "'sigma'"),
    ({"polish": False}, "'polish'"),
    ({"eps_abs": "1e-8"}, "'eps_abs'"),
    ({"eps_rel": True}, "'eps_rel'"),
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
    ({"solver": {"eps_abs": "1e-8"}}, "'eps_abs'"),
    ({"timing_repeats": [1]}, "'timing_repeats'"),
    ({"sweeps": [{"type": "k_sweep", "manifest": "m.json", "methods": ["rand"],
                  "k_values": "23"}]}, "'k_values'"),
    ({"feas_tol": 1e-3}, "'feas_tol'"),
    ({"sweeps": [{"type": "generalization_sweep", "manifests": {"6": "m.json"},
                  "methods": ["rand"], "k": [2]}]}, "'k'"),
    ({"sweeps": [{"type": "generalization_sweep", "manifests": {}, "methods": ["rand"],
                  "k": 2, "rand_seed": [1]}]}, "'rand_seed'"),
    # an integer path made open() read that file descriptor: on stdin it
    # hung; a cache_dir that is not a path and a manifests or checkpoints
    # list escaped as a TypeError or an AttributeError, and a methods number
    # as a TypeError (or ran nothing and exited 0)
    ({"sweeps": [{"type": "k_sweep", "manifest": 0, "methods": ["rand"],
                  "k_values": [2]}]}, "'manifest'"),
    ({"sweeps": [{"type": "k_sweep", "manifest": "m.json", "methods": ["ours"],
                  "k_values": [2], "checkpoints": {"ours": 0}}]}, "'checkpoints'"),
    ({"cache_dir": 5}, "'cache_dir'"),
    ({"sweeps": [{"type": "generalization_sweep", "manifests": ["m.json"],
                  "methods": ["rand"], "k": 2}]}, "'manifests'"),
    ({"sweeps": [{"type": "d_sweep", "manifest": "m.json", "methods": ["ours"], "k": 2,
                  "checkpoints": ["c.json"]}]}, "'checkpoints'"),
    ({"sweeps": [{"type": "generalization_sweep", "manifests": {}, "methods": 3,
                  "k": 2}]}, "'methods'"),
], ids=["list", "sweep-string", "sweeps-number", "solver-unknown-key", "solver-list",
        "solver-string", "timing-repeats-list", "k-values-string", "removed-feas-tol",
        "sweep-k-list", "sweep-rand-seed-list", "manifest-integer", "checkpoint-integer",
        "cache-dir-integer", "manifests-list", "checkpoints-list", "methods-number"])
def test_malformed_experiment_spec_rejected(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--out", str(tmp_path / "exp"), "experiment", "--spec", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


# a cache file that is not an entry escaped as a TypeError (exit code 1),
# a short x_star failed in numpy with a message naming neither the file nor
# the field, a NaN x_star scored the full method 1 and exited 0, and a
# status that is not a string was reported as the status of a solve
@pytest.mark.parametrize("edit, message", [
    (lambda e: [], "a cache entry must be a JSON object"),
    (lambda e: {**e, "u_star": str(e["u_star"])}, "'u_star'"),
    (lambda e: {**e, "x_star": e["x_star"][:-1]}, "'x_star'"),
    (lambda e: {**e, "x_star": [float("nan")] * len(e["x_star"])}, "'x_star'"),
    (lambda e: {**e, "status": 1}, "'status'"),
], ids=["list", "u-star-string", "x-star-short", "x-star-nan", "status-number"])
def test_malformed_cache_file_rejected(tmp_path, capsys, edit, message):
    cache_dir = tmp_path / "cache"
    args = ["eval", "--manifest", str(_regression_data(tmp_path)), "--method", "full",
            "--timing-repeats", "0", "--cache-dir", str(cache_dir)]
    assert main(["--out", str(tmp_path / "first"), *args]) == 0
    (path,) = cache_dir.glob("*.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "eval"), *args]) == 2
    err = capsys.readouterr().err
    assert path.name in err and message in err
    assert not (tmp_path / "eval").exists()


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
        if kind == "projection":
            path = tmp_path / "pca.json"
            save_projection(path, ProjectionMatrix(P=np.eye(6)[:, :2]), "pca")
            args[-1:] = ["pca", "--artifact", str(path)]
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
    # these loaded and solved: true as 1.0, "5" as 5.0, and a Q of strings or
    # of trues as numbers; a manifest without its family said only "error: 'family'"
    ("instance", lambda d: {**d, "constant": True}, "instance field 'constant'"),
    ("instance", lambda d: {**d, "constant": "5"}, "instance field 'constant'"),
    ("instance", lambda d: {**d, "Q": [str(x) for x in d["Q"]]}, "instance field 'Q'"),
    ("instance", lambda d: {**d, "Q": [True] * len(d["Q"])}, "instance field 'Q'"),
    ("manifest", lambda d: {k: v for k, v in d.items() if k != "family"},
     "manifest field 'family'"),
    # a boolean among numbers converted with them, as 1.0 or 0.0
    ("instance", lambda d: {**d, "Q": [*d["Q"][:-1], True]}, "instance field 'Q'"),
    ("checkpoint", lambda d: {**d, "params": {**d["params"],
                                              "w0v": [False, *d["params"]["w0v"][1:]]}},
     "checkpoint params field 'w0v'"),
    # orjson reads an integer beyond 64 bits as a float
    ("manifest", lambda d: {**d, "base_seed": 2**64}, "manifest field 'base_seed'"),
    # a bare number loaded as a one-entry array, and the instance solved
    ("instance", lambda d: {**d, "n": 1, "m": 1, "Q": [2.0], "c": 5, "A": [1.0], "b": [3.0]},
     "instance field 'c'"),
    ("instance", lambda d: {**d, "n": 1, "m": 1, "Q": 2.0, "c": [5.0], "A": [1.0], "b": [3.0]},
     "instance field 'Q'"),
    ("projection", lambda d: {**d, "n_train": 1, "k": 1, "P": 1.0}, "projection field 'P'"),
], ids=["instance-Q-object", "instance-constant-list", "manifest-list",
        "manifest-files-number", "checkpoint-hidden-string", "checkpoint-params-list",
        "instance-constant-bool", "instance-constant-string", "instance-Q-strings",
        "instance-Q-bools", "manifest-no-family", "instance-Q-one-bool",
        "checkpoint-w0v-one-bool", "manifest-base-seed-2-pow-64", "instance-c-number",
        "instance-Q-number", "projection-P-number"])
def test_malformed_input_file_rejected(tmp_path, capsys, kind, edit, message):
    args = _malformed_file(tmp_path, kind, edit, seed=35)
    capsys.readouterr()
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "eval" / "records.csv").exists()


# json.load raised RecursionError out of cli.main (exit 1 with a traceback),
# and so did the repr of a deep config section; orjson 3.8, which has no
# depth limit, overflows the C stack on the last two
@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "[" * 100_000,
                                  '{"theory": ' + "[" * 990 + "]" * 990 + "}",
                                  '{"a": ' * 100_000 + "1" + "}" * 100_000,
                                  "[" * 200_000 + "]" * 200_000],
                         ids=["closed", "unclosed", "section", "objects", "deeper"])
def test_deeply_nested_config_rejected(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    capsys.readouterr()
    assert main(["--config", str(path), "theory"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err or "section 'theory'" in err


def _truncated_file(tmp_path, kind):
    """(qproj arguments, path): the arguments read a valid file of `kind` at
    path, which the caller then truncates."""
    manifest = _regression_data(tmp_path)
    instance = str(next(manifest.parent.glob("*_test_*.json")))
    evaluate = ["--out", str(tmp_path / "eval"), "eval", "--manifest", str(manifest),
                "--timing-repeats", "0", "--method"]
    path = tmp_path / f"{kind}.json"
    if kind == "instance":
        return ["solve", "--instance", instance], instance
    if kind == "manifest":
        return [*evaluate, "full"], manifest
    if kind == "checkpoint":
        save_checkpoint(path, init_params(0, h=4, l=1, k=2, h_g=4))
        return [*evaluate, "ours", "--checkpoint", str(path)], path
    if kind == "projection":
        save_projection(path, ProjectionMatrix(P=np.eye(6)[:, :2]), "pca")
        return [*evaluate, "pca", "--artifact", str(path)], path
    if kind == "cache":
        args = [*evaluate, "full", "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        return args, next((tmp_path / "cache").glob("*.json"))
    if kind == "spec":
        path.write_text(json.dumps({"timing_repeats": 0, "sweeps": []}))
        return ["--out", str(tmp_path / "exp"), "experiment", "--spec", str(path)], path
    path.write_text(json.dumps({"solve": {}}))
    return ["--config", str(path), "solve", "--instance", instance], path


# a file cut short printed only json's message, e.g. "Expecting ','
# delimiter: line 1 column 41", with no word of which file it was
@pytest.mark.parametrize("kind", ["instance", "manifest", "checkpoint", "projection",
                                  "cache", "spec", "config"])
def test_truncated_input_file_names_the_file(tmp_path, capsys, kind):
    args, path = _truncated_file(tmp_path, kind)
    text = open(path, encoding="utf-8").read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) // 2])
    capsys.readouterr()
    assert main(args) == 2
    assert f"{path}: not valid JSON" in capsys.readouterr().err


# with no checkpoint configured, an unknown method was skipped like a
# missing file and the run exited 0; with one, it raised after the output
# directory had been made
@pytest.mark.parametrize("checkpoints", [{}, {"bogus": "bogus.json"}],
                         ids=["no-checkpoint", "checkpoint"])
def test_unknown_spec_method_rejected(tmp_path, capsys, checkpoints):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"timing_repeats": 0, "sweeps": [
        {"type": "k_sweep", "name": "ks", "manifest": str(_regression_data(tmp_path)),
         "methods": ["bogus", "rand"], "k_values": [2], "checkpoints": checkpoints}]}))
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "exp"), "experiment", "--spec", str(spec)]) == 2
    assert "sweep 'ks': unknown methods ['bogus']" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


# argparse checks a --method flag against its choices, but not a method
# from a config file: there an unknown eval method asked for --artifact,
# and an unknown baseline was named only after the output directory had
# been made
@pytest.mark.parametrize("command, message", [
    ("eval", "unknown method 'bogus' (expected ours/rand/pca/sharedp/direct/full)"),
    ("baseline", "unknown baseline 'bogus' (expected pca/sharedp/direct)"),
])
def test_unknown_config_method_rejected(tmp_path, capsys, command, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({command: {"method": "bogus"}}))
    manifest = _regression_data(tmp_path)
    capsys.readouterr()
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), command,
                 "--manifest", str(manifest)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    # bool() took the string "false" as true, so these recorded timings and
    # ran the validation
    ({"record_timings": "false"}, ["train", "--k", "2"], "'record_timings'"),
    ({"train": {"record_timings": 0}}, ["train", "--k", "2"], "'record_timings'"),
    ({"theory": {"validate": "no"}}, ["theory"], "'validate'"),
    # int() took these as K=3, one epoch and K=2, and trained; a misnamed
    # split evaluated nothing and wrote a records.csv of the header alone
    ({"train": {"k": 3.7}}, ["train"], "'k'"),
    ({"train": {"epochs": True}}, ["train", "--k", "2"], "'epochs'"),
    ({"train": {"k": "2"}}, ["train"], "'k'"),
    ({"eval": {"split": "tset"}}, ["eval", "--method", "rand", "--k", "2"], "'split'"),
    # orjson reads an integer beyond 64 bits as a float
    ({"train": {"k": 2**64}}, ["train"], "'k'"),
], ids=["eval-section-list", "eval-timing-repeats-list", "train-epochs-list",
        "eval-cache-dir-list", "eval-manifest-list", "eval-checkpoint-list",
        "eval-artifact-list", "solve-instance-list", "experiment-spec-list",
        "record-timings-string", "train-record-timings-number", "theory-validate-string",
        "train-k-float", "train-epochs-bool", "train-k-string", "eval-split-misnamed",
        "train-k-2-pow-64"])
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


# a sweep without its type or its manifest stopped with the key alone
# ("error: 'type'"), and a d_sweep key that is not a training-set size with
# "invalid literal for int() with base 10: 'abc'"
@pytest.mark.parametrize("sweep, message", [
    ({"name": "ks", "manifest": "<manifest>", "methods": ["rand"], "k_values": [2]},
     "sweeps[0] field 'type'"),
    ({"type": "k_sweep", "name": "ks", "methods": ["rand"], "k_values": [2]},
     "sweep 'ks' field 'manifest'"),
    ({"type": "d_sweep", "name": "ds", "manifest": "<manifest>", "methods": ["ours"], "k": 2,
      "checkpoints": {"ours": {"abc": "c.json"}}}, "sweep 'ds': checkpoint keys ['abc']"),
], ids=["no-type", "no-manifest", "d-key-not-integer"])
def test_misnamed_sweep_field_rejected(tmp_path, capsys, sweep, message):
    manifest = str(_regression_data(tmp_path))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"timing_repeats": 0, "sweeps": [
        {key: manifest if value == "<manifest>" else value for key, value in sweep.items()}]}))
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "exp"), "experiment", "--spec", str(spec)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


def test_misnamed_split_flag_rejected(tmp_path, capsys):
    # --split tset evaluated nothing, wrote a records.csv of the header alone
    # and exited 0; argparse now exits 2 naming the choices
    manifest = _regression_data(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "eval"), "eval", "--manifest", str(manifest),
              "--method", "rand", "--k", "2", "--split", "tset"])
    assert exc.value.code == 2
    assert "'tset'" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


# a manifest whose files list no validation instance ended baseline sharedp
# and direct in a ZeroDivisionError (exit code 1)
@pytest.mark.parametrize("method", ["sharedp", "direct"])
def test_manifest_without_a_split_rejected(tmp_path, capsys, method):
    manifest = _regression_data(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["files"] = [entry for entry in doc["files"] if entry["split"] != "val"]
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "out"), "baseline", "--manifest", str(manifest),
                 "--method", method, "--k", "2", "--epochs", "1"]) == 2
    assert "lists no 'val' instances" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# a NaN or infinite learning rate passed TrainConfig, as NaN <= 0 is False:
# training warned, then stopped at the first validation on "P holds NaN"
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_learning_rate_rejected(tmp_path, capsys, value):
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        TrainConfig(k=2, learning_rate=float(value))
    manifest = _regression_data(tmp_path)
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "model"), "train", "--manifest", str(manifest),
                 "--k", "2", "--epochs", "1", "--lr", value]) == 2
    assert "'lr'" in capsys.readouterr().err
    assert not (tmp_path / "model").exists()
