"""The benchmark's workloads.

Each workload does a fixed list of operations on fixed inputs, so quality
figures and operation counts repeat exactly from run to run; the seed only
orders the work (see README.md). Work that runs more than once reports
the fastest time of each of its steps. Timed sections hold program calls
only; every check runs after them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import sys
import time

import numpy as np

from qproj import cli, core, datasets, gnn, solver, training

import checkers

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL_K30 = os.path.join(HERE, "model_k30.json")
SETTINGS = solver.SolverSettings()        # eps_abs = eps_rel = 1e-8
SETUP_REPEATS = 9
# On a shared machine other tenants slow a window of a few seconds by up to
# 40%, in bursts shorter than a second; contention only ever adds time. So
# the work runs in passes, each short step is timed on its own, and a
# figure sums the fastest time of each step.
INFER_PASSES = 2                          # infer-reg500 inference passes
TRAIN_PASSES = 6                          # train-port100 train() calls
HELD_OUT_PASSES = 4                       # train-port100 held-out passes per train()
EVAL_PASSES = 4                           # cli-control100 eval passes

REG500_SIZES = {"n": 500, "m": 50}        # N = 500, 550 constraint rows
REG500_SEEDS = range(8)
PORT_SIZES = {"n": 100}                   # N = 100, M = 101 after budget elimination
PORT_SPLIT = (60, 20, 20)                 # train, val, held-out test; seeds 0..99
PORT_K, PORT_EPOCHS = 10, 5
CONTROL_ARGS = ["--family", "control", "--s", "10", "--v", "10", "--t", "5"]
CONTROL_SIZES = {"s": 10, "v": 10, "t": 5}  # N = 100, M = 200
CONTROL_SPLIT = (60, 20, 20)
CLI_K, CLI_EPOCHS = 10, 2


class Run:
    """Operation counts, check problems and figures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.inner_failures = 0
        self.untraced = contextlib.nullcontext   # the tracer's pause, when tracing

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def fastest_total(times):
    """Sum over steps of each step's fastest time; times is passes x steps."""
    return float(np.min(times, axis=0).sum())


def timed_setup(run, steps):
    """Run the set-up steps (callables) SETUP_REPEATS times, tracing only the
    first repeat; returns the values of the last repeat and the set-up
    seconds, the sum of each step's fastest time."""
    times = np.zeros((SETUP_REPEATS, len(steps)))
    for r in range(SETUP_REPEATS):
        with run.untraced() if r else contextlib.nullcontext():
            values = []
            for j, step in enumerate(steps):
                t0 = time.perf_counter()
                values.append(step())
                times[r, j] = time.perf_counter() - t0
    return values, fastest_total(times)


def infer(params, inst, k):
    """The `ours` path: forward -> project -> solve -> recover."""
    proj, _ = gnn.forward(params, inst, k)
    res = solver.solve_qp(core.project(inst, proj), SETTINGS)
    return proj, res, core.recover(proj, res.y_star)


def timed_inference(params, k, instances, order):
    """Times the ours path and the full solve of every instance, in the given
    order. Returns the ours and the full seconds and the results, each by
    instance index."""
    t_ours, t_full = np.zeros(len(instances)), np.zeros(len(instances))
    results = [None] * len(instances)
    for i in order:
        inst = instances[i]
        t0 = time.perf_counter()
        proj, res, x = infer(params, inst, k)
        t1 = time.perf_counter()
        full = solver.solve_qp(inst, SETTINGS)
        t2 = time.perf_counter()
        t_ours[i] = t1 - t0
        t_full[i] = t2 - t1
        results[i] = (proj, res, x, full)
    return t_ours, t_full, results


def inference_passes(run, params, k, instances, rng, passes):
    """`passes` timed inference passes over the instances, each in a seeded
    order and each checked. Returns the ours and the full seconds of each
    pass and instance (passes x instances) and the relative errors of the
    first pass."""
    ours, full, errors = [], [], []
    for _ in range(passes):
        t_ours, t_full, results = timed_inference(
            params, k, instances, rng.permutation(len(instances)))
        ours.append(t_ours)
        full.append(t_full)
        errors.append(score(run, instances, results))
    _same_every_pass(run, "relative errors", errors)
    return np.array(ours), np.array(full), errors[0]


def score(run, instances, results):
    """Check each instance's ours result and full solve; count both as
    operations; return the relative error of each instance (1 when the
    reduced result is not Solved or there is no Solved reference)."""
    eps = (SETTINGS.eps_abs, SETTINGS.eps_rel)
    errors = []
    for inst, (proj, res, x, full) in zip(instances, results):
        name = inst.meta.get("id") or f"{inst.meta['family']} seed {inst.meta['seed']}"
        Q, c, A, b = inst.Q, inst.c, inst.A, inst.b
        ours_ok = res.status is solver.SolveStatus.SOLVED
        full_ok = full.status is solver.SolveStatus.SOLVED
        run.op(ours_ok)
        run.op(full_ok)
        found = checkers.orthonormal_problems(proj.P)
        if full_ok:
            found += checkers.kkt_problems(Q, c, A, b, full.y_star, full.lambda_star, *eps)
        err = 1.0
        if ours_ok:
            found += checkers.kkt_problems(Q, c, A, b, res.y_star, res.lambda_star, *eps,
                                           P=proj.P)
            found += checkers.lifted_problems(A, b, x, checkers.stated_tolerances(b, c, *eps)[0])
        if ours_ok and full_ok:
            err, more = checkers.relative_error_problems(
                Q, c, A, b, x, proj.P, res.y_star, res.lambda_star,
                full.y_star, full.lambda_star, *eps)
            found += more
        run.problems += [f"{name}: {p}" for p in found]
        errors.append(err)
    return errors


def _same_every_pass(run, label, values):
    if any(v != values[0] for v in values):
        run.problems.append(f"{label} differs between passes: {values}")


def infer_reg500(run, seed, workdir):
    """Paper-scale inference with the fixed K=30 model: per instance the ours
    path and the full solve, INFER_PASSES times."""
    steps = [functools.partial(datasets.generate_instance, "regression", REG500_SIZES, s)
             for s in REG500_SEEDS]
    values, run.metrics["setup_s"] = timed_setup(
        run, steps + [functools.partial(gnn.load_checkpoint, MODEL_K30)])
    instances, params = values[:-1], values[-1]
    t_ours, t_full, errors = inference_passes(run, params, params.k, instances,
                                              np.random.default_rng(seed), INFER_PASSES)
    ours, full = fastest_total(t_ours), fastest_total(t_full)
    run.metrics.update({
        "pipeline_s": ours + full,
        "ours_per_s": len(instances) / ours,
        "full_per_s": len(instances) / full,
        "ours_rel_err": float(np.mean(errors)),
    })


def train_port100(run, seed, workdir):
    """Desk-scale training on portfolio N=100, TRAIN_PASSES times; after each
    training the trained model on the held-out instances, HELD_OUT_PASSES
    times, so that the held-out passes are spread over the whole run."""
    n_train, n_val, n_test = PORT_SPLIT

    sets, run.metrics["setup_s"] = timed_setup(run, [
        functools.partial(datasets.generate_instance, "portfolio", PORT_SIZES, s)
        for s in range(n_train + n_val + n_test)])
    train_set, val_set, test_set = (sets[:n_train], sets[n_train:n_train + n_val],
                                    sets[n_train + n_val:])
    config = training.TrainConfig(k=PORT_K, max_epochs=PORT_EPOCHS, seed=0,
                                  solver=SETTINGS)
    rng = np.random.default_rng(seed)
    train_s, losses, ours, full, errors = [], [], [], [], []
    for _ in range(TRAIN_PASSES):
        t0 = time.perf_counter()
        params, report = training.train(train_set, val_set, config)
        train_s.append(time.perf_counter() - t0)
        losses.append(report.val_loss)
        if len(report.failures) != PORT_EPOCHS:
            run.problems.append(f"train report has {len(report.failures)} epochs")
        run.attempted += PORT_EPOCHS * n_train     # one inner solve per instance per epoch
        run.failed += sum(report.failures)
        run.inner_failures = sum(report.failures)
        t_ours, t_full, errs = inference_passes(run, params, PORT_K, test_set, rng,
                                                HELD_OUT_PASSES)
        ours.append(t_ours)
        full.append(t_full)
        errors.append(errs)
    _same_every_pass(run, "validation losses", losses)
    _same_every_pass(run, "held-out errors", errors)
    run.metrics.update({
        "pipeline_s": min(train_s),
        "ours_per_s": n_test / fastest_total(np.concatenate(ours)),
        "full_per_s": n_test / fastest_total(np.concatenate(full)),
        "ours_rel_err": float(np.mean(errors[0])),
    })


def _read_instance_file(path):
    """(Q, c, A, b, id) of an instance file, read with json and numpy alone."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    n, m = doc["n"], doc["m"]
    return (np.reshape(doc["Q"], (n, n)), np.asarray(doc["c"]),
            np.reshape(doc["A"], (m, n)), np.asarray(doc["b"]), doc["meta"]["id"])


def cli_control100(run, seed, workdir):
    """The qproj pipeline gen-data -> train -> eval ours/rand/full, in-process
    through cli.main, in a fresh directory. gen-data and train run once; the
    three evals run EVAL_PASSES times, each pass with its own cold cache."""
    n_train, n_val, n_test = CONTROL_SPLIT
    test_seeds = range(n_train + n_val, n_train + n_val + n_test)

    def fresh_workdir():
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)

    values, run.metrics["setup_s"] = timed_setup(run, [fresh_workdir] + [
        functools.partial(datasets.generate_instance, "control", CONTROL_SIZES, s)
        for s in test_seeds])
    reference = values[1:]
    data, model = os.path.join(workdir, "data"), os.path.join(workdir, "model")
    manifest = os.path.join(data, "manifest.json")
    build = timed_cli(run, [
        ("gen-data", ["--out", data, "gen-data", *CONTROL_ARGS,
                      "--train", str(n_train), "--val", str(n_val),
                      "--test", str(n_test), "--base-seed", "0"]),
        ("train", ["--seed", "0", "--out", model, "train", "--manifest", manifest,
                   "--k", str(CLI_K), "--epochs", str(CLI_EPOCHS)]),
    ])
    test_ids, run.inner_failures = _check_data_and_model(run, workdir, reference)

    evals, errors = [], []
    for p in range(EVAL_PASSES):
        dest = os.path.join(workdir, f"eval{p}")
        common = ["eval", "--manifest", manifest, "--cache-dir", os.path.join(dest, "cache"),
                  "--timing-repeats", "0", "--method"]
        evals.append(timed_cli(run, [
            ("ours", ["--out", os.path.join(dest, "ours"), *common, "ours",
                      "--checkpoint", os.path.join(model, "checkpoint.json")]),
            ("rand", ["--out", os.path.join(dest, "rand"), *common, "rand", "--k", str(CLI_K)]),
            ("full", ["--out", os.path.join(dest, "full"), *common, "full"]),
        ]))
        errors.append(_check_records(run, dest, test_ids))
    shutil.rmtree(workdir)
    _same_every_pass(run, "ours mean error", errors)
    run.metrics.update({
        "pipeline_s": sum(build.values()) + sum(min(e[m] for e in evals)
                                                 for m in ("ours", "rand", "full")),
        "ours_per_s": n_test / min(e["ours"] for e in evals),
        "full_per_s": n_test / min(e["full"] for e in evals),
        "ours_rel_err": errors[0],
    })


def timed_cli(run, steps):
    """Run each (label, argv) through cli.main; each is one operation.
    Returns the seconds of each step by label."""
    times = {}
    for label, argv in steps:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        times[label] = time.perf_counter() - t0
        run.op(code == 0)
        if code != 0:
            run.problems.append(f"qproj {label} exited with {code}")
    return times


def _check_data_and_model(run, out, reference):
    """The test files written by gen-data must hold exactly the reference
    instances, and train_report.csv one line per epoch. Returns the test
    instance ids and the inner-solve failures of training."""
    with open(os.path.join(out, "data", "manifest.json"), encoding="utf-8") as fh:
        files = [f["path"] for f in json.load(fh)["files"] if f["split"] == "test"]
    if len(files) != len(reference):
        run.problems.append(f"manifest lists {len(files)} test files, expected {len(reference)}")
    test_ids = []
    for path, ref in zip(files, reference):
        Q, c, A, b, iid = _read_instance_file(os.path.join(out, "data", path))
        test_ids.append(iid)
        if not all(np.array_equal(u, v) for u, v in zip((Q, c, A, b), (ref.Q, ref.c, ref.A, ref.b))):
            run.problems.append(f"{path}: does not hold the generated instance")

    with open(os.path.join(out, "model", "train_report.csv"), encoding="utf-8") as fh:
        epochs = [line.split(",") for line in fh.read().splitlines()[1:]]
    if len(epochs) != CLI_EPOCHS:
        run.problems.append(f"train_report.csv has {len(epochs)} epochs")
    return test_ids, sum(int(e[3]) for e in epochs)


def _check_records(run, dest, test_ids):
    """Check the records.csv files of one eval pass; each row is one
    operation. Returns the mean ours error."""
    tables = [checkers.read_records(os.path.join(dest, method, "records.csv"))
              for method in ("ours", "rand", "full")]
    run.problems += checkers.records_problems(tables, test_ids)
    rows = [row for _, recs in tables for row in recs]
    for row in rows:
        run.op(row["feasible"] == "True")
    ours = [float(r["relative_error"]) for r in rows if r["method"] == "ours"]
    return float(np.mean(ours)) if ours else 1.0


WORKLOADS = {
    "infer-reg500": infer_reg500,
    "train-port100": train_port100,
    "cli-control100": cli_control100,
}
