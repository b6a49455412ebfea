import json
import subprocess
import sys

import numpy as np
import pytest

from qproj.cli import main


def run_cli(args):
    return main(args)


def test_gen_data_train_eval_pipeline(tmp_path, capsys):
    data_dir = tmp_path / "data"
    rc = run_cli(["--out", str(data_dir), "gen-data", "--family", "regression",
                  "--n", "8", "--m", "2", "--t", "16",
                  "--train", "4", "--val", "2", "--test", "2",
                  "--base-seed", "0"])
    assert rc == 0
    manifest = data_dir / "manifest.json"
    assert manifest.exists()

    model_dir = tmp_path / "model"
    rc = run_cli(["--seed", "0", "--out", str(model_dir), "train",
                  "--manifest", str(manifest), "--k", "2", "--epochs", "2",
                  "--batch-size", "2", "--hidden", "4", "--layers", "1",
                  "--head-hidden", "4"])
    assert rc == 0
    assert (model_dir / "checkpoint.json").exists()
    assert (model_dir / "train_report.csv").exists()

    eval_dir = tmp_path / "eval"
    rc = run_cli(["--out", str(eval_dir), "eval", "--manifest", str(manifest),
                  "--method", "ours", "--checkpoint",
                  str(model_dir / "checkpoint.json"), "--timing-repeats", "0"])
    assert rc == 0
    lines = (eval_dir / "records.csv").read_text().strip().splitlines()
    assert len(lines) == 3          # header + 2 test instances
    capsys.readouterr()


def test_eval_rand_and_full(tmp_path, capsys):
    data_dir = tmp_path / "d"
    run_cli(["--out", str(data_dir), "gen-data", "--family", "regression",
             "--n", "6", "--m", "2", "--t", "12", "--train", "2", "--val", "1",
             "--test", "2", "--base-seed", "3"])
    for method, extra in [("rand", ["--k", "2"]), ("full", [])]:
        out = tmp_path / method
        rc = run_cli(["--out", str(out), "eval", "--manifest",
                      str(data_dir / "manifest.json"), "--method", method,
                      "--timing-repeats", "0"] + extra)
        assert rc == 0
        assert (out / "records.csv").exists()
    capsys.readouterr()


def test_solve_subcommand(tmp_path, capsys):
    from qproj.core import QpInstance, save_instance

    inst = QpInstance(Q=[[2.0]], c=[-2.0], A=[[1.0]], b=[0.5])
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    rc = run_cli(["solve", "--instance", str(path)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["status"] == "Solved"
    assert doc["objective"] == pytest.approx(-0.75, abs=1e-9)
    assert doc["y_star"][0] == pytest.approx(0.5, abs=1e-9)
    assert doc["lambda_star"][0] == pytest.approx(1.0, abs=1e-8)
    # the unconstrained minimizer y = 1 violates the row, so the start
    # already holds it and the finish adds and drops nothing
    assert (doc["iterations"], doc["adds"], doc["drops"]) == (0, 0, 0)


def test_baseline_pca_artifact(tmp_path, capsys):
    data_dir = tmp_path / "d"
    run_cli(["--out", str(data_dir), "gen-data", "--family", "regression",
             "--n", "6", "--m", "2", "--t", "12", "--train", "3", "--val", "1",
             "--test", "1", "--base-seed", "0"])
    out = tmp_path / "art"
    rc = run_cli(["--out", str(out), "baseline", "--method", "pca",
                  "--manifest", str(data_dir / "manifest.json"), "--k", "2"])
    assert rc == 0
    assert (out / "pca_artifact.json").exists()

    eval_dir = tmp_path / "ev"
    rc = run_cli(["--out", str(eval_dir), "eval", "--manifest",
                  str(data_dir / "manifest.json"), "--method", "pca",
                  "--artifact", str(out / "pca_artifact.json"),
                  "--timing-repeats", "0"])
    assert rc == 0
    capsys.readouterr()


def test_theory_subcommand(capsys):
    rc = run_cli(["theory", "--sigma-q", "2", "--q0", "1", "--c0", "1",
                  "--b", "3", "--n", "4", "--k", "2",
                  "--epsilon", "0.01", "--delta", "0.05", "--d", "100",
                  "--log-n-cover", "50"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["y_max"] == pytest.approx(1.0 + np.sqrt(13.0), rel=1e-12)
    assert doc["bound"] is not None


def test_exit_code_2_on_config_error(capsys):
    # missing required option
    assert run_cli(["train"]) == 2
    assert run_cli(["theory"]) == 2
    capsys.readouterr()


def test_eval_rejects_a_k_the_checkpoint_does_not_emit(tmp_path, capsys, monkeypatch):
    # --k used to be ignored: a K=2 model evaluated with --k 5 wrote k=2 rows
    from qproj import evaluate
    from qproj.gnn import init_params, save_checkpoint

    data_dir = tmp_path / "d"
    run_cli(["--out", str(data_dir), "gen-data", "--family", "regression",
             "--n", "6", "--m", "2", "--t", "12", "--train", "2", "--val", "1",
             "--test", "2", "--base-seed", "3"])
    ckpt = tmp_path / "ours_k2.json"
    save_checkpoint(ckpt, init_params(0, h=4, l=1, k=2, h_g=4), seed=0)

    def no_reference_solves(*args, **kwargs):
        raise AssertionError("reference solves before the K check")

    monkeypatch.setattr(evaluate.SolutionCache, "warm", no_reference_solves)
    out = tmp_path / "ev"
    rc = run_cli(["--out", str(out), "eval", "--manifest", str(data_dir / "manifest.json"),
                  "--method", "ours", "--checkpoint", str(ckpt), "--k", "5",
                  "--timing-repeats", "0"])
    assert rc == 2
    assert "emits K=2" in capsys.readouterr().err
    assert not (out / "records.csv").exists()


def _run_one_sweep(tmp_path, sweep):
    """qproj experiment on one sweep named gen, of method ours at K=2; the
    strings <manifest> and <ckpt> in the sweep name a regression N=6
    manifest and an untrained checkpoint."""
    from qproj.gnn import init_params, save_checkpoint

    data_dir = tmp_path / "d"
    run_cli(["--out", str(data_dir), "gen-data", "--family", "regression",
             "--n", "6", "--m", "2", "--t", "12", "--train", "2", "--val", "1",
             "--test", "2", "--base-seed", "3"])
    ckpt = tmp_path / "m.json"
    save_checkpoint(ckpt, init_params(0, h=4, l=1, k=2, h_g=4), seed=0)
    spec = tmp_path / "spec.json"
    text = json.dumps({"timing_repeats": 0, "sweeps": [
        dict(sweep, name="gen", methods=["ours"], k=2)]})
    spec.write_text(text.replace("<manifest>", str(data_dir / "manifest.json"))
                    .replace("<ckpt>", str(ckpt)))
    return run_cli(["--out", str(tmp_path / "exp"), "experiment", "--spec", str(spec)])


def test_experiment_with_a_checkpoint_map_exits_2(tmp_path, capsys):
    # a per-setting map in a generalization sweep ended in a TypeError traceback
    rc = _run_one_sweep(tmp_path, {"type": "generalization_sweep",
                                   "manifests": {"6": "<manifest>"},
                                   "checkpoints": {"ours": {"6": "<ckpt>"}}})
    assert rc == 2
    assert "sweep 'gen'" in capsys.readouterr().err


def test_experiment_d_sweep_with_a_plain_checkpoint_exits_2(tmp_path, capsys):
    # a plain path in a d_sweep gave no setting, so nothing was evaluated
    rc = _run_one_sweep(tmp_path, {"type": "d_sweep", "manifest": "<manifest>",
                                   "checkpoints": {"ours": "<ckpt>"}})
    assert rc == 2
    assert "sweep 'gen'" in capsys.readouterr().err
    assert not (tmp_path / "exp" / "records.csv").exists()


def test_exit_code_3_on_io_error(tmp_path, capsys):
    rc = run_cli(["solve", "--instance", str(tmp_path / "missing.json")])
    assert rc == 3
    rc = run_cli(["train", "--manifest", str(tmp_path / "nope.json"),
                  "--k", "2"])
    assert rc == 3
    capsys.readouterr()


def test_config_file_defaults(tmp_path, capsys):
    cfg = {"gen_data": {"family": "regression", "n": 6, "m": 2, "t": 12,
                        "train": 2, "val": 1, "test": 1, "base-seed": 5}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "data"
    rc = run_cli(["--config", str(cfg_path), "--out", str(out), "gen-data"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["base_seed"] == 5
    assert manifest["counts"] == {"train": 2, "val": 1, "test": 1}
    capsys.readouterr()


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "qproj.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize served only the NNLS of the old polish finish, and
    # importing it cost about 20 MB of peak memory in every command
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qproj.cli, qproj.solver, sys; print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_baseline_sharedp_and_direct_round_trip(tmp_path, capsys):
    # the records of `eval` on each written file equal an in-process run on
    # the objects read back from it
    from qproj.baselines import load_projection
    from qproj.datasets import DatasetManifest
    from qproj.evaluate import (DirectMethod, FixedProjectionMethod, evaluate_method,
                                write_records_csv)
    from qproj.gnn import init_params, load_checkpoint, save_checkpoint

    data_dir = tmp_path / "d"
    run_cli(["--out", str(data_dir), "gen-data", "--family", "regression",
             "--n", "6", "--m", "2", "--t", "12", "--train", "3", "--val", "1",
             "--test", "2", "--base-seed", "2"])
    manifest = str(data_dir / "manifest.json")
    test_set = DatasetManifest.load(manifest).load_split("test")
    art = tmp_path / "art"
    for name in ("pca", "sharedp", "direct"):
        k = [] if name == "direct" else ["--k", "2"]
        assert run_cli(["--seed", "0", "--out", str(art), "baseline", "--method", name,
                        "--manifest", manifest, "--epochs", "2"] + k) == 0

    direct = art / "direct_artifact.json"
    extra = json.loads(direct.read_text())["extra"]
    assert extra["method"] == "direct" and extra["lambda_pen"] in (0.1, 1.0, 10.0, 100.0)
    for name, method in [
            ("sharedp", FixedProjectionMethod(
                load_projection(art / "sharedp_artifact.json").P, "sharedp")),
            ("direct", DirectMethod(load_checkpoint(direct)))]:
        out = tmp_path / f"ev_{name}"
        assert run_cli(["--out", str(out), "eval", "--manifest", manifest, "--method", name,
                        "--artifact", str(art / f"{name}_artifact.json"),
                        "--timing-repeats", "0"]) == 0
        write_records_csv(tmp_path / "want.csv",
                          evaluate_method(method, test_set, timing_repeats=0))
        assert (out / "records.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    # each of these ended in an AttributeError traceback (exit code 1); a K=2
    # model would predict from its first column
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    ours = tmp_path / "ours_k2.json"
    save_checkpoint(ours, init_params(0, h=4, l=1, k=2, h_g=4), seed=0)
    capsys.readouterr()
    for name, path, message in [("pca", direct, "method None"),
                                ("direct", art / "pca_artifact.json", "format None"),
                                ("pca", listed, "method None"),
                                ("direct", listed, "format None"),
                                ("direct", ours, "K=1, not K=2")]:
        assert run_cli(["--out", str(tmp_path / "bad"), "eval", "--manifest", manifest,
                        "--method", name, "--artifact", str(path),
                        "--timing-repeats", "0"]) == 2, (name, path)
        assert message in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_config_seed_equals_the_seed_flag(tmp_path, capsys):
    # gen-data took base seed 0 and eval --method rand seed 0 whatever the
    # config's seed; train and baseline already honoured it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5}))

    def gen_data(out, *seed_args):
        assert run_cli([*seed_args, "--out", str(out), "gen-data", "--family", "regression",
                        "--n", "6", "--m", "2", "--t", "12", "--train", "1", "--val", "1",
                        "--test", "2"]) == 0
        return out / "manifest.json"

    def eval_rand(out, manifest, *seed_args):
        assert run_cli([*seed_args, "--out", str(out), "eval", "--manifest", str(manifest),
                        "--method", "rand", "--k", "2", "--timing-repeats", "0"]) == 0
        return (out / "records.csv").read_bytes()

    by_flag = gen_data(tmp_path / "flag", "--seed", "5")
    by_config = gen_data(tmp_path / "config", "--config", str(cfg_path))
    assert json.loads(by_config.read_text())["base_seed"] == 5
    assert by_config.read_bytes() == by_flag.read_bytes()
    test_file = "regression_test_0003.json"
    assert (by_config.parent / test_file).read_bytes() == (by_flag.parent / test_file).read_bytes()
    records = eval_rand(tmp_path / "e5", by_flag, "--seed", "5")
    assert eval_rand(tmp_path / "ec", by_flag, "--config", str(cfg_path)) == records
    assert eval_rand(tmp_path / "e0", by_flag) != records
    capsys.readouterr()
