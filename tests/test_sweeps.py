"""Experiment sweeps: the generalization sweep on its own, and the exact
bytes of a run that holds every sweep type, a missing checkpoint file and
an unconfigured one. The expected files are in tests/data/four_sweeps;
paths under the run's temporary directory read <tmp> there."""

import csv
import os

import numpy as np

from qproj.baselines import pca_projection, save_projection
from qproj.core import ProjectionMatrix
from qproj.datasets import gen_split
from qproj.evaluate import run_experiment
from qproj.gnn import init_params, save_checkpoint

EXPECTED = os.path.join(os.path.dirname(__file__), "data", "four_sweeps")


def _manifests(root):
    """Regression at N=6 and N=8 and portfolio at N=6, two test instances each."""
    out = {}
    for name, family, sizes in [("reg6", "regression", {"n": 6, "m": 2, "t": 12}),
                                ("reg8", "regression", {"n": 8, "m": 2, "t": 16}),
                                ("port6", "portfolio", {"n": 6})]:
        gen_split(family, sizes, {"train": 2, "val": 1, "test": 2}, 0, root / name)
        out[name] = str(root / name / "manifest.json")
    return out


def _checkpoints(root):
    """Untrained models and fixed projections, so the run needs no training."""
    paths = {}
    for name, seed in [("ours_k2", 0), ("ours_d4", 1)]:
        paths[name] = str(root / f"{name}.json")
        save_checkpoint(paths[name], init_params(seed, h=4, l=1, k=2, h_g=4), seed=seed)
    rng = np.random.default_rng(3)
    for k in (2, 3):
        paths[f"pca_k{k}"] = str(root / f"pca_k{k}.json")
        save_projection(paths[f"pca_k{k}"], pca_projection(rng.normal(size=(5, 6)), k), "pca")
    paths["sharedp_k2"] = str(root / "sharedp_k2.json")
    save_projection(paths["sharedp_k2"],
                    ProjectionMatrix(P=np.linalg.qr(rng.normal(size=(6, 2)))[0]), "sharedp")
    paths["direct"] = str(root / "direct.json")
    save_checkpoint(paths["direct"], init_params(4, h=4, l=1, k=1, h_g=4), seed=4,
                    extra={"method": "direct", "lambda_pen": 1.0})
    return paths


def four_sweep_spec(root):
    m = _manifests(root)
    c = _checkpoints(root)
    missing = str(root / "absent" / "sharedp_k3.json")
    return {
        "timing_repeats": 0,
        "sweeps": [
            {"type": "k_sweep", "name": "ks", "manifest": m["reg6"],
             "methods": ["ours", "rand", "pca", "sharedp", "direct", "full"],
             "k_values": [2, 3],
             "checkpoints": {"ours": {"2": c["ours_k2"]},
                             "pca": {"2": c["pca_k2"], "3": c["pca_k3"]},
                             "sharedp": {"2": c["sharedp_k2"], "3": missing},
                             "direct": {"2": c["direct"], "3": c["direct"]}},
             "rand_seed": 1},
            {"type": "generalization_sweep", "axis": "n",
             "manifests": {"6": m["reg6"], "8": m["reg8"]},
             "methods": ["ours", "pca", "rand", "direct"], "k": 2,
             "checkpoints": {"ours": c["ours_k2"], "pca": c["pca_k2"]}},
            {"type": "d_sweep", "name": "ds", "manifest": m["reg6"],
             "methods": ["ours", "rand"], "k": 2,
             "checkpoints": {"ours": {"2": c["ours_k2"], "4": c["ours_d4"]}}},
            {"type": "cross_dataset", "name": "cross",
             "manifests": {"regression": m["reg6"], "portfolio": m["port6"]},
             "checkpoints": {"regression": c["ours_k2"], "portfolio": missing},
             "methods": ["ours"], "k": 2},
        ],
    }


def run_four_sweeps(root):
    """The three output files of the four-sweep run, with <tmp> for root."""
    out = run_experiment(four_sweep_spec(root), root / "exp")
    files = {}
    for name in ("records.csv", "summary.csv", "diagnostics.txt"):
        with open(root / "exp" / name, "rb") as fh:
            files[name] = fh.read().replace(os.fsencode(str(root)), b"<tmp>")
    return out, files


def test_generalization_sweep(tmp_path):
    m = _manifests(tmp_path)
    c = _checkpoints(tmp_path)
    spec = {"timing_repeats": 0, "sweeps": [
        {"type": "generalization_sweep", "name": "gen", "axis": "n",
         "manifests": {"6": m["reg6"], "8": m["reg8"]},
         "methods": ["pca", "rand", "sharedp"], "k": 2,
         "checkpoints": {"pca": c["pca_k2"]}}]}
    out = run_experiment(spec, tmp_path / "exp")
    with open(out["records"]) as fh:
        rows = list(csv.DictReader(fh))
    # 2 settings x 2 methods x 2 test instances; sharedp has no checkpoint
    assert len(rows) == 8
    assert {r["setting"] for r in rows} == {"n=6", "n=8"}
    assert {r["sweep_type"] for r in rows} == {"generalization_sweep"}
    assert all(r["k"] == "2" and r["feasible"] == "True" for r in rows)
    # the N=6 projection is zero-padded to the N=8 test instances
    assert {r["instance_id"] for r in rows if r["setting"] == "n=8"} == {
        "regression-test-0003", "regression-test-0004"}
    assert out["skipped"] == [
        "gen: method=sharedp n=6: no checkpoint configured for method 'sharedp'",
        "gen: method=sharedp n=8: no checkpoint configured for method 'sharedp'",
    ]


def test_four_sweep_outputs_are_pinned(tmp_path):
    out, files = run_four_sweeps(tmp_path)
    assert len(out["skipped"]) == 5
    for name, data in files.items():
        with open(os.path.join(EXPECTED, name), "rb") as fh:
            assert data == fh.read(), f"{name} differs from {EXPECTED}"
