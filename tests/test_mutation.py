"""Seeded mutations of every field of every input document the CLI reads.

The field tables of the documents (core.INSTANCE, gnn.CHECKPOINT, ...,
cli.OPTIONS) are walked, each field of each table is mutated in a valid
document (dropped, nulled, given another type, a NaN, a negative size, a
wrong length), and cli.main must end every run with 0, 2 or 3: nothing else
may escape it. A field added to a table is mutated without a new test, and
a new table fails test_every_table_is_mutated until it has a target here.
"""

import copy
import json
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from qproj import baselines, cli, core, datasets, evaluate, gnn, solver
from qproj.core import Kind, ProjectionMatrix

DROP = object()      # a mutation that removes the key


def _mutations(value, rng):
    """(label, new value) pairs for a field whose valid value is value, or
    DROP when the valid document leaves it out."""
    out = [("drop", DROP), ("null", None), ("bool", bool(rng.integers(2))),
           ("string", "".join(rng.choice(list("abcxyz"), size=4))),
           ("list", [int(rng.integers(-3, 4))]), ("object", {"x": int(rng.integers(-3, 4))}),
           ("nan", float("nan")), ("negative", -int(rng.integers(1, 6)))]
    if isinstance(value, list) and value:
        i = int(rng.integers(len(value)))
        out += [("short", value[:i] + value[i + 1:]), ("long", value + value[:1])]
        if all(type(x) in (int, float) for x in value):
            out.append(("nan entry", value[:i] + [float("nan")] + value[i + 1:]))
    return out


class Target:
    """A table whose fields sit at `where` in doc; doc is written to path as
    JSON, and argv is the qproj run that reads it."""

    def __init__(self, table, doc, where, path, argv):
        self.table, self.doc, self.where, self.path, self.argv = table, doc, where, path, argv

    def cases(self, rng):
        """(label, mutated document) of each mutation of each field."""
        for name in self.table:
            value = reduce(getitem, self.where, self.doc).get(name, DROP)
            for label, new in _mutations(value, rng):
                doc = copy.deepcopy(self.doc)
                parent = reduce(getitem, self.where, doc)
                if new is DROP:
                    parent.pop(name, None)
                else:
                    parent[name] = new
                yield f"{name}: {label}", doc


@pytest.fixture(scope="module")
def targets(tmp_path_factory):
    """Target lists by table name, over a regression N=6 dataset, an
    untrained K=2 checkpoint, a PCA file and a filled solution cache."""
    root = tmp_path_factory.mktemp("mutation")
    data, cache_dir, out = root / "data", root / "cache", str(root / "out")
    assert cli.main(["--out", str(data), "gen-data", "--family", "regression", "--n", "6",
                     "--m", "2", "--t", "12", "--train", "1", "--val", "1", "--test", "1",
                     "--base-seed", "0"]) == 0
    manifest = str(data / "manifest.json")
    ckpt, pca = root / "ckpt.json", root / "pca.json"
    gnn.save_checkpoint(ckpt, gnn.init_params(0, h=4, l=1, k=2, h_g=4), seed=0)
    baselines.save_projection(pca, ProjectionMatrix(P=np.eye(6)[:, :2]), "pca")
    evaluate_ = ["--out", out, "eval", "--manifest", manifest, "--timing-repeats", "0"]
    assert cli.main([*evaluate_, "--method", "full", "--cache-dir", str(cache_dir)]) == 0
    (entry,) = cache_dir.glob("*.json")
    instance = next(data.glob("*_test_*.json"))

    def read(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    config, spec, inst_copy = root / "config.json", root / "spec.json", root / "inst.json"
    ckpt_doc, sweep_doc = read(ckpt), root / "sweep_spec.json"
    sweeps = {
        "k_sweep": {"type": "k_sweep", "name": "ks", "manifest": manifest,
                    "methods": ["rand", "pca"], "k_values": [2],
                    "checkpoints": {"pca": {"2": str(pca)}}, "rand_seed": 0},
        "d_sweep": {"type": "d_sweep", "name": "ds", "manifest": manifest, "methods": ["ours"],
                    "k": 2, "checkpoints": {"ours": {"1": str(ckpt)}}, "rand_seed": 0},
        "generalization_sweep": {"type": "generalization_sweep", "name": "gs", "axis": "n",
                                 "manifests": {"6": manifest}, "methods": ["ours"], "k": 2,
                                 "checkpoints": {"ours": str(ckpt)}, "rand_seed": 0},
        "cross_dataset": {"type": "cross_dataset", "name": "cd",
                          "manifests": {"regression": manifest}, "methods": ["ours"], "k": 2,
                          "checkpoints": {"regression": str(ckpt)}, "rand_seed": 0},
    }

    def spec_of(sweep):
        return {"solver": {}, "timing_repeats": 0, "cache_dir": str(cache_dir),
                "sweeps": [sweep]}

    experiment = ["--out", out, "experiment", "--spec"]
    found = {
        "core.INSTANCE": [Target(core.INSTANCE, read(instance), [], inst_copy,
                                 ["--out", out, "solve", "--instance", str(inst_copy)])],
        "gnn.CHECKPOINT": [Target(gnn.CHECKPOINT, ckpt_doc, [], root / "c.json",
                                  [*evaluate_, "--method", "ours", "--checkpoint",
                                   str(root / "c.json")])],
        "gnn.PARAMS": [Target(gnn.PARAMS, ckpt_doc, ["params"], root / "c.json",
                              [*evaluate_, "--method", "ours", "--checkpoint",
                               str(root / "c.json")])],
        "baselines.PROJECTION": [Target(baselines.PROJECTION, read(pca), [], root / "p.json",
                                        [*evaluate_, "--method", "pca", "--artifact",
                                         str(root / "p.json")])],
        "evaluate.CACHE_ENTRY": [Target(evaluate.CACHE_ENTRY, read(entry), [], entry,
                                        [*evaluate_, "--method", "full", "--cache-dir",
                                         str(cache_dir)])],
        "evaluate.SPEC": [Target(evaluate.SPEC, spec_of(sweeps["k_sweep"]), [], spec,
                                 [*experiment, str(spec)])],
        "evaluate.SWEEP": [Target(evaluate.SWEEP, spec_of(sweep), ["sweeps", 0], spec,
                                  [*experiment, str(spec)]) for sweep in sweeps.values()],
        "evaluate.SWEEP_FIELDS": [Target(evaluate.SWEEP_FIELDS[stype], spec_of(sweep),
                                         ["sweeps", 0], sweep_doc, [*experiment, str(sweep_doc)])
                                  for stype, sweep in sweeps.items()],
        "solver.SOLVER": [Target(solver.SOLVER,
                                 {"solve": {"solver": {"eps_abs": 1e-8, "eps_rel": 1e-8}}},
                                 ["solve", "solver"], config,
                                 ["--config", str(config), "--out", out, "solve",
                                  "--instance", str(instance)])],
    }
    # a manifest is read by eval and by the trainers
    manifest_doc = read(manifest)
    found["datasets.MANIFEST"] = [
        Target(datasets.MANIFEST, manifest_doc, [], data / "m.json", argv)
        for argv in ([*evaluate_[:3], "--manifest", str(data / "m.json"), "--method", "rand",
                      "--k", "2", "--timing-repeats", "0"],
                     ["--out", out, "baseline", "--manifest", str(data / "m.json"),
                      "--method", "sharedp", "--k", "2", "--epochs", "1"])]
    found["datasets.MANIFEST_FILE"] = [
        Target(datasets.MANIFEST_FILE, manifest_doc, ["files", i], t.path, t.argv)
        for t in found["datasets.MANIFEST"] for i in range(3)]

    # each command with a config section that sets every option it reads;
    # an option in no section is mutated in every one of them
    small = {"epochs": 1, "batch-size": 1, "lr": 0.01, "seed": 0, "solver": {}}
    sections = [
        ("gen-data", {"family": "regression", "n": 6, "m": 2, "t": 12, "s": 3, "v": 3,
                      "train": 1, "val": 1, "test": 1, "base-seed": 0, "seed": 0}),
        ("train", {"manifest": manifest, "k": 2, "hidden": 4, "layers": 1, "head-hidden": 4,
                   "record_timings": False, **small}),
        ("eval", {"manifest": manifest, "method": "ours", "checkpoint": str(ckpt), "k": 2,
                  "split": "test", "timing-repeats": 0, "cache-dir": str(cache_dir),
                  "seed": 0, "solver": {}}),
        ("eval", {"manifest": manifest, "method": "pca", "artifact": str(pca),
                  "timing-repeats": 0}),
        ("solve", {"instance": str(instance), "solver": {}}),
        ("baseline", {"method": "sharedp", "manifest": manifest, "k": 2,
                      "cache-dir": str(cache_dir), **small}),
        ("theory", {"sigma-q": 2.0, "sigma-p": 1.0, "q0": 1.0, "c0": 1.0, "b": 3.0, "n": 4,
                    "k": 2, "epsilon": 0.01, "delta": 0.05, "d": 100, "log-n-cover": 50.0}),
        ("theory", {"validate": True, "manifest": manifest, "checkpoint": str(ckpt),
                    "solver": {}}),
        ("experiment", {"spec": str(sweep_doc)}),
    ]
    sweep_doc.write_text(json.dumps(spec_of(sweeps["k_sweep"])), encoding="utf-8")
    unset = set(cli.OPTIONS).difference(*(section for _, section in sections))
    found["cli.OPTIONS"] = [
        Target({key: cli.OPTIONS[key] for key in [*section, *sorted(unset)]},
               {command: section}, [command], config,
               ["--config", str(config), "--out", out, command])
        for command, section in sections]
    return root, found


def _tables():
    """Every field table in the package, by qualified name: each module-level
    dict of Kinds, and each dict of such tables."""
    found = {}
    for module in (core, gnn, baselines, datasets, evaluate, solver, cli):
        for name, value in vars(module).items():
            if name.startswith("_") or not isinstance(value, dict) or not value:
                continue
            nested = all(isinstance(t, dict) for t in value.values())
            tables = value.values() if nested else [value]
            if all(t and all(isinstance(k, Kind) for k in t.values()) for t in tables):
                found[f"{module.__name__.split('.')[-1]}.{name}"] = value
    return found


TABLES = sorted(_tables())


def test_every_table_is_mutated(targets):
    assert sorted(targets[1]) == TABLES


def test_case_count(targets):
    """At least 500 cases in all."""
    count = sum(len(list(t.cases(np.random.default_rng(0))))
                for ts in targets[1].values() for t in ts)
    assert count >= 500


@pytest.mark.parametrize("table", TABLES)
def test_mutated_documents_exit_cleanly(targets, table, monkeypatch, capsys):
    root, found = targets
    monkeypatch.chdir(root)       # a mutated relative path lands here
    rng = np.random.default_rng([0, TABLES.index(table)])
    bad = []
    for target in found[table]:
        for label, doc in target.cases(rng):
            with open(target.path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            try:
                rc = cli.main(target.argv)
            except Exception as exc:   # anything escaping cli.main is the defect
                rc = f"{type(exc).__name__}: {exc}"
            if rc not in (0, 2, 3):
                bad.append((" ".join(target.argv[-4:]), label, rc))
        with open(target.path, "w", encoding="utf-8") as fh:
            json.dump(target.doc, fh)
    capsys.readouterr()
    assert bad == []
