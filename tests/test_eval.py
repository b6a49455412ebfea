import csv

import numpy as np
import pytest

from qproj import evaluate
from qproj.baselines import rand_projection, save_projection
from qproj.core import QpInstance
from qproj.datasets import gen_split
from qproj.evaluate import (
    EVAL_COLUMNS,
    FULL,
    EvalRecord,
    SolutionCache,
    evaluate_method,
    fixed_method,
    mean_stderr,
    ours_method,
    rand_method,
    relative_error,
    run_experiment,
    summarize,
    write_records_csv,
)
from qproj.gnn import init_params, save_checkpoint
from qproj.solver import SolverSettings


def test_relative_error_examples():
    assert relative_error(-1.0, -1.0) == 0.0
    assert relative_error(0.0, -1.0) == 1.0
    assert relative_error(-0.5, -1.0) == 0.5


def test_mean_stderr():
    mean, se = mean_stderr([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert se == pytest.approx(np.std([1, 2, 3], ddof=1) / np.sqrt(3))
    assert mean_stderr([5.0]) == (5.0, 0.0)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    manifest = gen_split("regression", {"n": 8, "m": 3, "t": 16},
                         {"train": 4, "val": 2, "test": 3}, base_seed=0,
                         out_dir=out)
    return manifest


def test_full_method_error_zero(small_dataset):
    test_set = small_dataset.load_split("test")
    records = evaluate_method(FULL, test_set, timing_repeats=0)
    assert len(records) == 3
    for rec in records:
        assert rec.feasible
        assert abs(rec.relative_error) <= 1e-9
        assert rec.k == 8
        assert rec.total_time_s == 0.0


def test_identity_projection_error_tiny(small_dataset):
    test_set = small_dataset.load_split("test")
    method = fixed_method(np.eye(8), "identity")
    records = evaluate_method(method, test_set, timing_repeats=0)
    for rec in records:
        assert rec.feasible
        assert abs(rec.relative_error) <= 1e-6


def test_rand_method_deterministic(small_dataset):
    test_set = small_dataset.load_split("test")
    a = evaluate_method(rand_method(3, base_seed=0), test_set, timing_repeats=0)
    b = evaluate_method(rand_method(3, base_seed=0), test_set, timing_repeats=0)
    assert [r.relative_error for r in a] == [r.relative_error for r in b]
    assert all(r.k == 3 for r in a)
    assert all(0.0 <= r.relative_error <= 1.0 + 1e-12 for r in a)


def test_ours_method_untrained_feasible(small_dataset):
    test_set = small_dataset.load_split("test")
    params = init_params(0, h=4, l=2, k=3, h_g=4)
    records = evaluate_method(ours_method(params), test_set, timing_repeats=1)
    for rec in records:
        assert rec.feasible
        assert rec.total_time_s == pytest.approx(
            rec.projection_time_s + rec.solve_time_s)


def test_timing_fields_zero_when_disabled(small_dataset):
    test_set = small_dataset.load_split("test")
    records = evaluate_method(rand_method(2), test_set, timing_repeats=0)
    assert all(r.projection_time_s == 0.0 and r.solve_time_s == 0.0
               for r in records)


def test_timed_runs_are_the_scored_runs(monkeypatch, small_dataset):
    # each projection method ran its reduced solve once more, untimed, for
    # the point it scored: 3 solves per instance at 2 timing repeats
    test_set = small_dataset.load_split("test")
    cache = SolutionCache()
    cache.warm(test_set)
    real_solve, solves = evaluate.solve_qp, []

    def counting_solve(inst, settings=None):
        solves.append(inst)
        return real_solve(inst, settings)

    monkeypatch.setattr(evaluate, "solve_qp", counting_solve)
    timed = evaluate_method(rand_method(2), test_set, cache=cache, timing_repeats=2)
    assert len(solves) == 2 * len(test_set)
    untimed = evaluate_method(rand_method(2), test_set, cache=cache, timing_repeats=0)
    times = ("projection_time_s", "solve_time_s", "total_time_s")
    for a, b in zip(timed, untimed):
        assert {**vars(a), **dict.fromkeys(times)} == {**vars(b), **dict.fromkeys(times)}
        assert a.solve_time_s > 0.0


def test_write_records_csv_columns(tmp_path, small_dataset):
    test_set = small_dataset.load_split("test")
    records = evaluate_method(rand_method(2), test_set, timing_repeats=0)
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == EVAL_COLUMNS
    assert len(rows) == 4


def test_solution_cache_disk_round_trip(tmp_path, small_dataset):
    test_set = small_dataset.load_split("test")
    cache = SolutionCache(cache_dir=tmp_path / "cache")
    u1 = cache.u_star(test_set[0])
    fresh = SolutionCache(cache_dir=tmp_path / "cache")
    u2 = fresh.u_star(test_set[0])
    assert u1 == u2
    assert len(list((tmp_path / "cache").iterdir())) == 1


def test_full_eval_solves_each_instance_once(monkeypatch, small_dataset):
    test_set = small_dataset.load_split("test")
    real_solve, solves = evaluate.solve_qp, []

    def counting_solve(inst, settings=None):
        solves.append(inst)
        return real_solve(inst, settings)

    monkeypatch.setattr(evaluate, "solve_qp", counting_solve)
    records = evaluate_method(FULL, test_set, timing_repeats=0)
    assert len(test_set) == 3
    assert len(solves) == 3
    assert all(rec.feasible and rec.relative_error == 0.0 for rec in records)


def test_eval_computes_each_cache_key_once(monkeypatch, small_dataset):
    test_set = small_dataset.load_split("test")
    real_key, keys = SolutionCache.key, []

    def counting_key(self, inst):
        keys.append(inst)
        return real_key(self, inst)

    monkeypatch.setattr(SolutionCache, "key", counting_key)
    evaluate_method(rand_method(3), test_set, timing_repeats=0)
    assert len(keys) == len(test_set)


def test_cache_key_covers_data_and_every_setting(small_dataset):
    inst = small_dataset.load_split("test")[0]
    base = SolutionCache().key(inst)
    copy = QpInstance(Q=inst.Q, c=inst.c, A=inst.A, b=inst.b,
                      constant=inst.constant, meta={"id": "other"})
    assert SolutionCache().key(copy) == base
    for changed in ({"eps_abs": 1e-7}, {"eps_rel": 1e-7}):
        assert SolutionCache(settings=SolverSettings(**changed)).key(inst) != base
    shifted = QpInstance(Q=inst.Q, c=inst.c, A=inst.A, b=inst.b,
                         constant=inst.constant + 1.0)
    assert SolutionCache().key(shifted) != base
    b = inst.b.copy()
    b[0] += 1e-12
    assert SolutionCache().key(QpInstance(Q=inst.Q, c=inst.c, A=inst.A, b=b)) != base


class _TornFile:
    """A text file that takes the first 10 characters of a write, then
    crashes, as a process killed mid-write leaves it."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[:10])
        self._fh.flush()
        raise KeyboardInterrupt


def test_torn_cache_write_leaves_no_entry(monkeypatch, tmp_path, small_dataset):
    # a crash while writing a cache file used to leave a torn file behind,
    # and the next run failed on it with a JSONDecodeError; the crash is
    # injected into every file evaluate opens for writing, however it opens it
    inst = small_dataset.load_split("test")[0]
    real_fdopen = evaluate.os.fdopen

    def torn_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _TornFile(fh) if "w" in mode else fh

    monkeypatch.setattr(evaluate, "open", torn_open, raising=False)
    monkeypatch.setattr(evaluate.os, "fdopen",
                        lambda *args, **kwargs: _TornFile(real_fdopen(*args, **kwargs)))
    with pytest.raises(KeyboardInterrupt):
        SolutionCache(cache_dir=tmp_path).u_star(inst)
    monkeypatch.undo()
    fresh = SolutionCache(cache_dir=tmp_path)
    assert fresh.u_star(inst) == SolutionCache().u_star(inst)


def test_summarize_recomputable():
    recs = [EvalRecord("i%d" % i, "rand", 2, err, True, 0, 0, 0, 0.0, -1.0)
            for i, err in enumerate([0.1, 0.2, 0.3, 0.4])]
    rows = [({"sweep": "s", "setting": 2}, r) for r in recs]
    out = summarize(rows, ["sweep", "setting", "method"])
    assert len(out) == 1
    assert out[0]["mean_relative_error"] == pytest.approx(0.25)
    assert out[0]["count"] == 4


def test_run_experiment_k_sweep_and_empty_methods(tmp_path, small_dataset):
    params = init_params(0, h=4, l=2, k=2, h_g=4)
    ckpt2 = tmp_path / "ours_k2.json"
    save_checkpoint(ckpt2, params, seed=0)
    spec = {
        "timing_repeats": 0,
        "sweeps": [
            {"type": "k_sweep", "name": "ksweep",
             "manifest": str(small_dataset.root + "/manifest.json"),
             "methods": ["ours", "rand", "full"],
             "k_values": [2, 4],
             "checkpoints": {"ours": {"2": str(ckpt2)}},
             "rand_seed": 0},
        ],
    }
    out = run_experiment(spec, tmp_path / "exp")
    # missing ours@k=4 checkpoint skipped, run continued
    assert any("k=4" in s for s in out["skipped"])
    with open(out["records"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["sweep", "sweep_type", "setting", "train_tag", "test_tag"]
    # 3 instances x (ours@2, rand@2, rand@4, full@2, full@4)
    assert len(rows) - 1 == 3 * 5
    diag = (tmp_path / "exp" / "diagnostics.txt").read_text()
    assert "k-trend" in diag

    # empty methods: header-only records file
    out2 = run_experiment({"timing_repeats": 0, "sweeps": [
        {"type": "k_sweep", "manifest": str(small_dataset.root + "/manifest.json"),
         "methods": [], "k_values": [2]}]}, tmp_path / "exp2")
    with open(out2["records"]) as fh:
        rows2 = list(csv.reader(fh))
    assert len(rows2) == 1


def test_evaluate_method_k_consistency(small_dataset):
    test_set = small_dataset.load_split("test")
    with pytest.raises(ValueError, match="emits K"):
        evaluate_method(rand_method(3), test_set, k=5, timing_repeats=0)


@pytest.mark.parametrize("name", evaluate.METHODS)
def test_every_method_checks_the_caller_k(tmp_path, small_dataset, name):
    # ours, rand, pca and sharedp emit K=2 and reject K=3; direct and full
    # emit no K and take any
    test_set = small_dataset.load_split("test")
    path = tmp_path / "artifact.json"
    if name in ("ours", "direct"):
        save_checkpoint(path, init_params(0, h=4, l=1, k=2 if name == "ours" else 1, h_g=4),
                        seed=0)
    elif name in ("pca", "sharedp"):
        save_projection(path, rand_projection(8, 2, 0), name)
    method = evaluate.load_method(name, str(path), 2)
    if name in ("direct", "full"):
        assert len(evaluate_method(method, test_set, k=3, timing_repeats=0)) == 3
    else:
        with pytest.raises(ValueError, match="emits K=2, caller expects K=3"):
            evaluate_method(method, test_set, k=3, timing_repeats=0)


@pytest.mark.parametrize("stype, key", [("generalization_sweep", "ours"),
                                         ("cross_dataset", "regression")])
def test_run_experiment_rejects_a_checkpoint_map_without_settings(tmp_path, small_dataset,
                                                                  stype, key):
    # these sweeps take one checkpoint per method (or train family); a
    # per-setting map reached load_checkpoint and raised TypeError
    ckpt = tmp_path / "ours.json"
    save_checkpoint(ckpt, init_params(0, h=4, l=1, k=2, h_g=4), seed=0)
    manifest = small_dataset.root + "/manifest.json"
    manifests = {"8": manifest} if stype == "generalization_sweep" else {key: manifest}
    spec = {"timing_repeats": 0, "sweeps": [
        {"type": stype, "name": "gen", "manifests": manifests, "methods": ["ours"],
         "k": 2, "checkpoints": {key: {"8": str(ckpt)}}}]}
    with pytest.raises(ValueError, match=f"sweep 'gen': the checkpoint of '{key}'"):
        run_experiment(spec, tmp_path / "exp")


def test_run_experiment_d_sweep(tmp_path, small_dataset):
    ckpts = {}
    for d in (2, 4):
        p = tmp_path / f"ours_d{d}.json"
        save_checkpoint(p, init_params(d, h=4, l=1, k=2, h_g=4), seed=d)
        ckpts[str(d)] = str(p)
    spec = {"timing_repeats": 0, "sweeps": [
        {"type": "d_sweep", "manifest": small_dataset.root + "/manifest.json",
         "methods": ["ours", "rand"], "k": 2,
         "checkpoints": {"ours": ckpts}}]}
    out = run_experiment(spec, tmp_path / "exp")
    with open(out["records"]) as fh:
        rows = list(csv.DictReader(fh))
    settings = {r["setting"] for r in rows}
    assert settings == {"d=2", "d=4"}
    # 3 test instances x 2 settings x 2 methods
    assert len(rows) == 12


def test_run_experiment_rejects_a_d_sweep_with_a_plain_checkpoint(tmp_path, small_dataset):
    # a d_sweep takes its settings from per-setting maps; a plain path gave
    # no setting, so the sweep evaluated nothing, not even rand, and said so nowhere
    ckpt = tmp_path / "ours.json"
    save_checkpoint(ckpt, init_params(0, h=4, l=1, k=2, h_g=4), seed=0)
    spec = {"timing_repeats": 0, "sweeps": [
        {"type": "d_sweep", "name": "ds", "manifest": small_dataset.root + "/manifest.json",
         "methods": ["ours", "rand"], "k": 2, "checkpoints": {"ours": str(ckpt)}}]}
    with pytest.raises(ValueError, match=r"sweep 'ds': .*\['ours'\] as per-setting maps"):
        run_experiment(spec, tmp_path / "exp")


def test_run_experiment_checks_every_sweep_before_evaluating(monkeypatch, tmp_path,
                                                             small_dataset):
    # a bad later sweep used to raise only after the earlier sweeps had been
    # evaluated (and reference-solved), with no output written
    calls = []
    monkeypatch.setattr(evaluate, "evaluate_method",
                        lambda *args, **kwargs: calls.append(args) or [])
    manifest = small_dataset.root + "/manifest.json"
    spec = {"timing_repeats": 0, "sweeps": [
        {"type": "k_sweep", "name": "ks", "manifest": manifest,
         "methods": ["rand"], "k_values": [2]},
        {"type": "generalization_sweep", "name": "gen", "manifests": {"8": manifest},
         "methods": ["ours"], "k": 2, "checkpoints": {"ours": {"8": "m.json"}}}]}
    out = tmp_path / "exp"
    with pytest.raises(ValueError, match="sweep 'gen'"):
        run_experiment(spec, out)
    assert calls == []
    assert not out.exists() or not any(out.iterdir())


def test_run_experiment_cross_dataset(tmp_path):
    manifests = {}
    for fam, sizes in [("regression", {"n": 6, "m": 2, "t": 12}),
                       ("portfolio", {"n": 6})]:
        d = tmp_path / fam
        gen_split(fam, sizes, {"train": 2, "val": 1, "test": 2}, 0, d)
        manifests[fam] = str(d / "manifest.json")
    ckpts = {}
    for i, fam in enumerate(manifests):
        p = tmp_path / f"ours_{fam}.json"
        save_checkpoint(p, init_params(i, h=4, l=1, k=2, h_g=4), seed=i)
        ckpts[fam] = str(p)
    spec = {"timing_repeats": 0, "sweeps": [
        {"type": "cross_dataset", "manifests": manifests,
         "checkpoints": ckpts, "methods": ["ours"], "k": 2}]}
    out = run_experiment(spec, tmp_path / "exp")
    with open(out["summary"]) as fh:
        rows = list(csv.DictReader(fh))
    # 2x2 matrix of cells
    assert len(rows) == 4
    diag_flags = {(r["train_tag"], r["test_tag"]): r["is_diagonal"] for r in rows}
    assert diag_flags[("regression", "regression")] == "True"
    assert diag_flags[("regression", "portfolio")] == "False"

    # summary statistics are recomputable from the long CSV alone
    with open(out["records"]) as fh:
        recs = list(csv.DictReader(fh))
    for srow in rows:
        vals = [float(r["relative_error"]) for r in recs
                if r["setting"] == srow["setting"]]
        assert float(srow["mean_relative_error"]) == pytest.approx(np.mean(vals))
        assert int(srow["count"]) == len(vals)
