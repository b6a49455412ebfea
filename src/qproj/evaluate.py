"""Metrics, per-instance evaluation with timing, and experiment sweeps.

Solution quality is the relative error (u_hat - u*) / (0 - u*) against the
trivial feasible objective 0; methods that fail to produce a feasible
solution score exactly 1, and where the trivial point is optimal (u* >= 0)
a solution scores 0 if it matches u* and 1 otherwise. Every score comes
from `score` in `evaluate_method`, which training's validation loss calls
too. The reference u* must come from a Solved full solve; any other status
is an error. Timing covers projection generation plus the reduced solve
(median of repeated runs, whose point is the one scored); the u* oracle is
computed once, cached, and never timed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import astuple, dataclass, fields as dc_fields
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    LIST,
    NUMBER,
    OBJECT,
    PATH,
    TEXT,
    Kind,
    QpInstance,
    array,
    each,
    integer,
    is_feasible,
    objective,
    one_of,
    project,
    read_fields,
    read_json_object,
    recover,
)
from .gnn import ModelParams, forward, forward_raw
from .solver import SolveStatus, SolverSettings, settings_from_json, solve_qp


def relative_error(u_hat: float, u_star: float) -> float:
    """(u_hat - u*) / (0 - u*), the error against the trivial objective 0:
    0 is optimal, 1 matches the trivial point. Where the trivial point is
    optimal (u* >= 0), u_hat scores 0 when it matches u* and 1 otherwise."""
    denom = 0.0 - u_star
    if denom <= 0.0:
        return 0.0 if u_hat - u_star <= 1e-9 * (1.0 + abs(u_star)) else 1.0
    return (u_hat - u_star) / denom


def score(inst: QpInstance, x, u_hat: float, u_star: float,
          solved: bool = True) -> tuple[float, bool]:
    """(relative error, feasible) of a method's point x, whose objective the
    caller passes as u_hat: a point that is not solved or not feasible
    (against core.feasibility_tol) scores 1."""
    feasible = solved and is_feasible(inst, x)
    return (relative_error(u_hat, u_star) if feasible else 1.0), feasible


@dataclass
class EvalRecord:
    instance_id: str
    method: str
    k: int
    relative_error: float
    feasible: bool
    projection_time_s: float
    solve_time_s: float
    total_time_s: float
    objective: float
    u_star: float


EVAL_COLUMNS = [f.name for f in dc_fields(EvalRecord)]


def write_records_csv(path, records, extra_columns=None) -> None:
    """Long-format CSV; exactly the EvalRecord fields, optionally prefixed by
    sweep context columns (records then are (context_dict, EvalRecord))."""
    extra_columns = list(extra_columns or [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(extra_columns + EVAL_COLUMNS)
        for item in records:
            ctx, rec = item if extra_columns else ({}, item)
            row = [ctx.get(c, "") for c in extra_columns]
            row += [getattr(rec, c) for c in EVAL_COLUMNS]
            writer.writerow(row)


CACHE_ENTRY = {"u_star": NUMBER, "x_star": array("n"),
               "status": one_of(tuple(status.value for status in SolveStatus))}


def _read_cache_entry(path, n: int) -> dict:
    """The SolutionCache entry in file path, of an instance with n variables,
    read by CACHE_ENTRY; a NaN or infinite x_star raises ValueError too."""
    entry = read_fields(read_json_object(path, "a cache entry"), CACHE_ENTRY,
                        f"{path}: cache", n=n)
    if not np.isfinite(entry["x_star"]).all():
        raise ValueError(f"{path}: cache field 'x_star' holds NaN or infinite entries")
    return entry


class SolutionCache:
    """Disk-backed cache of full-problem optima keyed by instance content
    and every solver setting."""

    def __init__(self, cache_dir=None, settings: SolverSettings | None = None):
        self.cache_dir = cache_dir
        self.settings = settings or SolverSettings()
        self._mem = {}
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def key(self, inst: QpInstance) -> str:
        h = hashlib.sha256()
        for arr in (inst.Q, inst.c, inst.A, inst.b):
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        h.update(repr((inst.constant, astuple(self.settings))).encode())
        return h.hexdigest()

    def u_star(self, inst: QpInstance) -> float:
        return self.entry(inst)["u_star"]

    def entry(self, inst: QpInstance) -> dict:
        """{"u_star", "x_star", "status"} of the full solve of inst. A solve
        that is not Solved gives no reference: ValueError names the instance
        and the status."""
        k = self.key(inst)
        entry = self._mem.get(k)
        path = os.path.join(self.cache_dir, k + ".json") if self.cache_dir else None
        if entry is None and path and os.path.exists(path):
            entry = _read_cache_entry(path, inst.n_vars)
        elif entry is None:
            res = solve_qp(inst, self.settings)
            entry = {
                "u_star": res.objective,
                "x_star": res.y_star.tolist(),
                "status": res.status.value,
            }
            if path:
                # a reader never sees a torn file: write aside, then rename
                fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(entry))
                os.replace(tmp, path)
        self._mem[k] = entry
        if entry["status"] != SolveStatus.SOLVED.value:
            raise ValueError(
                f"reference solve of instance {inst.meta.get('id', '(no id)')} "
                f"ended {entry['status']}, not Solved")
        return entry

    def warm(self, instances) -> list:
        """The entries of the instances, in order, computing missing ones."""
        return [self.entry(inst) for inst in instances]


# ---------------------------------------------------------------------------
# Methods. A method has a name, the K it emits (0: none), and makes its point
# from projection(inst, index), a ProjectionMatrix for a reduced solve, or
# predict(inst), the point itself; a method with neither is the full solve.

class Method(NamedTuple):
    name: str
    k: int = 0
    projection: Callable | None = None
    predict: Callable | None = None


FULL = Method("full")


def ours_method(params: ModelParams) -> Method:
    return Method("ours", params.k, lambda inst, index: forward(params, inst, params.k)[0])


def rand_method(k: int, base_seed: int = 0) -> Method:
    """Uniformly selects K coordinates; instance d uses seed base_seed + d."""
    def projection(inst, index):
        from .baselines import rand_projection
        return rand_projection(inst.n_vars, k, base_seed + index)
    return Method("rand", k, projection)


def fixed_method(P, name: str) -> Method:
    """Shared projection matrix (PCA / SharedP), adapted by zero-padding or
    truncation when the test dimension differs."""
    P = np.asarray(P, dtype=np.float64)

    def projection(inst, index):
        from .baselines import adapt_projection
        return adapt_projection(P, inst.n_vars)
    return Method(name, P.shape[1], projection)


def direct_method(params: ModelParams) -> Method:
    return Method("direct", predict=lambda inst: forward_raw(params, inst)[0][:, 0])


def _timed(fn, repeats: int):
    """(the value of fn, the median seconds of `repeats` runs of it); with
    repeats = 0, fn runs once and the time is 0.0."""
    times = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return value, float(np.median(times)) if repeats else 0.0


def evaluate_method(method: Method, test_set, k: int | None = None,
                    cache: SolutionCache | None = None,
                    timing_repeats: int = 3) -> list:
    """One EvalRecord per test instance.

    test_set is a list of QpInstance (ids read from meta). Failures --
    non-Solved reduced problems or infeasible recovered points -- are data,
    scored with relative error 1. Feasibility is always recomputed from the
    raw lifted point, against core.feasibility_tol of the instance. A
    reference that is not Solved raises ValueError. Every solve uses the
    cache's settings; the full method reports the cache's reference solve.
    """
    cache = cache or SolutionCache()
    settings = cache.settings
    if k is not None and method.k and method.k != k:
        raise ValueError(f"method emits K={method.k}, caller expects K={k}")
    entries = cache.warm(test_set)

    records = []
    for index, (inst, entry) in enumerate(zip(test_set, entries)):
        inst_id = inst.meta.get("id", f"instance-{index:04d}")
        u_star = entry["u_star"]
        t_proj = t_solve = 0.0
        solved = True
        if method.projection:
            proj, t_proj = _timed(lambda: method.projection(inst, index), timing_repeats)
            reduced = project(inst, proj)
            res, t_solve = _timed(lambda: solve_qp(reduced, settings), timing_repeats)
            x = recover(proj, res.y_star)
            solved = res.status is SolveStatus.SOLVED
            rec_k = proj.k
        elif method.predict:
            x, t_proj = _timed(lambda: method.predict(inst), timing_repeats)
            rec_k = 0
        else:
            x = np.asarray(entry["x_star"])
            if timing_repeats:
                _, t_solve = _timed(lambda: solve_qp(inst, settings), timing_repeats)
            rec_k = inst.n_vars
        u_hat = objective(inst, x)
        err, feasible = score(inst, x, u_hat, u_star, solved)
        records.append(EvalRecord(
            instance_id=inst_id,
            method=method.name,
            k=rec_k,
            relative_error=float(err),
            feasible=bool(feasible),
            projection_time_s=t_proj,
            solve_time_s=t_solve,
            total_time_s=t_proj + t_solve,
            objective=float(u_hat),
            u_star=float(u_star),
        ))
    return records


def mean_stderr(values) -> tuple[float, float]:
    v = np.asarray(list(values), dtype=np.float64)
    if v.size == 0:
        return math.nan, math.nan
    if v.size == 1:
        return float(v[0]), 0.0
    return float(v.mean()), float(v.std(ddof=1) / np.sqrt(v.size))


def summarize(rows, group_cols):
    """Group (context, EvalRecord) rows and emit the mean relative error
    +/- its standard error."""
    groups = {}
    for ctx, rec in rows:
        key = tuple(ctx.get(c, getattr(rec, c, "")) for c in group_cols)
        groups.setdefault(key, []).append(rec.relative_error)
    out = []
    for key in sorted(groups, key=lambda t: tuple(map(str, t))):
        mean, se = mean_stderr(groups[key])
        out.append(dict(zip(group_cols, key)) | {
            "mean_relative_error": mean,
            "stderr_relative_error": se,
            "count": len(groups[key]),
        })
    return out


# ---------------------------------------------------------------------------
# Experiment runner. The experiment spec is a JSON document:
#
# {
#   "solver": {"eps_abs": ..., ...},            optional
#   "timing_repeats": 3,                        optional (0 disables timing)
#   "cache_dir": "path/to/cache",               optional
#   "sweeps": [
#     {"type": "k_sweep",
#      "name": "...",                           optional tag
#      "manifest": "path/to/manifest.json",
#      "methods": ["ours", "rand", "pca", "sharedp", "direct", "full"],
#      "k_values": [5, 10, 20],
#      "checkpoints": {"ours": {"5": "ours_k5.json", ...},
#                      "sharedp": {...}, "pca": {...}, "direct": {...}},
#      "rand_seed": 0},
#     {"type": "generalization_sweep",          varying test manifests
#      "axis": "n",                             context label for the setting
#      "manifests": {"100": "...", "200": "..."},
#      "methods": [...], "k": 10, "checkpoints": {"ours": "...", ...}},
#     {"type": "d_sweep",                       varying training-set size,
#      "manifest": "...",                       fixed test split
#      "methods": [...], "k": 10,
#      "checkpoints": {"ours": {"30": "...", "60": "..."}, ...}},
#     {"type": "cross_dataset",
#      "manifests": {"regression": "...", ...},
#      "checkpoints": {"regression": "...", ...},   one model per train family
#      "methods": ["ours"], "k": 10}
#   ]
# }
#
# Checkpoint values are paths: "ours"/"direct" -> model checkpoints,
# "pca"/"sharedp" -> projection files (see baselines.save_projection).
# Missing checkpoints are reported per cell and the run continues. Any other
# top-level key, or a method name not in METHODS, is an error.

METHODS = ("ours", "rand", "pca", "sharedp", "direct", "full")


def load_method(name, spec_entry, k, rand_seed=0):
    """The method `name`; spec_entry is the path of its model checkpoint
    (ours, and direct with K=1) or projection file (pca, sharedp), or None.
    A file of the wrong kind raises ValueError."""
    from .baselines import load_projection
    from .gnn import load_checkpoint

    if name == "rand":
        return rand_method(k, base_seed=rand_seed)
    if name == "full":
        return FULL
    if spec_entry is None:
        raise FileNotFoundError(f"no checkpoint configured for method {name!r}")
    if name == "ours":
        return ours_method(load_checkpoint(spec_entry))
    if name == "direct":
        params = load_checkpoint(spec_entry)
        if params.k != 1:
            raise ValueError(f"{spec_entry}: a direct model has K=1, not K={params.k}")
        return direct_method(params)
    if name in ("pca", "sharedp"):
        return fixed_method(load_projection(spec_entry).P, name)
    raise ValueError(f"unknown method {name!r}")


def _checkpoint_for(checkpoints, sweep, method, setting=None):
    """The checkpoint path of method (or train family) at setting; a
    per-setting map where the sweep has no setting is a ValueError."""
    entry = checkpoints.get(method)
    if isinstance(entry, dict):
        if setting is None:
            raise ValueError(f"sweep {sweep!r}: the checkpoint of {method!r} must be "
                             "one path, not a per-setting map")
        entry = entry.get(str(setting))
    return entry


SPEC = {"solver": OBJECT.otherwise({}), "timing_repeats": integer(0).otherwise(3),
        "cache_dir": PATH.otherwise(None), "sweeps": LIST.otherwise([])}
PATHS = each(dict, PATH, "an object of paths")
# the checkpoint of a method (or train family): one path, or paths by setting
_CHECKPOINT = Kind("a path or an object of paths",
                   lambda v, f: (PATHS if isinstance(v, dict) else PATH).test(v, f))
_SWEEP_COMMON = {
    "methods": LIST.otherwise([]), "rand_seed": integer(0).otherwise(0),
    "checkpoints": each(dict, _CHECKPOINT, "an object of checkpoints").otherwise({})}
# the fields of a sweep of each type
SWEEP_FIELDS = {
    "k_sweep": {"manifest": PATH, "k_values": each(list, integer(1), "a list of integers >= 1"),
                **_SWEEP_COMMON},
    "d_sweep": {"manifest": PATH, "k": integer(1), **_SWEEP_COMMON},
    "generalization_sweep": {"axis": TEXT.otherwise("n"), "manifests": PATHS, "k": integer(1),
                             **_SWEEP_COMMON},
    "cross_dataset": {"manifests": PATHS, "k": integer(1), **_SWEEP_COMMON},
}
SWEEP = {"type": one_of(tuple(SWEEP_FIELDS)), "name": TEXT.otherwise("")}


def _sweep_cells(sweeps):
    """The cells of the sweeps, in run order. A cell is (load, skip label,
    targets): load() builds the method once, which is then evaluated on each
    (context, test set) of targets; if its checkpoint is missing the cell is
    skipped with one line that starts with the label. The list is built
    whole, so a misconfigured sweep raises ValueError before any cell runs;
    sweeps that name the same manifest share its test set."""
    from .datasets import DatasetManifest

    @cache
    def test_split(path):
        manifest = DatasetManifest.load(path)
        return manifest.family, manifest.load_split("test")

    out = []
    for si, raw in enumerate(sweeps):
        head = read_fields(raw, SWEEP, f"experiment spec sweeps[{si}]")
        stype = head["type"]
        sname = head["name"] or f"{stype}-{si}"
        sweep = read_fields(raw, SWEEP_FIELDS[stype], f"sweep {sname!r}")
        methods, ckpts, k = sweep["methods"], sweep["checkpoints"], sweep.get("k")
        unknown = [mname for mname in methods if mname not in METHODS]
        if unknown:
            raise ValueError(f"sweep {sname!r}: unknown methods {unknown}, "
                             f"expected names from {list(METHODS)}")
        # (method, checkpoint, K, label, [(setting, train tag, test tag, test set)])
        if stype == "cross_dataset":
            splits = {fam: test_split(p)[1] for fam, p in sweep["manifests"].items()}
            cells = [(mname, _checkpoint_for(ckpts, sname, train), k,
                      f"train={train}",
                      [(f"{train}->{test}", train, test, split)
                       for test, split in splits.items()])
                     for train in splits for mname in methods or ["ours"]]
        else:
            # one test split per setting: (setting, label, checkpoint key, K, split)
            if stype == "k_sweep":
                split = test_split(sweep["manifest"])
                points = [(k, f"k={k}", k, k, split) for k in sweep["k_values"]]
            elif stype == "d_sweep":
                plain = sorted(mname for mname, entry in ckpts.items()
                               if not isinstance(entry, dict))
                if plain:
                    raise ValueError(f"sweep {sname!r}: a d_sweep takes the checkpoints of "
                                     f"{plain} as per-setting maps, not one path")
                d_values = {d for entry in ckpts.values() for d in entry}
                bad = sorted(d for d in d_values if not d.isdecimal())
                if bad:
                    raise ValueError(f"sweep {sname!r}: checkpoint keys {bad} are not "
                                     "training-set sizes (integers)")
                split = test_split(sweep["manifest"])
                points = [(f"d={d}", f"d={d}", d, k, split) for d in sorted(d_values, key=int)]
            else:
                points = [(f"{sweep['axis']}={v}", f"{sweep['axis']}={v}", None, k,
                           test_split(p)) for v, p in sweep["manifests"].items()]
            cells = [(mname, _checkpoint_for(ckpts, sname, mname, key), k,
                      f"method={mname} {label}",
                      [(setting, fam, fam, split)])
                     for setting, label, key, k, (fam, split) in points for mname in methods]
        out += [(partial(load_method, mname, ckpt, k, sweep["rand_seed"]), f"{sname}: {label}",
                 [({"sweep": sname, "sweep_type": stype, "setting": setting,
                    "train_tag": train_tag, "test_tag": test_tag}, split)
                  for setting, train_tag, test_tag, split in targets])
                for mname, ckpt, k, label, targets in cells]
    return out


def run_experiment(spec, out_dir) -> dict:
    """Run the sweeps of an experiment spec, read by SPEC, SWEEP and
    SWEEP_FIELDS; emits records.csv (long format), summary.csv, and
    diagnostics.txt under out_dir. Returns paths and the in-memory rows."""
    if isinstance(spec, (str, os.PathLike)):
        spec = read_json_object(spec, "an experiment spec")
    spec = read_fields(spec, SPEC, "experiment spec", closed=True)
    settings = settings_from_json(spec["solver"])
    timing_repeats = spec["timing_repeats"]
    cells = _sweep_cells(spec["sweeps"])
    cache = SolutionCache(cache_dir=spec["cache_dir"], settings=settings)
    os.makedirs(out_dir, exist_ok=True)

    context_cols = ["sweep", "sweep_type", "setting", "train_tag", "test_tag"]
    rows = []
    skipped = []
    for load, label, targets in cells:
        try:
            method = load()
        except (FileNotFoundError, OSError) as exc:
            skipped.append(f"{label}: {exc}")
            continue
        for ctx, test_set in targets:
            recs = evaluate_method(method, test_set, cache=cache,
                                   timing_repeats=timing_repeats)
            rows.extend((ctx, rec) for rec in recs)

    records_path = os.path.join(out_dir, "records.csv")
    write_records_csv(records_path, rows, extra_columns=context_cols)

    summary = summarize(rows, context_cols + ["method"])
    for row in summary:
        row["is_diagonal"] = (row["sweep_type"] == "cross_dataset"
                              and row["train_tag"] == row["test_tag"])
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        if summary:
            writer = csv.DictWriter(fh, fieldnames=list(summary[0].keys()))
            writer.writeheader()
            writer.writerows(summary)
        else:
            csv.writer(fh).writerow(context_cols + ["method"])

    diag_lines = [f"skipped: {s}" for s in skipped]
    diag_lines += _k_trend_diagnostics(rows)
    diag_path = os.path.join(out_dir, "diagnostics.txt")
    with open(diag_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(diag_lines) + ("\n" if diag_lines else ""))

    return {"records": records_path, "summary": summary_path,
            "diagnostics": diag_path, "rows": rows, "skipped": skipped}


def _k_trend_diagnostics(rows, tol=0.02):
    """Mean error should be nonincreasing in K within noise for every method
    of a k_sweep; emit one line per consecutive pair, flagging violations."""
    per = {}
    for ctx, rec in rows:
        if ctx.get("sweep_type") != "k_sweep":
            continue
        key = (ctx["sweep"], rec.method)
        per.setdefault(key, {}).setdefault(int(ctx["setting"]), []).append(
            rec.relative_error
        )
    lines = []
    for (sweep, method), by_k in sorted(per.items()):
        ks = sorted(by_k)
        for k1, k2 in zip(ks, ks[1:]):
            m1 = float(np.mean(by_k[k1]))
            m2 = float(np.mean(by_k[k2]))
            flag = "ok" if m2 <= m1 + tol else "VIOLATION"
            lines.append(
                f"k-trend {sweep} {method}: K={k1} mean={m1:.4f} -> "
                f"K={k2} mean={m2:.4f} [{flag}]"
            )
    return lines
