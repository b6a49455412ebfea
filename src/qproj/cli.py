"""Command-line interface.

Subcommands: gen-data, train, eval, solve, baseline, theory, experiment.
Global flags: --seed, --config <json>, --out <dir>. A config file holds
per-subcommand defaults, e.g. {"train": {"k": 10, "epochs": 50}}, and the
SHARED keys; a section holds only its command's flags and SHARED keys, and
explicit flags win. Exit codes: 0 success, 2 configuration errors (and
running out of memory), 3 I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import reprlib
import sys

import numpy as np

from . import baselines
from .core import (FLAG, NUMBER, OBJECT, PATH, REQUIRED, TEXT, Kind, integer, load_instance,
                   one_of, read_fields, read_json_object)
from .datasets import FAMILIES, SPLITS, DatasetManifest, gen_split
from .evaluate import (METHODS, SolutionCache, evaluate_method, load_method, run_experiment,
                       write_records_csv)
from .gnn import load_checkpoint, save_checkpoint
from .solver import settings_from_json, solve_qp
from .theory import AssumptionConstants, gen_bound, lipschitz_consts, validate_norm_bound, y_max
from .training import TrainConfig, train


# every option a flag or a config section can set, by name; its flag reads
# as an int for POSITIVE, NONNEGATIVE and SEED, a float for NUMBER and a string otherwise
POSITIVE, NONNEGATIVE = integer(1), integer(0)
# a seed goes into manifests and checkpoints, whose reader (orjson) reads an
# integer from 2**64 up as a float
SEED = Kind("an integer in [0, 2**64)",
            lambda v, f: v if type(v) is int and 0 <= v < 2**64 else None)
OPTIONS = {
    **dict.fromkeys(("manifest", "checkpoint", "artifact", "instance", "spec", "cache-dir"),
                    PATH),
    **dict.fromkeys(("n", "t", "s", "v", "k", "train", "val", "test", "epochs", "batch-size",
                     "hidden", "layers", "head-hidden", "d"), POSITIVE),
    **dict.fromkeys(("m", "timing-repeats"), NONNEGATIVE),
    **dict.fromkeys(("seed", "base-seed"), SEED),
    **dict.fromkeys(("lr", "sigma-q", "sigma-p", "q0", "c0", "b", "epsilon", "delta",
                     "log-n-cover"), NUMBER),
    **dict.fromkeys(("record_timings", "validate"), FLAG),
    "family": one_of(FAMILIES),
    "method": TEXT,
    "split": one_of(SPLITS),
    "solver": OBJECT,
}


def _pick(args, cfg, key, default=REQUIRED):
    """The flag, else the config value, else default, read by the option's
    kind in OPTIONS: a value of another kind, or none where there is no
    default, raises ValueError naming the key."""
    flag = getattr(args, key.replace("-", "_"), None)
    doc = cfg if flag is None else {key: flag}
    if key in doc:
        return read_fields(doc, {key: OPTIONS[key]}, "option")[key]
    if default is REQUIRED:
        raise ValueError(f"missing required option --{key} (flag or config)")
    return default


BASELINES = ("pca", "sharedp", "direct")


def _method(args, cfg, choices, what):
    """The required --method, flag or config, one of choices: argparse
    checks the flag against them, but not a config value."""
    name = _pick(args, cfg, "method")
    if name not in choices:
        raise ValueError(f"unknown {what} {name!r} (expected {'/'.join(choices)})")
    return name


def _solver_settings(args, cfg):
    return settings_from_json(_pick(args, cfg, "solver", {}))


def cmd_gen_data(args, cfg):
    family = _pick(args, cfg, "family")
    sizes = {key: val for key in ("n", "m", "t", "s", "v")
             if (val := _pick(args, cfg, key, None)) is not None}
    counts = {split: _pick(args, cfg, split, default)
              for split, default in zip(SPLITS, (120, 40, 40))}
    gen_split(family, sizes, counts, _pick(args, cfg, "base-seed", _seed(args, cfg)), args.out)
    print(os.path.join(args.out, "manifest.json"))
    return 0


def _seed(args, cfg) -> int:
    """The --seed flag, else the config seed, else 0."""
    return _pick(args, cfg, "seed", 0)


def _train_config(args, cfg, k, epochs, **fields):
    """The TrainConfig of the flags train and baseline share; fields sets the rest."""
    return TrainConfig(k=k, batch_size=_pick(args, cfg, "batch-size", 8),
                       learning_rate=_pick(args, cfg, "lr", 1e-3),
                       max_epochs=_pick(args, cfg, "epochs", epochs),
                       seed=_seed(args, cfg), **fields)


def cmd_train(args, cfg):
    manifest = DatasetManifest.load(_pick(args, cfg, "manifest"))
    config = _train_config(args, cfg, _pick(args, cfg, "k"), 500,
                           hidden=_pick(args, cfg, "hidden", 32),
                           layers=_pick(args, cfg, "layers", 4),
                           head_hidden=_pick(args, cfg, "head-hidden", 32),
                           solver=_solver_settings(args, cfg),
                           record_timings=_pick(args, cfg, "record_timings", True))
    params, report = train(manifest.load_split("train"),
                           manifest.load_split("val"), config)
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.json")
    save_checkpoint(ckpt, params, seed=config.seed,
                    extra={"family": manifest.family,
                           "best_epoch": report.best_epoch,
                           "solver": dataclasses.asdict(config.solver)})
    report.to_csv(os.path.join(args.out, "train_report.csv"))
    print(ckpt)
    return 0


def _build_method(args, cfg, name, k):
    path = None
    if name == "rand":
        _pick(args, cfg, "k")
    elif name == "ours":
        path = _pick(args, cfg, "checkpoint")
    elif name != "full":
        path = _pick(args, cfg, "artifact")
    return load_method(name, path, k, rand_seed=_seed(args, cfg))


def cmd_eval(args, cfg):
    name = _method(args, cfg, METHODS, "method")
    manifest = DatasetManifest.load(_pick(args, cfg, "manifest"))
    k = _pick(args, cfg, "k", None)
    method = _build_method(args, cfg, name, k)
    settings = _solver_settings(args, cfg)
    records = evaluate_method(
        method,
        manifest.load_split(_pick(args, cfg, "split", "test")),
        k=k,
        cache=SolutionCache(cache_dir=_pick(args, cfg, "cache-dir", None),
                            settings=settings),
        timing_repeats=_pick(args, cfg, "timing-repeats", 3),
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "records.csv")
    write_records_csv(path, records)
    print(path)
    return 0


def cmd_solve(args, cfg):
    inst = load_instance(_pick(args, cfg, "instance"))
    settings = _solver_settings(args, cfg)
    res = solve_qp(inst, settings)
    doc = {
        "status": res.status.value,
        "objective": res.objective,
        "iterations": res.iterations,
        "adds": res.adds,
        "drops": res.drops,
        "y_star": res.y_star.tolist(),
        "lambda_star": res.lambda_star.tolist(),
        "message": res.message,
        "solver": dataclasses.asdict(settings),
    }
    out = json.dumps(doc)
    if args.out != ".":
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "solution.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out)
        print(path)
    else:
        print(out)
    return 0


def cmd_baseline(args, cfg):
    name = _method(args, cfg, BASELINES, "baseline")
    manifest = DatasetManifest.load(_pick(args, cfg, "manifest"))
    train_set = manifest.load_split("train")
    val_set = manifest.load_split("val")
    k = _pick(args, cfg, "k", None)
    settings = _solver_settings(args, cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{name}_artifact.json")

    if name == "pca":
        cache = SolutionCache(cache_dir=_pick(args, cfg, "cache-dir", None),
                              settings=settings)
        sols = np.array([e["x_star"] for e in cache.warm(train_set)])
        proj = baselines.pca_projection(sols, _pick(args, cfg, "k"))
        baselines.save_projection(path, proj, "pca")
    else:
        config = _train_config(args, cfg, _pick(args, cfg, "k") if name == "sharedp" else 1,
                               100, solver=settings)
        if name == "sharedp":
            proj = baselines.sharedp_train(train_set, val_set, config)
            baselines.save_projection(path, proj, "sharedp")
        else:
            params, lambda_pen = baselines.direct_train(train_set, val_set, config)
            save_checkpoint(path, params, seed=config.seed,
                            extra={"method": "direct", "lambda_pen": lambda_pen})
    print(path)
    return 0


def cmd_theory(args, cfg):
    if _pick(args, cfg, "validate", None):
        manifest = DatasetManifest.load(_pick(args, cfg, "manifest"))
        params = load_checkpoint(_pick(args, cfg, "checkpoint"))
        report = validate_norm_bound(manifest.load_split("test"), params,
                                     settings=_solver_settings(args, cfg))
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "norm_bound.csv")
        report.to_csv(path)
        print(json.dumps({"instances": len(report.rows),
                          "violations": report.violations,
                          "skipped": report.skipped, "csv": path}))
        return 0

    consts = AssumptionConstants(
        sigma_p=_pick(args, cfg, "sigma-p", 1.0),
        **{key.replace("-", "_"): _pick(args, cfg, key)
           for key in ("sigma-q", "q0", "c0", "b", "n", "k")})
    c_prime, c = lipschitz_consts(consts)
    doc = {"y_max": y_max(consts), "c_prime": c_prime, "c": c}
    epsilon = _pick(args, cfg, "epsilon", None)
    doc["bound"] = None if epsilon is None else gen_bound(
        epsilon, _pick(args, cfg, "delta", 0.05), _pick(args, cfg, "d", 100), consts.b,
        _pick(args, cfg, "log-n-cover", 0.0), c)
    # an overflow to infinity is an error, not an Infinity token
    print(json.dumps(doc, allow_nan=False))
    return 0


def cmd_experiment(args, cfg):
    spec = _pick(args, cfg, "spec")
    out = run_experiment(spec, args.out)
    print(out["records"])
    return 0


# each command's help and option keys: its flags, and all its config section
# may hold besides the SHARED keys, which the top level may hold too
COMMANDS = {
    "gen-data": ("generate a dataset split", "family n m t s v train val test base-seed"),
    "train": ("train the projection generator",
              "manifest k epochs batch-size lr hidden layers head-hidden"),
    "eval": ("evaluate a method on a test split",
             "manifest method checkpoint artifact k split timing-repeats cache-dir"),
    "solve": ("solve one QP instance file", "instance"),
    "baseline": ("build a baseline projection or direct model",
                 "method manifest k epochs batch-size lr cache-dir"),
    "theory": ("evaluate theory formulas / validate bound",
               "sigma-q sigma-p q0 c0 b n k epsilon delta d log-n-cover validate manifest "
               "checkpoint"),
    "experiment": ("run an experiment spec", "spec"),
}
SHARED = ("solver", "record_timings", "seed")


def build_parser():
    parser = argparse.ArgumentParser(prog="qproj")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, keys) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        choices = {"family": FAMILIES, "split": SPLITS,
                   "method": METHODS if command == "eval" else BASELINES}
        for key in keys.split():
            kind = OPTIONS[key]
            if kind is FLAG:
                p.add_argument(f"--{key}", action="store_true", default=None)
            else:
                p.add_argument(f"--{key}", choices=choices.get(key), type=(
                    int if kind in (POSITIVE, NONNEGATIVE, SEED)
                    else float if kind is NUMBER else None))
        # read per call, not at import: a tracer may rebind the cmd_* functions
        p.set_defaults(fn=globals()["cmd_" + command.replace("-", "_")])
    return parser


def _config(path, command) -> dict:
    """command's section of the config file at path (gen_data or gen-data for
    gen-data), with the top level's SHARED keys. Any other top-level key, or a
    section key that is neither SHARED nor one of its command's keys in
    COMMANDS, raises ValueError naming path and key."""
    doc = read_json_object(path, "a config file") if path else {}
    for key, section in doc.items():
        if key in SHARED:
            continue
        name = key.replace("_", "-")
        if name not in COMMANDS:
            raise ValueError(f"{path}: unknown config key {key!r} (expected a command "
                             f"section or {'/'.join(SHARED)})")
        if not isinstance(section, dict):
            raise ValueError(f"{path}: config section {key!r} must be an object, "
                             f"got {reprlib.repr(section)}")
        allowed = (*COMMANDS[name][1].split(), *SHARED)
        for field in section:
            if field not in allowed:
                raise ValueError(f"{path}: unknown key {field!r} in config section {key!r} "
                                 f"(expected one of {', '.join(allowed)})")
    section = command.replace("-", "_")
    cfg = doc.get(section if section in doc else command, {})
    for key in SHARED:
        if key in doc and key not in cfg:
            cfg[key] = doc[key]
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, _config(args.config, args.command))
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
