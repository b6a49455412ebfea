"""Command-line interface.

Subcommands: gen-data, train, eval, solve, baseline, theory, experiment.
Global flags: --seed, --config <json>, --out <dir>. A config file holds
per-subcommand defaults, e.g. {"train": {"k": 10, "epochs": 50}}; explicit
flags win. Exit codes: 0 success, 2 configuration errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np


def _load_config(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _boolean(val):
    """val when it is a JSON true or false; bool() would take "false" as true."""
    if not isinstance(val, bool):
        raise TypeError(val)
    return val


_KIND_NAMES = {int: "an integer", float: "a number", os.fspath: "a path",
               _boolean: "true or false"}


def _pick(args, cfg, key, default=None, kind=None):
    """The flag, else the config value, else default, converted by kind
    (int, float, _boolean, or os.fspath for a path) when given; a value kind
    rejects raises ValueError naming the key."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is None:
        val = cfg.get(key, default)
    if kind is None or val is None:
        return val
    try:
        return kind(val)
    except (TypeError, ValueError):
        raise ValueError(f"option {key!r} must be {_KIND_NAMES[kind]}, got {val!r}") from None


def _require(value, name):
    if value is None:
        raise ValueError(f"missing required option --{name} (flag or config)")
    return value


def _path(args, cfg, key):
    """The required path option key, flag or config."""
    return _require(_pick(args, cfg, key, kind=os.fspath), key)


def _solver_settings(cfg):
    from .solver import settings_from_json

    return settings_from_json(cfg.get("solver", {}))


def cmd_gen_data(args, cfg):
    from .datasets import gen_split

    family = _require(_pick(args, cfg, "family"), "family")
    sizes = {}
    for key in ("n", "m", "t", "s", "v"):
        val = _pick(args, cfg, key, kind=int)
        if val is not None:
            sizes[key] = val
    counts = {
        "train": _pick(args, cfg, "train", 120, int),
        "val": _pick(args, cfg, "val", 40, int),
        "test": _pick(args, cfg, "test", 40, int),
    }
    base_seed = _pick(args, cfg, "base-seed", _seed(args, cfg), int)
    manifest = gen_split(family, sizes, counts, base_seed, args.out)
    print(os.path.join(args.out, "manifest.json"))
    return 0


def _seed(args, cfg) -> int:
    """The --seed flag, else the config seed, else 0."""
    return _pick(args, cfg, "seed", 0, int)


def _train_config(args, cfg, k, epochs, **fields):
    """The TrainConfig of the flags train and baseline share; fields sets the rest."""
    from .training import TrainConfig

    return TrainConfig(k=k, batch_size=_pick(args, cfg, "batch-size", 8, int),
                       learning_rate=_pick(args, cfg, "lr", 1e-3, float),
                       max_epochs=_pick(args, cfg, "epochs", epochs, int),
                       seed=_seed(args, cfg), **fields)


def cmd_train(args, cfg):
    from .datasets import DatasetManifest
    from .gnn import save_checkpoint
    from .training import train

    manifest = DatasetManifest.load(_path(args, cfg, "manifest"))
    config = _train_config(args, cfg, _require(_pick(args, cfg, "k", kind=int), "k"), 500,
                           hidden=_pick(args, cfg, "hidden", 32, int),
                           layers=_pick(args, cfg, "layers", 4, int),
                           head_hidden=_pick(args, cfg, "head-hidden", 32, int),
                           solver=_solver_settings(cfg),
                           record_timings=_pick(args, cfg, "record_timings", True, _boolean))
    params, report = train(manifest.load_split("train"),
                           manifest.load_split("val"), config)
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.json")
    save_checkpoint(ckpt, params, seed=config.seed,
                    extra={"family": manifest.family,
                           "best_epoch": report.best_epoch,
                           "solver": {"eps_abs": config.solver.eps_abs,
                                      "eps_rel": config.solver.eps_rel}})
    report.to_csv(os.path.join(args.out, "train_report.csv"))
    print(ckpt)
    return 0


def _build_method(args, cfg, name, k):
    from .evaluate import load_method

    path = None
    if name == "rand":
        _require(k, "k")
    elif name == "ours":
        path = _path(args, cfg, "checkpoint")
    elif name != "full":
        path = _path(args, cfg, "artifact")
    return load_method(name, path, k, rand_seed=_seed(args, cfg))


def cmd_eval(args, cfg):
    from .datasets import DatasetManifest
    from .evaluate import SolutionCache, evaluate_method, write_records_csv

    manifest = DatasetManifest.load(_path(args, cfg, "manifest"))
    name = _require(_pick(args, cfg, "method"), "method")
    k = _pick(args, cfg, "k", kind=int)
    method = _build_method(args, cfg, name, k)
    settings = _solver_settings(cfg)
    records = evaluate_method(
        method,
        manifest.load_split(_pick(args, cfg, "split", "test")),
        k=k,
        settings=settings,
        cache=SolutionCache(cache_dir=_pick(args, cfg, "cache-dir", kind=os.fspath),
                            settings=settings),
        timing_repeats=_pick(args, cfg, "timing-repeats", 3, int),
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "records.csv")
    write_records_csv(path, records)
    print(path)
    return 0


def cmd_solve(args, cfg):
    from .core import load_instance
    from .solver import solve_qp

    inst = load_instance(_path(args, cfg, "instance"))
    settings = _solver_settings(cfg)
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
        "solver": {"eps_abs": settings.eps_abs, "eps_rel": settings.eps_rel},
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
    from . import baselines
    from .datasets import DatasetManifest
    from .evaluate import SolutionCache
    from .gnn import save_checkpoint

    manifest = DatasetManifest.load(_path(args, cfg, "manifest"))
    name = _require(_pick(args, cfg, "method"), "method")
    train_set = manifest.load_split("train")
    val_set = manifest.load_split("val")
    k = _pick(args, cfg, "k", kind=int)
    settings = _solver_settings(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{name}_artifact.json")

    if name == "pca":
        cache = SolutionCache(cache_dir=_pick(args, cfg, "cache-dir", kind=os.fspath),
                              settings=settings)
        sols = np.array([e["x_star"] for e in cache.warm(train_set)])
        proj = baselines.pca_projection(sols, _require(k, "k"))
        baselines.save_projection(path, proj, "pca")
    elif name in ("sharedp", "direct"):
        config = _train_config(args, cfg, _require(k, "k") if name == "sharedp" else 1,
                               100, solver=settings)
        if name == "sharedp":
            proj = baselines.sharedp_train(train_set, val_set, config.k, config)
            baselines.save_projection(path, proj, "sharedp")
        else:
            params, lambda_pen = baselines.direct_train(train_set, val_set, config)
            save_checkpoint(path, params, seed=config.seed,
                            extra={"method": "direct", "lambda_pen": lambda_pen})
    else:
        raise ValueError(f"unknown baseline {name!r} (expected pca/sharedp/direct)")
    print(path)
    return 0


def cmd_theory(args, cfg):
    from .theory import AssumptionConstants, gen_bound, lipschitz_consts, y_max

    if _pick(args, cfg, "validate", kind=_boolean):
        from .datasets import DatasetManifest
        from .gnn import load_checkpoint
        from .theory import validate_norm_bound

        manifest = DatasetManifest.load(_path(args, cfg, "manifest"))
        params = load_checkpoint(_path(args, cfg, "checkpoint"))
        report = validate_norm_bound(manifest.load_split("test"), params,
                                     params.k, settings=_solver_settings(cfg))
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "norm_bound.csv")
        report.to_csv(path)
        print(json.dumps({"instances": len(report.rows),
                          "violations": report.violations,
                          "skipped": report.skipped, "csv": path}))
        return 0

    consts = AssumptionConstants(
        sigma_q=_require(_pick(args, cfg, "sigma-q", kind=float), "sigma-q"),
        sigma_p=_pick(args, cfg, "sigma-p", 1.0, float),
        q0=_require(_pick(args, cfg, "q0", kind=float), "q0"),
        c0=_require(_pick(args, cfg, "c0", kind=float), "c0"),
        b=_require(_pick(args, cfg, "b", kind=float), "b"),
        n=_require(_pick(args, cfg, "n", kind=int), "n"),
        k=_require(_pick(args, cfg, "k", kind=int), "k"),
    )
    c_prime, c = lipschitz_consts(consts)
    doc = {"y_max": y_max(consts), "c_prime": c_prime, "c": c}
    epsilon = _pick(args, cfg, "epsilon", kind=float)
    if epsilon is not None:
        doc["bound"] = gen_bound(
            epsilon,
            _pick(args, cfg, "delta", 0.05, float),
            _pick(args, cfg, "d", 100, int),
            consts.b,
            _pick(args, cfg, "log-n-cover", 0.0, float),
            c,
        )
    else:
        doc["bound"] = None
    print(json.dumps(doc))
    return 0


def cmd_experiment(args, cfg):
    from .evaluate import run_experiment

    spec = _path(args, cfg, "spec")
    out = run_experiment(spec, args.out)
    print(out["records"])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="qproj")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset split")
    p.add_argument("--family", choices=["regression", "portfolio", "control"])
    for key in ("n", "m", "t", "s", "v", "train", "val", "test", "base-seed"):
        p.add_argument(f"--{key}", type=int, default=None)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train the projection generator")
    p.add_argument("--manifest")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--head-hidden", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a method on a test split")
    p.add_argument("--manifest")
    p.add_argument("--method",
                   choices=["ours", "rand", "pca", "sharedp", "direct", "full"])
    p.add_argument("--checkpoint")
    p.add_argument("--artifact")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--split", default=None)
    p.add_argument("--timing-repeats", type=int, default=None)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("solve", help="solve one QP instance file")
    p.add_argument("--instance")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("baseline", help="build a baseline projection or direct model")
    p.add_argument("--method", choices=["pca", "sharedp", "direct"])
    p.add_argument("--manifest")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("theory", help="evaluate theory formulas / validate bound")
    p.add_argument("--sigma-q", type=float, default=None)
    p.add_argument("--sigma-p", type=float, default=None)
    p.add_argument("--q0", type=float, default=None)
    p.add_argument("--c0", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--log-n-cover", type=float, default=None)
    p.add_argument("--validate", action="store_true", default=None)
    p.add_argument("--manifest")
    p.add_argument("--checkpoint")
    p.set_defaults(fn=cmd_theory)

    p = sub.add_parser("experiment", help="run an experiment spec")
    p.add_argument("--spec")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg_all = _load_config(args.config)
        section = args.command.replace("-", "_")
        section = section if section in cfg_all else args.command
        cfg = cfg_all.get(section, {})
        if not isinstance(cfg, dict):
            raise ValueError(f"config section {section!r} must be an object, got {cfg!r}")
        # shared sections (e.g. solver) visible to every command
        for key in ("solver", "record_timings", "seed"):
            if key in cfg_all and key not in cfg:
                cfg[key] = cfg_all[key]
        return args.fn(args, cfg)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
