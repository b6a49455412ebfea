"""Command-line interface.

Subcommands: gen-data, train, eval, solve, baseline, theory, experiment.
Global flags: --seed, --config <json>, --out <dir>, --threads. A config file
holds per-subcommand defaults, e.g. {"train": {"k": 10, "epochs": 50}};
explicit flags win. Exit codes: 0 success, 2 configuration errors, 3 I/O
errors.
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


def _pick(args, cfg, key, default=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _require(value, name):
    if value is None:
        raise ValueError(f"missing required option --{name} (flag or config)")
    return value


def _solver_settings(cfg):
    """SolverSettings from the config's "solver" mapping. An unknown key or a
    value of the wrong type raises ValueError naming the key: the settings
    class itself would raise TypeError."""
    from .solver import SolverSettings

    section = cfg.get("solver", {})
    if not isinstance(section, dict):
        raise ValueError(f"config key 'solver' must be an object, got {section!r}")
    defaults = vars(SolverSettings())
    for key, value in section.items():
        if key not in defaults:
            raise ValueError(f"unknown solver setting {key!r}")
        kind = type(defaults[key])
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
            raise ValueError(f"solver setting {key!r} must be a {kind.__name__}, got {value!r}")
    return SolverSettings(**section)


def cmd_gen_data(args, cfg):
    from .datasets import gen_split

    family = _require(_pick(args, cfg, "family"), "family")
    sizes = {}
    for key in ("n", "m", "t", "s", "v"):
        val = _pick(args, cfg, key)
        if val is not None:
            sizes[key] = int(val)
    counts = {
        "train": int(_pick(args, cfg, "train", 120)),
        "val": int(_pick(args, cfg, "val", 40)),
        "test": int(_pick(args, cfg, "test", 40)),
    }
    base_seed = int(_pick(args, cfg, "base-seed", args.seed or 0))
    manifest = gen_split(family, sizes, counts, base_seed, args.out)
    print(os.path.join(args.out, "manifest.json"))
    return 0


def _train_config(args, cfg, k, epochs, **fields):
    """The TrainConfig of the flags train and baseline share; fields sets the rest."""
    from .training import TrainConfig

    return TrainConfig(k=k, batch_size=int(_pick(args, cfg, "batch-size", 8)),
                       learning_rate=float(_pick(args, cfg, "lr", 1e-3)),
                       max_epochs=int(_pick(args, cfg, "epochs", epochs)),
                       seed=int(args.seed if args.seed is not None else cfg.get("seed", 0)),
                       **fields)


def cmd_train(args, cfg):
    from .datasets import DatasetManifest
    from .gnn import save_checkpoint
    from .training import train

    manifest = DatasetManifest.load(_require(_pick(args, cfg, "manifest"), "manifest"))
    config = _train_config(args, cfg, int(_require(_pick(args, cfg, "k"), "k")), 500,
                           hidden=int(_pick(args, cfg, "hidden", 32)),
                           layers=int(_pick(args, cfg, "layers", 4)),
                           head_hidden=int(_pick(args, cfg, "head-hidden", 32)),
                           solver=_solver_settings(cfg),
                           record_timings=bool(cfg.get("record_timings", True)))
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
        k = int(_require(k, "k"))
    elif name == "ours":
        path = _require(_pick(args, cfg, "checkpoint"), "checkpoint")
    elif name != "full":
        path = _require(_pick(args, cfg, "artifact"), "artifact")
    return load_method(name, path, k,
                       rand_seed=int(args.seed if args.seed is not None else 0))


def cmd_eval(args, cfg):
    from .datasets import DatasetManifest
    from .evaluate import SolutionCache, evaluate_method, write_records_csv

    manifest = DatasetManifest.load(_require(_pick(args, cfg, "manifest"), "manifest"))
    name = _require(_pick(args, cfg, "method"), "method")
    k = _pick(args, cfg, "k")
    method = _build_method(args, cfg, name, k)
    settings = _solver_settings(cfg)
    records = evaluate_method(
        method,
        manifest.load_split(_pick(args, cfg, "split", "test")),
        k=None if k is None else int(k),
        settings=settings,
        cache=SolutionCache(cache_dir=_pick(args, cfg, "cache-dir"),
                            settings=settings),
        timing_repeats=int(_pick(args, cfg, "timing-repeats", 3)),
        threads=args.threads,
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "records.csv")
    write_records_csv(path, records)
    print(path)
    return 0


def cmd_solve(args, cfg):
    from .core import load_instance
    from .solver import solve_qp

    inst = load_instance(_require(_pick(args, cfg, "instance"), "instance"))
    settings = _solver_settings(cfg)
    res = solve_qp(inst, settings)
    doc = {
        "status": res.status.value,
        "objective": res.objective,
        "iterations": res.iterations,
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

    manifest = DatasetManifest.load(_require(_pick(args, cfg, "manifest"), "manifest"))
    name = _require(_pick(args, cfg, "method"), "method")
    train_set = manifest.load_split("train")
    val_set = manifest.load_split("val")
    k = _pick(args, cfg, "k")
    settings = _solver_settings(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{name}_artifact.json")

    if name == "pca":
        cache = SolutionCache(cache_dir=_pick(args, cfg, "cache-dir"),
                              settings=settings)
        sols = np.array([e["x_star"] for e in cache.warm(train_set, threads=args.threads)])
        proj = baselines.pca_projection(sols, int(_require(k, "k")))
        baselines.save_projection(path, proj, "pca")
    elif name in ("sharedp", "direct"):
        config = _train_config(args, cfg, int(_require(k, "k")) if name == "sharedp" else 1,
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

    if _pick(args, cfg, "validate"):
        from .datasets import DatasetManifest
        from .gnn import load_checkpoint
        from .theory import validate_norm_bound

        manifest = DatasetManifest.load(
            _require(_pick(args, cfg, "manifest"), "manifest"))
        params = load_checkpoint(
            _require(_pick(args, cfg, "checkpoint"), "checkpoint"))
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
        sigma_q=float(_require(_pick(args, cfg, "sigma-q"), "sigma-q")),
        sigma_p=float(_pick(args, cfg, "sigma-p", 1.0)),
        q0=float(_require(_pick(args, cfg, "q0"), "q0")),
        c0=float(_require(_pick(args, cfg, "c0"), "c0")),
        b=float(_require(_pick(args, cfg, "b"), "b")),
        n=int(_require(_pick(args, cfg, "n"), "n")),
        k=int(_require(_pick(args, cfg, "k"), "k")),
    )
    c_prime, c = lipschitz_consts(consts)
    doc = {"y_max": y_max(consts), "c_prime": c_prime, "c": c}
    epsilon = _pick(args, cfg, "epsilon")
    if epsilon is not None:
        doc["bound"] = gen_bound(
            float(epsilon),
            float(_pick(args, cfg, "delta", 0.05)),
            int(_pick(args, cfg, "d", 100)),
            consts.b,
            float(_pick(args, cfg, "log-n-cover", 0.0)),
            c,
        )
    else:
        doc["bound"] = None
    print(json.dumps(doc))
    return 0


def cmd_experiment(args, cfg):
    from .evaluate import run_experiment

    spec = _require(_pick(args, cfg, "spec"), "spec")
    out = run_experiment(spec, args.out)
    print(out["records"])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="qproj")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1)
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
        cfg = cfg_all.get(args.command.replace("-", "_"),
                          cfg_all.get(args.command, {}))
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
