"""Seeded generators for the three synthetic QP families, plus split
management and serialization.

Every generated instance is inequality-form with x = 0 feasible (b >= 0), so
the trivial objective value 0 is always available as a reference. The RNG is
numpy's counter-based Philox (64-bit), recorded in the manifest; sampling
order is documented per generator so streams can be reproduced elsewhere.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (
    LIST,
    OBJECT,
    PATH,
    TEXT,
    EqQpInstance,
    QpInstance,
    cholesky_exists,
    eliminate_eq_nullspace,
    integer,
    load_instance,
    one_of,
    read_fields,
    read_json_object,
    save_instance,
)

RNG_NAME = "numpy-philox4x64"
GENERATOR_VERSION = 1
FAMILIES = ("regression", "portfolio", "control")
SPLITS = ("train", "val", "test")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _check_generated(inst: QpInstance, D: np.ndarray) -> QpInstance:
    """inst, checked to admit x = 0 and to have a Hessian positive definite
    on the subspace the problem lives on, range(D), where D is the orthogonal
    projector of the null-space elimination (the identity when there was
    none). Q = DQD vanishes on range(I - D), so Q + (I - D) has Q's
    eigenvalues on range(D) and 1 on the eliminated directions: it is
    positive definite beyond 1e-10 exactly when Q is on range(D), which a
    Cholesky factor of Q + (I - D) - 1e-10 I shows."""
    if inst.n_cons and inst.b.min() < -1e-10:
        raise ValueError("generated instance does not admit x = 0 as feasible")
    if not cholesky_exists(inst.Q - D, 1.0 - 1e-10):
        raise ValueError("generated Hessian is not positive definite on its subspace")
    return inst


def gen_regression(n: int = 500, m: int = 50, t: int | None = None,
                   seed: int = 0) -> QpInstance:
    """Constrained least squares in standard form.

    Sampling order: design matrix (t x n) entries U(-1,1); targets (t)
    U(-1,1); constraint matrix (m x n) entries U(0,1); right-hand side (m)
    U(0,1) scaled by n. Emitted as Q = 2 F'F, c = -2 F'beta,
    A = [A'; -I], b = [b'; 0].
    """
    if t is None:
        t = 2 * n
    rng = _rng(seed)
    design = rng.uniform(-1.0, 1.0, size=(t, n))
    beta = rng.uniform(-1.0, 1.0, size=t)
    a_extra = rng.uniform(0.0, 1.0, size=(m, n))
    b_extra = rng.uniform(0.0, 1.0, size=m) * n
    Q = 2.0 * design.T @ design
    c = -2.0 * design.T @ beta
    A = np.vstack([a_extra, -np.eye(n)])
    b = np.concatenate([b_extra, np.zeros(n)])
    inst = QpInstance(
        Q=Q, c=c, A=A, b=b,
        meta={"family": "regression", "seed": seed, "n": n, "m": m, "t": t,
              "recovery_constant": 0.0},
    )
    return _check_generated(inst, np.eye(n))


def portfolio_eq_instance(n: int, seed: int) -> tuple[EqQpInstance, np.ndarray]:
    """Minimum-variance portfolio with budget, no-short-selling, and
    target-return constraints, before equality elimination.

    Sampling order: factor matrix (n x n) standard normal; expected returns
    (n) U(-0.2, 0.2). Covariance = F'F + 1e-2 I; target return is the mean
    expected return, so the uniform portfolio 1/n is feasible.
    """
    rng = _rng(seed)
    q0 = rng.standard_normal(size=(n, n))
    mu = rng.uniform(-0.2, 0.2, size=n)
    Q = q0.T @ q0 + 1e-2 * np.eye(n)
    target = float(mu @ np.ones(n)) / n
    A_ineq = np.vstack([-np.eye(n), -mu[None, :]])
    b_ineq = np.concatenate([np.zeros(n), [-target]])
    eq = EqQpInstance(
        Q=Q, c=np.zeros(n),
        A_ineq=A_ineq, b_ineq=b_ineq,
        A_eq=np.ones((1, n)), b_eq=np.ones(1),
    )
    return eq, np.full(n, 1.0 / n)


def gen_portfolio(n: int = 500, seed: int = 0) -> QpInstance:
    if n < 2:
        # the budget row leaves n - 1 free variables after elimination
        raise ValueError(f"portfolio needs n >= 2, got n={n}")
    eq, u0 = portfolio_eq_instance(n, seed)
    inst, rec = eliminate_eq_nullspace(eq, u0)
    # the instance is fresh and unshared: tag it rather than build it again
    inst.meta.update({"family": "portfolio", "seed": seed, "n": n,
                      "recovery_constant": rec.constant})
    return _check_generated(inst, rec.D)


def control_eq_instance(s: int, v: int, t: int,
                        seed: int) -> tuple[EqQpInstance, np.ndarray]:
    """Finite-horizon tracking problem with linear dynamics and box
    constraints, before equality elimination. Variables are the stacked
    (state_1, input_1, ..., state_T, input_T).

    Sampling order: state lower bounds (s) U(-1,0); input lower bounds (v)
    U(-1,0); state upper bounds (s) U(0,1); input upper bounds (v) U(0,1);
    target state U(lo, hi); initial state U(lo, hi); input weight U(0,2);
    dynamics matrix (s x v) U(-1,1).
    """
    rng = _rng(seed)
    s_lo = rng.uniform(-1.0, 0.0, size=s)
    v_lo = rng.uniform(-1.0, 0.0, size=v)
    s_hi = rng.uniform(0.0, 1.0, size=s)
    v_hi = rng.uniform(0.0, 1.0, size=v)
    s_target = rng.uniform(s_lo, s_hi)
    s_init = rng.uniform(s_lo, s_hi)
    weight = float(rng.uniform(0.0, 2.0))
    dyn = rng.uniform(-1.0, 1.0, size=(s, v))

    n = (s + v) * t
    s_idx = lambda step: (s + v) * step            # step is 0-based
    v_idx = lambda step: (s + v) * step + s

    diag = np.concatenate([np.concatenate([np.ones(s), weight * np.ones(v)])
                           for _ in range(t)])
    Q = np.diag(diag)
    c = np.zeros(n)
    for step in range(t):
        c[s_idx(step) : s_idx(step) + s] = -s_target

    # dynamics state_{t+1} = state_t + dyn input_t, plus the initial condition
    A_eq = np.zeros((s * t, n))
    b_eq = np.zeros(s * t)
    for step in range(t - 1):
        rows = slice(step * s, (step + 1) * s)
        A_eq[rows, s_idx(step + 1) : s_idx(step + 1) + s] = np.eye(s)
        A_eq[rows, s_idx(step) : s_idx(step) + s] = -np.eye(s)
        A_eq[rows, v_idx(step) : v_idx(step) + v] = -dyn
    rows = slice((t - 1) * s, t * s)
    A_eq[rows, 0:s] = np.eye(s)
    b_eq[rows] = s_init

    lo = np.concatenate([np.concatenate([s_lo, v_lo]) for _ in range(t)])
    hi = np.concatenate([np.concatenate([s_hi, v_hi]) for _ in range(t)])
    A_ineq = np.vstack([np.eye(n), -np.eye(n)])
    b_ineq = np.concatenate([hi, -lo])

    eq = EqQpInstance(Q=Q, c=c, A_ineq=A_ineq, b_ineq=b_ineq,
                      A_eq=A_eq, b_eq=b_eq)
    u0 = np.zeros(n)
    for step in range(t):
        u0[s_idx(step) : s_idx(step) + s] = s_init
    return eq, u0


def gen_control(s: int = 50, v: int = 50, t: int = 5, seed: int = 0) -> QpInstance:
    eq, u0 = control_eq_instance(s, v, t, seed)
    inst, rec = eliminate_eq_nullspace(eq, u0)
    inst.meta.update({"family": "control", "seed": seed, "s": s, "v": v, "t": t,
                      "recovery_constant": rec.constant})
    return _check_generated(inst, rec.D)


def generate_instance(family: str, sizes: dict, seed: int) -> QpInstance:
    if family == "regression":
        return gen_regression(n=sizes.get("n", 500), m=sizes.get("m", 50),
                              t=sizes.get("t"), seed=seed)
    if family == "portfolio":
        return gen_portfolio(n=sizes.get("n", 500), seed=seed)
    if family == "control":
        return gen_control(s=sizes.get("s", 50), v=sizes.get("v", 50),
                           t=sizes.get("t", 5), seed=seed)
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


@dataclass
class DatasetManifest:
    family: str
    sizes: dict
    counts: dict                      # {"train": .., "val": .., "test": ..}
    base_seed: int
    root: str
    files: list = field(default_factory=list)
    rng_name: str = RNG_NAME
    generator_version: int = GENERATOR_VERSION

    def split_files(self, split: str) -> list:
        return [f for f in self.files if f["split"] == split]

    def load_split(self, split: str) -> list:
        """The instances of split; a split with none raises ValueError, as
        every caller would train or score on nothing."""
        files = self.split_files(split)
        if not files:
            raise ValueError(f"{self.root}: the manifest lists no {split!r} instances")
        return [load_instance(os.path.join(self.root, f["path"])) for f in files]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({name: getattr(self, name) for name in MANIFEST}, fh, indent=1,
                      allow_nan=False)

    @staticmethod
    def load(path) -> "DatasetManifest":
        """The manifest of a save() file, read by MANIFEST and, for each entry
        of its files, MANIFEST_FILE."""
        doc = read_fields(read_json_object(path, "a manifest"), MANIFEST, f"{path}: manifest")
        for i, entry in enumerate(doc["files"]):
            read_fields(entry, MANIFEST_FILE, f"{path}: manifest field 'files' item {i}")
        return DatasetManifest(**doc, root=os.path.dirname(os.path.abspath(path)))


# the fields of a manifest, in the order save() writes them
MANIFEST = {"family": one_of(FAMILIES), "sizes": OBJECT, "counts": OBJECT,
            "base_seed": integer(0), "rng_name": TEXT.otherwise(RNG_NAME),
            "generator_version": integer(1).otherwise(GENERATOR_VERSION), "files": LIST}
MANIFEST_FILE = {"path": PATH, "split": one_of(SPLITS)}


def gen_split(family: str, sizes: dict, counts: dict, base_seed: int,
              out_dir) -> DatasetManifest:
    """Generate train/val/test instances and a manifest.

    Instance d (numbered globally across the splits, in train/val/test
    order) uses seed base_seed + d, so split seed ranges are disjoint and
    the manifest plus base seed reproduce every file bitwise.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    for split in SPLITS:
        if counts.get(split, 0) < 1:
            raise ValueError("all split counts must be positive")
    os.makedirs(out_dir, exist_ok=True)
    manifest = DatasetManifest(family=family, sizes=dict(sizes),
                               counts=dict(counts), base_seed=base_seed,
                               root=str(out_dir))
    d = 0
    for split in SPLITS:
        for _ in range(counts[split]):
            seed = base_seed + d
            inst = generate_instance(family, sizes, seed)
            # the instance is fresh and unshared: tag it rather than build it
            # (and check its Q) a second time
            inst.meta.update({"id": f"{family}-{split}-{d:04d}", "split": split,
                              "index": d})
            fname = f"{family}_{split}_{d:04d}.json"
            save_instance(inst, os.path.join(out_dir, fname))
            manifest.files.append({"path": fname, "split": split,
                                   "index": d, "seed": seed})
            d += 1
    manifest.save(os.path.join(out_dir, "manifest.json"))
    return manifest
