"""Comparison methods: random coordinate selection, PCA of training optima,
a single shared learned projection, and direct solution prediction."""

from __future__ import annotations

import json
import warnings

import numpy as np

from .core import (ProjectionMatrix, QpInstance, array, integer, one_of, project, read_fields,
                   read_json_object)
from .gnn import (
    ModelParams,
    backward,
    forward_raw,
    init_params,
    orthonormalize,
)
from .solver import SolveStatus, solve_qp
from .training import TrainConfig, adam_fit, envelope_grad, validation_loss
from .evaluate import SolutionCache, direct_method, fixed_method


def rand_projection(n: int, k: int, seed: int) -> ProjectionMatrix:
    """Selection matrix: K distinct coordinates drawn uniformly. Columns are
    identity columns, hence orthonormal by construction."""
    if k > n:
        raise ValueError(f"K={k} exceeds N={n}")
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(n, size=k, replace=False)
    P = np.zeros((n, k))
    P[idx, np.arange(k)] = 1.0
    return ProjectionMatrix(P=P)


def pca_projection(train_solutions, k: int) -> ProjectionMatrix:
    """Top-K left singular vectors of the (N x D) matrix whose columns are
    training optima. Uncentered: recovery x = Py is linear, so the subspace
    must contain the solutions themselves rather than their deviations.
    Rank-deficient solution sets are padded with an orthonormal complement
    (with a warning)."""
    sols = np.asarray(train_solutions, dtype=np.float64)
    if sols.ndim != 2 or sols.shape[0] < 1:
        raise ValueError("need a D x N matrix of training solutions")
    n = sols.shape[1]
    if k > n:
        raise ValueError(f"K={k} exceeds N={n}")
    u, s, _ = np.linalg.svd(sols.T, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(s[0], 1e-300)))
    if rank >= k:
        return ProjectionMatrix(P=u[:, :k])
    warnings.warn(
        f"solution matrix rank {rank} < K={k}; padding with an orthonormal complement",
        stacklevel=2,
    )
    basis, _ = np.linalg.qr(np.hstack([u[:, :rank], np.eye(n)]))
    return ProjectionMatrix(P=basis[:, :k])


def adapt_projection(P, n_test: int) -> ProjectionMatrix:
    """Fit a fixed N_train x K matrix to another variable count: zero-pad
    extra rows (columns stay orthonormal); truncation re-orthonormalizes."""
    P = np.asarray(P, dtype=np.float64)
    n_train, k = P.shape
    if n_test == n_train:
        return ProjectionMatrix(P=P)
    if n_test > n_train:
        out = np.zeros((n_test, k))
        out[:n_train] = P
        return ProjectionMatrix(P=out)
    warnings.warn(
        f"truncating projection rows {n_train} -> {n_test} and re-orthonormalizing",
        stacklevel=2,
    )
    if n_test < k:
        raise ValueError(f"cannot adapt K={k} columns to N={n_test} rows")
    return ProjectionMatrix(P=_orthonormal_columns(P[:n_test]))


def _orthonormal_columns(M) -> np.ndarray:
    """Q factor of the thin QR of M; a rank-deficient M is completed with
    identity columns."""
    q, _, deficient = orthonormalize(M)
    if deficient:
        basis, _ = np.linalg.qr(np.hstack([M, np.eye(M.shape[0])]))
        q = basis[:, :M.shape[1]]
    return q


def sharedp_train(train_set, val_set, config: TrainConfig) -> ProjectionMatrix:
    """Optimize one shared orthonormal N x config.k matrix with the same
    Adam + envelope gradient loop used for the generator; re-orthonormalize
    by QR after each step and keep the best validation epoch."""
    ns = {inst.n_vars for inst in train_set}
    if len(ns) != 1:
        raise ValueError(f"shared projection needs a single N, got {sorted(ns)}")
    n, k = ns.pop(), config.k
    cache = SolutionCache(settings=config.solver)
    cache.warm(val_set)

    def batch_grad(vec, batch):
        P = vec.reshape(n, k)
        grad = np.zeros((n, k))
        for idx in batch:
            inst = train_set[int(idx)]
            res = solve_qp(project(inst, ProjectionMatrix(P=P)), config.solver)
            if res.status is not SolveStatus.SOLVED:
                continue
            grad += envelope_grad(inst, P, res.y_star, res.lambda_star)
        return grad.ravel()

    def reorthonormalize(vec):
        return _orthonormal_columns(vec.reshape(n, k)).ravel()

    def val_loss(vec):
        return validation_loss(fixed_method(vec.reshape(n, k), "sharedp"), val_set, cache)

    # start from a coordinate selection: on families with sign-constrained
    # variables a dense random subspace pins the reduced optimum at zero,
    # where the envelope gradient vanishes and learning cannot start
    P0 = rand_projection(n, k, config.seed).P
    best, _, _ = adam_fit(P0.ravel(), len(train_set), config, batch_grad, val_loss,
                          reorthonormalize)
    return ProjectionMatrix(P=best.reshape(n, k))


DIRECT_PENALTY_GRID = (1e-1, 1.0, 10.0, 1e2)


def direct_loss_grad(inst: QpInstance, x, x_star, lambda_pen: float):
    """Squared solution error plus weighted constraint-violation norm; the
    gradient in x is returned alongside the loss value."""
    x = np.asarray(x, dtype=np.float64)
    diff = x - np.asarray(x_star, dtype=np.float64)
    loss = float(diff @ diff)
    grad = 2.0 * diff
    if inst.n_cons:
        r = np.maximum(inst.A @ x - inst.b, 0.0)
        rnorm = float(np.linalg.norm(r))
        loss += lambda_pen * rnorm
        if rnorm > 0.0:
            grad += lambda_pen * (inst.A.T @ (r / rnorm))
    return loss, grad


def direct_train(train_set, val_set, config: TrainConfig) -> tuple[ModelParams, float]:
    """Supervised training on precomputed optima of a GNN backbone with a
    single-output head, whose raw column is the predicted solution (no
    feasibility repair). The penalty weight is selected from a fixed grid by
    validation loss; returns (params, penalty weight)."""
    cache = SolutionCache(settings=config.solver)
    x_stars = [np.asarray(e["x_star"]) for e in cache.warm(train_set)]
    cache.warm(val_set)
    template = init_params(config.seed, h=config.hidden, l=config.layers,
                           k=1, h_g=config.head_hidden)

    def val_loss(vec):
        return validation_loss(direct_method(template.from_vector(vec)), val_set, cache)

    best = (np.inf, None, None)
    for lambda_pen in DIRECT_PENALTY_GRID:
        def batch_grad(vec, batch):
            params = template.from_vector(vec)
            grad_acc = np.zeros_like(vec)
            for idx in batch:
                inst = train_set[int(idx)]
                x_col, tape = forward_raw(params, inst)
                _, gx = direct_loss_grad(inst, x_col[:, 0], x_stars[int(idx)],
                                         lambda_pen)
                grad_acc += backward(tape, params, gx[:, None]).to_vector()
            return grad_acc

        vec, epoch, losses = adam_fit(template.to_vector(), len(train_set), config,
                                      batch_grad, val_loss)
        val = losses[epoch] if epoch >= 0 else np.inf
        if val < best[0]:
            best = (val, vec, lambda_pen)

    return template.from_vector(best[1]), best[2]


# ---------------------------------------------------------------------------
# Projection files (PCA and SharedP): JSON {"method", "n_train", "k", "P"}
# with P row-major. The direct model is stored as a model checkpoint.

PROJECTION_METHODS = ("pca", "sharedp")


def save_projection(path, proj: ProjectionMatrix, method: str) -> None:
    doc = {"method": method, "n_train": proj.n, "k": proj.k, "P": proj.P.ravel().tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, allow_nan=False))


PROJECTION = {"method": one_of(PROJECTION_METHODS), "n_train": integer(1), "k": integer(1),
              "P": array("n_train", "k")}


def load_projection(path) -> ProjectionMatrix:
    """The projection of a save_projection file, read by PROJECTION. A P that
    is not orthonormal raises ValueError."""
    doc = read_fields(read_json_object(path, "a projection file"), PROJECTION,
                      f"{path}: projection")
    return ProjectionMatrix(P=doc["P"])
