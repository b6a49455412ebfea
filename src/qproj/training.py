"""Bilevel training of the projection generator.

Outer loop: minibatch Adam on the model parameters. Inner loop: each
instance's reduced QP is solved exactly; the gradient of the inner optimum
with respect to the projection follows from the envelope theorem,

    d u / d P = Q P y* y*' + c y*' + A' lambda* y*',

so no differentiation through the solver is ever needed. The scalar
surrogate <envelope_grad (frozen), P> has exactly this gradient in P, and
chaining through the network's taped backward realizes the full parameter
gradient.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import QpInstance, ProjectionMatrix, project
from .evaluate import SolutionCache, evaluate_method, ours_method
from .gnn import backward, forward, init_params
from .solver import SolveStatus, SolverSettings, solve_qp


VALIDATION_PENALTY = 1e6     # added to a validation loss per unit failure rate


@dataclass
class TrainConfig:
    k: int
    batch_size: int = 8
    learning_rate: float = 1e-3
    max_epochs: int = 500
    seed: int = 0
    hidden: int = 32
    layers: int = 4
    head_hidden: int = 32
    solver: SolverSettings = field(default_factory=SolverSettings)
    record_timings: bool = True

    def __post_init__(self):
        if min(self.k, self.batch_size, self.max_epochs, self.hidden,
               self.layers, self.head_hidden) < 1:
            raise ValueError("k, batch_size, max_epochs and widths must be positive")
        # a NaN fails every comparison, so test for the good case
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)     # mean inner optimum per epoch
    val_loss: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    best_epoch: int = -1

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_loss,val_loss,failures,seconds\n")
            for i in range(len(self.train_loss)):
                fh.write(
                    f"{i},{self.train_loss[i]!r},{self.val_loss[i]!r},"
                    f"{self.failures[i]},{self.seconds[i]!r}\n"
                )


class Adam:
    """Plain Adam on a flat parameter vector, with the usual constants."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size, lr):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, vec, grad):
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        mhat = self.m / (1 - self.beta1 ** self.t)
        vhat = self.v / (1 - self.beta2 ** self.t)
        return vec - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def envelope_grad(inst: QpInstance, P, y_star, lambda_star) -> np.ndarray:
    """Gradient of the reduced-problem optimum with respect to the projection,
    evaluated at the inner primal/dual solution. Inputs must come from a
    Solved result on the projected instance."""
    P = P.P if isinstance(P, ProjectionMatrix) else np.asarray(P, dtype=np.float64)
    y = np.asarray(y_star, dtype=np.float64).ravel()
    lam = np.asarray(lambda_star, dtype=np.float64).ravel()
    n, k = P.shape
    if n != inst.n_vars or y.shape[0] != k or lam.shape[0] != inst.n_cons:
        raise ValueError("dimension mismatch between instance, P, y*, lambda*")
    g = np.outer(inst.Q @ (P @ y) + inst.c, y)
    if inst.n_cons:
        g += np.outer(inst.A.T @ lam, y)
    return g


def validation_loss(method, val_set, cache: SolutionCache) -> float:
    """The relative errors of evaluate_method(method, val_set), summed in
    record order, plus failure_rate * VALIDATION_PENALTY: the sum that eval
    reports on the validation split, with each failure (a reduced solve that
    is not Solved, or an infeasible point) scored 1 and penalized. The
    references come from cache."""
    records = evaluate_method(method, val_set, cache=cache, timing_repeats=0)
    failures = sum(not rec.feasible for rec in records)
    return (float(sum(rec.relative_error for rec in records))
            + (failures / len(records)) * VALIDATION_PENALTY)


def adam_fit(vec, n_items: int, config: TrainConfig, batch_grad, val_loss,
             post_step=None):
    """The outer loop of every learned method. Per epoch, one seeded
    permutation of the n_items training instances; per minibatch, an Adam
    step on batch_grad(vec, batch) / len(batch), where batch_grad sums the
    instances' gradients, then vec = post_step(vec) if given; after the
    epoch, val_loss(vec). Returns the vector of the first epoch with the
    lowest validation loss, that epoch, and the loss of each epoch."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    opt = Adam(vec.size, config.learning_rate)
    best_val, best_vec, best_epoch, losses = np.inf, vec.copy(), -1, []
    for epoch in range(config.max_epochs):
        order = rng.permutation(n_items)
        for start in range(0, n_items, config.batch_size):
            batch = order[start : start + config.batch_size]
            vec = opt.step(vec, batch_grad(vec, batch) / len(batch))
            if post_step is not None:
                vec = post_step(vec)
        losses.append(val_loss(vec))
        if losses[-1] < best_val:
            best_val, best_vec, best_epoch = losses[-1], vec.copy(), epoch
    return best_vec, best_epoch, losses


def train(train_set, val_set, config: TrainConfig):
    """Algorithm: per epoch, shuffle; per instance, forward -> project ->
    solve -> envelope gradient -> taped backward; Adam on the batch-averaged
    gradient; keep the parameters from the best validation epoch. Failed
    inner solves contribute zero gradient and count as failures."""
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    if config.batch_size > len(train_set):
        raise ValueError("batch_size exceeds dataset size")

    template = init_params(config.seed, h=config.hidden, l=config.layers,
                           k=config.k, h_g=config.head_hidden)
    cache = SolutionCache(settings=config.solver)
    cache.warm(val_set)
    report = TrainReport()
    tally = {"u": 0.0, "solved": 0, "failures": 0, "t0": time.perf_counter()}

    def batch_grad(vec, batch):
        params = template.from_vector(vec)
        grad_acc = np.zeros_like(vec)
        for idx in batch:
            inst = train_set[int(idx)]
            proj, tape = forward(params, inst, config.k)
            res = solve_qp(project(inst, proj), config.solver)
            if res.status is not SolveStatus.SOLVED:
                tally["failures"] += 1
                continue
            g_env = envelope_grad(inst, proj.P, res.y_star, res.lambda_star)
            grad_acc += backward(tape, params, g_env).to_vector()
            tally["u"] += res.objective
            tally["solved"] += 1
        return grad_acc

    def end_epoch(vec):
        val = validation_loss(ours_method(template.from_vector(vec)), val_set, cache)
        report.train_loss.append(tally["u"] / max(tally["solved"], 1))
        report.failures.append(tally["failures"])
        now = time.perf_counter()
        report.seconds.append(now - tally["t0"] if config.record_timings else 0.0)
        tally.update(u=0.0, solved=0, failures=0, t0=now)
        return val

    best_vec, report.best_epoch, report.val_loss = adam_fit(
        template.to_vector(), len(train_set), config, batch_grad, end_epoch)
    return template.from_vector(best_vec), report
