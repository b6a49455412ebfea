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

import time
from dataclasses import dataclass, field

import numpy as np

from .core import QpInstance, ProjectionMatrix, is_feasible, project, recover
from .evaluate import SolutionCache, guarded_relative_error
from .gnn import ModelParams, backward, forward, init_params
from .solver import SolveResult, SolveStatus, SolverSettings, solve_qp


@dataclass
class TrainConfig:
    k: int
    batch_size: int = 8
    learning_rate: float = 1e-3
    max_epochs: int = 500
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    validation_penalty: float = 1e6
    # skip policy: failed inner solves contribute zero gradient and a
    # failure count; set False to raise instead
    skip_failed: bool = True
    hidden: int = 32
    layers: int = 4
    head_hidden: int = 32
    solver: SolverSettings = field(default_factory=SolverSettings)
    feas_tol: float | None = None    # None: core.feasibility_tol per instance
    record_timings: bool = True
    cache_dir: str | None = None     # disk cache for validation optima

    def __post_init__(self):
        if min(self.k, self.batch_size, self.max_epochs, self.hidden,
               self.layers, self.head_hidden) < 1:
            raise ValueError("k, batch_size, max_epochs and widths must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)     # mean inner optimum per epoch
    val_loss: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    best_epoch: int = -1
    infeasible_recoveries: int = 0   # solved inner problems whose lifted point violated

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_loss,val_loss,failures,seconds\n")
            for i in range(len(self.train_loss)):
                fh.write(
                    f"{i},{self.train_loss[i]!r},{self.val_loss[i]!r},"
                    f"{self.failures[i]},{self.seconds[i]!r}\n"
                )


class Adam:
    """Plain Adam on a flat parameter vector."""

    def __init__(self, size, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
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


def surrogate_loss(inst: QpInstance, P, y_star, lambda_star) -> float:
    """<envelope_grad (held constant), P>; its P-gradient is the envelope
    gradient, so backpropagating this scalar realizes the chain rule."""
    Pm = P.P if isinstance(P, ProjectionMatrix) else np.asarray(P, dtype=np.float64)
    return float(np.sum(envelope_grad(inst, Pm, y_star, lambda_star) * Pm))


def solve_projected(inst: QpInstance, proj: ProjectionMatrix,
                    settings: SolverSettings) -> SolveResult:
    return solve_qp(project(inst, proj), settings)


def penalized_total(errors, n_failures: int, n_instances: int,
                    penalty: float) -> float:
    """Sum of per-instance relative errors (failures already scored 1)
    plus failure_rate * penalty."""
    return float(sum(errors)) + (n_failures / n_instances) * penalty


def validation_loss(params: ModelParams, val_set, config: TrainConfig,
                    u_stars=None) -> float:
    """Sum of relative errors over validation instances plus
    failure_rate * penalty. Failures (inner solve not Solved, or infeasible
    lifted point) count a relative error of one."""
    if u_stars is None:
        u_stars = [solve_qp(inst, config.solver).objective for inst in val_set]
    errors = []
    failures = 0
    for inst, u_star in zip(val_set, u_stars):
        proj, _ = forward(params, inst, config.k)
        res = solve_projected(inst, proj, config.solver)
        if res.status is not SolveStatus.SOLVED:
            failures += 1
            errors.append(1.0)
            continue
        x = recover(proj, res.y_star)
        if not is_feasible(inst, x, config.feas_tol):
            failures += 1
            errors.append(1.0)
            continue
        errors.append(guarded_relative_error(res.objective, u_star))
    return penalized_total(errors, failures, len(val_set),
                           config.validation_penalty)


def train(train_set, val_set, config: TrainConfig):
    """Algorithm: per epoch, shuffle; per instance, forward -> project ->
    solve -> envelope gradient -> taped backward; Adam on the batch-averaged
    gradient; keep the parameters from the best validation epoch."""
    if not train_set or not val_set:
        raise ValueError("train and validation sets must be non-empty")
    if config.batch_size > len(train_set):
        raise ValueError("batch_size exceeds dataset size")

    rng = np.random.Generator(np.random.Philox(config.seed))
    params = init_params(config.seed, h=config.hidden, l=config.layers,
                         k=config.k, h_g=config.head_hidden)
    opt = Adam(params.n_params, config.learning_rate,
               config.beta1, config.beta2, config.adam_eps)
    vec = params.to_vector()

    cache = SolutionCache(cache_dir=config.cache_dir, settings=config.solver)
    u_stars_val = [cache.u_star(inst) for inst in val_set]

    report = TrainReport()
    best_val = np.inf
    best_vec = vec.copy()

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_set))
        epoch_u = 0.0
        epoch_solved = 0
        epoch_failures = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grad_acc = np.zeros_like(vec)
            params = params.from_vector(vec)
            for idx in batch:
                inst = train_set[int(idx)]
                proj, tape = forward(params, inst, config.k)
                res = solve_projected(inst, proj, config.solver)
                if res.status is not SolveStatus.SOLVED:
                    if not config.skip_failed:
                        raise RuntimeError(
                            f"inner solve failed with {res.status.value} "
                            f"and skip_failed is off"
                        )
                    epoch_failures += 1
                    continue
                if not is_feasible(inst, recover(proj, res.y_star), config.feas_tol):
                    report.infeasible_recoveries += 1
                g_env = envelope_grad(inst, proj.P, res.y_star, res.lambda_star)
                grad_acc += backward(tape, params, g_env).to_vector()
                epoch_u += res.objective
                epoch_solved += 1
            vec = opt.step(vec, grad_acc / len(batch))

        params = params.from_vector(vec)
        val = validation_loss(params, val_set, config, u_stars=u_stars_val)
        report.train_loss.append(epoch_u / max(epoch_solved, 1))
        report.val_loss.append(val)
        report.failures.append(epoch_failures)
        report.seconds.append(time.perf_counter() - t0 if config.record_timings else 0.0)
        if val < best_val:
            best_val = val
            best_vec = vec.copy()
            report.best_epoch = epoch

    return params.from_vector(best_vec), report
