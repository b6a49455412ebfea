"""Executable theory: solution-norm bound, Lipschitz constants of the
reduced optimum with respect to the projection, the generalization-bound
evaluation, and empirical validation of the norm bound's premise.

Covering numbers are inputs, not computed here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import project
from .evaluate import SolutionCache
from .gnn import ModelParams, forward
from .solver import SolveStatus, SolverSettings, solve_qp


@dataclass(frozen=True)
class AssumptionConstants:
    """Premise constants: strong convexity sigma_q, projection singular-value
    floor sigma_p, l1 bounds q0/c0 on the Hessian and cost, objective bound
    b, and the dimensions the constants refer to."""

    sigma_q: float
    sigma_p: float
    q0: float
    c0: float
    b: float
    n: int
    k: int

    def __post_init__(self):
        # a NaN fails every comparison, so test for the good case
        if not all(math.isfinite(x) and x > 0 for x in (self.sigma_q, self.sigma_p)):
            raise ValueError("sigma_q and sigma_p must be finite and positive")
        if not all(math.isfinite(x) and x >= 0 for x in (self.q0, self.c0, self.b)):
            raise ValueError("q0, c0, b must be finite and nonnegative")
        # the formulas take square roots of n and n k as floats
        if not (1 <= self.k <= self.n and self.n * self.k <= sys.float_info.max):
            raise ValueError("need 1 <= k <= n, with n k in the float range")


def y_max(consts: AssumptionConstants) -> float:
    """l1 bound on any optimizer of a strongly convex objective whose value
    is bounded by b: sqrt(n) (c0 + sqrt(c0^2 + 2 sigma_q b)) / sigma_q."""
    c0, sq, b = consts.c0, consts.sigma_q, consts.b
    return math.sqrt(consts.n) * (c0 + math.sqrt(c0 * c0 + 2.0 * sq * b)) / sq


def lipschitz_consts(consts: AssumptionConstants) -> tuple[float, float]:
    """(C', C): entrywise constant C' = q0 * NK * Y^2 + c0 * Y and the
    max-norm constant C = sqrt(NK) * C'."""
    ym = y_max(consts)
    mu_p = consts.n * consts.k
    c_prime = consts.q0 * mu_p * ym * ym + consts.c0 * ym
    return c_prime, math.sqrt(mu_p) * c_prime


def gen_bound(epsilon: float, delta: float, d: int, b: float,
              log_n_cover: float, c: float) -> float:
    """Uniform-convergence bound C eps + sqrt(8 b^2 logN / d)
    + sqrt(2 b^2 log(2/delta) / d). The log covering number is supplied by
    the caller."""
    # a NaN fails every comparison, so test for the good case
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be finite and positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not d >= 1:
        raise ValueError("d must be at least 1")
    if not all(math.isfinite(x) and x >= 0 for x in (b, log_n_cover, c)):
        raise ValueError("b, log_n_cover, c must be finite and nonnegative")
    return (c * epsilon
            + math.sqrt(8.0 * b * b * log_n_cover / d)
            + math.sqrt(2.0 * b * b * math.log(2.0 / delta) / d))


@dataclass
class NormBoundRow:
    instance_id: str
    l1_norm: float
    y_max: float
    margin: float           # y_max - ||y*||_1; negative means violated
    violated: bool


@dataclass
class NormBoundReport:
    rows: list
    skipped: int            # instances whose reduced solve did not succeed

    @property
    def violations(self) -> int:
        return sum(r.violated for r in self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("instance,l1_norm,y_max,margin\n")
            for r in self.rows:
                fh.write(f"{r.instance_id},{r.l1_norm!r},{r.y_max!r},{r.margin!r}\n")


def validate_norm_bound(instances, params: ModelParams,
                        settings: SolverSettings | None = None,
                        b_override: float | None = None) -> NormBoundReport:
    """Check ||y*||_1 <= Y_max on solved reduced problems, instantiating the
    premise constants empirically per instance: sigma_q as the smallest
    eigenvalue of the reduced Hessian, c0 as ||P'c||_1, and b as |u*| of the
    Solved full solve (SolutionCache.u_star raises for any other status; the
    reduced optimum lies in [u*, 0] because 0 is feasible). b_override forces
    a smaller b to demonstrate the bound's sensitivity."""
    settings = settings or SolverSettings()
    cache = SolutionCache(settings=settings)
    rows = []
    skipped = 0
    for index, inst in enumerate(instances):
        inst_id = inst.meta.get("id", f"instance-{index:04d}")
        proj, _ = forward(params, inst, params.k)
        reduced = project(inst, proj)
        res = solve_qp(reduced, settings)
        if res.status is not SolveStatus.SOLVED:
            skipped += 1
            continue
        sigma_q = float(reduced.eigenvalues[0])
        if sigma_q <= 0:
            skipped += 1
            continue
        c0 = float(np.abs(reduced.c).sum())
        if b_override is not None:
            b = float(b_override)
        else:
            b = abs(cache.u_star(inst))
        ym = y_max(AssumptionConstants(sigma_q=sigma_q, sigma_p=1.0, q0=1.0,
                                       c0=c0, b=b, n=inst.n_vars, k=params.k))
        l1 = float(np.abs(res.y_star).sum())
        rows.append(NormBoundRow(instance_id=inst_id, l1_norm=l1, y_max=ym,
                                 margin=ym - l1, violated=l1 > ym))
    return NormBoundReport(rows=rows, skipped=skipped)
