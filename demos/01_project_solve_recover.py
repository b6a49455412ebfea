"""Walk through the core mechanics on a single QP: solve it exactly, restrict
it to a random low-dimensional subspace, solve the small problem, and lift
the solution back. The lifted point is always feasible; its quality depends
entirely on how well the subspace is chosen -- which is the whole point of
learning the projection.

Run:  python demos/01_project_solve_recover.py
"""

import numpy as np

from qproj import (
    max_violation,
    objective,
    project,
    recover,
    relative_error,
    solve_qp,
)
from qproj.baselines import rand_projection
from qproj.datasets import gen_regression

inst = gen_regression(n=80, m=15, t=160, seed=7)
print(f"instance: {inst.n_vars} variables, {inst.n_cons} inequality rows")

full = solve_qp(inst)
print(f"full solve: status={full.status.value}, objective u* = {full.objective:.4f}, "
      f"{full.iterations} proximal rounds")

# note: these instances carry x >= 0 rows, so a dense gaussian subspace is
# pinned at the origin -- random *coordinate selection* is the meaningful
# unlearned baseline here
for k in (5, 20, 40):
    proj = rand_projection(inst.n_vars, k, seed=0)
    reduced = project(inst, proj)
    res = solve_qp(reduced)
    x = recover(proj, res.y_star)
    err = relative_error(objective(inst, x), full.objective)
    print(f"K={k:3d}: reduced solve {res.status.value:8s} "
          f"objective={objective(inst, x):9.4f} relative error={err:.4f} "
          f"violation={max_violation(inst, x):.2e}")

print("\nAny feasible reduced point lifts to a feasible point of the original"
      "\nproblem; a random subspace just tends to lift to a mediocre one.")
