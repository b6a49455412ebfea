"""Evaluate the analytic pieces: the solution-norm bound, the Lipschitz
constants of the reduced optimum with respect to the projection entries, and
the generalization bound, then validate the norm bound empirically on
generated instances.

Run:  python demos/04_theory_bounds.py
"""

import numpy as np

from qproj.datasets import gen_regression
from qproj.gnn import init_params
from qproj.theory import (
    AssumptionConstants,
    gen_bound,
    lipschitz_consts,
    validate_norm_bound,
    y_max,
)

consts = AssumptionConstants(sigma_q=2.0, sigma_p=1.0, q0=1.0, c0=1.0, b=3.0,
                             n=4, k=2)
ym = y_max(consts)
c_prime, c_const = lipschitz_consts(consts)
print(f"Y_max      = {ym:.6f}")
print(f"C' (entry) = {c_prime:.4f}")
print(f"C  (max)   = {c_const:.4f}")

for d in (10, 100, 1000, 10000):
    val = gen_bound(epsilon=0.01, delta=0.05, d=d, b=consts.b,
                    log_n_cover=50.0, c=c_const)
    print(f"generalization bound at D={d:6d}: {val:10.4f}")

print("\nempirical norm-bound check (per-instance constants):")
instances = [gen_regression(n=40, m=8, t=80, seed=s) for s in range(20)]
params = init_params(0, h=8, l=2, k=4, h_g=8)
report = validate_norm_bound(instances, params)
margins = np.array([r.margin for r in report.rows])
print(f"instances checked: {len(report.rows)}, violations: {report.violations}")
print(f"margin (Y_max - |y*|_1): min {margins.min():.3f}, "
      f"median {np.median(margins):.3f}")

print("\nsensitivity: understating the objective bound b breaks the premise")
# zero cost and an active constraint away from the origin: the y* norm is
# controlled entirely by the b term of the bound
from qproj.core import QpInstance

pinned = QpInstance(Q=[[1.0]], c=[0.0], A=[[-1.0]], b=[-1.0])
tiny_net = init_params(0, h=4, l=1, k=1, h_g=4)
honest = validate_norm_bound([pinned], tiny_net)
# K = N = 1, so the reduced problem is pinned itself: sigma_q = 1, c0 = 0
row = honest.rows[0]
forced = y_max(AssumptionConstants(sigma_q=1.0, sigma_p=1.0, q0=1.0, c0=0.0, b=0.1,
                                   n=1, k=1)) - row.l1_norm
print(f"honest b:      margin {row.margin:+.4f} "
      f"({honest.violations} violations)")
print(f"b forced low:  margin {forced:+.4f} "
      f"({int(forced < 0)} violation)")
