"""Compare all methods on one small family: learned instance-specific
projections, random coordinate selection, PCA of training optima, a single
shared learned projection, direct GNN solution prediction, and the exact
full solve.

Run:  python demos/03_method_comparison.py        (a few minutes)
"""

import numpy as np

from qproj.baselines import direct_train, pca_projection, sharedp_train
from qproj.datasets import gen_regression
from qproj.evaluate import (
    FULL,
    SolutionCache,
    direct_method,
    evaluate_method,
    fixed_method,
    ours_method,
    rand_method,
)
from qproj.training import TrainConfig, train

N, M, T, K = 50, 10, 100, 6
train_set = [gen_regression(n=N, m=M, t=T, seed=s) for s in range(24)]
val_set = [gen_regression(n=N, m=M, t=T, seed=1000 + s) for s in range(8)]
test_set = [gen_regression(n=N, m=M, t=T, seed=2000 + s) for s in range(8)]

cache = SolutionCache()
sols = np.array([e["x_star"] for e in cache.warm(train_set)])

config = TrainConfig(k=K, batch_size=8, max_epochs=8, seed=0)
ours_params, _ = train(train_set, val_set, config)
shared_cfg = TrainConfig(k=K, batch_size=8, max_epochs=25, learning_rate=2e-2,
                         seed=0)
shared = sharedp_train(train_set, val_set, shared_cfg)
direct_cfg = TrainConfig(k=1, batch_size=8, max_epochs=10, seed=0)
direct_params, _ = direct_train(train_set, val_set, direct_cfg)

methods = [
    ours_method(ours_params),
    rand_method(K, base_seed=0),
    fixed_method(pca_projection(sols, K).P, "pca"),
    fixed_method(shared.P, "sharedp"),
    direct_method(direct_params),
    FULL,
]

print(f"{'method':9s} {'mean err':>9s} {'feasible':>9s} {'median time':>12s}")
for method in methods:
    recs = evaluate_method(method, test_set, cache=cache, timing_repeats=3)
    err = np.mean([r.relative_error for r in recs])
    feas = np.mean([r.feasible for r in recs])
    t = np.median([r.total_time_s for r in recs])
    print(f"{method.name:9s} {err:9.4f} {feas:9.0%} {t:11.4f}s")

print(
    "\nNotes: a single projection shared across instances struggles on this"
    "\nfamily -- its dense columns are pinned by the nonnegativity rows, so"
    "\nthe reduced optimum sits at zero (relative error 1). Direct prediction"
    "\nat this tiny training budget rarely lands inside the feasible set;"
    "\ninfeasible predictions score exactly 1 and are never repaired."
)
