"""Train the projection generator on a small constrained-regression family
and watch the lifted objective improve against random coordinate selection.

Each training step solves the reduced QP exactly and feeds the inner
primal/dual pair into the envelope-theorem gradient; nothing backpropagates
through the solver itself.

Run:  python demos/02_train_generator.py          (about a minute)
"""

import numpy as np

from qproj.datasets import gen_regression
from qproj.evaluate import SolutionCache, evaluate_method, ours_method, rand_method
from qproj.training import TrainConfig, train

N, M, T, K = 60, 12, 120, 8
train_set = [gen_regression(n=N, m=M, t=T, seed=s) for s in range(30)]
val_set = [gen_regression(n=N, m=M, t=T, seed=1000 + s) for s in range(10)]
test_set = [gen_regression(n=N, m=M, t=T, seed=2000 + s) for s in range(10)]

config = TrainConfig(k=K, batch_size=8, max_epochs=10, seed=0)
params, report = train(train_set, val_set, config)

print("epoch  mean inner objective   validation loss")
for i, (tr, vl) in enumerate(zip(report.train_loss, report.val_loss)):
    marker = "  <- kept" if i == report.best_epoch else ""
    print(f"{i:5d}  {tr:20.4f}   {vl:15.4f}{marker}")

cache = SolutionCache()
ours = evaluate_method(ours_method(params), test_set, cache=cache, timing_repeats=0)
rand = evaluate_method(rand_method(K, base_seed=0), test_set, cache=cache,
                       timing_repeats=0)
e_ours = np.mean([r.relative_error for r in ours])
e_rand = np.mean([r.relative_error for r in rand])
print(f"\ntest mean relative error: learned projections {e_ours:.4f} "
      f"vs random selection {e_rand:.4f}")
