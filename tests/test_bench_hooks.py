"""The benchmark's tracer (bench/spans.py) wraps qproj functions by module
name. This checks that the names it hooks still exist and are still called
through on the training and evaluation paths, and that uninstall puts every
binding back."""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))

import spans  # noqa: E402

from qproj import evaluate, training  # noqa: E402
from qproj.core import QpInstance  # noqa: E402

EXPECTED_SPANS = {
    "training.validation", "training.envelope_grad", "gnn.forward", "gnn.backward",
    "solver.reduced", "solver.full", "evaluate.eval_pass", "evaluate.cache_entry",
    "baselines.rand_projection",
}


def _bindings():
    out = {(mod.__name__, name): value
           for mod in spans.MODULES for name, value in vars(mod).items()}
    for attr in ("key", "entry"):
        out[("SolutionCache", attr)] = vars(evaluate.SolutionCache)[attr]
    return out


def _instances(count, n=5, m=3):
    rng = np.random.default_rng(0)
    out = []
    for _ in range(count):
        B = rng.normal(size=(n, n))
        out.append(QpInstance(Q=B @ B.T + np.eye(n), c=rng.normal(size=n),
                              A=rng.normal(size=(m, n)), b=rng.uniform(0.5, 1.5, m)))
    return out


def test_tracer_records_every_hooked_span_and_uninstalls():
    before = _bindings()
    tracer = spans.Tracer("hooks").install()
    try:
        assert training.validation_loss is not before[("qproj.training", "validation_loss")]
        data = _instances(3)
        config = training.TrainConfig(k=2, batch_size=2, max_epochs=1, hidden=4,
                                      layers=1, head_hidden=4, record_timings=False)
        training.train(data[:2], data[2:], config)
        evaluate.evaluate_method(evaluate.FULL, data[2:], timing_repeats=0)
        evaluate.evaluate_method(evaluate.rand_method(2), data[2:], timing_repeats=0)
    finally:
        tracer.uninstall()
    recorded = {span["name"] for span in tracer.spans}
    assert EXPECTED_SPANS <= recorded, sorted(EXPECTED_SPANS - recorded)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
