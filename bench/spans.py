"""Span tracing of qproj's public functions, from outside the package.

`Tracer.install` rebinds, in every qproj module, each name that resolves to
a traced function, so calls from inside the package (evaluate's use of
`solve_qp`, cli's call-time imports of `evaluate_method`, ...) go through a
wrapper that records a span: name, start, end, parent span and run id.
Spans stay in memory; `write` dumps them as JSON lines when the run ends,
and `layer_metrics` turns them into per-module self times and counts.
`paused` suspends recording for a block; `uninstall` restores every
binding.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import time
import weakref
from collections import Counter, defaultdict

import qproj
from qproj import baselines, cli, core, datasets, evaluate, gnn, solver, training

MODULES = (qproj, core, solver, gnn, training, baselines, datasets, evaluate, cli)

class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # dicts: name, start, end, parent, run, attrs
        self._stack = []
        self._undo = []
        self._reduced = weakref.WeakSet()           # instances made by project()
        self._tokens = weakref.WeakKeyDictionary()  # live object -> unique number
        self._next_token = itertools.count()
        self._paused = False

    # -- recording -------------------------------------------------------
    def _wrap(self, fn, name, attrs=None):
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = {"name": name(args) if callable(name) else name,
                    "start": 0.0, "end": 0.0,
                    "parent": self._stack[-1] if self._stack else None,
                    "run": self.run_id, "attrs": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, out)
            return out
        return traced

    def _rebind(self, fn, name, attrs=None):
        """Replace every module-level name bound to fn."""
        wrapper = self._wrap(fn, name, attrs)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _rebind_method(self, cls, attr, name, attrs=None):
        fn = vars(cls)[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(fn, name, attrs))

    def _token(self, obj) -> int:
        if obj not in self._tokens:
            self._tokens[obj] = next(self._next_token)
        return self._tokens[obj]

    # -- attributes read from calls ---------------------------------------
    def _mark_reduced(self, args, out):
        self._reduced.add(out)
        return {}

    def _solve_name(self, args):
        return "solver.reduced" if args[0] in self._reduced else "solver.full"

    @staticmethod
    def _solve_attrs(args, res):
        return {"iters": res.iterations, "status": res.status.value}

    @staticmethod
    def _saved_attrs(args, out):
        return {"bytes": os.path.getsize(args[1])}

    def _lookup_attrs(self, args, out):
        cache, inst = args[0], args[1]
        return {"lookup": f"{self._token(cache)}:{self._token(inst)}"}

    # -- install / uninstall ------------------------------------------------
    def install(self) -> "Tracer":
        self._rebind(gnn.forward, "gnn.forward")
        self._rebind(gnn.backward, "gnn.backward")
        self._rebind(gnn.save_checkpoint, "gnn.checkpoint_io")
        self._rebind(gnn.load_checkpoint, "gnn.checkpoint_io")
        self._rebind(core.project, "core.project", self._mark_reduced)
        self._rebind(core.save_instance, "core.save_instance", self._saved_attrs)
        self._rebind(core.load_instance, "core.load_instance")
        self._rebind(solver.solve_qp, self._solve_name, self._solve_attrs)
        self._rebind(training.envelope_grad, "training.envelope_grad")
        self._rebind(training.validation_loss, "training.validation")
        self._rebind(evaluate.evaluate_method, "evaluate.eval_pass")
        self._rebind_method(evaluate.SolutionCache, "key", "evaluate.cache_key")
        self._rebind_method(evaluate.SolutionCache, "entry", "evaluate.cache_entry",
                            self._lookup_attrs)
        self._rebind(datasets.generate_instance, "datasets.generate")
        self._rebind(baselines.rand_projection, "baselines.rand_projection")
        self._rebind(cli.cmd_gen_data, "cli.gen_data")
        self._rebind(cli.cmd_train, "cli.train")
        self._rebind(cli.cmd_eval, "cli.eval")
        return self

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output ---------------------------------------------------------------
    def write(self, path, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans, inner_failures: int) -> dict:
    """Per-layer metrics: self time (span time not covered by child spans)
    summed per span name, and counts."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    self_s = defaultdict(float)
    calls = Counter()
    iters = Counter()
    unsolved = Counter()
    saved_bytes = 0
    lookups = set()
    for i, span in enumerate(spans):
        name, attrs = span["name"], span["attrs"]
        self_s[name] += span["end"] - span["start"] - child_time[i]
        calls[name] += 1
        iters[name] += attrs.get("iters", 0)
        unsolved[name] += attrs.get("status", "Solved") != "Solved"
        saved_bytes += attrs.get("bytes", 0)
        if "lookup" in attrs:
            lookups.add(attrs["lookup"])

    out = {}
    for kind in ("reduced", "full"):
        name = "solver." + kind
        out[f"{name}_s"] = self_s[name]
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_iters"] = iters[name]
        out[f"{name}_unsolved"] = unsolved[name]
        out[f"{name}_us_per_iter"] = 1e6 * self_s[name] / iters[name] if iters[name] else 0.0
    out.update({
        "gnn.forward_s": self_s["gnn.forward"],
        "gnn.forward_calls": calls["gnn.forward"],
        "gnn.backward_s": self_s["gnn.backward"],
        "gnn.backward_calls": calls["gnn.backward"],
        "gnn.checkpoint_io_s": self_s["gnn.checkpoint_io"],
        "core.project_s": self_s["core.project"],
        "core.project_calls": calls["core.project"],
        "core.save_instance_s": self_s["core.save_instance"],
        "core.saved_mb": saved_bytes / 1e6,
        "core.load_instance_s": self_s["core.load_instance"],
        "core.load_instance_calls": calls["core.load_instance"],
        "training.envelope_grad_s": self_s["training.envelope_grad"],
        "training.validation_s": self_s["training.validation"],
        "training.inner_failures": inner_failures,
        "evaluate.cache_key_s": self_s["evaluate.cache_key"],
        "evaluate.cache_key_calls": calls["evaluate.cache_key"],
        "evaluate.cache_lookups": len(lookups),
        "evaluate.eval_pass_s": self_s["evaluate.eval_pass"],
        "datasets.generate_s": self_s["datasets.generate"],
        "datasets.instances": calls["datasets.generate"],
        "baselines.rand_projection_s": self_s["baselines.rand_projection"],
        "cli.gen_data_s": self_s["cli.gen_data"],
        "cli.train_s": self_s["cli.train"],
        "cli.eval_s": self_s["cli.eval"],
    })
    return out
