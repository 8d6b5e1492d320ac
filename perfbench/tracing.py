"""Span tracing of noclab's public functions, installed from outside `src/`.

`Tracer.install` replaces every public function of the traced modules
with a wrapper that records a span: name, start, end, parent span and
run id. Inside noclab every caller looks these functions up through
the module (`dp.horn_schunck`, `ad.conv2d`, ...) or through the
module's globals, so the wrappers see every call without an edit to
the program. Spans stay in memory until `write_spans`.

`layer_metrics` turns one run's spans into the per-layer metrics of
BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("datapipe", "harness", "optim", "autodiff", "nets", "evaluate")


def _train_epoch_steps(bound):
    """Minibatch steps one `optim.train_epoch` call runs."""
    steps = bound.arguments["num_steps"]
    return bound.arguments["hyper"].iterations if steps is None else steps


def _svm_updates(bound):
    """Subgradient updates of one `evaluate.svm_train` call:
    classes x epochs x training samples."""
    import numpy as np  # here, not at the top: run.py imports this module without numpy

    args = bound.arguments
    classes = len(np.unique(np.asarray(args["labels"])))
    return classes * int(args["epochs"]) * len(args["features"])


# Work counts read from a call's arguments at the layer boundary.
WORK = {
    "optim.train_epoch": _train_epoch_steps,
    "evaluate.svm_train": _svm_updates,
}


class Tracer:
    """Records spans of the traced modules' public functions.

    A span is [run_id, span_id, parent_id, name, start, end, work];
    span ids index `self.spans`, so a parent always precedes its children.
    """

    def __init__(self, package):
        self.spans = []
        self.run_id = None
        self._stack = []
        self._saved = []
        self._package = package

    def install(self, run_id):
        self.run_id = run_id
        for short in TRACED_MODULES:
            module = getattr(self._package, short)
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{short}.{name}", fn))

    def uninstall(self):
        for module, name, fn in self._saved:
            setattr(module, name, fn)
        self._saved.clear()
        self._stack.clear()
        self.run_id = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work_of = WORK.get(name)
        signature = inspect.signature(fn) if work_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = None
            if work_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work = work_of(bound)
            span = [self.run_id, len(spans), stack[-1] if stack else None,
                    name, perf_counter(), None, work]
            spans.append(span)
            stack.append(span[1])
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()

        return traced

    def write_spans(self, path, origin):
        """Write every span as one JSON line, times in seconds from `origin`."""
        with open(path, "w") as fh:
            for run_id, sid, parent, name, start, end, work in self.spans:
                fh.write(json.dumps({
                    "run": run_id, "id": sid, "parent": parent, "name": name,
                    "start": start - origin, "end": end - origin, "work": work,
                }) + "\n")


class Profile:
    """Per-name totals of one run's spans; self time is a span's duration
    minus the time its child spans cover."""

    def __init__(self, spans, run_id):
        mine = [s for s in spans if s[0] == run_id]
        child_time = defaultdict(float)
        for _, _, parent, _, start, end, _ in mine:
            if parent is not None:
                child_time[parent] += end - start
        self.total = defaultdict(float)
        self.self = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        for _, sid, _, name, start, end, work in mine:
            self.total[name] += end - start
            self.self[name] += end - start - child_time[sid]
            self.calls[name] += 1
            self.work[name] += work or 0
        self.span_count = len(mine)


AUTODIFF_OPS = ("conv2d", "maxpool2d", "matmul", "add", "relu",
                "softmax_cross_entropy", "backward")

# Per-layer metrics and their units; BENCHMARK.json lists the same.
LAYER_UNITS = {
    "datapipe.gen_s": "s",
    "datapipe.flow_s": "s",
    "datapipe.flow_calls": "count",
    "datapipe.blur_s": "s",
    "datapipe.blur_calls": "count",
    "harness.features_s": "s",
    "harness.self_s": "s",
    "optim.train_s": "s",
    "optim.steps": "count",
    "optim.step_ms": "ms",
    "optim.average_params_s": "s",
    **{f"autodiff.{op}_{kind}": unit for op in AUTODIFF_OPS
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "nets.forward_s": "s",
    "nets.forward_calls": "count",
    "nets.save_model_s": "s",
    "evaluate.svm_train_s": "s",
    "evaluate.svm_train_calls": "count",
    "evaluate.svm_updates": "count",
    "evaluate.svm_predict_s": "s",
    "evaluate.pca_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Metrics that count work; they must repeat exactly across traced runs.
COUNTS = tuple(n for n, unit in LAYER_UNITS.items() if unit == "count")


def layer_metrics(spans, run_id):
    """Per-layer metrics of one traced run, except trace.overhead_s,
    which needs the untraced runs."""
    p = Profile(spans, run_id)
    train_s = p.total["optim.train_epoch"]
    steps = p.work["optim.train_epoch"]
    m = {
        "datapipe.gen_s": p.self["datapipe.gen_synthetic_dataset"],
        "datapipe.flow_s": p.total["datapipe.horn_schunck"],
        "datapipe.flow_calls": p.calls["datapipe.horn_schunck"],
        "datapipe.blur_s": p.total["datapipe.synth_blur"],
        "datapipe.blur_calls": p.calls["datapipe.synth_blur"],
        "harness.features_s": p.total["harness.extract_features"],
        "harness.self_s": sum(t for n, t in p.self.items() if n.startswith("harness.")),
        "optim.train_s": train_s,
        "optim.steps": steps,
        "optim.step_ms": 1000.0 * train_s / steps if steps else 0.0,
        "optim.average_params_s": p.total["optim.average_params"],
        "nets.forward_s": p.total["nets.forward"],
        "nets.forward_calls": p.calls["nets.forward"],
        "nets.save_model_s": p.total["nets.save_model"],
        "evaluate.svm_train_s": p.total["evaluate.svm_train"],
        "evaluate.svm_train_calls": p.calls["evaluate.svm_train"],
        "evaluate.svm_updates": p.work["evaluate.svm_train"],
        "evaluate.svm_predict_s": p.total["evaluate.svm_predict"],
        "evaluate.pca_s": p.total["evaluate.pca_project"],
        "trace.spans": p.span_count,
    }
    for op in AUTODIFF_OPS:
        m[f"autodiff.{op}_s"] = p.total[f"autodiff.{op}"]
        m[f"autodiff.{op}_calls"] = p.calls[f"autodiff.{op}"]
    return m
