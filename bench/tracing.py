"""In-process tracing of clclsa's layers, installed from the benchmark only.

`Tracer.install` replaces the public functions named in `TARGETS` on their
modules with wrappers that record one span per call: name, start and end
(ns), the index of the enclosing span, and a work figure (FLOPs for `affine`).
Model code looks these names up at call time, so calls made inside the
program are traced too. The wrappers only call through, so traced and
untraced runs do the same arithmetic. `remove` restores the originals.

Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter

from clclsa import data as dt
from clclsa import evaluation as ev
from clclsa import model as md
from clclsa import numerics as nm
from clclsa import train as tr


def _shape(x):
    return x.data.shape if isinstance(x, nm.Tensor) else nm.as_tensor(x).shape


def _affine_flops(x, w, b):
    n, k = _shape(x)
    return 2.0 * n * k * _shape(w)[1]


# Primitives as `model` reaches them. `add`, `batch_norm` and `custom_op` are
# called as `nm.<op>`; `scale` is wrapped on both modules because `neg` calls
# numerics' own `scale` while the model also calls it directly.
MODEL_OPS = ("affine", "mul", "sub", "scale", "sigmoid", "relu", "softmax_rows",
             "dropout", "concat_cols", "gather_rows", "scatter_rows", "pick_per_row",
             "sum_all", "mean_all", "log", "clamp_min", "mean_outer", "unit_sum")
NUMERICS_OPS = ("add", "batch_norm", "custom_op", "scale")
OPS = tuple(sorted(set(MODEL_OPS + NUMERICS_OPS)))

# (module, attribute, span name); every span name is "<layer>.<function>"
TARGETS = (
    [(tr, "train", "train.train"),
     (tr, "grid_search", "train.grid_search"),
     (tr, "gradients", "train.gradients"),
     (tr, "adam_step", "train.adam_step"),
     (md, "build_objective", "train.build_objective")]
    + [(md, f, "model." + f) for f in (
        "forward_view", "complete_missing", "cross_predict", "loss_classification",
        "loss_auxiliary", "loss_cross_omics", "loss_contrastive", "total_loss",
        "predict")]
    + [(md, op, "numerics." + op) for op in MODEL_OPS]
    + [(nm, op, "numerics." + op) for op in NUMERICS_OPS]
    + [(dt, f, "data." + f) for f in (
        "synth_generate", "minmax_scaled", "split", "apply_missingness",
        "write_dataset", "load_dataset_dir")]
    + [(ev, "compute_report", "evaluation.compute_report")]
)

# counted, not spanned: a span here would split its caller's self time
COUNTED = ((md, "loss_contrastive_pair", "model.loss_contrastive_pair"),)

WORK = {"numerics.affine": _affine_flops}


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self):
        self.spans = []      # [name, start_ns, end_ns, parent index, work]
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        work_of = WORK.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   work_of(*args, **kwargs) if work_of else 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _wrap_count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        for module, attr, name in TARGETS:
            self._patch(module, attr, self._wrap(getattr(module, attr), name))
        for module, attr, name in COUNTED:
            self._patch(module, attr, self._wrap_count(getattr(module, attr), name))

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def remove(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def span(self, name):
        """Context manager recording a span around benchmark code."""
        return _Span(self, name)

    def write(self, path):
        """One JSON object per line: name, start_ns, end_ns, parent, work."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "work": work}))
                fh.write("\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, 0, 0, t._stack[-1] if t._stack else -1, 0.0]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False


class SpanTable:
    """Derived views of recorded spans: durations, layer self times, scopes."""

    def __init__(self, spans):
        n = len(spans)
        self.names = [s[0] for s in spans]
        self.work = [s[4] for s in spans]
        self.parent = [s[3] for s in spans]
        self.dur = [(s[2] - s[1]) * 1e-9 for s in spans]
        layer = [name.split(".", 1)[0] for name in self.names]
        # self time within the layer: duration minus the nearest nested spans
        # of the same layer (a model function's primitives stay in its time)
        nested = [0.0] * n
        for i in range(n):
            j = self.parent[i]
            while j >= 0 and layer[j] != layer[i]:
                j = self.parent[j]
            if j >= 0:
                nested[j] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, nested)]

    def inside(self, scope):
        """Flags: span i is `scope` or lies under a span named `scope`."""
        flags = []
        for i, name in enumerate(self.names):
            p = self.parent[i]
            flags.append(name == scope or (p >= 0 and flags[p]))
        return flags

    def select(self, name, within=None):
        return [i for i, n in enumerate(self.names)
                if n == name and (within is None or within[i])]
