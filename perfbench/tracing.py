"""Outside-in tracing of lamedit's public functions.

The tracer never edits the package.  ``Tracer.installed()`` replaces each
function named in ``LAYERS`` with a wrapper on its defining module and on every
other ``lamedit`` module that bound the same object (``from .solvers import
solve_memit`` in ``synthdata``, ``line_chart`` in ``experiment``), and restores
the originals on exit.

Each wrapped call records one span: id, name, start, end, parent span id and op
id.  Some functions also record a few observations taken from their arguments
(column counts, file sizes, an input digest for repeated-work ratios).  The
digests are computed after the call returns; the time spent on them is the
tracer's own cost, so it is kept apart as ``tax`` and subtracted from every
enclosing span, which keeps self times free of tracer work.  Spans stay in
memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import os
import statistics
import sys
import time
from typing import NamedTuple

import numpy as np

# The layers are the modules of src/lamedit; the functions are their public
# entry points that the CLI paths reach.
LAYERS = {
    "model": ("forward_batch", "predict_batch"),
    "covariance": ("const_stats", "request_keys"),
    "solvers": ("edit_model", "solve_memit", "solve_alphaedit", "nullspace_projector"),
    "merging": ("merge", "truncate_svd", "apply_update"),
    "metrics": ("evaluate_all", "run_mono"),
    "synthdata": ("build_benchmark", "generate_dataset", "fit_initial_model"),
    "container": ("save_dataset", "save_model", "load_dataset", "load_model"),
    "experiment": (
        "run_experiment",
        "sweep",
        "compute_delta_sets",
        "write_run_outputs",
        "write_sweep_outputs",
    ),
    "svgchart": ("line_chart",),
}

# Functions that only the benchmark set-up calls; their metrics come from the
# traced set-up, everything else from the traced ops.
SETUP_FUNCTIONS = (
    "synthdata.build_benchmark",
    "synthdata.generate_dataset",
    "synthdata.fit_initial_model",
    "container.save_dataset",
    "container.save_model",
)

SOLVE_FUNCTIONS = ("solvers.solve_memit", "solvers.solve_alphaedit")

MB = 1e6
KB = 1e3


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    tax: float  # tracer time spent inside [start, end]
    error: str | None
    extra: dict | None

    @property
    def duration(self):
        return self.end - self.start - self.tax


# --- observations taken from a call's arguments ---


def _digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.data)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _model_arrays(model):
    arrays = [model.codebook]
    for layer in model.layers:
        arrays += [layer.w_in, layer.w_out, layer.norm_scale, layer.norm_bias]
    return arrays + [model.edit_layers, model.activation, model.norm]


def _forward_batch(model, inputs):
    n = np.shape(inputs)[1]
    d, h, depth = model.d, model.h, model.n_layers
    return {
        "cols": n,
        "gflop": 4 * d * h * depth * n / 1e9,
        "trace_mb": ((depth + 1) * d + depth * h) * n * 8 / MB,
    }


def _const_stats(model, preserved_inputs, layer, **_):
    return {"key": _digest(*_model_arrays(model), np.asarray(preserved_inputs), layer)}


def _solve_memit(w_out, keys, targets, cov_preserved, cov_request, lam, cond_limit=None):
    return {"key": _digest(w_out, keys, targets, cov_preserved, cov_request, lam)}


def _solve_alphaedit(w_out, keys, targets, projector, cov_request, lam, cond_limit=None):
    return {"key": _digest(w_out, keys, targets, projector.projector, cov_request, lam)}


def _nullspace_projector(cov_preserved, rel_tol=None):
    return {"key": _digest(np.asarray(cov_preserved), rel_tol)}


def _truncate_svd(matrix, rank_ratio):
    # The SVD does not depend on the ratio, so repeated work is per matrix.
    return {"key": _digest(np.asarray(matrix))}


def _evaluate_all(model, dataset):
    return {"probe_cols": 4 * dataset.n_facts * dataset.m_languages}


def _file_mb(path, *_):
    return {"mb": os.path.getsize(path) / MB}


def _dir_kb(out_dir, names):
    return {"kb": sum(os.path.getsize(os.path.join(out_dir, n)) for n in names) / KB}


def _write_run_outputs(out_dir, *_):
    return _dir_kb(out_dir, ("metrics.csv", "metrics.json"))


def _write_sweep_outputs(out_dir, config, axis, *_):
    return _dir_kb(out_dir, tuple(f"sweep_{axis}.{ext}" for ext in ("csv", "json", "svg")))


OBSERVERS = {
    "model.forward_batch": _forward_batch,
    "covariance.const_stats": _const_stats,
    "solvers.solve_memit": _solve_memit,
    "solvers.solve_alphaedit": _solve_alphaedit,
    "solvers.nullspace_projector": _nullspace_projector,
    "merging.truncate_svd": _truncate_svd,
    "metrics.evaluate_all": _evaluate_all,
    "container.save_dataset": _file_mb,
    "container.save_model": _file_mb,
    "container.load_dataset": _file_mb,
    "container.load_model": _file_mb,
    "experiment.write_run_outputs": _write_run_outputs,
    "experiment.write_sweep_outputs": _write_sweep_outputs,
}


# --- per-layer metric names ---


def _function_names():
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


EXTRA_METRICS = (
    ("model.forward_batch.cols", "count", "lower"),
    ("model.forward_batch.gflop", "GFLOP", "lower"),
    ("model.forward_batch.trace_mb", "MB", "lower"),
    ("covariance.const_stats.unique_ratio", "ratio", "higher"),
    ("solvers.solve.unique_ratio", "ratio", "higher"),
    ("solvers.nullspace_projector.unique_ratio", "ratio", "higher"),
    ("solvers.solve.failed", "count", "lower"),
    ("merging.truncate_svd.unique_ratio", "ratio", "higher"),
    ("metrics.evaluate_all.probe_cols", "count", "lower"),
    ("container.save_dataset.mb", "MB", "lower"),
    ("container.save_model.mb", "MB", "lower"),
    ("container.load_dataset.mb", "MB", "lower"),
    ("container.load_model.mb", "MB", "lower"),
    ("experiment.write_run_outputs.kb", "kB", "lower"),
    ("experiment.write_sweep_outputs.kb", "kB", "lower"),
    ("tracing_overhead_s", "s", "lower"),
    ("tracing_coverage", "ratio", "higher"),
)


def per_layer_metrics():
    """``(name, unit, better)`` for every per-layer metric, in report order."""
    out = []
    for fn in _function_names():
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.s", "s", "lower"), (f"{fn}.self_s", "s", "lower")]
    return out + list(EXTRA_METRICS)


# --- aggregation ---


def _unique_ratio(spans):
    if not spans:
        return 1.0  # no calls, so no repeated work
    return len({s.extra["key"] for s in spans}) / len(spans)


def span_metrics(spans):
    """Per-function and extra metrics over one op's (or one set-up's) spans."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    by_fn = {fn: [] for fn in _function_names()}
    for s in spans:
        by_fn[s.name].append(s)
    out = {}
    for fn, calls in by_fn.items():
        out[f"{fn}.calls"] = len(calls)
        out[f"{fn}.s"] = sum(s.duration for s in calls)
        out[f"{fn}.self_s"] = sum(s.duration - child_time.get(s.id, 0.0) for s in calls)

    def total(fn, key):
        return sum(s.extra[key] for s in by_fn[fn] if s.extra)

    for key in ("cols", "gflop", "trace_mb"):
        out[f"model.forward_batch.{key}"] = total("model.forward_batch", key)
    solves = [s for fn in SOLVE_FUNCTIONS for s in by_fn[fn]]
    out["covariance.const_stats.unique_ratio"] = _unique_ratio(by_fn["covariance.const_stats"])
    out["solvers.solve.unique_ratio"] = _unique_ratio(solves)
    out["solvers.nullspace_projector.unique_ratio"] = _unique_ratio(by_fn["solvers.nullspace_projector"])
    out["solvers.solve.failed"] = sum(s.error == "IllConditionedError" for s in solves)
    out["merging.truncate_svd.unique_ratio"] = _unique_ratio(by_fn["merging.truncate_svd"])
    out["metrics.evaluate_all.probe_cols"] = total("metrics.evaluate_all", "probe_cols")
    for fn in ("save_dataset", "save_model", "load_dataset", "load_model"):
        out[f"container.{fn}.mb"] = total(f"container.{fn}", "mb")
    for fn in ("write_run_outputs", "write_sweep_outputs"):
        out[f"experiment.{fn}.kb"] = total(f"experiment.{fn}", "kb")
    return out


def top_level_seconds(spans):
    """Summed duration of the spans no other wrapped call encloses."""
    return sum(s.duration for s in spans if s.parent is None)


def layer_report(op_spans, setup_spans, overhead_s, coverage):
    """Per-layer metrics: medians over traced ops, set-up functions from the set-up."""
    per_op = [span_metrics(spans) for spans in op_spans]
    setup = span_metrics(setup_spans)
    setup_prefixes = tuple(fn + "." for fn in SETUP_FUNCTIONS)
    out = {}
    for name, _, _ in per_layer_metrics():
        if name == "tracing_overhead_s":
            out[name] = overhead_s
        elif name == "tracing_coverage":
            out[name] = coverage
        elif name.startswith(setup_prefixes):
            out[name] = setup[name]
        else:
            out[name] = statistics.median(m[name] for m in per_op)
    return out


# --- the tracer ---


class Tracer:
    """Records one span per call of every function in ``LAYERS``."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.root_tax = {}  # op id -> tracer time outside any span
        self._stack = []  # [span id, tax inside] per open span
        self._next_id = 0

    def begin_op(self, op):
        self.op = op
        self.root_tax[op] = 0.0

    def op_spans(self, op):
        return [s for s in self.spans if s.op == op]

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                extra = None
                if observe:
                    try:
                        extra = observe(*args, **kwargs)
                    except OSError:
                        pass  # the call failed before writing the file it measures
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, tracer.op, frame[1], error, extra)
                )
                tax = frame[1] + (time.perf_counter() - end)
                if tracer._stack:
                    tracer._stack[-1][1] += tax
                else:
                    tracer.root_tax[tracer.op] = tracer.root_tax.get(tracer.op, 0.0) + tax

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in ``LAYERS`` for the duration of the block."""
        targets = []
        for module_name, fn_names in LAYERS.items():
            module = importlib.import_module(f"lamedit.{module_name}")
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                targets.append((original, self._wrap(f"{module_name}.{fn_name}", original)))
        packages = [
            m for n, m in list(sys.modules.items()) if n == "lamedit" or n.startswith("lamedit.")
        ]
        patched = []
        try:
            for original, wrapper in targets:
                for module in packages:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)
