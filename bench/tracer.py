"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``aphomog`` layer module,
rebinding every module-level name that refers to them, so calls made
through ``from .operators import solve`` are traced too.  Spans stay in
memory; each records its name, layer, start and end (``perf_counter``),
the span that caused it and a few attributes.  Work submitted to a
``ThreadPoolExecutor`` inherits the submitting span as its parent, so
pool workers' spans nest under the call that started them.

A span's self time is its duration minus the union of its children's
intervals; children running in parallel threads overlap, and the union
counts the covered wall time once.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("cli", "fields", "grids", "operators", "correctors", "metrics", "experiments")

# The CLI layer is traced at its entry point only, so that validation,
# canonical JSON, artifact hashing and the atomic write count as its self
# time (and ``dumps_canonical``, which recurses per element, stays unwrapped).
ONLY = {"cli": ("run_manifest",)}

# Public methods traced under the layer of their class; the span takes the
# method name, so ``CoefficientField.evaluate`` is ``fields.evaluate``.
METHODS = (
    ("fields", "CoefficientField", "evaluate"),
    ("grids", "GridFunction", "interpolate"),
    ("metrics", "DecayReport", "fit"),
)


def _points(args, kwargs, result):
    # CoefficientField.evaluate(self, points) and fields.evaluate(field, point)
    pts = args[1] if len(args) > 1 else kwargs.get("points", kwargs.get("point"))
    shape = getattr(pts, "shape", None)
    if shape is None:
        return {"points": 1}
    return {"points": 1 if len(shape) == 1 else int(shape[0])}


def _assembled(args, kwargs, result):
    mat = result.matrix
    return {"unknowns": int(mat.shape[0]), "nnz": int(mat.nnz)}


def _solved(args, kwargs, result):
    info = result.solve_info
    return {"iterations": int(info.iterations), "residual": float(info.residual),
            "restarts": int(info.restarts)}


ATTRS = {
    "fields.evaluate": _points,
    "operators.assemble": _assembled,
    "operators.solve": _solved,
}


class Span:
    __slots__ = ("id", "parent", "name", "layer", "start", "end", "attrs")

    def __init__(self, id, parent, name, layer, start, end, attrs=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.attrs = attrs or {}

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Collects spans in memory; one per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span of this thread (or its inherited parent)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        attrs = ATTRS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), stack[-1] if stack else None, name, layer,
                        0.0, 0.0)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def bind(self, fn):
        """Run ``fn`` (in another thread) as a child of the current span."""
        parent = self.current()
        if parent is None:
            return fn

        def inherit(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return inherit


def instrument(recorder):
    """Wrap every traced function of the imported ``aphomog`` package.

    Returns a function that restores the original bindings.
    """
    import aphomog  # noqa: F401  (loads every layer module)

    replaced = {}
    undo = []
    for layer in LAYERS:
        module = sys.modules[f"aphomog.{layer}"]
        names = ONLY.get(layer)
        for name, obj in list(vars(module).items()):
            if names is not None and name not in names:
                continue
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                replaced[id(obj)] = (obj, recorder.wrap(f"{layer}.{name}", obj))
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"aphomog.{layer}"], cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, recorder.wrap(f"{layer}.{meth}", orig))
        undo.append((cls, meth, orig))

    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "aphomog" or mod_name.startswith("aphomog.")):
            continue
        for attr, val in list(vars(module).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(module, attr, hit[1])
                undo.append((module, attr, val))

    orig_submit = ThreadPoolExecutor.submit

    def submit(executor, fn, /, *args, **kwargs):
        return orig_submit(executor, recorder.bind(fn), *args, **kwargs)

    ThreadPoolExecutor.submit = submit
    undo.append((ThreadPoolExecutor, "submit", orig_submit))

    def restore():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return restore


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals):
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Parent/child index over a finished list of spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s.parent, []).append(s)

    def self_time(self, span):
        kids = [(max(c.start, span.start), min(c.end, span.end))
                for c in self.children.get(span.id, ())]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        return span.duration - union_length(kids)

    def has_ancestor(self, span, name):
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def outermost(self, name, under=None):
        """Spans of ``name`` not nested in another ``name`` span
        (and, if given, nested in an ``under`` span)."""
        return [s for s in self.spans if s.name == name
                and not self.has_ancestor(s, name)
                and (under is None or self.has_ancestor(s, under))]

    def total_s(self, name):
        return sum(s.duration for s in self.outermost(name))

    def self_s(self, name):
        return sum(self.self_time(s) for s in self.spans if s.name == name)

    def layer_self_s(self, layer):
        return sum(self.self_time(s) for s in self.spans if s.layer == layer)

    def calls(self, name):
        return len(self.outermost(name))

    def attr_sum(self, name, key, under=None):
        return sum(s.attrs.get(key, 0) for s in self.outermost(name, under))

    def attr_max(self, name, key):
        return max((s.attrs.get(key, 0.0) for s in self.outermost(name)), default=0.0)

    def coverage(self, root_name):
        """Share of the root spans' time covered by their direct children."""
        roots = self.outermost(root_name)
        total = sum(r.duration for r in roots)
        if total <= 0.0:
            return 0.0
        covered = sum(union_length([(c.start, c.end) for c in self.children.get(r.id, ())])
                      for r in roots)
        return covered / total


def layer_metrics(spans):
    """The per-layer metrics of one traced ``run_manifest`` call."""
    t = SpanTree(spans)
    out = {
        "cli.run_manifest_self_s": t.self_s("cli.run_manifest"),
        "fields.evaluate_s": t.total_s("fields.evaluate"),
        "fields.evaluate_calls": t.calls("fields.evaluate"),
        "fields.evaluate_points": t.attr_sum("fields.evaluate", "points"),
        "fields.certify_ellipticity_s": t.total_s("fields.certify_ellipticity"),
        "fields.field_from_config_s": t.total_s("fields.field_from_config"),
        "grids.interpolate_s": t.total_s("grids.interpolate"),
        "grids.norms_s": t.total_s("grids.norms"),
        "operators.solve_s": t.total_s("operators.solve"),
        "operators.solve_calls": t.calls("operators.solve"),
        "operators.iterations": t.attr_sum("operators.solve", "iterations"),
        "operators.restarts": t.attr_sum("operators.solve", "restarts"),
        "operators.residual_max": t.attr_max("operators.solve", "residual"),
        "operators.assemble_s": t.total_s("operators.assemble"),
        "operators.assemble_calls": t.calls("operators.assemble"),
        "operators.unknowns": t.attr_sum("operators.assemble", "unknowns"),
        "operators.nnz": t.attr_sum("operators.assemble", "nnz"),
        "correctors.solve_corrector_self_s": t.self_s("correctors.solve_corrector"),
        "correctors.homogenized_matrix_self_s": t.self_s("correctors.homogenized_matrix"),
        "correctors.energy_identity_residual_self_s":
            t.self_s("correctors.energy_identity_residual"),
        "metrics.rho_ladder_self_s": t.self_s("metrics.rho_ladder"),
        "metrics.rho_ladder_evaluate_points":
            t.attr_sum("fields.evaluate", "points", under="metrics.rho_ladder"),
        "experiments.rate_experiment_self_s": t.self_s("experiments.rate_experiment"),
        "experiments.solve_problem_self_s": t.self_s("experiments.solve_problem"),
        "experiments.solve_problem_calls": t.calls("experiments.solve_problem"),
        "experiments.two_scale_error_s": t.total_s("experiments.two_scale_error"),
        "trace.coverage": t.coverage("cli.run_manifest"),
    }
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = t.layer_self_s(layer)
    return out
