"""In-memory spans around the public qtvd functions, installed from outside the package.

Every span records a name, start, end, the index of its parent span and the
op it belongs to.  Spans are only recorded while an op is open, so the
benchmark's own correctness checks (which call the same library functions)
never show up in the per-layer numbers.  Self time is a span's duration
minus the durations of its direct children; calls are single-threaded and
properly nested, so children never overlap.

`install` wraps each traced function at every name that binds it inside the
package, not only in its defining module: `risk`, `penalties` and `cli`
import `fit_float`, `certify_float`, `fit` and `envelope` by name, and the
package `__init__` re-exports most of them.  Note that `qtvd.envelope` as an
attribute is the *function* (the package shadows its submodule), so the
module itself is reached through `sys.modules["qtvd.envelope"]`.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "points", "flagged")

    def __init__(self, name, start, parent, op, points):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.points = points
        self.flagged = 0

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans for one job; `op` opens the root span of one benchmark op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None

    @contextmanager
    def op(self, op_id: int, kind: str):
        self._op = op_id
        try:
            with self.span("op." + kind, 0):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str, points: int):
        idx = len(self.spans)
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else None, self._op, points)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, points=None, flagged=None):
        """Wrap fn in a span; points(args) counts its input, flagged(result) marks its outcome."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            with self.span(name, points(args) if points else 0) as span:
                result = fn(*args, **kwargs)
                if flagged is not None and flagged(result):
                    span.flagged = 1
            return result

        traced.__wrapped_original__ = fn
        return traced


# (span name, module, attribute, points from args, flagged from result).  A
# dotted attribute names a method on a class in that module.
TARGETS = (
    ("cli.main", "qtvd.cli", "main", None, None),
    ("solver.fit_float", "qtvd.solver", "fit_float", lambda a: len(a[0]), None),
    ("solver.certify_float", "qtvd.solver", "certify_float", lambda a: len(a[0]), lambda r: not r),
    ("solver.fit", "qtvd.solver", "fit", lambda a: a[0].n, None),
    ("solver.objective_value", "qtvd.solver", "objective_value", None, None),
    ("solver.certify", "qtvd.solver", "certify", lambda a: a[1].n, lambda r: r is None),
    ("solver.Instance", "qtvd.solver", "Instance.__post_init__", None, None),
    ("envelope.envelope", "qtvd.envelope", "envelope", lambda a: len(a[0]), None),
    ("envelope.upper_envelope_at", "qtvd.envelope", "upper_envelope_at", None, None),
    ("envelope.lower_envelope_at", "qtvd.envelope", "lower_envelope_at", None, None),
    ("envelope.reflection_check", "qtvd.envelope", "reflection_check", None, None),
    ("risk.simulate", "qtvd.risk", "simulate", None, None),
    ("risk.noise.sample", "qtvd.risk", "Cauchy.sample", None, None),
    ("risk.noise.sample", "qtvd.risk", "Gaussian.sample", None, None),
    ("risk.noise.sample", "qtvd.risk", "Laplace.sample", None, None),
    ("risk.pointwise_bounds", "qtvd.risk", "pointwise_bounds", None, None),
    ("penalties.noncrossing_audit", "qtvd.penalties", "noncrossing_audit", None, None),
    ("penalties.submodularity_fuzz", "qtvd.penalties", "submodularity_fuzz", None, None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items()) if name == "qtvd" or name.startswith("qtvd.")]


def _resolve(module_name: str, attr: str):
    """(owner, leaf) for a TARGET: the module, or the class for a dotted method name."""
    owner = sys.modules[module_name]
    *cls_path, leaf = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    return owner, leaf


def install(tracer: Tracer):
    """Wrap every TARGET at every binding in the loaded qtvd modules; return an undo function."""
    undo = []
    wrappers = {}
    for name, module_name, attr, points, flagged in TARGETS:
        owner, leaf = _resolve(module_name, attr)
        original = owner.__dict__[leaf]
        wrapper = tracer.wrap(name, original, points, flagged)
        if isinstance(owner, type):
            setattr(owner, leaf, wrapper)
            undo.append((owner, leaf, original))
        else:
            wrappers[id(original)] = wrapper
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, key, wrappers[id(value)])
                undo.append((mod, key, value))

    def uninstall():
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return uninstall


def unwrapped_bindings() -> list[str]:
    """Bindings in the loaded qtvd modules that still hold an untraced TARGET (expected empty)."""
    missing = []
    originals = set()
    for _, module_name, attr, _, _ in TARGETS:
        owner, leaf = _resolve(module_name, attr)
        bound = owner.__dict__[leaf]
        if not hasattr(bound, "__wrapped_original__"):
            missing.append(f"{module_name}.{attr}")
        originals.add(id(getattr(bound, "__wrapped_original__", bound)))
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if id(value) in originals and not hasattr(value, "__wrapped_original__"):
                missing.append(f"{mod.__name__}.{key}")
    return missing


def layer_metrics(spans: list[Span], speed: list[float]) -> dict:
    """Per-span-name calls, self seconds, points and flagged counts for one job.

    Self seconds are scaled by speed[op], the speed factor of the span's op.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out = {name: {"calls": 0, "self_s": 0.0, "points": 0, "flagged": 0} for name in SPAN_NAMES}
    for idx, span in enumerate(spans):
        if span.name not in out:
            continue
        rec = out[span.name]
        rec["calls"] += 1
        rec["self_s"] += ((span.end - span.start) - child_time[idx]) * speed[span.op]
        rec["points"] += span.points
        rec["flagged"] += span.flagged
    return out
