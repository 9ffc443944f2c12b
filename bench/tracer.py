"""Span tracer that times udnsim layers from outside the package.

A layer is one public udnsim function.  Installing the tracer replaces that
function with a timing wrapper in its defining module and in every other
udnsim module that imported it by name, because callers look the name up in
their own module globals.  Uninstalling puts every original back, and
``wrapped_names`` proves that none is left behind.

Spans nest: a span opened while another is open is its child.  A span's
self time is its duration minus the summed durations of its direct
children; calls are strictly nested on one thread, so the children never
overlap and their sum is the part of the parent they cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

MARK = "__bench_traced__"


@dataclass(frozen=True)
class Layer:
    """One traced public function.

    name: the span name, or a callable (args, kwargs) -> span name.
    before: optional callable (args, kwargs) -> dict of counts known at call
        time, such as the number of elements a vectorized call handles.
    after: optional callable (args, kwargs, result) -> dict of counts read
        from the result.
    """

    module: str
    func: str
    name: object
    before: object = None
    after: object = None


@dataclass
class Span:
    name: str
    parent: int          # index of the enclosing span, -1 at the top
    root: int            # index of the outermost enclosing span (itself at the top)
    start: float
    end: float = float("nan")
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _package_modules(package: str):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def wrapped_names(package: str = "udnsim") -> list[str]:
    """Every module attribute in the package that is still a tracer wrapper."""
    return sorted(f"{m.__name__}.{attr}" for m in _package_modules(package)
                  for attr, val in vars(m).items() if getattr(val, MARK, False))


class Tracer:
    """Collects spans in memory; install() patches layers, uninstall() restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        root = self._stack[0] if self._stack else idx
        self.spans.append(Span(name, parent, root, self.clock(), attrs=dict(attrs)))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[idx]
        span.end = self.clock()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self.open(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def ancestors(self, idx: int):
        parent = self.spans[idx].parent
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def _wrap(self, fn, layer: Layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer.name(args, kwargs) if callable(layer.name) else layer.name
            attrs = layer.before(args, kwargs) if layer.before else {}
            idx = tracer.open(name, **attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if layer.after:
                tracer.spans[idx].attrs.update(layer.after(args, kwargs, result))
            return result

        setattr(traced, MARK, True)
        return traced

    def install(self, layers, package: str = "udnsim"):
        """Patch every layer into its module and into each importer's globals."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules(package)
        for layer in layers:
            original = getattr(importlib.import_module(layer.module), layer.func)
            if getattr(original, MARK, False):
                raise RuntimeError(f"{layer.module}.{layer.func} is already wrapped")
            wrapper = self._wrap(original, layer)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self, package: str = "udnsim"):
        """Restore the originals and fail if any wrapper survives."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        left = wrapped_names(package)
        if left:
            raise RuntimeError(f"tracer wrappers left in place: {left}")

    @contextmanager
    def installed(self, layers, package: str = "udnsim"):
        self.install(layers, package)
        try:
            yield self
        finally:
            self.uninstall(package)


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


def totals(tracer: Tracer, root_name: str) -> dict[str, LayerTotals]:
    """Per span name totals over the spans under top-level spans called root_name."""
    out: dict[str, LayerTotals] = {}
    for span in tracer.spans:
        if tracer.spans[span.root].name != root_name:
            continue
        t = out.setdefault(span.name, LayerTotals())
        t.calls += 1
        t.self_s += span.self_s
        for key, val in span.attrs.items():
            if isinstance(val, (int, float)):
                t.counts[key] = t.counts.get(key, 0) + val
    return out
