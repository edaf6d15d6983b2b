"""Outside-in span tracing: wrap module attributes, keep spans in memory.

A span records one call of a wrapped function: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it started,
the operation it belongs to and the workload id.  Nothing here knows about
qwclock; ``layers.py`` says what to wrap and how to read the spans.
"""

from __future__ import annotations

import contextlib
import functools
import types
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    workload: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and per-operation counters for one workload.

    ``counts`` maps a span name to ``f(args, kwargs) -> {counter: value}``,
    work derived from argument shapes.  ``results`` maps a span name to
    ``f(tracer, result) -> result``, for callables handed back to the caller
    (their calls are then spanned too).
    """

    def __init__(self, workload: str, counts=None, results=None):
        self.workload = workload
        self.spans: list[Span] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.op = 0
        self._counts = counts or {}
        self._results = results or {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrapped: dict[int, object] = {}

    def wrap(self, name: str, fn):
        count = self._counts.get(name)
        post = self._results.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = Span(len(self.spans), name, 0.0, 0.0,
                        self._open[-1] if self._open else None,
                        self.op, self.workload)
            self.spans.append(span)
            self._open.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
            if count is not None:
                self.counters[self.op].update(count(args, kwargs))
            return post(self, result) if post is not None else result

        return spanned

    def install(self, modules, package: str) -> None:
        """Wrap every public function and public method defined in ``package``.

        Each function is patched in every given module that binds it, so a
        name imported with ``from .x import f`` is spanned where the caller
        looks it up.  Span names are ``<module>.<qualname>`` with the package
        prefix dropped.
        """
        prefix = package + "."
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not getattr(value, "__module__", "").startswith(prefix):
                    continue
                if isinstance(value, type):
                    self._install_methods(value, prefix)
                elif isinstance(value, types.FunctionType) or hasattr(value, "__wrapped__"):
                    self._patch(module, attr, value, prefix)

    def _install_methods(self, cls: type, prefix: str) -> None:
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and isinstance(value, types.FunctionType):
                self._patch(cls, attr, value, prefix)

    def _patch(self, owner, attr: str, fn, prefix: str) -> None:
        if fn in self._wrapped.values():
            return  # a class reached through a second module
        key = id(fn)
        if key not in self._wrapped:
            name = fn.__module__[len(prefix):] + "." + fn.__qualname__
            self._wrapped[key] = self.wrap(name, fn)
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self._wrapped[key])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self, modules, package: str):
        self.install(modules, package)
        try:
            yield self
        finally:
            self.uninstall()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.duration - _covered(children[s.id]) for s in spans}


def _outermost(spans, key) -> list[Span]:
    """Spans with no ancestor that has the same key (no double counting)."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        k = key(s)
        p = by_id.get(s.parent)
        while p is not None and key(p) != k:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def summarize(spans) -> dict[str, float]:
    """calls, total seconds and self seconds per layer and per span name.

    Keys are ``<layer>.calls``, ``<layer>.s``, ``<layer>.self_s`` and the
    same three suffixes after each full span name.  Totals count a nested
    span of the same layer (or name) once.
    """
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        for key in (s.layer, s.name):
            out[key + ".calls"] += 1
            out[key + ".self_s"] += own[s.id]
    for s in _outermost(spans, lambda s: s.layer):
        out[s.layer + ".s"] += s.duration
    for s in _outermost(spans, lambda s: s.name):
        out[s.name + ".s"] += s.duration
    return dict(out)
