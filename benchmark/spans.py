"""In-memory span tracer that wraps a package's functions from outside.

``Tracer.install`` replaces every public function of the given modules
by a wrapper that records a span (name, start, end, parent, op id), and
patches every other binding of the same function object too, so calls
through ``from``-imports (``forms.validate``, ``bca.normalize``) become
child spans as well.  Nothing in the package is edited; ``uninstall``
puts the original functions back.

Spans are recorded only while ``Tracer.op`` is set, so checks the
benchmark runs between operations leave no trace.  A direct recursive
call (``dumps_deterministic`` calling itself) folds into the outer span.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.observations: dict[str, list] = defaultdict(list)
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, func, observe=None):
        """``func`` recording a span called ``name``; ``observe(result)``,
        if given, is stored under ``name`` with the op id after the span
        has ended."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if tracer.op is None or (stack and tracer.spans[stack[-1]][NAME] == name):
                return func(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            if observe is not None:
                tracer.observations[name].append((tracer.op, observe(result)))
            return result

        return traced

    def counter(self, name: str, func):
        """``func`` counting its calls under ``name`` (no span)."""
        tracer = self

        @functools.wraps(func)
        def counted(*args, **kwargs):
            if tracer.op is not None:
                tracer.counts[name] += 1
            return func(*args, **kwargs)

        return counted

    def install(self, layers: dict, bindings, observers=None, counted=None) -> None:
        """Wrap the public functions of ``layers`` ({layer name: module}).

        ``bindings`` lists every module whose attributes may refer to those
        functions; ``observers`` maps a span name to an ``observe``
        callable; ``counted`` maps a counter name to (module, attribute)
        pairs whose calls are counted without a span.
        """
        observers = observers or {}
        wrappers = {}
        for layer, module in layers.items():
            for attr, func in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(func):
                    continue
                if func.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[func] = self.wrap(name, func, observers.get(name))
        for module in bindings:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for name, targets in (counted or {}).items():
            for module, attr in targets:
                self._patch(module, attr, self.counter(name, getattr(module, attr)))

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one parent run one after another (single thread), so the
    self times of a subtree add up to the duration of its root.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def buckets(spans, roots: dict[str, str]) -> list[str | None]:
    """Attribute each span to a named bucket.

    A span whose name is a key of ``roots`` opens that bucket; any other
    span inherits the bucket of a parent in the same layer, and gets None
    when its parent is in another layer (or it has no parent).
    """
    out: list[str | None] = []
    for span in spans:
        bucket = roots.get(span[NAME])
        parent = span[PARENT]
        if bucket is None and parent >= 0 and layer_of(spans[parent][NAME]) == layer_of(span[NAME]):
            bucket = out[parent]
        out.append(bucket)
    return out
