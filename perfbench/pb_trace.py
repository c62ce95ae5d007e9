"""Spans, self time and function wrappers for the traced benchmark run.

Tracing lives entirely in the benchmark: a wrapper is installed on a
module attribute (the name the calling module looks up, for example
``wirecut.fragment.anneal_min_cut``), records one span per call and
optional exact counts, and is removed again when the traced run ends.
Spans are kept in memory; nothing inside the program changes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    job: int | None  # spans of one job share this identifier


@dataclass
class Tracer:
    """In-memory span and count recorder for one single-threaded run."""

    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    maxima: dict[str, float] = field(default_factory=dict)
    job: int | None = None
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent, self.job))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def high(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append((s.end - s.start) - covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def layer_totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: total duration, total self time and call count."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s, t_self in zip(spans, self_times(spans)):
        total[s.name] += s.end - s.start
        own[s.name] += t_self
        calls[s.name] += 1
    return dict(total), dict(own), dict(calls)


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` as the calling module sees it.

    ``span`` names the layer and function (``<layer>.<function>``);
    ``count`` receives the tracer, the call's bound arguments and its
    result, and records exact work counts.
    """

    module: str
    attr: str
    span: str
    count: Callable | None = None


def _wrap(tracer: Tracer, hook: Hook, fn):
    sig = inspect.signature(fn) if hook.count else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(hook.span):
            result = fn(*args, **kwargs)
        if hook.count is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook.count(tracer, bound.arguments, result)
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer, hooks):
    """Install every hook whose target exists; yield the missing ones.

    A hook whose module or attribute is gone is skipped, so its layer is
    absent from the trace instead of breaking the run. Every installed
    wrapper is removed on exit.
    """
    installed = []
    missing = []
    try:
        for hook in hooks:
            try:
                mod = importlib.import_module(hook.module)
                original = getattr(mod, hook.attr)
            except (ImportError, AttributeError):
                missing.append(hook)
                continue
            setattr(mod, hook.attr, _wrap(tracer, hook, original))
            installed.append((mod, hook.attr, original))
        yield missing
    finally:
        for mod, attr, original in reversed(installed):
            setattr(mod, attr, original)
