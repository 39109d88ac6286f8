"""Spans recorded around calls into a package, from outside the package.

``Tracer.wrap`` replaces a function on a module, class or dict with one that
records a span (name, start, end, parent, counters) per call.  Span stacks are
kept per thread.  A task submitted to a ``ThreadPoolExecutor`` while tracing
runs with the submitting thread's open span as its parent, so work done on
pool threads is charged to the call that fanned it out.  ``uninstall`` puts
every original back.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable


class Span:
    """One traced call.  ``end`` is when the call returned; ``done`` is after
    its counters were taken, so counter work is charged to nobody."""

    __slots__ = ("name", "parent", "start", "end", "done", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = self.end = self.done = 0.0
        self.counts: dict[str, float] = {}


Counters = Callable[[tuple, object], dict]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def _traced(self, fn: Callable, name: str, counters: Counters | None) -> Callable:
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else getattr(local, "inherited", None)
            if parent is not None and parent.name == name:
                # A layer calling back into itself is one span of that layer.
                return fn(*args, **kwargs)
            span = Span(name, parent)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = span.done = perf_counter()
                stack.pop()
                spans.append(span)  # list.append is atomic, so pool threads may share the list
            if counters is not None:
                span.counts = counters(args, result)
                span.done = perf_counter()
            return result

        return traced

    def _replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` (``owner[attr]`` for a dict) to ``make(original)``.
        Only attributes defined on the owner itself, so uninstall restores them exactly."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = make(original)
        else:
            original = vars(owner)[attr]
            setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, counters: Counters | None = None) -> None:
        """Trace calls of ``owner.attr`` (or ``owner[attr]`` for a dict) as layer ``name``."""
        self._replace(owner, attr, lambda fn: self._traced(fn, name, counters))

    def link_thread_pools(self) -> None:
        """Run pool tasks under the span that submitted them."""
        current, local = self._current, self._local

        def make(submit):
            @functools.wraps(submit)
            def traced_submit(pool, fn, /, *args, **kwargs):
                parent = current()

                def task(*a, **kw):
                    outer = getattr(local, "inherited", None)
                    local.inherited = parent
                    try:
                        return fn(*a, **kw)
                    finally:
                        local.inherited = outer

                return submit(pool, task, *args, **kwargs)

            return traced_submit

        self._replace(ThreadPoolExecutor, "submit", make)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def _covered(lo: float, hi: float, children: list[Span]) -> float:
    """Length of [lo, hi] covered by the union of the children's intervals."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(c.start, lo), min(c.done, hi)) for c in children):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: busy time ``s`` (summed over threads, so it can exceed wall
    time), ``self_s`` (span time not covered by child spans), ``calls`` and
    the summed counters."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        layer = out[span.name]
        duration = span.end - span.start
        layer["s"] += duration
        layer["self_s"] += max(0.0, duration - _covered(span.start, span.end, children[id(span)]))
        layer["calls"] += 1
        for key, value in span.counts.items():
            layer[key] += value
    return out
