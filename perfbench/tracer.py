"""In-memory span tracer that wraps scheme-forge's public functions from outside.

A span records a name, a start, an end and the span that was open when it
began.  Spans are kept in memory and summarised once the traced command has
finished.  Nothing under ``src/`` is edited: :func:`install` replaces each
traced function in every ``scheme_forge`` module namespace that holds it, so
``constructions.build_field`` and ``cli.build_field`` are both timed.

For the span names given as ``heap_spans``, the tracer also records the
traced-heap peak (``tracemalloc``) above the heap in use when the span
opened.  That is not RSS: ``ru_maxrss`` only ever rises, so it cannot be
split by stage.  Heap tracing is switched on only while such a span is open,
because it slows every Python allocation and would inflate the other spans.
Only spans on the main thread do this, since the traced peak is process-wide.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import tracemalloc

MB = 1 << 20


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "base", "peak", "owns_heap")

    def __init__(self, id_, name, parent, start):
        self.id = id_
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.base = None
        self.peak = None
        self.owns_heap = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def peak_mb(self) -> float:
        return 0.0 if self.base is None else (self.peak - self.base) / MB


class Tracer:
    def __init__(self, heap_spans=()):
        self.heap_spans = frozenset(heap_spans)
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def _mark_heap(self) -> int:
        """Fold the heap peak since the last mark into every open main span."""
        current, peak = tracemalloc.get_traced_memory()
        for s in self._main_stack:
            if s.base is not None:
                s.peak = max(s.peak, peak)
        tracemalloc.reset_peak()
        return current

    def enter(self, name: str) -> Span:
        stack = self._stack()
        on_main = stack is self._main_stack
        # a worker thread's first span belongs to whatever the main thread has open
        parent = stack[-1] if stack else (None if on_main or not self._main_stack
                                          else self._main_stack[-1])
        span = Span(next(self._ids), name, parent.id if parent else None, 0.0)
        if on_main and name in self.heap_spans:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                span.owns_heap = True
            span.base = span.peak = self._mark_heap()
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if span.base is not None:
            self._mark_heap()
            if span.owns_heap:
                tracemalloc.stop()
        stack.pop()
        with self._lock:
            self.spans.append(span)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children of one parent may overlap when they ran on several threads, so
    the covered part is the union of their intervals clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        lo_open = hi_open = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if hi_open is None or lo > hi_open:
                if hi_open is not None:
                    covered += hi_open - lo_open
                lo_open, hi_open = lo, hi
            else:
                hi_open = max(hi_open, hi)
        if hi_open is not None:
            covered += hi_open - lo_open
        out[s.id] = s.duration - covered
    return out


def traced(tracer: Tracer, name: str, fn, hook=None):
    """``fn`` wrapped in a span; ``hook(args, kwargs, result)`` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return wrapper


def replace_everywhere(original, replacement, prefix: str = "scheme_forge") -> int:
    """Rebind ``original`` to ``replacement`` in every loaded ``prefix`` module."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                n += 1
    return n
