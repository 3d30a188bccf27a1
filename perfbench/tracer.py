"""In-memory span tracer that instruments a package from the outside.

A span records a name, start and end (``time.perf_counter`` seconds), the
index of its parent span, the thread it ran on and a small ``meta`` dict.
Spans stay in memory until the sample ends.  Each thread keeps its own span
stack; a span opened on a thread whose stack is empty (a worker thread of a
pool) takes as parent the span open on the main thread at that moment, so
work fanned out to threads nests under the call that fanned it out.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def _open(self, name: str) -> tuple[Span, list[int]]:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main) if tid != self._main else None
            parent = main_stack[-1] if main_stack else None
        span = Span(name, 0.0, parent=parent, thread=tid)
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        span.start = time.perf_counter()
        return span, stack

    def wrap(self, fn, name: str, annotate=None):
        """Return fn recording one span per call; annotate(args, kwargs, result) -> meta."""

        def traced(*args, **kwargs):
            span, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.meta = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def counting(fn, counter: list):
    """Return fn that adds one to counter[0] per call and records no span."""

    def counted(*args, **kwargs):
        counter[0] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def patch_everywhere(package: str, original, replacement) -> None:
    """Rebind every module-level name of `package` bound to `original`.

    ``from .spectral import coeffs_to_grid`` copies the function into the
    importing module, so a wrapper must be installed under each such name.
    """
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# -- span arithmetic ------------------------------------------------------------


def children_index(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def covered(spans: list[Span], span: Span, members) -> float:
    """Length of the part of `span` covered by the union of spans `members`."""
    intervals = sorted(
        (max(spans[i].start, span.start), min(spans[i].end, span.end)) for i in members
    )
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(spans: list[Span], kids, i: int, child_names=None) -> float:
    """Duration of span i minus the time its (selected) child spans cover."""
    members = [c for c in kids[i] if child_names is None or spans[c].name in child_names]
    return spans[i].duration - covered(spans, spans[i], members)


def descendants(kids, i: int):
    stack = list(kids[i])
    while stack:
        j = stack.pop()
        yield j
        stack.extend(kids[j])
