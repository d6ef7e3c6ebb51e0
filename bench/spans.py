"""In-memory span tracer for the benchmark's traced run.

Spans are opened around calls into pira's public functions.  The benchmark
does not edit pira: ``Tracer.patch`` swaps a module attribute for a wrapper
that opens a span around the original, and ``Tracer.restore`` puts every
original back.  Because pira's modules call each other through these
attributes, calls made inside pira (``cli.main`` calling ``load_graph``, say)
get their own child spans too.

Each span records a name, start, end, parent span and workload id, plus
optional counts.  While ``memory`` is set, each span also records its
``tracemalloc`` peak above the traced memory at its start.  A span whose
name is in ``memory_skip`` does not switch ``tracemalloc`` on itself, so its
own allocations go unmeasured (peak 0) unless an enclosing span traces
them; this keeps allocation-heavy pure-Python loops at usable speed.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: Optional[int]
    workload: str
    end: float = 0.0
    peak_bytes: int = 0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, workload: str, memory_skip: frozenset[str] = frozenset()) -> None:
        self.workload = workload
        self.memory = False
        self.memory_skip = memory_skip
        self.spans: list[Span] = []
        self._next_id = 0
        self._stack: list[Span] = []
        self._mem_base: list[int] = []  # traced bytes at each open span's start
        self._mem_peak: list[int] = []  # highest traced bytes seen inside each open span
        self._patched: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the body; yields the Span for counts."""
        parent = self._stack[-1].id if self._stack else None
        s = Span(self._next_id, name, 0.0, parent, self.workload)
        self._next_id += 1
        self.spans.append(s)
        owns_tracing = (self.memory and not tracemalloc.is_tracing()
                        and name not in self.memory_skip)
        if owns_tracing:
            tracemalloc.start()
        measured = self.memory and tracemalloc.is_tracing()
        if measured:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem_peak:
                self._mem_peak[-1] = max(self._mem_peak[-1], peak)
            tracemalloc.reset_peak()
            self._mem_base.append(current)
            self._mem_peak.append(current)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if measured:
                _, peak = tracemalloc.get_traced_memory()
                top = max(self._mem_peak.pop(), peak)
                s.peak_bytes = top - self._mem_base.pop()
                if self._mem_peak:
                    self._mem_peak[-1] = max(self._mem_peak[-1], top)
                tracemalloc.reset_peak()
            if owns_tracing:
                tracemalloc.stop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        counter: Optional[Callable[[tuple, dict, Any, float], dict[str, float]]] = None,
    ) -> Callable:
        """`fn` with a span around every call; `counter(args, kwargs, result,
        seconds)` adds counts to the span after it closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counter is not None:
                s.counts.update(counter(args, kwargs, result, s.seconds))
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, counter=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, counter))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, seconds, self seconds, peak MB.

    Seconds count only the outermost of nested spans of one name, so a
    function reached through two patched names is not counted twice.  Self
    seconds are a span's duration minus the time its direct children
    cover."""
    by_id = {s.id: s for s in spans}
    child_seconds: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds

    def nested_in_same_name(s: Span) -> bool:
        parent = by_id.get(s.parent)
        while parent is not None:
            if parent.name == s.name:
                return True
            parent = by_id.get(parent.parent)
        return False

    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "peak_mb": 0.0})
        row["calls"] += 1
        if not nested_in_same_name(s):
            row["seconds"] += s.seconds
        row["self_seconds"] += s.seconds - child_seconds.get(s.id, 0.0)
        row["peak_mb"] = max(row["peak_mb"], s.peak_bytes / 2**20)
    return out
