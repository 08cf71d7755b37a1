"""In-memory spans recorded around the benchmark's calls into each layer.

A :class:`Tracer` keeps one flat list of spans.  Each span records its
name, start, end, parent span and the tick it belongs to; a tick's root
span is opened by :meth:`Tracer.tick`.  Nothing is written until the run
ends (:meth:`Tracer.dump`).  Timed runs use :data:`NULL_TRACER`, whose
spans are a shared no-op context manager.

A span's *self time* is its duration minus the durations of its direct
children.  Spans nest strictly (one thread), so the self times of a tick
root and everything below it add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional


class Tracer:
    """Records nested spans; see the module docstring."""

    enabled = True

    def __init__(self) -> None:
        #: ``[name, start, end, parent index (-1 for roots), tick id]``.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._tick: Optional[int] = None

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    @contextlib.contextmanager
    def tick(self, tick_id: int):
        """Root span of one tick; its id is the tick's index."""
        self._tick = tick_id
        try:
            with self.span("tick"):
                yield
        finally:
            self._tick = None

    def wrap(self, owner: object, method: str, name: str) -> None:
        """Shadow ``owner.method`` with a version that records a span."""
        original = getattr(owner, method)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, method, traced)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, total ``busy_s`` and total ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry["count"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(totals)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, tick."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, tick in self.spans:
                handle.write(
                    json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, tick])
                    + "\n"
                )


class _Span:
    """One span's context manager.  A plain class rather than a generator
    keeps the tracer's own cost, which lands in the parent's self time,
    small next to a 0.1 ms tick."""

    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        stack = tracer._stack
        record = [self._name, 0.0, 0.0, stack[-1] if stack else -1, tracer._tick]
        stack.append(len(tracer.spans))
        tracer.spans.append(record)
        self._record = record
        record[1] = perf_counter()

    def __exit__(self, *exc_info) -> bool:
        self._record[2] = perf_counter()
        self._tracer._stack.pop()
        return False


class _NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def tick(self, tick_id: int):
        return self._null


NULL_TRACER = _NullTracer()
