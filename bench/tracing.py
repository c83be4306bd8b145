"""Call counting, in-memory spans and self-time arithmetic for the benchmark.

The benchmark calls every public library function through a caller:
``call(name, fn, *args, **kwargs)``. :class:`Calls` only counts attempts and
failures, so the untraced runs pay one Python call per library call.
:class:`Tracer` also records a span per call: name, start, end, parent span
and the id of the operation (link, map, step) it belongs to.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


class Calls:
    """Counts public library calls and the ones that raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    @contextmanager
    def op(self, name, op_id):
        yield


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer(Calls):
    """A :class:`Calls` that also records one span per call, in memory."""

    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id: str | None = None

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def __call__(self, name, fn, *args, **kwargs):
        with self.span(name):
            return super().__call__(name, fn, *args, **kwargs)

    @contextmanager
    def op(self, name, op_id):
        """Root span of one operation; every span inside shares ``op_id``."""
        outer = self._op_id
        self._op_id = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op_id = outer

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op_id}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_of(name: str) -> str:
    """``propagation.trace_paths`` -> ``propagation``."""
    return name.split(".", 1)[0]
