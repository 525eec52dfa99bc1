"""In-memory span recorder and temporary attribute patching.

A span is (name, start, end, parent, counters, error).  The recorder keeps one
stack per run, so the span that is open when another starts is its parent.
Self time of a span is its duration minus the time its direct children
cover; children of one caller never overlap (single thread, closed loop),
so that is the sum of their durations.

``patched`` swaps attributes for the length of a ``with`` block and restores
every original object on exit, also when the block raises.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counters: dict = field(default_factory=dict)  # sizes the layer reported
    error: BaseException | None = None


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        sp = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        except BaseException as exc:
            sp.error = exc
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> dict:
        """Per span name: self seconds, call count, and each counter's sum and max."""
        out = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "sum": {}, "max": {}})
        for s, own in zip(self.spans, self.self_times()):
            agg = out[s.name]
            agg["self_s"] += own
            agg["calls"] += 1
            for k, v in s.counters.items():
                agg["sum"][k] = agg["sum"].get(k, 0.0) + v
                agg["max"][k] = max(agg["max"].get(k, v), v)
        return dict(out)

    def errors(self, exc_type) -> int:
        """Distinct exceptions of exc_type seen, however many spans they crossed."""
        return len({id(s.error) for s in self.spans if isinstance(s.error, exc_type)})

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear a recorder with open spans")
        self.spans.clear()


def wrap(rec: SpanRecorder, name: str, fn, counters=None):
    """fn wrapped in a span; counters(args, result) gives the span's counters."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(name) as sp:
            result = fn(*args, **kwargs)
            if counters is not None:
                sp.counters = counters(args, result)
            return result

    return traced


@contextmanager
def patched(targets):
    """Temporarily replace attributes: targets is [(owner, attr, replacement)]."""
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
