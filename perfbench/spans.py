"""Span recorder that times the library's layers from outside.

It replaces module and class attributes of the library with wrappers that
record a span (name, start, end, parent) around each call, and restores them
on exit. Nothing in the library is edited. Wrapped calls are recorded only
inside a root span the benchmark opens around a timed operation, so the
benchmark's own checks leave no spans. Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median


@dataclass
class Span:
    name: str
    start_ns: int
    parent: int | None  # index of the enclosing span in SpanRecorder.spans
    round: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)


class SpanRecorder:
    def __init__(self, targets):
        """targets: (owner, attribute, span name, count) tuples; count maps
        (args, result) to a dict of counts recorded on the span, or is None."""
        self.spans: list[Span] = []
        self.missing: list[str] = []  # span names whose attribute no longer exists
        self.round = 0
        self._targets = targets
        self._open: list[int] = []
        self._restore = []

    def __enter__(self):
        self.missing = []
        for owner, attr, name, count in self._targets:
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(name)
                continue
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__, count))
            else:
                wrapper = self._wrap(name, original, count)
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, count):
        def wrapper(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if count is not None:
                sp.counts = count(args, result)
            return result
        return wrapper

    @contextmanager
    def span(self, name: str):
        """Record a span; opened with no span open, it is a root span."""
        sp = Span(name, time.perf_counter_ns(),
                  self._open[-1] if self._open else None, self.round)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            self._open.pop()

    def durations(self, name: str, self_time: bool = False) -> list[float]:
        """Per-call seconds of the named span; with self_time, minus the time
        its direct children cover."""
        child_ns = [0] * len(self.spans)
        if self_time:
            for sp in self.spans:
                if sp.parent is not None:
                    child_ns[sp.parent] += sp.end_ns - sp.start_ns
        return [(sp.end_ns - sp.start_ns - child_ns[i]) / 1e9
                for i, sp in enumerate(self.spans) if sp.name == name]

    def counts(self, name: str, key: str) -> list:
        return [sp.counts[key] for sp in self.spans if sp.name == name]

    def calls_per_round(self, name: str) -> float:
        """Median over recorded rounds of the number of calls to the span."""
        per_round = {sp.round: 0 for sp in self.spans if sp.parent is None}
        for sp in self.spans:
            if sp.name == name:
                per_round[sp.round] += 1
        return median(per_round.values())

    def dump(self) -> list[dict]:
        return [{"name": sp.name, "start_ns": sp.start_ns, "end_ns": sp.end_ns,
                 "parent": sp.parent, "round": sp.round, **sp.counts}
                for sp in self.spans]
