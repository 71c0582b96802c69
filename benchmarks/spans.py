"""In-memory spans for the traced benchmark run, and their self-time arithmetic.

A span records a layer call: name, start, end, parent span, and the id of
the replication it belongs to.  Spans are kept in a list and summarized
when the run ends.  A layer is the module prefix of a span name
(``nuisance.fit_logistic`` belongs to ``nuisance``).
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict


class Tracer:
    """Records nested spans and counters; installs and removes wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, replication id]
        self.counts = Counter()
        self.rep = None
        self.missing = []  # "module.attr" names that could not be wrapped
        self._stack = []
        self._restore = []

    def span(self, name):
        return _Span(self, name)

    def wrap(self, module, attr, name, count=None):
        """Replace ``module.attr`` with a version that opens span ``name``.

        ``count(counts, args, result)`` may add counters after each call.
        A missing attribute is recorded, not raised, so that a refactor
        that removes a function shows up as a zero metric.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap_all(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


class _Span:
    """Context manager of one span; a plain class, which costs less per call than a generator."""

    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [name, None, None, -1, tracer.rep]

    def __enter__(self):
        tracer = self.tracer
        if tracer._stack:
            self.record[3] = tracer._stack[-1]
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class NullTracer:
    """Stands in for a Tracer in untraced passes: no spans, counters discarded."""

    def __init__(self):
        self.counts = Counter()

    def span(self, name):
        return contextlib.nullcontext()


def _covered(start, end, intervals):
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
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


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals.

    Overlapping children are counted once, so self time is never negative.
    """
    children = defaultdict(list)
    for name, start, end, parent, rep in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(start, end, children.get(i, ()))
        for i, (name, start, end, parent, rep) in enumerate(spans)
    ]


def summarize(spans):
    """Totals per span name: calls, inclusive seconds, self seconds."""
    calls = Counter()
    total = Counter()
    own = Counter()
    for (name, start, end, parent, rep), s in zip(spans, self_times(spans)):
        calls[name] += 1
        total[name] += end - start
        own[name] += s
    return calls, total, own


def check_self_time_arithmetic():
    """Self-check on synthetic spans; returns a list of failures (empty when fine).

    Parent [0, 10] with children [1, 4], [3, 6] (overlapping) and [8, 12]
    (running past the parent): covered time is [1, 6] + [8, 10] = 7, so the
    parent's self time is 3.  A grandchild [2, 3] inside [1, 4] leaves that
    child with self time 2.  Serial, non-overlapping children must make the
    self times of a tree add up to its root's duration.
    """
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],
        ["c", 8.0, 12.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
    ]
    failures = []
    got = self_times(spans)
    want = [3.0, 2.0, 3.0, 4.0, 1.0]
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        failures.append(f"overlap case: self times {got}, expected {want}")
    serial = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 2.0, 3.5, 1, 0],
    ]
    if abs(sum(self_times(serial)) - 10.0) > 1e-12:
        failures.append("serial case: self times do not add up to the root duration")
    return failures
