"""In-memory spans around the layer calls the benchmark makes.

A span is (id, name, key, start, end, parent, counts).  Spans nest by a
stack, since the benchmark is single threaded; they are kept in memory and
written out once, when the run ends.
"""

import time
from collections import defaultdict


class _NullSpan:
    counts = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    def span(self, name, key=None):
        return _NULL


class _Span:
    __slots__ = ("tracer", "record", "counts")

    def __init__(self, tracer, name, key):
        self.tracer = tracer
        self.counts = {}
        parent = tracer.stack[-1][0] if tracer.stack else None
        self.record = [len(tracer.spans), name, key, 0.0, 0.0, parent,
                       self.counts]

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer.stack.append(self.record)
        self.record[3] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[4] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name, key=None):
        return _Span(self, name, key)

    def self_times(self):
        """(name, key) -> the self time of each such span: its duration
        minus the part its direct children cover."""
        child = defaultdict(float)
        for _, _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(list)
        for sid, name, key, start, end, _, _ in self.spans:
            out[(name, key)].append(end - start - child[sid])
        return out

    def totals(self):
        """(name, key) -> the span counts, summed over its spans."""
        out = defaultdict(lambda: defaultdict(int))
        for _, name, key, _, _, _, counts in self.spans:
            for k, v in counts.items():
                out[(name, key)][k] += v
        return out

    def records(self):
        return [{"id": sid, "name": name, "key": key, "start": start,
                 "end": end, "parent": parent, "counts": counts}
                for sid, name, key, start, end, parent, counts in self.spans]
