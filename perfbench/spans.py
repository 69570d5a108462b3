"""In-memory spans for the traced run, self times and percentile summaries."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One timed call.  ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    raised: bool = False

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans; nothing is written until :meth:`dump`."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, run_id):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, run_id)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except BaseException:
            record.raised = True
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def dump(self):
        return [asdict(s) for s in self.spans]


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted((max(spans[c].start, s.start),
                            min(spans[c].end, s.end))
                           for c in children.get(i, ()))
        covered = 0.0
        reach = s.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def tail_percentile(count):
    """Highest percentile with at least ten samples beyond it, floored at 50."""
    if count <= 0:
        return 50.0
    return max(50.0, 100.0 * (count - 10) / count)

