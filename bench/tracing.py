"""Spans and counts recorded around the calls a workload makes into the
program's public functions.

A disabled tracer only calls through, so the end-to-end run pays one
Python call per program call and nothing else; ``enabled`` may be
switched between rounds.  An enabled tracer keeps
every span (name, start, end, parent span, item id) and every count in
memory; ``write`` saves them once the run has ended.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.item = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as a span named after its layer."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item)
            self.counts[name + ".calls"] += 1

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[name] += amount

    def mark(self) -> int:
        """Position in the span list, to total the spans recorded after it."""
        return len(self.spans)

    def totals(self, since: int = 0) -> dict:
        """Seconds per span name over the spans recorded since a mark."""
        out: dict = defaultdict(float)
        for name, start, end, _, _ in self.spans[since:]:
            out[name] += end - start
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": [list(s) for s in self.spans],
                       "counts": dict(self.counts)}, fh)
