"""In-memory spans recorded around calls into netforge's public functions.

A span is one timed call: its name (``<module>.<function>``), start and end
on the ``perf_counter`` clock, the index of the enclosing span, the job it
belongs to, and free-form attributes (work counts, bytes written).  Spans
stay in memory while the benchmark runs and are written once, at the end.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records spans; ``job`` tags every span opened while it is set."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.job = None
        self._open = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "name": name,
            "job": self.job,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
            **attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def named(self, name: str) -> list:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another on a single thread, so
        their intervals never overlap and their durations simply add up.
        """
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s) + "\n")


class NullTracer:
    """Stand-in for untraced runs: a span costs one dict and no clock reads."""

    enabled = False
    job = None

    @contextmanager
    def span(self, name: str, **attrs):
        yield dict(attrs)
