"""In-memory span recorder and self-time accounting.

A span is one call through a layer boundary: its name, start and end time,
the span that was open when it began (its parent) and the benchmark op it
belongs to.  Spans are kept in memory while the run measures and written out
when it ends, so the recorder does no I/O on the timed path.

A span's self time is its duration minus the part of its interval that its
children cover.  Children are merged as intervals, so overlapping or
zero-length children are counted once and never drive self time negative.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict, namedtuple

__all__ = ["Span", "Recorder", "self_times", "coverage"]

Span = namedtuple("Span", "sid name start end parent op")
"""One closed span; ``parent`` is -1 for a root span."""


def coverage(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Map span id to its duration minus its children's coverage."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - coverage(children.get(s.sid, ()), s.start, s.end)
        for s in spans
    }


class Recorder:
    """Collects nested spans and counters for one benchmark run.

    ``begin``/``end`` bracket a span; spans close in stack order because the
    benchmark is single-threaded.  ``close_op`` folds the spans of the op just
    finished into per-name call counts and self times and keeps up to
    ``keep`` spans in total for :meth:`write`.
    """

    def __init__(self, clock=time.perf_counter, keep: int = 50_000):
        self._clock = clock
        self._keep = keep
        self._stack = []
        self._closed = []
        self._next_sid = 0
        self.op = -1
        self.kept = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)

    def begin(self, name: str) -> int:
        sid = self._next_sid
        self._next_sid += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, name, parent, self._clock()))
        return sid

    def end(self, sid: int) -> None:
        t = self._clock()
        top_sid, name, parent, start = self._stack.pop()
        if top_sid != sid:
            raise RuntimeError(f"span {sid} closed while span {top_sid} ({name}) is open")
        self._closed.append(Span(sid, name, start, t, parent, self.op))

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def close_op(self) -> dict:
        """Fold the current op's spans into the totals; return their self times by span id."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open at the end of op {self.op}")
        spans, self._closed = self._closed, []
        own = self_times(spans)
        for s in spans:
            self.calls[s.name] += 1
            self.self_s[s.name] += own[s.sid]
            self.total_s[s.name] += s.end - s.start
        room = max(0, self._keep - len(self.kept))
        self.kept.extend(spans[:room])
        self.dropped += len(spans) - min(room, len(spans))
        return {s.sid: (s, own[s.sid]) for s in spans}

    def write(self, path) -> None:
        """Write the kept spans as CSV; a leading comment counts the spans dropped."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# spans kept {len(self.kept)}, dropped {self.dropped}\n")
            out = csv.writer(fh)
            out.writerow(Span._fields)
            for s in self.kept:
                out.writerow((s.sid, s.name, repr(s.start), repr(s.end), s.parent, s.op))
