"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(name, start, end, parent, request)``. Spans live in a list
while the traced run executes and are written out once it ends. A layer's
*self time* is its span's duration minus the part of that interval its
child spans cover, so a parent that only sequences calls reads near zero.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "SpanRecorder", "self_times"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans kept in memory; the open spans form a stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, request: Optional[int] = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        record = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Self time summed per span name.

    Each child interval is clipped to its parent's interval before the
    union is taken, so overlapping or overhanging children are counted
    once and never push self time below zero.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            parent = by_id[s.parent]
            start, end = max(s.start, parent.start), min(s.end, parent.end)
            if end > start:
                children.setdefault(s.parent, []).append((start, end))
    out: Dict[str, float] = {}
    for s in spans:
        own = s.duration - _covered(children.get(s.id, []))
        out[s.name] = out.get(s.name, 0.0) + own
    return out
