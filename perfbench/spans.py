"""In-memory span recorder for the traced run.

A span is one timed call into a layer's public function: its name, start
and end (``time.perf_counter`` seconds), the span that was open when it
began, and the trajectory or request ids it worked on.  Spans stay in
memory while the run measures and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence


class Tracer:
    """Records nested spans; derives per-name self time and phase coverage."""

    def __init__(self) -> None:
        # One row per span: [name, start, end, parent index, ids].
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, ids: Sequence[int] = ()) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        row = [name, time.perf_counter(), 0.0, parent, tuple(ids)]
        self.spans.append(row)
        self._open.append(index)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def _child_time(self) -> List[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return covered

    def self_times(self) -> Dict[str, float]:
        """Seconds each span name spent outside its child spans."""
        covered = self._child_time()
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name] += (end - start) - child
        return dict(totals)

    def totals(self) -> Dict[str, float]:
        """Summed wall seconds per span name (children included)."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        """Wall seconds of every ``name`` span, in start order."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = defaultdict(int)
        for row in self.spans:
            counts[row[0]] += 1
        return dict(counts)

    def coverage(self, phase: str) -> float:
        """Share of the ``phase`` spans' wall clock spent inside child
        (layer) spans."""
        covered = self._child_time()
        wall = inside = 0.0
        for (name, start, end, _, _), child in zip(self.spans, covered):
            if name == phase:
                wall += end - start
                inside += child
        return inside / wall if wall > 0 else 0.0

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent, ids) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "ids": list(ids),
                }) + "\n")
