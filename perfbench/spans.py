"""In-memory spans recorded around the benchmark's own calls into rsinv.

A span is ``[name, start, end, parent, n]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (or
None) and ``n`` the size of the input when the caller gives one.
"""
from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, n: int | None = None) -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [name, perf_counter(), None, parent, n]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def busy(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(self.durations(name), 0.0)

    def durations(self, name: str, n: int | None = None) -> list[float]:
        return [
            end - start
            for span_name, start, end, _, size in self.spans
            if span_name == name and (n is None or size == n)
        ]

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (count, total seconds, self seconds); self time is the
        duration minus the time covered by direct child spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            count, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (count + 1, total + end - start, own + end - start - child_time[i])
        return out
