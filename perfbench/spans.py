"""In-memory span recorder, self-time arithmetic and attribute patching.

A span is one timed call: name, start, end, parent span and operation id.
Spans are kept in a list while the run goes and written out once it ends.
A span's self time is its duration minus the part of it that its child
spans cover, so nested calls are never counted twice.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

NO_PARENT = -1


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op


class Recorder:
    """Spans and counters of one traced run. Single-threaded by design:
    the open-span stack is the parent chain."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append(Span(name, self.clock(), parent, self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextmanager
    def operation(self, name: str):
        """One public call made by the benchmark: a root span whose
        descendants all share a fresh operation id."""
        self._op += 1
        with self.span(name):
            yield

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def write(self, path: Path) -> None:
        """Tab-separated spans: id, parent, op, name, start and end in
        nanoseconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        lines = ["id\tparent\top\tname\tstart_ns\tend_ns"]
        for i, s in enumerate(self.spans):
            lines.append(f"{i}\t{s.parent}\t{s.op}\t{s.name}\t"
                         f"{round((s.start - t0) * 1e9)}\t{round((s.end - t0) * 1e9)}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent != NO_PARENT:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """name -> {"calls", "total_s", "self_s"} summed over every span."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                            "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        entry = out[s.name]
        entry["calls"] += 1
        entry["total_s"] += s.end - s.start
        entry["self_s"] += own
    return dict(out)


class Patcher:
    """Replaces attributes and puts the originals back, last in first out."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
