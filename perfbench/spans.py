"""In-memory spans recorded by wrapping a package's entry points from outside.

A ``Tracer`` replaces a function on a module, or a method on a class, with a
wrapper that records one span per call: its name, start, end, the span that
was open when it started (its parent) and the operation it belongs to. The
spans stay in memory until ``write_jsonl`` is called at the end of a run, so
the only cost inside the measured region is two clock reads and a list
append per call.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = ["Span", "Tracer", "self_times", "write_jsonl"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the tracer's list; -1 at a root
    op: str  # id of the operation the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans from a single thread."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.op = ""
        self._clock = clock
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), float("nan"), parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, attrs: dict | None = None, end: float | None = None) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = self._clock() if end is None else end
        if attrs:
            span.attrs.update(attrs)

    def wrap(self, owner, attr: str, name: str, annotate=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is a module or a class that defines ``attr`` itself.
        ``annotate(arguments, result)`` may return counts to attach to the
        span, where ``arguments`` maps parameter names to the call's values.
        A call that raises gets an ``error`` attribute and re-raises.
        """
        original = vars(owner)[attr]
        signature = inspect.signature(original) if annotate else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.close(index, {"error": type(exc).__name__})
                raise
            end = self._clock()
            attrs = None
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = annotate(bound.arguments, result)
            self.close(index, attrs, end=end)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Put back every original wrapped by this tracer, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children of one span may not overlap in a single-threaded trace, but the
    covered part is taken as the union of their intervals, clipped to the
    parent, so the result never goes below zero.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def write_jsonl(spans: list[Span], path: Path) -> None:
    """One JSON object per span, in the order the spans were opened."""
    with Path(path).open("w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")
