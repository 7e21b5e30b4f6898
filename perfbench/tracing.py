"""Span tracing by wrapping the package's functions where callers look them up.

A wrapped function records a span (name, start, end, parent) per call and,
where a counter function is given, the work it did. Spans of one top-level
call (a train call, an evaluate call, one predict request, a set-up step)
share a trace id. Spans stay in memory until `write_spans`.

Counting happens after the wrapped call returns and is excluded from both
the span's own duration and its parent's self time, so bookkeeping shows
only in the overall traced-versus-untraced overhead.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    trace: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0     # the wrapped call returned
    closed: float = 0.0  # the tracer's counting finished


Counter = Callable[[dict, tuple, dict, object], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._traces = 0
        self._paused = False
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, site: str, count: Counter | None = None) -> None:
        """Replace the function at `site` ("module:attr.attr") by a recording wrapper.

        A site that no longer exists is noted in `absent` and left alone.
        """
        module_name, _, path = site.partition(":")
        *parents, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
        except ModuleNotFoundError:
            owner = None
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(f"{name} at {site}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            span.closed = perf_counter()
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._traces += 1
        span = Span(
            id=len(self.spans), trace=self._traces,
            parent=parent.id if parent else None, name=name, start=perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Calls made inside this block record nothing."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self, root: str | None = None) -> dict[str, dict[str, float]]:
        """Per name: calls, total seconds inside the call, and self seconds.

        With `root`, only the spans of traces whose top-level span has that name.
        """
        roots = {s.trace: s.name for s in self.spans if s.parent is None}
        spans = [s for s in self.spans if root is None or roots[s.trace] == root]
        child_time = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                child_time[span.parent] += (span.closed or span.end) - span.start
        out: dict[str, dict[str, float]] = {}
        for span in spans:
            entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - child_time[span.id]
        return out

    def roots(self) -> list[str]:
        """Names of the top-level spans, in order of first appearance."""
        return list(dict.fromkeys(s.name for s in self.spans if s.parent is None))

    def write_spans(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "trace": s.trace, "parent": s.parent, "name": s.name,
                    "start": s.start - t0, "end": s.end - t0,
                }) + "\n")
