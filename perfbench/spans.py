"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own code, around its calls into
each layer's public functions (and, by instance attribute, around the
public methods a layer calls on objects the benchmark built — the
ProfileStore getters, each matcher's ``match``).  The program itself is
not instrumented.

A span records its name, start, end, parent and request id.  Spans are
only recorded inside a request (a root span opened with
:meth:`SpanRecorder.request`): a wrapped method called outside one —
the untraced half of a traced run, a correctness pass — runs with one
thread-local lookup of overhead and leaves no span.  Spans stay in
memory until :meth:`SpanRecorder.write_jsonl` at the end of the run.

A span's *self time* is its duration minus the part of its interval
that its direct children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable


@dataclass(slots=True)
class Span:
    span_id: int
    parent_id: int | None
    request_id: int
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-aware in-memory span recorder."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self._clock = clock
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[Span] = []

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request(self, name: str) -> "_OpenSpan":
        """A root span with a fresh request id (entering yields the id)."""
        stack = self._stack()
        if stack:
            raise RuntimeError(f"request {name!r} opened inside a request")
        return _OpenSpan(self, stack, name, None, next(self._request_ids))

    def span(self, name: str):
        """A child span of the thread's current span (no-op outside a
        request)."""
        stack = self._stack()
        if not stack:
            return _NOT_RECORDED
        parent_id, request_id = stack[-1]
        return _OpenSpan(self, stack, name, parent_id, request_id)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording a ``name`` span whenever called in a request."""
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                return fn(*args, **kwargs)
            parent_id, request_id = stack[-1]
            with _OpenSpan(self, stack, name, parent_id, request_id):
                return fn(*args, **kwargs)

        return traced

    def write_jsonl(self, path: str | Path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class _OpenSpan:
    """Context manager for one span in flight."""

    __slots__ = ("_recorder", "_stack", "_name", "_parent_id",
                 "_request_id", "_span_id", "_start")

    def __init__(self, recorder: SpanRecorder, stack: list, name: str,
                 parent_id: int | None, request_id: int) -> None:
        self._recorder = recorder
        self._stack = stack
        self._name = name
        self._parent_id = parent_id
        self._request_id = request_id

    def __enter__(self) -> int:
        self._span_id = next(self._recorder._ids)
        self._stack.append((self._span_id, self._request_id))
        self._start = self._recorder._clock()
        return self._request_id

    def __exit__(self, *exc_info) -> None:
        end = self._recorder._clock()
        self._stack.pop()
        self._recorder.spans.append(Span(
            self._span_id, self._parent_id, self._request_id, self._name,
            self._start, end))


_NOT_RECORDED = nullcontext()


def covered(interval: tuple[float, float],
            children: Iterable[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by ``children``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children
                     if min(b, hi) > max(a, lo))
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """span id -> self time (duration minus children's coverage)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(
                (span.start, span.end))
    return {span.span_id: span.duration - covered(
                (span.start, span.end), children.get(span.span_id, ()))
            for span in spans}


@dataclass(frozen=True)
class Attribution:
    """Self time per span name over a set of requests."""

    requests: int
    total: float
    #: span name -> summed self time; the root's own name holds the
    #: time no layer span covered.
    self_seconds: dict[str, float]

    def per_request_ms(self, name: str) -> float:
        if not self.requests:
            return 0.0
        return self.self_seconds.get(name, 0.0) / self.requests * 1000.0

    def share(self, name: str) -> float:
        return self.self_seconds.get(name, 0.0) / self.total \
            if self.total else 0.0


def attribute(spans: Iterable[Span], root_name: str) -> Attribution:
    """Sum self times over every request whose root is ``root_name``.

    The self times of a request's spans add up to its root's duration,
    so the layer shares plus the root's unattributed share are exactly
    the end-to-end total.
    """
    spans = list(spans)
    roots = {span.request_id: span for span in spans
             if span.parent_id is None and span.name == root_name}
    own = self_times(spans)
    totals: dict[str, float] = {}
    for span in spans:
        if span.request_id in roots:
            totals[span.name] = totals.get(span.name, 0.0) \
                + own[span.span_id]
    return Attribution(
        requests=len(roots),
        total=sum(root.duration for root in roots.values()),
        self_seconds=totals)
