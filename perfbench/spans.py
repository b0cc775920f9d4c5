"""In-memory span recorder that wraps public calls from outside the program.

The benchmark never edits ``src/``: a traced run patches the attribute that
names a public function or method (``Placer.place``, the ``compile_files``
name inside ``repro.apps.base`` ...) with a thin wrapper that records one
:class:`Span` per call and restores the original on exit. Spans keep their
parent (the innermost open span of the same thread), so a layer's self time
is its span's duration minus the part its children cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into SpanRecorder.spans
    tag: str | None = None  # app name or request id
    phase: str = "setup"
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-aware span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.tag: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str, counts=None, tag=None):
        """Return *fn* wrapped to record a span per call.

        *counts(result, args, kwargs)* returns a dict of exact counts for the
        span; *tag(args, kwargs)* names the request a span serves (children
        inherit their parent's tag).
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if tag is not None:
                span_tag = tag(args, kwargs)
            elif parent is not None:
                span_tag = recorder.spans[parent].tag
            else:
                span_tag = recorder.tag
            span = Span(name, layer, 0.0, parent=parent, tag=span_tag,
                        phase=recorder.phase)
            with recorder._lock:
                index = len(recorder.spans)
                recorder.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counts = counts(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, layer: str, **kwargs) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, **kwargs))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            interval = (max(span.start, parent.start), min(span.end, parent.end))
            if interval[1] > interval[0]:
                children.setdefault(span.parent, []).append(interval)
    return [
        span.seconds - _covered(children.get(i, [])) for i, span in enumerate(spans)
    ]


def wrapper_cost_seconds(repeats: int = 20000) -> float:
    """Measured added cost of one recorded span (wrapper call vs plain call)."""

    def noop():
        return None

    recorder = SpanRecorder()
    traced = recorder.wrap(noop, "calibrate", "none")
    best = float("inf")
    for _ in range(3):
        recorder.spans.clear()
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / repeats)
    return max(0.0, best)
