"""Outside-in span tracing for tacbench.

Nothing under ``src/`` knows about this module.  :func:`install` resolves
the span table of :mod:`spec` (``span name -> "module:qualname"``) and
replaces each target attribute with a timing wrapper; the returned
``restore`` callable puts the originals back.  A target that no longer
resolves (a later refactor renamed or removed it) is reported in the
``missing`` list instead of raising, so the metrics that depend on it
degrade to ``null`` and the run still completes.

A span records name, start, end, parent and the request it belongs to.
The benchmark is a closed loop with one client, so at most one request is
in flight: spans opened on the program's worker threads (the read
service's fetch/decode pools) attach to the current request's root.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder (thread-safe; written out at exit)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Span | None = None

    @contextmanager
    def span(self, name: str, root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._root
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent is not None else None,
            request=None,
            start=time.perf_counter(),
        )
        if root:
            self._root = span
        owner = span if root else self._root
        span.request = owner.id if owner is not None else None
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            with self._lock:
                self.spans.append(span)

    def request(self, name: str):
        """Root span of one client operation; its id is the request id."""
        return self.span(name, root=True)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                row = {
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "request": s.request, "start": s.start, "end": s.end,
                }
                if s.attrs:
                    row["attrs"] = s.attrs
                fh.write(json.dumps(row) + "\n")


def _resolve(target: str):
    """``"module:Owner.attr"`` -> ``(owner object, attr name)``."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise AttributeError(f"{target} has no attribute {attr!r}")
    return owner, attr


def _wrap(fn, name: str, tracer: Tracer, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        finish = hook(args, kwargs) if hook is not None else None
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
        if finish is not None:
            span.attrs.update(finish(out))
        return out

    return traced


def install(tracer: Tracer, table, hooks: dict):
    """Wrap every resolvable target of ``table``.

    ``table`` rows are ``(span name, target, envelope flag)``; ``hooks``
    maps a span name to ``hook(args, kwargs) -> finish(result) -> attrs``
    (the hook may add keyword arguments, e.g. a ``timings=`` record).
    Returns ``(restore, missing)``.
    """
    originals = []
    missing = []
    for name, target, _envelope in table:
        try:
            owner, attr = _resolve(target)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        # The raw class attribute keeps classmethod/staticmethod wrappers.
        raw = vars(owner).get(attr, getattr(owner, attr))
        hook = hooks.get(name)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(raw.__func__, name, tracer, hook))
        else:
            wrapped = _wrap(raw, name, tracer, hook)
        originals.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def restore():
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore, missing


# -- interval arithmetic for self time ---------------------------------------

def _union(intervals):
    """Merge ``(start, end)`` pairs into disjoint sorted intervals."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def _subtract(interval, holes):
    """``interval`` minus the (disjoint, sorted) ``holes``."""
    start, end = interval
    out = []
    for h_start, h_end in holes:
        if h_end <= start or h_start >= end:
            continue
        if h_start > start:
            out.append((start, h_start))
        start = max(start, h_end)
    if start < end:
        out.append((start, end))
    return out


def self_intervals(spans) -> dict[int, list]:
    """Span id -> the parts of its interval that no child span covers."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: _subtract((s.start, s.end), _union(children.get(s.id, []))) for s in spans
    }


def self_seconds(spans) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    return {
        span_id: sum(end - start for start, end in intervals)
        for span_id, intervals in self_intervals(spans).items()
    }


def unattributed_seconds(root: Span, spans, envelopes: set[str]) -> float:
    """Wall time of ``root`` during which no layer span was doing its own
    work: the root's duration minus the union of the self-intervals of
    every non-envelope span of the request (threads overlap, hence the
    union)."""
    own = self_intervals(spans)
    busy = [
        interval
        for s in spans
        if s.id != root.id and s.name not in envelopes
        for interval in own[s.id]
    ]
    covered = sum(
        min(end, root.end) - max(start, root.start)
        for start, end in _union(busy)
        if end > root.start and start < root.end
    )
    return max(0.0, root.seconds - covered)
