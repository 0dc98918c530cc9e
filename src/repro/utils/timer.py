"""Lightweight wall-clock instrumentation for the compression pipeline.

The paper reports pre-process time (Fig. 13) and end-to-end throughput
(Table 2); every stage of the pipeline therefore needs cheap, composable
timing.  ``Timer`` is a context manager that accumulates named spans into a
``TimingRecord`` so a pipeline can report per-stage and total time without
threading timing arguments through every call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class TimingRecord:
    """Accumulated wall-clock spans, keyed by stage name.

    Attributes
    ----------
    spans:
        Mapping from stage name to accumulated seconds.  Re-entering a stage
        adds to its total, so loops over blocks/levels aggregate naturally.
    """

    spans: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the span called ``name``."""
        self.spans[name] = self.spans.get(name, 0.0) + float(seconds)

    def total(self) -> float:
        """Sum of all spans in seconds."""
        return float(sum(self.spans.values()))

    def get(self, name: str, default: float = 0.0) -> float:
        """Seconds accumulated under ``name`` (``default`` if never timed)."""
        return self.spans.get(name, default)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self.spans.items()))
        return f"TimingRecord({parts})"


class Timer:
    """Context-manager timer that records into a :class:`TimingRecord`.

    Example
    -------
    >>> record = TimingRecord()
    >>> with Timer(record, "preprocess"):
    ...     pass
    >>> record.get("preprocess") >= 0.0
    True
    """

    def __init__(self, record: TimingRecord, name: str):
        self.record = record
        self.name = name
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start
        self.record.add(self.name, self.elapsed)


@contextmanager
def timed(record: TimingRecord | None, name: str):
    """Like :class:`Timer` but tolerates ``record=None`` (timing disabled)."""
    if record is None:
        yield
        return
    with Timer(record, name):
        yield
