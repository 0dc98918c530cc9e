"""Production shard openers: retry/backoff + fetch accounting.

``LazyBatchArchive.open(..., shard_opener=...)`` accepts any ``name →
byte source`` callable, which is the object-storage seam — but a bare
opener treats every transient network hiccup as fatal.  This module
wraps any opener (the local-file default included) with the behaviors a
serving system needs:

* **retry with exponential backoff** on *transient* :class:`OSError`\\ s —
  both opening a shard and every ``read_at`` against it.  Data-integrity
  failures (:class:`ValueError`, including
  :class:`~repro.core.container.ContainerIOError`, which subclasses
  both) are never retried: corrupt bytes do not get better on the second
  fetch;
* **fetch accounting** — every open, read, byte, and retry is counted in
  a thread-safe :class:`FetchStats`, so a reader can report bytes
  fetched vs bytes served per request and in aggregate.

Range coalescing — merging a request's adjacent ``read_at`` spans into
one fetch — lives where the part index lives:
:meth:`repro.core.container.LazyPartStore.prefetch`.  The two compose:
a coalesced prefetch through a retrying source retries per merged range.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.core.container import ContainerIOError


def _is_transient(exc: BaseException) -> bool:
    """Retry pure :class:`OSError`\\ s only.

    Anything that is *also* a :class:`ValueError` — truncation checks,
    negative-span rejection, :class:`ContainerIOError` — is a data or
    contract failure, not a flaky transport.
    """
    return isinstance(exc, OSError) and not isinstance(exc, ValueError)


#: Cap (seconds) on any one wait between retries.
MAX_DELAY = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a transient failure, and how patiently.

    ``attempts`` counts total tries (1 = no retries).  Waits double from
    ``base_delay`` per retry, capped at :data:`MAX_DELAY`; ``sleep`` is
    injectable so tests (and event-loop integrations) never actually
    block.
    """

    attempts: int = 4
    base_delay: float = 0.05
    sleep: object = time.sleep

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")

    def delays(self):
        """The wait before each retry (``attempts - 1`` values)."""
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            yield min(delay, MAX_DELAY)
            delay *= 2.0


@dataclass
class FetchStats:
    """Thread-safe I/O accounting shared by an opener and its sources."""

    opens: int = 0
    open_retries: int = 0
    reads: int = 0
    read_retries: int = 0
    bytes_fetched: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_open(self, retries: int) -> None:
        with self._lock:
            self.opens += 1
            self.open_retries += retries

    def record_read(self, nbytes: int, retries: int) -> None:
        with self._lock:
            self.reads += 1
            self.read_retries += retries
            self.bytes_fetched += nbytes

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "opens": self.opens,
                "open_retries": self.open_retries,
                "reads": self.reads,
                "read_retries": self.read_retries,
                "bytes_fetched": self.bytes_fetched,
            }


def _call_with_retry(fn, policy: RetryPolicy, describe: str) -> tuple[object, int]:
    """``(result, n_retries)`` of ``fn()`` under ``policy``.

    Transient failures are retried with backoff; the final failure is
    wrapped in :class:`ContainerIOError` naming the operation and how
    many tries it got.  Non-transient failures propagate immediately.
    """
    retries = 0
    for delay in policy.delays():
        try:
            return fn(), retries
        except Exception as exc:
            if not _is_transient(exc):
                raise
            retries += 1
            policy.sleep(delay)
    try:
        return fn(), retries
    except Exception as exc:
        if not _is_transient(exc):
            raise
        raise ContainerIOError(
            f"{describe} still failing after {policy.attempts} attempt(s): {exc}"
        ) from exc


class RetryingSource:
    """A byte source whose ``read_at`` retries transient failures.

    Wraps any ``read_at``/``close`` object; every successful read is
    recorded in the shared :class:`FetchStats`.
    """

    def __init__(self, inner, policy: RetryPolicy, stats: FetchStats):
        self._inner = inner
        self._policy = policy
        self._stats = stats
        self.label = getattr(inner, "label", "<source>")
        self.local = getattr(inner, "local", False)

    def read_at(self, offset: int, length: int) -> bytes:
        payload, retries = _call_with_retry(
            lambda: self._inner.read_at(offset, length),
            self._policy,
            f"read of {length} bytes at offset {offset} from {self.label}",
        )
        self._stats.record_read(length, retries)
        return payload

    def close(self) -> None:
        self._inner.close()


def retrying_opener(opener, policy: RetryPolicy | None = None, stats: FetchStats | None = None):
    """Wrap a ``name → source`` opener with retry/backoff + accounting.

    The returned callable plugs straight into
    ``LazyBatchArchive.open(shard_opener=...)``: opens retry under
    ``policy`` and every source it yields is a :class:`RetryingSource`
    sharing one :class:`FetchStats` (reachable as the returned opener's
    ``stats`` attribute).
    """
    policy = policy or RetryPolicy()
    stats = stats or FetchStats()

    def open_with_retry(name: str):
        src, retries = _call_with_retry(
            lambda: opener(name), policy, f"open of shard {name!r}"
        )
        stats.record_open(retries)
        return RetryingSource(src, policy, stats)

    open_with_retry.stats = stats
    open_with_retry.policy = policy
    return open_with_retry
