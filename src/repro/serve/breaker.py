"""Per-shard circuit breaker: stop hammering a store that keeps failing.

Retry-with-backoff (:mod:`repro.serve.opener`) is the right answer to a
*transient* fault; it is exactly the wrong answer to a shard that has
been failing for minutes — every request then burns its full retry
budget re-proving the same outage.  A :class:`CircuitBreaker` counts
*consecutive* failures per shard name and, past a threshold, fails calls
against that shard immediately (:class:`CircuitOpenError`) until a
cooldown elapses; the first call after the cooldown is the trial that
either closes the circuit (success) or re-opens it for another cooldown.

Composition order matters: :func:`breaking_opener` goes *around* the
retrying opener —

    breaking_opener(retrying_opener(shard_opener, ...), breaker)

— so one exhausted retry budget counts as one breaker failure, not
``attempts`` of them, and an open circuit short-circuits before any
backoff sleep is paid.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core.container import ContainerIOError


class CircuitOpenError(ContainerIOError):
    """The shard's circuit is open: failing fast instead of retrying.

    Subclasses :class:`ContainerIOError` (``OSError`` + ``ValueError``),
    so retry layers classify it as non-transient and never burn backoff
    on it.
    """

    def __init__(self, message: str, *, shard: str | None = None, retry_in: float = 0.0):
        super().__init__(message)
        self.shard = shard
        self.retry_in = retry_in


@dataclass
class _ShardHealth:
    consecutive_failures: int = 0
    total_failures: int = 0
    total_successes: int = 0
    opened_at: float | None = None
    n_opens: int = 0
    #: One post-cooldown trial call is allowed through at a time.
    trial_in_flight: bool = False


#: Consecutive failures that open a shard's circuit.
FAILURE_THRESHOLD = 5

#: Seconds an open circuit fails fast before it lets one trial call through.
COOLDOWN = 30.0


class CircuitBreaker:
    """Consecutive-failure breaker keyed by shard name, thread-safe.

    :data:`FAILURE_THRESHOLD` consecutive failures open a shard's
    circuit; while open, :meth:`check` raises :class:`CircuitOpenError`
    without touching the store.  After :data:`COOLDOWN` seconds one trial
    call is let through (half-open): its success resets the shard, its
    failure re-opens the circuit for a fresh cooldown.  ``clock`` is
    injectable so tests control time.
    """

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._shards: dict[str, _ShardHealth] = {}

    def _health(self, name: str) -> _ShardHealth:
        health = self._shards.get(name)
        if health is None:
            health = self._shards[name] = _ShardHealth()
        return health

    # -- protocol ----------------------------------------------------------
    def check(self, name: str) -> None:
        """Raise :class:`CircuitOpenError` if ``name``'s circuit is open
        (and no trial slot is available); otherwise allow the call."""
        with self._lock:
            health = self._health(name)
            if health.opened_at is None:
                return
            elapsed = self._clock() - health.opened_at
            if elapsed >= COOLDOWN and not health.trial_in_flight:
                health.trial_in_flight = True  # half-open: one trial through
                return
            retry_in = max(0.0, COOLDOWN - elapsed)
            raise CircuitOpenError(
                f"circuit open for shard {name!r} after "
                f"{health.consecutive_failures} consecutive failure(s); "
                f"next trial in {retry_in:.1f}s",
                shard=name,
                retry_in=retry_in,
            )

    def record_success(self, name: str) -> None:
        with self._lock:
            health = self._health(name)
            health.consecutive_failures = 0
            health.total_successes += 1
            health.opened_at = None
            health.trial_in_flight = False

    def record_failure(self, name: str) -> bool:
        """Count one failure; returns whether the circuit is now open."""
        with self._lock:
            health = self._health(name)
            health.consecutive_failures += 1
            health.total_failures += 1
            health.trial_in_flight = False
            if health.consecutive_failures >= FAILURE_THRESHOLD:
                if health.opened_at is None:
                    health.n_opens += 1
                health.opened_at = self._clock()
                return True
            return False

    # -- accounting --------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-shard health rows plus totals (what ``stats()`` reports)."""
        with self._lock:
            return {
                name: {
                    "open": health.opened_at is not None,
                    "consecutive_failures": health.consecutive_failures,
                    "total_failures": health.total_failures,
                    "total_successes": health.total_successes,
                    "n_opens": health.n_opens,
                }
                for name, health in self._shards.items()
            }


class _BreakerSource:
    """A byte source whose reads report into the shard's breaker."""

    def __init__(self, inner, breaker: CircuitBreaker, name: str):
        self._inner = inner
        self._breaker = breaker
        self._name = name
        self.label = getattr(inner, "label", name)
        self.local = getattr(inner, "local", False)

    def read_at(self, offset: int, length: int) -> bytes:
        self._breaker.check(self._name)
        try:
            payload = self._inner.read_at(offset, length)
        except CircuitOpenError:
            raise
        except Exception:
            self._breaker.record_failure(self._name)
            raise
        self._breaker.record_success(self._name)
        return payload

    def close(self) -> None:
        self._inner.close()


def breaking_opener(opener, breaker: CircuitBreaker):
    """Wrap a ``name → source`` opener (typically an already-retrying
    one) so opens and reads feed — and obey — ``breaker``."""

    def open_breaking(name: str):
        breaker.check(name)
        try:
            src = opener(name)
        except CircuitOpenError:
            raise
        except Exception:
            breaker.record_failure(name)
            raise
        breaker.record_success(name)
        return _BreakerSource(src, breaker, name)

    open_breaking.breaker = breaker
    return open_breaking
