"""Bounded, thread-safe LRU of *decoded* bricks.

The natural unit of reuse when many readers request overlapping ROIs is
the decoded 64³ brick (or group stream): payload fetch *and* SZ decode
are both paid once, and every later request whose plan covers the same
``(chain, level, unit)`` is served from memory.  A delta chain's summed
unit is cached under the chain, next to each entry's own decoded unit
under the entry's chain of one.  Decode tables are not worth caching (a
16³ brick's Huffman code is nearly always its own).

The cache is byte-bounded, not entry-bounded: decoded bricks vary from
kilobytes (clipped edge bricks) to megabytes, so a count bound would
make the memory ceiling depend on the archive.  Hits, misses, and
evictions are counted; ``stats()`` is what the read-service benchmark
gates on.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

#: Cache keys are ``(chain, level, unit_key)``: ``chain`` is the tuple of
#: entry keys whose units are summed, base first — ``(entry_key,)`` for an
#: entry's own decoded unit, ``(keyframe, delta, ...)`` for a delta chain's
#: sum (see :meth:`repro.serve.reader.ArchiveReader.read_chain`).
CacheKey = tuple


def _nbytes(value) -> int:
    """Best-effort decoded size (ndarrays report exactly)."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return sys.getsizeof(value)


class DecodedBrickCache:
    """LRU mapping ``(chain, level, unit) → decoded array``, byte-bounded.

    ``get``/``put`` are safe from any number of threads.  A value larger
    than the whole budget is simply not cached (it would evict everything
    for a single-use tenancy).  Eviction is strict LRU on access order.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[CacheKey, tuple[object, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey):
        """The cached value, refreshed to most-recently-used, or ``None``."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return cached[0]

    def put(self, key: CacheKey, value) -> bool:
        """Insert (or refresh) ``key``; returns whether it was cached
        (``False`` when the value alone exceeds the whole budget)."""
        size = _nbytes(value)
        if size > self.max_bytes:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old[1]
            self._entries[key] = (value, size)
            self.current_bytes += size
            self.insertions += 1
            while self.current_bytes > self.max_bytes:
                _evicted_key, (_value, evicted_size) = self._entries.popitem(last=False)
                self.current_bytes -= evicted_size
                self.evictions += 1
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    # -- accounting --------------------------------------------------------
    def hit_rate(self) -> float:
        with self._lock:
            lookups = self.hits + self.misses
            return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "current_bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / lookups if lookups else 0.0,
                "evictions": self.evictions,
                "insertions": self.insertions,
            }
