"""Fault mechanisms: byte-source wrappers that apply a plan's decisions.

:class:`FaultInjectingSource` sits between a reader and any ``read_at``
/ ``close`` byte source (file, memory, object-storage client) and
consults a shared :class:`~repro.faults.plan.FaultPlan` on every read.
:func:`faulty_opener` lifts that onto the archive ``shard_opener`` seam,
so the whole serving stack — ``retrying_opener`` backoff, CRC
verification, prefetch windows, degraded reads — exercises its failure
paths against deterministic faults.  Composition order matters::

    retrying_opener(faulty_opener(default_shard_opener(dir), plan))

puts the injector *under* the retry layer, so a ``times=1`` transient
``oserror`` rule demonstrates retry-then-succeed, while wrapping the
other way would retry nothing.
"""

from __future__ import annotations

import time


class FaultInjectingSource:
    """A byte source that applies a fault plan to every ``read_at``.

    Per fired event, in order: ``latency`` sleeps first (a slow store is
    slow *before* it answers), ``oserror`` raises before any bytes move
    (the transient-failure shape retry layers handle), then the inner
    read happens and ``truncate`` / ``bitflip`` corrupt the returned
    bytes (the shapes the CRC layer must catch).

    ``part_spans`` maps qualified ``<entry_key>/<part>`` names to their
    absolute ``(offset, length)`` in this source (see
    :func:`archive_part_spans`), letting rules target one specific
    stored part even when the read is a coalesced window spanning many.
    """

    def __init__(self, inner, plan, name: str, part_spans=None):
        self._inner = inner
        self._plan = plan
        self.name = name
        self._spans = dict(part_spans or {})
        self.label = f"fault({getattr(inner, 'label', name)})"

    def read_at(self, offset: int, length: int) -> bytes:
        events = self._plan.fire(self.name, offset, length, self._spans)
        for event in events:
            if event.kind == "latency":
                time.sleep(event.delay)
        for event in events:
            if event.kind == "oserror":
                raise OSError(
                    f"injected transient fault on {self.name!r} "
                    f"(read {offset}+{length}, rule {event.rule})"
                )
        data = self._inner.read_at(offset, length)
        for event in events:
            if event.kind == "truncate":
                data = data[: len(data) // 2]
            elif event.kind == "bitflip":
                data = self._flip(data, offset, event)
        return data

    def _flip(self, data: bytes, read_offset: int, event) -> bytes:
        span_off, span_len = event.span
        if event.offset is not None:
            pos = span_off + event.offset
        else:
            # First readable byte of the matched span.
            pos = max(span_off, read_offset)
        idx = pos - read_offset
        if not 0 <= idx < len(data):
            return data  # target byte not in this read; nothing to corrupt
        corrupted = bytearray(data)
        corrupted[idx] ^= 1 << event.bit
        return bytes(corrupted)

    def close(self) -> None:
        self._inner.close()


def faulty_opener(opener, plan, part_spans=None):
    """Wrap a ``name → source`` opener so every source it returns is
    fault-injected under one shared ``plan``.

    ``part_spans`` is ``{source_name: {qualified_part: (offset, len)}}``
    (see :func:`archive_part_spans`); sources without an entry still get
    source-name-targeted faults.
    """

    def open_faulty(name: str):
        return FaultInjectingSource(
            opener(name), plan, name, (part_spans or {}).get(name)
        )

    return open_faulty


def archive_part_spans(head_path, *, shard_opener=None) -> dict[str, dict[str, tuple[int, int]]]:
    """Map each payload shard to the stored spans of the parts inside it.

    Opens the archive *cleanly* (no faults) once, walks every entry's
    part index — metadata only, no payload reads — and returns
    ``{shard_name: {"<entry_key>/<part>": (abs_offset, length)}}``, the
    targeting table that lets a fault rule name one brick
    (``match="*/L0/b3"``) out of a multi-entry shard.  Monolithic
    archives have no shards to target and return ``{}``.
    """
    from repro.engine.archive import LazyBatchArchive

    spans: dict[str, dict[str, tuple[int, int]]] = {}
    with LazyBatchArchive.open(head_path, shard_opener=shard_opener) as lazy:
        if not lazy.is_sharded:
            return {}
        entry_shards = lazy.entry_shards()
        for key in lazy.keys():
            entry = lazy.entry(key)
            table = spans.setdefault(entry_shards[key], {})
            for name, (off, length) in entry.parts.spans().items():
                table[f"{key}/{name}"] = (off, length)
    return spans
