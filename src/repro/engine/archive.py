"""Multi-entry batch archive: many compressed datasets in one container.

A production pipeline compresses whole snapshots — several fields, often
several timesteps — and wants one artifact per batch, not a directory of
loose blobs.  An archive holds any number of
:class:`~repro.core.container.CompressedDataset` entries (each the output
of any registry codec) behind a JSON manifest that records per-entry
method, sizes, and accounting, so an archive can be inspected without
decoding a single payload.

Wire format (all integers little-endian)::

    b"RPBT" | u8 version | u64 head_len | JSON head | entry blobs

**Version 3, the sharded layout, is the one written**: the ``RPBT`` file
is a manifest-only *head shard* — JSON head, zero payload bytes — whose
entry index points into external *payload shards*
(``<stem>.shard-NNNN.rpsh`` files next to the head today; the shard
records carry plain names resolved through a pluggable opener, which is
the object-storage seam).  Payload shards are raw concatenations of
container blobs, each written in one pass by
:class:`~repro.core.container.StreamingContainerWriter`, so
:class:`ShardedArchiveWriter` streams an arbitrarily large batch with
peak memory bounded by one entry.  The head records per-shard sizes and
CRC-32s, so a damaged or missing shard names itself instead of decoding
garbage.  Keys are sorted in the head, so equal batches write equal
bytes.

The monolithic versions are read-only: version 1 length-prefixes each
entry blob, version 2 records an entry index (``key → offset/length``
relative to the payload region) in the head.  :class:`LazyBatchArchive`
reads all three: open a file or buffer, read the head, and serve any
entry as a :class:`~repro.core.container.LazyCompressedDataset` without
parsing its siblings.
"""

from __future__ import annotations

import copy
import json
import os
import struct
import threading
import zlib
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.amr.hierarchy import AMRDataset
from repro.core.container import (
    MASK_PREFIX,
    ContainerIOError,
    LazyCompressedDataset,
    StreamingCompression,
    StreamingContainerWriter,
    make_source,
    read_fixed_header,
)
from repro.engine import registry

_MAGIC = b"RPBT"
#: Wire version of sharded (head + payload shards) archives, the one written.
SHARDED_ARCHIVE_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3)
_HEAD = struct.Struct("<BQ")
_LEN = struct.Struct("<Q")

#: Default payload-shard roll-over size (bytes) for sharded writes.
DEFAULT_SHARD_SIZE = 64 * 1024 * 1024


#: Entry-meta key of a mask-less entry (one field of a multi-field ingest
#: step): the key of the archive entry whose ``mask/`` parts it reads.
STRUCTURE_META_KEY = "structure"


class _SharedMaskParts(Mapping):
    """An entry's own parts plus the ``mask/`` parts of its structure
    holder — what the entry's codec plans and decodes against."""

    def __init__(self, own, holder):
        self.own, self.holder = own, holder
        self._masks = [name for name in holder if name.startswith(MASK_PREFIX)]

    def __getitem__(self, name: str) -> bytes:
        if name in self.own:
            return self.own[name]
        if name in self._masks:
            return self.holder[name]
        raise KeyError(name)

    def __contains__(self, name) -> bool:  # Mapping's default would fetch
        return name in self.own or name in self._masks

    def __iter__(self):
        return iter([*self.own, *self._masks])

    def __len__(self) -> int:
        return len(self.own) + len(self._masks)

    # -- the lazy store's accounting, over both stores ---------------------
    def sizes(self) -> dict[str, int]:
        held = self.holder.sizes()
        return {**self.own.sizes(), **{name: held[name] for name in self._masks}}

    def accessed(self) -> set[str]:
        return self.own.accessed() | self.holder.accessed()

    @property
    def bytes_read(self) -> int:
        return self.own.bytes_read + self.holder.bytes_read


def with_structure(entry, key: str, lookup):
    """``entry`` as its codec reads it — the one place a ``structure``
    reference is resolved.

    An entry without the reference (every single-field write) is returned
    as is.  One that names a holder comes back as a shallow copy whose
    ``parts`` also serve the holder's ``mask/`` parts, so plans, full
    decodes and partial reads find the masks where they always do;
    ``lookup(holder_key)`` supplies the holder entry (``KeyError`` when
    the archive has none).
    """
    holder_key = entry.meta.get(STRUCTURE_META_KEY)
    if holder_key is None:
        return entry
    try:
        holder = lookup(holder_key)
    except KeyError:
        holder = None
    if holder is None or not any(name.startswith(MASK_PREFIX) for name in holder.parts):
        raise ContainerIOError(
            f"entry {key!r} reads its masks from entry {holder_key!r}, which "
            + ("stores none" if holder is not None else "the archive does not hold")
        )
    view = copy.copy(entry)
    view.parts = _SharedMaskParts(entry.parts, holder.parts)
    return view


def _shard_name(head_path: Path, idx: int) -> str:
    return f"{head_path.stem}.shard-{idx:04d}.rpsh"


def _staged(path: Path) -> Path:
    """Where a writer keeps ``path``'s bytes until ``close()`` publishes them."""
    return path.with_name(path.name + ".tmp")


def _file_crc32(path, chunk: int = 1 << 18) -> int:
    """CRC-32 of a file, read in bounded chunks (never the whole file)."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


@dataclass
class ShardedWriteReport:
    """What a completed sharded write produced (paths and accounting)."""

    head_path: Path
    shard_paths: list[Path]
    n_entries: int
    payload_bytes: int
    head_bytes: int

    def total_bytes(self) -> int:
        return self.payload_bytes + self.head_bytes


class ShardedArchiveWriter:
    """Stream entries into payload shards; emit the v3 head at close.

    The bounded-memory batch write path: each entry is serialized
    part-by-part through
    :class:`~repro.core.container.StreamingContainerWriter` straight into
    the current shard file, so peak memory is one entry's largest part
    plus the entry's (already materialized) part dict — never the batch.
    A new shard starts whenever the current one has reached
    ``shard_size`` (an entry is never split across shards, so shards can
    exceed it by one entry).  Shards and head are staged under temporary
    sibling names (``<name>.tmp``) and ``close()`` publishes them with
    ``os.replace`` — shards first, the manifest-only head last — so an
    archive already at ``head_path`` stays whole until then; an exception
    inside the ``with`` block aborts and removes the staged files only.
    """

    def __init__(
        self,
        head_path,
        *,
        shard_size: int = DEFAULT_SHARD_SIZE,
        meta: dict | None = None,
    ):
        if shard_size <= 0:
            raise ValueError(f"shard_size must be positive, got {shard_size}")
        self._head_path = Path(head_path)
        self._shard_size = int(shard_size)
        self._meta = dict(meta or {})
        self._dir = self._head_path.parent
        self._index: dict[str, list[int]] = {}
        self._manifest: dict[str, dict] = {}
        self._shards: list[dict] = []
        self._shard_paths: list[Path] = []
        self._fh = None
        self._shard_offset = 0
        self._closed = False
        #: Set by :meth:`close`.
        self.report: ShardedWriteReport | None = None

    # -- shard lifecycle ---------------------------------------------------
    def _open_shard(self) -> None:
        path = self._dir / _shard_name(self._head_path, len(self._shard_paths))
        self._fh = open(_staged(path), "wb")
        self._shard_paths.append(path)
        self._shard_offset = 0

    def _finalize_shard(self) -> None:
        if self._fh is None:
            return
        self._fh.close()
        self._fh = None
        path = self._shard_paths[-1]
        # The CRC is a chunked re-read rather than a running accumulator:
        # each entry's header slot is seek-patched after its payloads, so
        # the byte stream is not written in final order.  The shard was
        # just written, so this pass reads from the page cache.
        self._shards.append(
            {
                "name": path.name,
                "n_bytes": self._shard_offset,
                "crc32": _file_crc32(_staged(path)),
            }
        )

    # -- writing -----------------------------------------------------------
    def _begin_entry(self, key: str) -> int:
        """Validate ``key``, roll the shard if due, return the start offset."""
        if self._closed:
            raise ValueError("writer is closed")
        if not key:
            raise ValueError("entry key must be a non-empty string")
        if key in self._index:
            raise ValueError(f"duplicate archive key {key!r}")
        if self._fh is None:
            self._open_shard()
        elif self._shard_offset >= self._shard_size:
            self._finalize_shard()
            self._open_shard()
        return self._shard_offset

    def add_entry(self, key: str, comp) -> None:
        """Stream one finished dataset (eager or lazy view) into the
        current payload shard; the payload bytes are not retained."""
        self.add_entry_stream(key, StreamingCompression.from_dataset(comp))

    def add_entry_stream(self, key: str, stream) -> None:
        """Drain a :class:`~repro.core.container.StreamingCompression` into
        the current payload shard, one level chunk at a time.

        Each chunk's parts go to disk as they arrive and are not
        retained, so peak memory is one *level's* parts, not the entry's
        — and the entry metadata (only final once the stream is
        exhausted) is sealed into the head at the tail.  The resulting
        bytes are identical to ``to_bytes()`` of the collected dataset.
        """
        start = self._begin_entry(key)
        writer = StreamingContainerWriter(
            self._fh,
            stream.method,
            stream.dataset_name,
            original_bytes=stream.original_bytes,
            n_values=stream.n_values,
        )
        for chunk in stream:
            for name, payload in chunk.parts.items():
                writer.add_part(name, payload)
        writer.set_meta(stream.meta)
        length = writer.close()
        self._shard_offset = start + length
        self._index[key] = [len(self._shard_paths) - 1, start, length]
        self._manifest[key] = {
            "key": key,
            "method": stream.method,
            "dataset": stream.dataset_name,
            "original_bytes": stream.original_bytes,
            "compressed_bytes": writer.bytes_written,
            "n_values": stream.n_values,
            "n_parts": writer.n_parts,
        }

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> ShardedWriteReport:
        """Finalize the open shard and write the manifest-only head."""
        if self._closed:
            raise ValueError("writer is already closed")
        self._finalize_shard()
        keys = sorted(self._index)
        record = {
            "version": SHARDED_ARCHIVE_VERSION,
            "keys": keys,
            "meta": self._meta,
            "manifest": [self._manifest[key] for key in keys],
            "shards": self._shards,
            "index": self._index,
        }
        head = json.dumps(record, sort_keys=True).encode("utf-8")
        with open(_staged(self._head_path), "wb") as fh:
            fh.write(_MAGIC)
            fh.write(_HEAD.pack(SHARDED_ARCHIVE_VERSION, len(head)))
            fh.write(head)
        for path in [*self._shard_paths, self._head_path]:
            os.replace(_staged(path), path)
        # A longer archive published here before leaves shards this head
        # does not name; they go, so the path holds one archive.
        idx = len(self._shard_paths)
        while (stale := self._dir / _shard_name(self._head_path, idx)).exists():
            stale.unlink()
            idx += 1
        self._closed = True
        self.report = ShardedWriteReport(
            head_path=self._head_path,
            shard_paths=list(self._shard_paths),
            n_entries=len(self._index),
            payload_bytes=sum(rec["n_bytes"] for rec in self._shards),
            head_bytes=4 + _HEAD.size + len(head),
        )
        return self.report

    def abort(self) -> None:
        """Close and delete what this writer staged; nothing published at
        ``head_path`` before — head or shards — is touched."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        for path in [*self._shard_paths, self._head_path]:
            _staged(path).unlink(missing_ok=True)
        self._closed = True

    def __enter__(self) -> "ShardedArchiveWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()


class _ShardStore:
    """Lazily opened byte sources for a v3 archive's payload shards.

    ``opener(name) → source`` is the pluggable resolution seam: the
    default binds shard names to files next to the head, but anything
    that returns a ``read_at``/``close`` object (an object-storage
    client, a remote fetcher) slots in.  Open failures and integrity
    mismatches surface as :class:`ContainerIOError` naming the archive,
    the shard, and the entry that needed it.
    """

    def __init__(self, label: str, records: list[dict], opener, verify: bool):
        self._label = label
        self._records = records
        self._opener = opener
        self._verify = verify
        self._sources: dict[int, object] = {}
        self._lock = threading.Lock()
        self._open_locks: dict[int, threading.Lock] = {}
        self._closed = False

    def source(self, shard_idx: int, key: str):
        # Concurrent entry() calls are part of the contract (the read
        # service makes them): a per-shard lock serializes first-open so
        # racing threads never double-open (and leak) the same shard,
        # while different shards still open — and CRC-verify — in
        # parallel.
        with self._lock:
            self._check_open(key)
            src = self._sources.get(shard_idx)
            if src is not None:
                return src
            open_lock = self._open_locks.setdefault(shard_idx, threading.Lock())
        with open_lock:
            with self._lock:
                self._check_open(key)
                src = self._sources.get(shard_idx)
                if src is not None:
                    return src
            rec = self._records[shard_idx]
            name = rec["name"]
            try:
                src = self._opener(name)
            except ContainerIOError as exc:
                if type(exc) is not ContainerIOError:
                    # A typed subclass (PartIntegrityError) carries
                    # dispatchable meaning; re-wrapping would bury it.
                    raise
                raise ContainerIOError(
                    f"archive {self._label}: payload shard {name!r} (needed for "
                    f"entry {key!r}) could not be opened: {exc}"
                ) from exc
            except (OSError, ValueError) as exc:
                raise ContainerIOError(
                    f"archive {self._label}: payload shard {name!r} (needed for "
                    f"entry {key!r}) could not be opened: {exc}"
                ) from exc
            if self._verify:
                self._check_integrity(src, rec)
            with self._lock:
                if self._closed:
                    # close() won the race while we were opening: a source
                    # inserted now would leak (close already swept the
                    # dict), so drop it and fail like any post-close read.
                    src.close()
                    self._check_open(key)
                self._sources[shard_idx] = src
            return src

    def _check_open(self, key: str) -> None:
        if self._closed:
            raise ContainerIOError(
                f"archive {self._label}: shard store is closed "
                f"(entry {key!r} requested after close())"
            )

    def _check_integrity(self, src, rec: dict, chunk: int = 1 << 18) -> None:
        """Bounded-memory size + CRC-32 check (mirrors ``_file_crc32``)."""
        name, n_bytes = rec["name"], rec["n_bytes"]
        crc = 0
        try:
            for offset in range(0, n_bytes, chunk):
                crc = zlib.crc32(src.read_at(offset, min(chunk, n_bytes - offset)), crc)
        except (OSError, ValueError) as exc:
            src.close()
            raise ContainerIOError(
                f"archive {self._label}: payload shard {name!r} is "
                f"shorter than its recorded {n_bytes} bytes: {exc}"
            ) from exc
        if crc != rec["crc32"]:
            src.close()
            raise ContainerIOError(
                f"archive {self._label}: payload shard {name!r} failed "
                f"its checksum (crc32 {crc:#010x} != recorded "
                f"{rec['crc32']:#010x}); refusing to decode corrupt data"
            )

    def close(self) -> None:
        """Close every opened shard source.  Idempotent; any later
        :meth:`source` call raises instead of silently reopening shards
        on a closed store."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sources = list(self._sources.values())
            self._sources = {}
        for src in sources:
            src.close()


def default_shard_opener(base_dir):
    """``name → byte source`` opener binding shard names to files under
    ``base_dir`` (what :meth:`LazyBatchArchive.open` builds for path
    sources).  Public so serving layers can wrap it — retry/backoff,
    fetch accounting — without re-implementing the non-local-name guard.
    """
    base_dir = Path(base_dir)

    def opener(name: str):
        candidate = Path(name)
        if candidate.is_absolute() or ".." in candidate.parts:
            raise ValueError(f"refusing non-local shard name {name!r}")
        return make_source(base_dir / candidate)

    return opener


class LazyBatchArchive:
    """Random access into a stored batch archive without copying entries.

    Opens bytes or a file, parses only the head, and serves each entry as
    a :class:`~repro.core.container.LazyCompressedDataset` whose parts are
    fetched on demand — one job's output is reachable without parsing (or
    even reading) its siblings.  Version-2 archives locate entries from
    the head's index; version-1 archives are scanned once, 8 bytes per
    entry, to recover the same index.  Either index is checked before it
    is trusted: every entry lies inside the payload region, and the last
    one ends the archive.

    Version-3 (sharded) heads carry no payload at all: the entry index
    points into payload shards, resolved lazily — and pluggably, via
    ``shard_opener`` — so the manifest of a petabyte batch is readable
    from the head file alone, and only the shards an entry actually
    lives in are ever opened.
    """

    def __init__(
        self,
        source,
        head: dict,
        entry_index: dict[str, tuple],
        shard_store: "_ShardStore | None" = None,
    ):
        self._source = source
        self._head = head
        self._index = entry_index
        self._shards = shard_store
        self.meta: dict = head.get("meta", {})
        self.version: int = head["version"]

    @classmethod
    def open(
        cls,
        source,
        *,
        shard_opener=None,
        verify_shards: bool = False,
    ) -> "LazyBatchArchive":
        """Open an archive lazily from bytes, a path, or a seekable file.

        Parameters
        ----------
        shard_opener:
            ``name → byte source`` callable for resolving a v3 head's
            payload shards.  Defaults to files next to the head (which
            therefore requires ``source`` to be a path).
        verify_shards:
            Check each payload shard's recorded size and CRC-32 the
            first time it is opened (reads the whole shard once).
        """
        src = make_source(source)
        try:
            return cls._parse_head(src, source, shard_opener, verify_shards)
        except Exception:
            # Head parsing failed (bad magic, unsupported version,
            # truncated/corrupt JSON, v3-from-bytes without an opener):
            # the source we just opened must not leak with the exception.
            src.close()
            raise

    @classmethod
    def _parse_head(
        cls, src, source, shard_opener, verify_shards: bool
    ) -> "LazyBatchArchive":
        version, head_len = read_fixed_header(src, 0, _MAGIC, "batch archive")
        if version not in _SUPPORTED_VERSIONS:
            raise ValueError(f"unsupported batch-archive version {version}")
        head_off = 4 + _HEAD.size
        head = json.loads(src.read_at(head_off, head_len).decode("utf-8"))
        head.setdefault("version", version)
        payload_base = head_off + head_len
        index: dict[str, tuple] = {}
        if version != SHARDED_ARCHIVE_VERSION:
            # v1 length-prefixes entries back to back (walked once, 8 bytes
            # an entry); v2 indexes them.  Either way ``end`` is one past
            # the furthest entry, which must be the archive's last byte.
            end = payload_base
            for key in head["keys"]:
                if version == 1:
                    (length,) = _LEN.unpack(src.read_at(end, _LEN.size))
                    lo = end + _LEN.size
                else:
                    entry_off, length = head["index"][key]
                    lo = payload_base + entry_off
                if lo < payload_base or length < 0 or lo + length > src.size:
                    raise ValueError(
                        f"archive entry {key!r} ({length} bytes at offset {lo}) lies "
                        f"outside the payload region [{payload_base}, {src.size}) "
                        "(corrupt index)"
                    )
                index[key] = (lo, length)
                end = max(end, lo + length)
            if end != src.size:
                raise ValueError(f"{src.size - end} trailing bytes after last archive entry")
            return cls(src, head, index)
        # v3: manifest-only head; entries live in payload shards.
        label = getattr(src, "label", "<memory>")
        if shard_opener is None:
            if not isinstance(source, (str, Path)):
                raise ValueError(
                    "a sharded (v3) archive head opened from bytes needs an "
                    "explicit shard_opener to locate its payload shards"
                )
            shard_opener = default_shard_opener(Path(source).parent)
        for key in head["keys"]:
            shard_idx, entry_off, length = head["index"][key]
            index[key] = (shard_idx, entry_off, length)
        store = _ShardStore(label, head["shards"], shard_opener, verify_shards)
        return cls(src, head, index, shard_store=store)

    # -- container protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def keys(self) -> list[str]:
        return list(self._index)

    def manifest(self) -> list[dict]:
        """The manifest recorded at write time (no payload reads)."""
        return self._head.get("manifest", [])

    @property
    def is_sharded(self) -> bool:
        return self._shards is not None

    def shards(self) -> list[dict]:
        """The head's shard records (name / size / crc32); empty for
        monolithic archives.  No shard is opened."""
        return list(self._head.get("shards", []))

    def entry_shards(self) -> dict[str, str]:
        """Which payload shard each entry lives in (v3 archives only)."""
        if not self.is_sharded:
            return {}
        shard_names = [rec["name"] for rec in self._head["shards"]]
        return {key: shard_names[loc[0]] for key, loc in self._index.items()}

    # -- integrity ---------------------------------------------------------
    def verify_shards(self) -> list[dict]:
        """Check every payload shard's recorded size and CRC-32.

        Unlike ``open(verify_shards=True)`` — which verifies each shard
        on first *use* and raises at the first mismatch — this walks all
        shards and returns one row per shard, so a damaged archive
        reports every casualty in one pass::

            [{"name": ..., "n_bytes": ..., "ok": bool, "error": str | None}, ...]

        Each shard is opened fresh, read in bounded chunks, and closed
        again, so verification never interferes with (or trusts) sources
        already opened for reads.  Monolithic archives return ``[]``.
        """
        if not self.is_sharded:
            return []
        rows = []
        for rec in self._head["shards"]:
            row = {"name": rec["name"], "n_bytes": rec["n_bytes"], "ok": True, "error": None}
            src = None
            try:
                src = self._shards._opener(rec["name"])
                self._shards._check_integrity(src, rec)
            except (OSError, ValueError) as exc:
                row["ok"] = False
                row["error"] = str(exc)
                src = None  # _check_integrity closes on failure; opener failed otherwise
            finally:
                if src is not None:
                    src.close()
            rows.append(row)
        return rows

    # -- entries -----------------------------------------------------------
    def entry(self, key: str) -> LazyCompressedDataset:
        """One entry as a lazy dataset; siblings are never touched.

        Entries share the archive's byte sources (closing one is a
        no-op); close the archive itself when done with all of them.  In
        a sharded archive this call opens — at most — the one payload
        shard the entry lives in.
        """
        if key not in self._index:
            raise KeyError(f"no entry {key!r}; archive holds {self.keys()}")
        loc = self._index[key]
        if self.is_sharded:
            shard_idx, offset, length = loc
            src = self._shards.source(shard_idx, key)
        else:
            offset, length = loc
            src = self._source
        return LazyCompressedDataset._parse(src, offset, owns_source=False, length=length)

    def decompress(self, key: str, structure: AMRDataset | None = None) -> AMRDataset:
        """Restore one entry via the codec its recorded ``method`` names,
        reading only it."""
        comp = with_structure(self.entry(key), key, self.entry)
        return registry.codec_for_method(comp.method).decompress(comp, structure=structure)

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._shards is not None:
            self._shards.close()
        self._source.close()

    def __enter__(self) -> "LazyBatchArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def is_batch_archive(blob: bytes) -> bool:
    """Cheap magic-number sniff (used by the CLI to route file kinds)."""
    return blob[:4] == _MAGIC
