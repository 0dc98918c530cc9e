"""Shared container for compressed AMR datasets (all methods).

TAC and every baseline produce the same artifact — a set of named binary
parts plus JSON-able metadata — so experiments can treat methods uniformly
and compression accounting is identical everywhere:

* ``compressed_bytes()`` sums every part, including layout metadata and
  (by default) the per-level validity masks, mirroring the paper's "the
  metadata overhead ... is negligible" accounting but making it auditable;
* bit-rate is always relative to the dataset's *stored* AMR values (the 3D
  baseline compresses an inflated uniform grid but is charged per stored
  value, exactly as in Figs. 14–15);
* ``to_bytes``/``from_bytes`` give a stable on-disk form.

Five wire versions are readable, one is written:

* **version 1** — JSON head listing part names, then length-prefixed
  payloads (the index is recovered by walking the prefixes).
* **version 2** — the head carries a part index (``name → offset/length``
  relative to the payload region), so any part is one seek away.
* **version 3** — the part index moves *behind* the payloads; a
  fixed-width slot after the header records where it is.
* **version 4** — v3 plus a CRC-32 per part, a fourth element of each
  index row, checked the moment a part's bytes arrive
  (:class:`PartIntegrityError` names the damaged part).
* **version 5** (the one written) — v4 with the JSON head moved behind
  the payloads too, immediately before the tail index.  Nothing has to be
  known before the first payload byte, so :class:`StreamingContainerWriter`
  streams parts as each AMR level is compressed and seals the per-level
  metadata at :meth:`~StreamingContainerWriter.close`: peak writer memory
  is one level's parts, not one entry's.  ``to_bytes`` is the same writer
  over a ``BytesIO``.

Every version is parsed by :func:`_read_layout` — head and part index,
no payload — which both :meth:`CompressedDataset.from_bytes` and
:class:`LazyCompressedDataset` sit on, so stored v1–v4 blobs, including
the golden fixtures, stay readable forever.  Re-serializing one migrates
it to v5; a v5 blob re-serializes byte-for-byte.
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.sz import lossless
from repro.utils.timer import TimingRecord

_MAGIC = b"RPAM"
#: The one wire version written: head and part index (with per-part
#: CRC-32 rows) both sealed behind the payloads.  v1-v4 are read-only.
CONTAINER_VERSION = 5
_SUPPORTED_VERSIONS = (1, 2, 3, 4, 5)
#: Index-at-tail layouts (fixed-width index slot after ``_HEAD``).
_TAIL_INDEX_VERSIONS = (3, 4, 5)
#: Versions whose index rows carry a per-part CRC-32.
_CRC_VERSIONS = (4, 5)
_HEAD = struct.Struct("<BQ")
#: v3+ extension after ``_HEAD``: index offset (relative to the blob
#: start) and index length, zero-filled by the streaming writer until
#: ``close()``.
_V3_INDEX = struct.Struct("<QQ")
_LEN = struct.Struct("<Q")


class ContainerIOError(OSError, ValueError):
    """A container byte source failed to open or serve a read.

    Subclasses both :class:`OSError` (the underlying failure family) and
    :class:`ValueError` (what the in-memory truncation checks historically
    raised), so existing ``except`` clauses keep working while the message
    gains the container path / part name context that makes lazy-read
    failures diagnosable.
    """


class PartIntegrityError(ContainerIOError):
    """A stored part's bytes do not match their recorded CRC-32.

    Raised by v4 reads the moment a part's bytes arrive (eager parse,
    lazy ``__getitem__``, or prefetch staging).  Carries structured
    context so callers can degrade per brick instead of per request:
    ``entry`` (dataset name), ``level`` (parsed from the part name),
    ``part``, ``expected``/``actual`` CRCs, and — when a coalesced
    prefetch found several damaged parts in one pass — ``bad_parts``
    mapping every failed part name to its message.
    """

    def __init__(
        self,
        message: str,
        *,
        entry: str | None = None,
        level: int | None = None,
        part: str | None = None,
        expected: int | None = None,
        actual: int | None = None,
        bad_parts: dict | None = None,
    ):
        super().__init__(message)
        self.entry = entry
        self.level = level
        self.part = part
        self.expected = expected
        self.actual = actual
        self.bad_parts = dict(bad_parts) if bad_parts else ({part: message} if part else {})


#: Part-name prefix for per-level validity masks.
MASK_PREFIX = "mask/"


def part_level(name: str) -> int | None:
    """The AMR level a part name belongs to, or ``None``.

    Understands the level-prefixed naming every codec uses
    (``L<idx>/...`` payloads, ``mask/L<idx>`` masks); anything else —
    e.g. a snapshot-scope part — has no level.
    """
    stem = name[len(MASK_PREFIX):] if name.startswith(MASK_PREFIX) else name
    if stem.startswith("L"):
        digits = stem[1:].split("/", 1)[0]
        if digits.isdigit():
            return int(digits)
    return None


def pack_mask(mask: np.ndarray, level: int = 1) -> bytes:
    """Bit-pack and DEFLATE a boolean mask (blocky masks compress well)."""
    return zlib.compress(np.packbits(np.asarray(mask, dtype=bool).ravel()).tobytes(), level)


def inflate_mask(payload: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """The packed bits of a :func:`pack_mask` payload (read-only uint8, C
    scan order, most significant bit first), checked to be exactly the
    ``ceil(cells / 8)`` bytes of ``shape`` — and never inflated past them."""
    nbytes = -(-int(np.prod(shape)) // 8)
    return np.frombuffer(lossless.decompress_bytes(lossless.CODEC_ZLIB, payload, nbytes), np.uint8)


def unpack_mask_box(packed: np.ndarray, shape: tuple[int, int, int], box) -> np.ndarray:
    """``mask[box]`` from the packed bits of a 3D mask of ``shape``.

    Only what the box needs is unpacked: when rows are whole bytes
    (``nz % 8 == 0``) the bytes its rows touch, otherwise the bit run of
    its x-range — the whole mask when the box covers the level.
    """
    nx, ny, nz = shape
    (x0, x1), (y0, y1), (z0, z1) = box
    if nz % 8 == 0:
        rows = packed[: nx * ny * nz // 8].reshape(nx, ny, nz // 8)
        first = z0 // 8
        bits = np.unpackbits(rows[x0:x1, y0:y1, first : -(-z1 // 8)], axis=2)
        return bits[:, :, z0 - 8 * first : z1 - 8 * first].view(bool)
    lo, hi = x0 * ny * nz, x1 * ny * nz
    bits = np.unpackbits(packed[lo // 8 : -(-hi // 8)], count=lo % 8 + hi - lo)[lo % 8 :]
    # The unpacked 0/1 bytes are the mask: viewed, not copied.
    return bits.reshape(x1 - x0, ny, nz)[:, y0:y1, z0:z1].view(bool)


def unpack_mask(payload: bytes, shape: tuple[int, int, int]) -> np.ndarray:
    """Invert :func:`pack_mask` for a known shape."""
    return unpack_mask_box(inflate_mask(payload, shape), shape, tuple((0, dim) for dim in shape))


def collapse_part_sizes(
    part_sizes: Mapping, min_group: int = 4
) -> list[tuple[str, int, int]]:
    """Aggregate numbered sibling parts into ``(label, count, bytes)`` rows.

    Brick-chunked GSP/ZF levels put tens to hundreds of ``L<idx>/b<k>``
    parts in one blob; a per-part listing drowns the breakdown.  Parts
    whose name ends in a decimal run (``L0/b12``, ``L1/g3``) group under
    their stem when the stem has at least ``min_group`` members, rendered
    as ``"L0/b* x64"``-style labels; everything else keeps one row per
    part.  Shared Huffman tables (``L<idx>/table``, one per level of a
    blob stored in the retired shared-table layout) vary in the *middle*
    of the name, so they group
    under ``"L*/table"`` instead — already at two members, since a blob
    never holds more than one per level.  Rows come back sorted by label.
    """
    groups: dict[str, list[tuple[str, int]]] = {}
    for name, size in part_sizes.items():
        if _is_level_table(name):
            groups.setdefault("L*/table", []).append((name, int(size)))
            continue
        stem = name.rstrip("0123456789")
        key = stem if stem != name and not stem.endswith("/") else name
        groups.setdefault(key, []).append((name, int(size)))
    rows: list[tuple[str, int, int]] = []
    for stem, members in groups.items():
        if stem == "L*/table" and len(members) >= 2:
            rows.append((f"{stem} x{len(members)}", len(members), sum(s for _n, s in members)))
        elif stem != "L*/table" and len(members) >= min_group:
            rows.append((f"{stem}* x{len(members)}", len(members), sum(s for _n, s in members)))
        else:
            rows.extend((name, 1, size) for name, size in members)
    return sorted(rows)


def _is_level_table(name: str) -> bool:
    """True for shared-table part names (``L<digits>/table``)."""
    return name.startswith("L") and name.endswith("/table") and name[1:-6].isdigit()


def _head_record(method, dataset_name, meta, original_bytes, n_values) -> dict:
    return {
        "method": method,
        "dataset_name": dataset_name,
        "meta": meta,
        "original_bytes": original_bytes,
        "n_values": n_values,
    }


class _SizeAccounting:
    """Stored-size accounting over a dataset's ``part_sizes()``,
    ``original_bytes`` and ``n_values`` — the one implementation behind
    the eager and the lazy dataset."""

    def compressed_bytes(self, include_masks: bool = True) -> int:
        """Total stored bytes; masks can be excluded for paper-style ratios
        (the AMR grid structure is simulation metadata every method and even
        uncompressed storage must keep)."""
        return sum(
            size
            for name, size in self.part_sizes().items()
            if include_masks or not name.startswith(MASK_PREFIX)
        )

    def ratio(self, include_masks: bool = True) -> float:
        compressed = self.compressed_bytes(include_masks)
        return self.original_bytes / compressed if compressed else float("inf")

    def bit_rate(self, include_masks: bool = True) -> float:
        """Amortized bits per stored AMR value."""
        if not self.n_values:
            return 0.0
        return 8.0 * self.compressed_bytes(include_masks) / self.n_values


@dataclass
class CompressedDataset(_SizeAccounting):
    """Every compressor's output: named parts + metadata + accounting."""

    method: str
    dataset_name: str
    parts: dict[str, bytes] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    original_bytes: int = 0
    n_values: int = 0
    timings: TimingRecord = field(default_factory=TimingRecord)

    def part_sizes(self) -> dict[str, int]:
        return {name: len(payload) for name, payload in self.parts.items()}

    # -- serialization ------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Stable binary serialization (container v5, the streaming
        writer's bytes for the same parts and metadata)."""
        sink = io.BytesIO()
        stream_dataset(self, sink)
        return sink.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompressedDataset":
        """Parse a blob of any supported version, verifying every part
        that carries a CRC-32 (v4/v5)."""
        src = _BytesSource(blob)
        try:
            return LazyCompressedDataset._parse(src, 0, length=len(blob)).materialize()
        finally:
            src.close()


# ----------------------------------------------------------------------
# streaming compression (per-level part groups)
# ----------------------------------------------------------------------
@dataclass
class LevelChunk:
    """One level's worth of parts, produced incrementally by a compressor.

    ``level``/``meta`` are ``None`` for opaque chunks (e.g. the §4.4
    baseline delegation, which emits the whole entry as one group).
    Part order inside ``parts`` is the wire order.  ``rec`` is what these
    parts decode to, when the compressor was asked for it
    (``compress_iter(want_recon=True)``): the level's stored-cell values,
    ``level.data[level.mask]`` of the decoded level (zero is implied
    everywhere else), the form a delta chain keeps.  A bricked GSP/ZF level
    fills them slab by slab as it encodes, so no level-sized grid is made
    for them.  They are never written anywhere.
    """

    level: int | None
    meta: dict | None
    parts: dict[str, bytes]
    rec: np.ndarray | None = None

    def nbytes(self) -> int:
        return sum(len(p) for p in self.parts.values())


class StreamingCompression:
    """A compressed entry produced one :class:`LevelChunk` at a time.

    The entry header fields (``method``, ``dataset_name``,
    ``original_bytes``, ``n_values``) are known up-front so a deferred-head
    container writer can start emitting payloads immediately; the full
    ``meta`` (with its ``"levels"`` list) is only final once every chunk
    has been consumed — reading :attr:`meta` earlier raises.  Single-pass:
    iterate it exactly once.
    """

    def __init__(
        self,
        *,
        method: str,
        dataset_name: str,
        original_bytes: int,
        n_values: int,
        chunks,
        base_meta: dict | None = None,
        final_meta: dict | None = None,
    ):
        self.method = method
        self.dataset_name = dataset_name
        self.original_bytes = original_bytes
        self.n_values = n_values
        self._chunks = iter(chunks)
        self._base_meta = base_meta
        self._final_meta = final_meta
        self._level_meta: list[dict] = []
        self._exhausted = False

    @classmethod
    def from_dataset(cls, comp) -> "StreamingCompression":
        """A finished dataset (eager or lazy view) as one opaque chunk —
        how codecs without a level-wise ``compress_iter`` reach the
        streaming writer.  A lazy ``comp`` is still read part by part."""
        return cls(
            method=comp.method,
            dataset_name=comp.dataset_name,
            original_bytes=comp.original_bytes,
            n_values=comp.n_values,
            chunks=[LevelChunk(level=None, meta=None, parts=comp.parts)],
            final_meta=comp.meta,
        )

    def __iter__(self) -> "StreamingCompression":
        return self

    def __next__(self) -> LevelChunk:
        try:
            chunk = next(self._chunks)
        except StopIteration:
            if not self._exhausted:
                self._exhausted = True
                if self._final_meta is None:
                    self._final_meta = {**(self._base_meta or {}), "levels": self._level_meta}
            raise
        if chunk.meta is not None:
            self._level_meta.append(chunk.meta)
        return chunk

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def meta(self) -> dict:
        if not self._exhausted:
            raise RuntimeError(
                "entry metadata is only final after every chunk has been consumed"
            )
        return self._final_meta

    def collect(self) -> CompressedDataset:
        """Drain the remaining chunks into an eager :class:`CompressedDataset`."""
        out = CompressedDataset(
            method=self.method,
            dataset_name=self.dataset_name,
            original_bytes=self.original_bytes,
            n_values=self.n_values,
        )
        for chunk in self:
            out.parts.update(chunk.parts)
        out.meta = self.meta
        return out


# ----------------------------------------------------------------------
# lazy reading
# ----------------------------------------------------------------------
def _check_span(offset: int, length: int, label: str) -> None:
    """Reject negative read spans before they touch a buffer.

    Python slicing indexes from the buffer's *end* for negative offsets,
    so a corrupt part index (an offset that went negative through
    arithmetic on bogus stored values) would return plausible garbage
    from the wrong end of the blob instead of erroring.  Same failure
    family as an overrun, same error message family.
    """
    if offset < 0 or length < 0:
        raise ValueError(
            f"negative read span ({length} bytes at offset {offset}) from "
            f"{label} (corrupt or truncated blob)"
        )


class _BytesSource:
    """Random-access byte source over an in-memory buffer (zero-copy view)."""

    label = "<memory>"
    #: In-process read (a memory copy or a local file read): cheaper than
    #: handing it to another thread.  Sources without the flag are remote.
    local = True

    def __init__(self, buf):
        self._view = memoryview(buf)
        self.size = len(self._view)

    def read_at(self, offset: int, length: int) -> bytes:
        _check_span(offset, length, self.label)
        end = offset + length
        if end > len(self._view):
            raise ValueError("read past end of buffer (corrupt or truncated blob)")
        return bytes(self._view[offset:end])

    def close(self) -> None:
        self._view.release()


class _FileSource:
    """Random-access byte source over a seekable file (thread-safe)."""

    local = True

    def __init__(self, fh, owns: bool, label: str = "<file>"):
        self._fh = fh
        self._owns = owns
        self._lock = threading.Lock()
        self.label = label
        self.size = fh.seek(0, os.SEEK_END)

    def read_at(self, offset: int, length: int) -> bytes:
        _check_span(offset, length, self.label)
        with self._lock:
            self._fh.seek(offset)
            data = self._fh.read(length)
        if len(data) != length:
            raise ValueError("short read (corrupt or truncated file)")
        return data

    def close(self) -> None:
        if self._owns:
            self._fh.close()


def make_source(source):
    """Wrap bytes / memoryview / path / seekable binary file for random access.

    Open failures raise :class:`ContainerIOError` carrying the path, so a
    missing or unreadable container names itself instead of surfacing a
    bare :class:`OSError` from deep inside a lazy read.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        return _BytesSource(source)
    if isinstance(source, (str, Path)):
        try:
            return _FileSource(open(source, "rb"), owns=True, label=str(source))
        except OSError as exc:
            raise ContainerIOError(
                f"cannot open container file {str(source)!r}: {exc}"
            ) from exc
    if hasattr(source, "seek") and hasattr(source, "read"):
        return _FileSource(source, owns=False)
    raise TypeError(f"cannot open {type(source).__name__!r} as a byte source")


def coalesce_spans(
    spans: Sequence[tuple[int, int]], max_gap: int = 0
) -> list[tuple[int, int]]:
    """Merge adjacent ``(offset, length)`` spans into fewer, larger reads.

    Spans are sorted by offset; two spans merge when the gap between them
    is at most ``max_gap`` bytes (overlapping spans always merge).  A
    request whose decompression plan touches many small neighbouring parts
    — e.g. a run of 64³ bricks stored back to back in one shard — then
    costs one ranged fetch instead of one round trip per part, which is
    the difference that matters against object storage.
    """
    if max_gap < 0:
        raise ValueError(f"max_gap must be non-negative, got {max_gap}")
    merged: list[list[int]] = []
    for offset, length in sorted((int(o), int(n)) for o, n in spans):
        if merged and offset <= merged[-1][0] + merged[-1][1] + max_gap:
            last = merged[-1]
            last[1] = max(last[1], offset + length - last[0])
        else:
            merged.append([offset, length])
    return [(offset, length) for offset, length in merged]


class LazyPartStore(Mapping):
    """Read-on-demand mapping ``part name → bytes`` over a part index.

    Duck-types the ``parts`` dict of :class:`CompressedDataset`, so every
    codec's decompression path works unchanged — but a lookup performs one
    bounded read instead of the blob having been copied up front.  Every
    fetch is logged (:attr:`access_counts`, :attr:`bytes_read`), which is
    how partial-decode tests *prove* they did less decode work.

    :meth:`prefetch` is the read-service seam: it fetches a set of parts
    through coalesced ranged reads and *stages* the payloads, so the next
    ``__getitem__`` of each staged part is served from memory instead of
    issuing another source read.  ``bytes_read`` counts actual source
    I/O — staged hand-offs add an access count but no bytes.

    When the blob carries per-part CRC-32s (container v4), every payload
    is verified the moment its bytes arrive — direct reads in
    ``__getitem__``, prefetched parts at staging time (the staged
    hand-off itself never re-verifies) — and a mismatch raises
    :class:`PartIntegrityError` naming the entry, level, and part.
    """

    def __init__(
        self,
        source,
        index: dict[str, tuple[int, int]],
        crcs: dict[str, int] | None = None,
        entry: str | None = None,
    ):
        self._source = source
        self._index = index
        self._crcs = crcs or {}
        self._entry = entry
        self._log_lock = threading.Lock()
        self._staged: dict[str, bytes] = {}
        self.access_counts: dict[str, int] = {}
        self.bytes_read = 0

    @property
    def local(self) -> bool:
        """Whether the byte source is in-process (see ``_BytesSource.local``)."""
        return getattr(self._source, "local", False)

    @property
    def verifies_integrity(self) -> bool:
        """Whether this store holds per-part CRCs to check reads against."""
        return bool(self._crcs)

    def _verify(self, name: str, payload: bytes) -> None:
        expected = self._crcs.get(name)
        if expected is None:
            return
        actual = zlib.crc32(payload)
        if actual == expected:
            return
        label = getattr(self._source, "label", "<unknown source>")
        entry_ctx = f" of entry {self._entry!r}" if self._entry else ""
        raise PartIntegrityError(
            f"part {name!r}{entry_ctx} from {label} failed its CRC-32 "
            f"({actual:#010x} != recorded {expected:#010x}); the stored "
            "bytes are corrupt",
            entry=self._entry,
            level=part_level(name),
            part=name,
            expected=expected,
            actual=actual,
        )

    # -- mapping protocol (no payload reads except __getitem__) ----------
    def __getitem__(self, name: str) -> bytes:
        offset, length = self._index[name]
        with self._log_lock:
            staged = self._staged.pop(name, None)
            if staged is not None:
                self.access_counts[name] = self.access_counts.get(name, 0) + 1
                return staged
        try:
            payload = self._source.read_at(offset, length)
        except (OSError, ValueError) as exc:
            label = getattr(self._source, "label", "<unknown source>")
            raise ContainerIOError(
                f"failed reading part {name!r} ({length} bytes at offset {offset}) "
                f"from {label}: {exc}"
            ) from exc
        self._verify(name, payload)
        with self._log_lock:
            self.access_counts[name] = self.access_counts.get(name, 0) + 1
            self.bytes_read += length
        return payload

    # -- prefetching -------------------------------------------------------
    def prefetch(self, names: Sequence[str], max_gap: int = 0) -> tuple[int, int]:
        """Fetch ``names`` with coalesced ranged reads and stage them.

        Adjacent spans (gap at most ``max_gap`` bytes) merge into one
        ``read_at`` — per-request range coalescing.  Returns ``(n_reads,
        bytes_fetched)``: how many source reads were issued and how many
        bytes they covered (including any bridged gap bytes, which is the
        honest transfer cost).  Already-staged parts are not re-fetched.

        Per-part CRCs (container v4) are checked at staging: every part
        that verifies is staged before the failure surfaces, and the
        raised :class:`PartIntegrityError` carries *all* damaged names
        in ``bad_parts`` — a degrading reader fills exactly the bad
        bricks while their window-mates stay servable.
        """
        with self._log_lock:
            wanted = [name for name in names if name not in self._staged]
        spans = {name: self._index[name] for name in wanted}
        if not spans:
            return (0, 0)
        n_reads = 0
        bytes_fetched = 0
        bad: dict[str, PartIntegrityError] = {}
        for lo, length in coalesce_spans(list(spans.values()), max_gap):
            try:
                window = self._source.read_at(lo, length)
            except (OSError, ValueError) as exc:
                label = getattr(self._source, "label", "<unknown source>")
                raise ContainerIOError(
                    f"failed prefetching {len(spans)} part(s) ({length} bytes at "
                    f"offset {lo}) from {label}: {exc}"
                ) from exc
            n_reads += 1
            bytes_fetched += length
            staged = {
                name: window[offset - lo : offset - lo + n]
                for name, (offset, n) in spans.items()
                if lo <= offset and offset + n <= lo + length
            }
            for name, payload in list(staged.items()):
                try:
                    self._verify(name, payload)
                except PartIntegrityError as exc:
                    bad[name] = exc
                    del staged[name]
            with self._log_lock:
                self._staged.update(staged)
                self.bytes_read += length
        if bad:
            first = bad[min(bad)]
            raise PartIntegrityError(
                f"{len(bad)} part(s) failed CRC-32 during prefetch: "
                f"{sorted(bad)}; first failure: {first}",
                entry=first.entry,
                level=first.level,
                part=first.part,
                expected=first.expected,
                actual=first.actual,
                bad_parts={name: str(exc) for name, exc in bad.items()},
            )
        return (n_reads, bytes_fetched)

    def discard_staged(self) -> None:
        """Drop staged payloads a request prefetched but never consumed."""
        with self._log_lock:
            self._staged = {}

    def __contains__(self, name) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    # -- index-only views -------------------------------------------------
    def sizes(self) -> dict[str, int]:
        """Per-part byte sizes straight from the index (no payload reads)."""
        return {name: length for name, (_off, length) in self._index.items()}

    def spans(self) -> dict[str, tuple[int, int]]:
        """Per-part ``(offset, length)`` spans straight from the index.

        What a prefetcher needs to group parts into coalesced ranged
        reads before issuing any of them (no payload reads).
        """
        return dict(self._index)

    # -- access accounting ------------------------------------------------
    @property
    def n_reads(self) -> int:
        with self._log_lock:
            return sum(self.access_counts.values())

    def accessed(self) -> set[str]:
        """Names of every part fetched since the store was opened."""
        with self._log_lock:
            return set(self.access_counts)


def read_fixed_header(src, base: int, magic: bytes, kind: str) -> tuple[int, int]:
    """``(version, head_len)`` of the ``magic | u8 | u64`` header at ``base``.

    Containers and batch archives share the shape.  Input that is not a
    ``kind`` blob — wrong magic, or too short to hold the header — raises
    the same ``ValueError``; a source I/O failure stays what it is.
    """
    try:
        prefix = src.read_at(base, 4 + _HEAD.size)
    except ContainerIOError:
        raise
    except ValueError as exc:
        raise ValueError(f"not a {kind} blob (shorter than its fixed header)") from exc
    if prefix[:4] != magic:
        raise ValueError(f"not a {kind} blob")
    return _HEAD.unpack_from(prefix, 4)


def _read_layout(src, base: int, length: int | None = None):
    """Parse the head and part index of the container at ``base``.

    The one place a container's framing is decoded, whatever its version
    and whatever ``read_at`` source it lives in; reads no payload.
    Returns ``(version, head, spans, crcs)``: the JSON head record, ``name
    → (absolute offset, length)`` per part in wire order, and ``name →
    CRC-32`` (empty before v4).  ``length`` is the container's byte
    length when the caller knows it (a whole in-memory blob, an archive
    entry): the container must then end exactly at ``base + length`` — no
    part or index reaching past it, no trailing bytes before it.
    """
    version, head_len = read_fixed_header(src, base, _MAGIC, "CompressedDataset")
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported container version {version}")
    cursor = base + 4 + _HEAD.size
    stop = limit = None if length is None else base + length
    if version in _TAIL_INDEX_VERSIONS:
        # Index-at-tail: one extra bounded read locates every part.
        index_off, index_len = _V3_INDEX.unpack(src.read_at(cursor, _V3_INDEX.size))
        cursor += _V3_INDEX.size
        end = base + index_off + index_len
        if stop is not None and end > stop:
            raise ValueError("tail part index extends past the container (truncated blob)")
        rows = json.loads(src.read_at(base + index_off, index_len).decode("utf-8"))
        limit = base + index_off
    if version == 5:
        # Deferred head: payloads follow the index slot directly; the
        # head sits at the tail, immediately before the part index.
        payload_base = cursor
        limit -= head_len
        if limit < payload_base:
            raise ValueError("deferred head overlaps the payload region (corrupt blob)")
        head = json.loads(src.read_at(limit, head_len).decode("utf-8"))
    else:
        head = json.loads(src.read_at(cursor, head_len).decode("utf-8"))
        payload_base = cursor + head_len
    if version == 1:
        # No index on the wire: walk the length prefixes (8 bytes per
        # part — cheap even over a file) to build one.
        rows = []
        offset = 0
        for name in head["part_names"]:
            (part_len,) = _LEN.unpack(src.read_at(payload_base + offset, _LEN.size))
            rows.append((name, offset + _LEN.size, part_len))
            offset += _LEN.size + part_len
    elif version == 2:
        rows = head["part_index"]
    spans: dict[str, tuple[int, int]] = {}
    crcs: dict[str, int] = {}
    for row in rows:
        name, part_off, part_len = row[0], row[1], row[2]
        lo = payload_base + part_off
        if part_off < 0 or part_len < 0 or (limit is not None and lo + part_len > limit):
            raise ValueError(f"part {name!r} extends past the payload region (corrupt blob)")
        spans[name] = (lo, part_len)
        if version in _CRC_VERSIONS:
            crcs[name] = row[3]
    if version not in _TAIL_INDEX_VERSIONS:
        end = max((lo + n for lo, n in spans.values()), default=payload_base)
    if stop is not None and end != stop:
        raise ValueError("trailing bytes after the end of the container")
    return version, head, spans, crcs


class LazyCompressedDataset(_SizeAccounting):
    """A :class:`CompressedDataset` view that never materializes parts.

    Opens a blob from bytes, a file path, a seekable file object, or (via
    ``offset``) a member of a larger container such as a batch archive.
    Header metadata is parsed eagerly — it is small — while payloads are
    served on demand through :attr:`parts`, a :class:`LazyPartStore`.
    Accepted anywhere a ``CompressedDataset`` is read: the attribute and
    accounting surface is identical.
    """

    def __init__(
        self, head: dict, parts: LazyPartStore, container_version: int, source,
        owns_source: bool = True,
    ):
        self.method: str = head["method"]
        self.dataset_name: str = head["dataset_name"]
        self.meta: dict = head["meta"]
        self.original_bytes: int = head["original_bytes"]
        self.n_values: int = head["n_values"]
        self.container_version = container_version
        self.parts = parts
        self._source = source
        self._owns_source = owns_source

    # -- construction ------------------------------------------------------
    @classmethod
    def open(cls, source, offset: int = 0) -> "LazyCompressedDataset":
        """Open a blob lazily; ``offset`` locates it inside a larger stream."""
        src = make_source(source)
        try:
            return cls._parse(src, offset)
        except Exception:
            # A blob that does not parse never becomes a dataset, so nobody
            # else can close the source opened for it.
            src.close()
            raise

    @classmethod
    def _parse(
        cls, src, base: int, owns_source: bool = True, length: int | None = None
    ) -> "LazyCompressedDataset":
        version, head, spans, crcs = _read_layout(src, base, length)
        parts = LazyPartStore(src, spans, crcs=crcs, entry=head["dataset_name"])
        return cls(head, parts, version, src, owns_source=owns_source)

    # -- CompressedDataset surface ----------------------------------------
    def part_sizes(self) -> dict[str, int]:
        return self.parts.sizes()

    def materialize(self) -> CompressedDataset:
        """Read every part and return an eager :class:`CompressedDataset`."""
        return CompressedDataset(
            method=self.method,
            dataset_name=self.dataset_name,
            parts={name: self.parts[name] for name in self.parts},
            meta=self.meta,
            original_bytes=self.original_bytes,
            n_values=self.n_values,
        )

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release the byte source — a no-op when the source is shared
        (e.g. this entry was served by a :class:`LazyBatchArchive`, whose
        other entries must stay readable)."""
        if self._owns_source:
            self._source.close()

    def __enter__(self) -> "LazyCompressedDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# streaming writing
# ----------------------------------------------------------------------
class StreamingContainerWriter:
    """Write a container (v5) part by part with bounded memory.

    The only container writer.  The fixed-width header goes out first
    with its ``head_len`` and index slot zero-filled, each part streams
    to the sink the moment it is added (its CRC-32 recorded on the way
    through, the payload not retained), and :meth:`close` appends the
    JSON head and the part index and patches both slots — so peak memory
    is one part, never the dataset, and nothing has to be known before
    the first payload byte.  That is the in-situ seam: a level-wise
    compressor streams each level's parts as they are produced and only
    then seals the per-level metadata via :meth:`set_meta`.

    The sink may be a path (opened/closed by the writer) or a seekable
    binary file positioned where the blob should start — which is how
    :class:`~repro.engine.archive.ShardedArchiveWriter` streams whole
    entries into payload shards, and ``to_bytes`` into a ``BytesIO``: all
    recorded offsets are relative to the blob's own base, so a blob is
    position-independent.
    """

    def __init__(
        self,
        sink,
        method: str,
        dataset_name: str,
        *,
        meta: dict | None = None,
        original_bytes: int = 0,
        n_values: int = 0,
    ):
        if isinstance(sink, (str, Path)):
            self._fh = open(sink, "wb")
            self._owns = True
        elif hasattr(sink, "write") and hasattr(sink, "seek"):
            self._fh = sink
            self._owns = False
        else:
            raise TypeError(f"cannot stream to {type(sink).__name__!r}: need a path or seekable file")
        try:
            self._base = self._fh.tell()
            self._method = method
            self._dataset_name = dataset_name
            self._meta = dict(meta or {})
            self._original_bytes = original_bytes
            self._n_values = n_values
            # head_len and the index slot stay zero until close() seals
            # them, which marks an abandoned blob unreadable.
            self._fh.write(_MAGIC + _HEAD.pack(CONTAINER_VERSION, 0) + _V3_INDEX.pack(0, 0))
        except BaseException:
            # A failed head write (bad tell on a pipe-like sink, ENOSPC)
            # must not leak the handle this writer opened: the caller
            # never gets an object to close.
            if self._owns:
                self._fh.close()
            raise
        self._index: list[list] = []
        self._offset = 0
        self._names: set[str] = set()
        self._closed = False
        #: Size of the biggest single part so far (the memory bound).
        self.largest_part = 0
        #: Total blob length, set by :meth:`close`.
        self.total_bytes = 0

    # -- writing -----------------------------------------------------------
    def add_part(self, name: str, payload) -> None:
        """Append one named part; the payload is not retained."""
        if self._closed:
            raise ValueError("writer is closed")
        if name in self._names:
            raise ValueError(f"duplicate part name {name!r}")
        payload = bytes(payload) if not isinstance(payload, bytes) else payload
        self._fh.write(payload)
        self._index.append([name, self._offset, len(payload), zlib.crc32(payload)])
        self._offset += len(payload)
        self._names.add(name)
        self.largest_part = max(self.largest_part, len(payload))

    def set_meta(
        self,
        meta: dict | None = None,
        *,
        original_bytes: int | None = None,
        n_values: int | None = None,
    ) -> None:
        """Seal the header record before :meth:`close`: metadata that is
        only known after the payloads — per-level records from a
        streaming compressor — still lands in the head."""
        if self._closed:
            raise ValueError("writer is closed")
        if meta is not None:
            self._meta = dict(meta)
        if original_bytes is not None:
            self._original_bytes = int(original_bytes)
        if n_values is not None:
            self._n_values = int(n_values)

    @property
    def n_parts(self) -> int:
        return len(self._index)

    @property
    def bytes_written(self) -> int:
        """Payload bytes streamed so far (header and index excluded)."""
        return self._offset

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> int:
        """Append head + part index, patch the header slots, and return
        the total blob length.  Calling twice is an error — a closed blob
        is final."""
        if self._closed:
            raise ValueError("writer is already closed")
        record = _head_record(
            self._method, self._dataset_name, self._meta,
            self._original_bytes, self._n_values,
        )
        head = json.dumps(record, sort_keys=True).encode("utf-8")
        index_blob = json.dumps(self._index, sort_keys=True).encode("utf-8")
        index_off = 4 + _HEAD.size + _V3_INDEX.size + self._offset + len(head)
        self._fh.write(head)
        self._fh.write(index_blob)
        end = self._fh.tell()
        self._fh.seek(self._base + 4)
        self._fh.write(_HEAD.pack(CONTAINER_VERSION, len(head)))
        self._fh.write(_V3_INDEX.pack(index_off, len(index_blob)))
        self._fh.seek(end)
        self._closed = True
        self.total_bytes = index_off + len(index_blob)
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()
        return self.total_bytes

    def __enter__(self) -> "StreamingContainerWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            # Abandon the partial blob: never patch the header, so the
            # zero-filled index slot marks it unreadable-by-construction.
            self._closed = True
            if self._owns:
                self._fh.close()
            return
        if not self._closed:
            self.close()


def stream_dataset(comp, sink) -> int:
    """Serialize an existing :class:`CompressedDataset` (or lazy view)
    through :class:`StreamingContainerWriter`, one part at a time.

    Returns the blob length.  With a lazy ``comp`` this is a true
    bounded-memory copy: each part is fetched, written, and dropped.
    """
    writer = StreamingContainerWriter(
        sink,
        comp.method,
        comp.dataset_name,
        meta=comp.meta,
        original_bytes=comp.original_bytes,
        n_values=comp.n_values,
    )
    with writer:
        for name in comp.parts:
            writer.add_part(name, comp.parts[name])
    return writer.total_bytes


def resolve_global_eb(dataset, error_bound: float, mode: str) -> float:
    """Dataset-scope absolute error bound shared by all methods.

    ``rel`` uses the value range over the *stored* values of all levels, so
    level-wise methods and the 3D baseline resolve identical absolute
    bounds (the merged uniform grid contains exactly the stored values).
    """
    mode = str(mode)
    if mode == "abs":
        return float(error_bound)
    if mode != "rel":
        raise ValueError(f"dataset-scope bounds support modes 'abs'/'rel', got {mode!r}")
    lo = np.inf
    hi = -np.inf
    for lvl in dataset.levels:
        vals = lvl.values()
        if vals.size:
            lo = min(lo, float(vals.min()))
            hi = max(hi, float(vals.max()))
    if not np.isfinite(lo) or hi <= lo:
        return 0.0
    return float(error_bound) * (hi - lo)
