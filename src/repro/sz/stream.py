"""Self-describing container format for compressed arrays.

A compressed array is a small header followed by a table of typed,
length-prefixed sections.  Keeping the format explicit (rather than
pickling) gives us three production properties:

* **honest accounting** — every byte of side information (Huffman table,
  block offsets, outliers, masks) is inside the blob, so compression ratios
  include metadata exactly as the paper's do;
* **forward safety** — unknown section tags are rejected with a clear error
  instead of being misinterpreted;
* **testability** — headers round-trip independently of payloads.

A 16³ brick's Huffman payload is about a kilobyte, so the framing around it
is kept compact: integers are LEB128 varints (7 bits a byte, low group
first, at most 10 bytes), and the side sections hold only what the decoder
cannot derive.

Layout of version 2, the one written (little-endian floats)::

    magic b"RPSZ" | version u8 = 2 | kind u8 | ndim varint | shape varint * ndim
    [eb_user f64, only when kind bit 5 is set] | eb_abs f64
    n_sections varint | sections: (tag | codec << 4) u8, length varint, bytes

    kind = mode (bits 0-1) | dtype (bit 2) | flags (bits 3-4)
           | eb_user stored (bit 5: its bits differ from eb_abs's)

Section contents (varints unless stated):

* ``SEC_META`` — radius, max_len, predictor, block_size, total_bits,
  n_symbols, n_outliers.
* ``SEC_CODE_LENGTHS`` — the first symbol ``lo`` and the ``count`` of the
  occupied window of the alphabet, then the window's ``count`` uint8 code
  lengths through the section's codec (run-length DEFLATE, or raw).
* ``SEC_BLOCK_OFFSETS`` — frame-of-reference bit counts of every Huffman
  block but the last (the block offsets are their prefix sums from 0, the
  last block ends at ``total_bits``): the minimum ``base``, a bit width
  ``1..64`` (u8), then each count minus ``base`` in ``width`` bits, MSB
  first, zero-padded to a byte.  Always raw.  A stream of one block stores
  no such section.
* ``SEC_PAYLOAD``, ``SEC_OUTLIERS`` (int64), ``SEC_RAW``, ``SEC_SIGNS``,
  ``SEC_ZERO_MASK`` — bytes through the section's codec, as in version 1.

Version 1 (read-only; every stream written before version 2)::

    magic  b"RPSZ" | version u8 = 1 | flags u8 | mode u8 | dtype u8
    ndim u8 | shape u64 * ndim | eb_user f64 | eb_abs f64
    n_sections u8 | sections: (tag u8, codec u8, length u64, bytes) *

with a fixed-width ``SEC_META`` (``<IBBIQQQ``), alphabet-wide code lengths
and the block offsets as DEFLATEd int64 deltas.  :func:`parse` reads both
versions into one form — the version-2 section contents — so nothing
downstream of it knows which version it read, and :func:`serialize` of a
parsed stream writes the version-2 stream of the same content.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.sz import lossless

MAGIC = b"RPSZ"
VERSION = 2

# Section tags.
SEC_CODE_LENGTHS = 1   # Huffman code lengths of the occupied symbol window
SEC_BLOCK_OFFSETS = 2  # Huffman block bit counts, frame-of-reference packed
SEC_PAYLOAD = 3        # Huffman bit stream
SEC_OUTLIERS = 4       # escape-coded Lorenzo residuals, int64, in stream order
SEC_RAW = 5            # lossless fallback: the original array bytes
SEC_SIGNS = 6          # pw_rel: packed sign bits
SEC_ZERO_MASK = 7      # pw_rel: packed x==0 bits
SEC_META = 8           # codec parameters (see the module docstring)
SEC_TABLE_REF = 9      # read-only: reference to a level-shared Huffman
                       # table (table_id u32, alphabet u32) stored once as
                       # a container part instead of per-stream
                       # SEC_CODE_LENGTHS

# dtype codes.
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}

# Mode codes (matches repro.sz.quantizer.ErrorMode order).
_MODE_CODES = {"abs": 0, "rel": 1, "pw_rel": 2}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}

# Version 1 (read-only) layouts.
_HEADER_FMT = "<4sBBBBB"  # magic, version, flags, mode, dtype, ndim
_SECTION_FMT = "<BBQ"
_META_V1_LAYOUT = struct.Struct("<IBBIQQQ")

# Header flags.
FLAG_LOSSLESS_FALLBACK = 1  # blob stores the array verbatim (eb_abs == 0 path)
FLAG_EMPTY = 2              # zero-size array; no sections required

#: Version-2 kind byte: bit 5 marks a stored ``eb_user``; bits 6-7 are 0.
_KIND_EB_USER = 1 << 5

#: Dimensions a header may declare (NumPy's own limit).
_MAX_NDIM = 32

#: Largest quantization radius a codec-parameter record may carry: the
#: decoder allocates the ``2 * radius + 1`` code lengths of the alphabet.
#: The writer's is 4096.
_MAX_RADIUS = 1 << 20

_F64 = struct.Struct("<d")


@dataclass
class StreamHeader:
    """Decoded container header."""

    mode: str
    dtype: np.dtype
    shape: tuple[int, ...]
    eb_user: float
    eb_abs: float
    flags: int = 0

    @property
    def size(self) -> int:
        n = 1
        for dim in self.shape:
            n *= int(dim)
        return n


@dataclass
class Stream:
    """A parsed container: header plus the (still-encoded) version-2
    section contents, whichever version the blob was written in."""

    header: StreamHeader
    sections: dict[int, tuple[int, bytes]] = field(default_factory=dict)
    #: Bytes each section occupies in the blob as stored.
    stored: dict[int, int] = field(default_factory=dict)
    #: Bytes of the blob that belong to no section: header and section table.
    framing: int = 0

    def section(self, tag: int) -> tuple[int, bytes]:
        if tag not in self.sections:
            raise ValueError(f"compressed stream is missing required section {tag}")
        return self.sections[tag]

    def section_sizes(self) -> dict[int, int]:
        """Stored byte size per section (for stats breakdowns)."""
        return dict(self.stored)


# ---------------------------------------------------------------------------
# Varints (unsigned LEB128)


def _varints(*values: int) -> bytes:
    """The varint encoding of each of ``values`` (non-negative, < 2**64)."""
    out = bytearray()
    for value in values:
        value = int(value)
        if not 0 <= value < 1 << 64:
            raise ValueError(f"varint value {value} outside [0, 2**64)")
        while value >= 0x80:
            out.append(value & 0x7F | 0x80)
            value >>= 7
        out.append(value)
    return bytes(out)


def _read_varint(buf, offset: int) -> tuple[int, int]:
    """The varint at ``buf[offset]`` and the offset after it; raises
    ``ValueError`` on a truncated one or one longer than 10 bytes."""
    value = shift = 0
    for offset in range(offset, min(offset + 10, len(buf))):
        byte = buf[offset]
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            if value >> 64:
                raise ValueError("varint exceeds 64 bits")
            return value, offset + 1
        shift += 7
    if shift == 70:
        raise ValueError("varint longer than 10 bytes")
    raise ValueError("truncated varint")


def _read_varints(buf, offset: int, count: int) -> tuple[list[int], int]:
    """``count`` consecutive varints from ``buf[offset]`` and the offset
    after them (one-byte values, the common case, read inline)."""
    values = []
    end = len(buf)
    for _ in range(count):
        if offset < end and buf[offset] < 0x80:
            values.append(buf[offset])
            offset += 1
        else:
            value, offset = _read_varint(buf, offset)
            values.append(value)
    return values, offset


# ---------------------------------------------------------------------------
# Codec-parameter record (SEC_META)

# Predictor codes (SEC_META).
_PREDICTOR_CODES = {"interp": 0, "lorenzo": 1}
_CODE_PREDICTORS = {v: k for k, v in _PREDICTOR_CODES.items()}

_META_FIELDS = (
    "radius", "max_len", "predictor", "block_size", "total_bits", "n_symbols", "n_outliers"
)


def pack_meta(
    *,
    radius: int,
    max_len: int,
    block_size: int,
    total_bits: int,
    n_symbols: int,
    n_outliers: int,
    predictor: str = "interp",
) -> bytes:
    """Serialize the codec-parameter record (SEC_META): seven varints."""
    if predictor not in _PREDICTOR_CODES:
        raise ValueError(f"unknown predictor {predictor!r}")
    return _varints(
        radius, max_len, _PREDICTOR_CODES[predictor], block_size, total_bits, n_symbols, n_outliers
    )


def unpack_meta(raw: bytes) -> dict:
    """Parse SEC_META back into a parameter dict.

    Rejects records no writer produces (truncated or trailing bytes, zero
    block size, a code-length cap outside the decoder's ``[2, 24]``, a
    radius outside ``[1, 2**20]``) with ``ValueError``.
    """
    try:
        values, offset = _read_varints(raw, 0, len(_META_FIELDS))
    except ValueError as exc:
        raise ValueError(f"malformed codec-parameter record ({exc})") from None
    if offset != len(raw):
        raise ValueError(f"malformed codec-parameter record ({len(raw) - offset} trailing bytes)")
    return _checked_meta(dict(zip(_META_FIELDS, values)))


def _checked_meta(meta: dict) -> dict:
    """``meta`` with its predictor named, once every field is in range."""
    if meta["predictor"] not in _CODE_PREDICTORS:
        raise ValueError(f"unknown predictor code {meta['predictor']}")
    if meta["block_size"] < 1:
        raise ValueError("codec-parameter record has block_size 0")
    if not 2 <= meta["max_len"] <= 24:
        raise ValueError(f"codec-parameter record has max_len {meta['max_len']} outside [2, 24]")
    if not 1 <= meta["radius"] <= _MAX_RADIUS:
        raise ValueError(f"codec-parameter record has radius {meta['radius']} outside [1, 2**20]")
    meta["predictor"] = _CODE_PREDICTORS[meta["predictor"]]
    return meta


# ---------------------------------------------------------------------------
# Code lengths (SEC_CODE_LENGTHS)


def pack_code_lengths(lengths: np.ndarray, lo: int = 0) -> tuple[int, bytes]:
    """``(codec, section)`` of the code whose symbol ``lo + i`` has length
    ``lengths[i]``: only the occupied window (first to last nonzero length)
    is stored, run-length DEFLATEd when that pays off."""
    occupied = np.flatnonzero(lengths)
    first, end = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (0, 0)
    window = np.ascontiguousarray(lengths[first:end], dtype=np.uint8)
    codec, packed = lossless.compress_runs(window.tobytes())
    return codec, _varints(lo + first, end - first) + packed


def unpack_code_lengths(section: tuple[int, bytes], alphabet: int) -> tuple[int, np.ndarray]:
    """``(lo, window)``: the uint8 code lengths of symbols ``lo ..
    lo + window.size - 1`` a SEC_CODE_LENGTHS section stores (every other
    symbol of the ``alphabet`` has none); a window past the alphabet raises
    ``ValueError``."""
    codec, raw = section
    (lo, count), offset = _read_varints(raw, 0, 2)
    if lo + count > alphabet:
        raise ValueError(
            f"code-length window {lo}..{lo + count - 1} runs past the {alphabet}-symbol alphabet"
        )
    window = lossless.decompress_bytes(codec, raw[offset:], count)
    return lo, np.frombuffer(window, dtype=np.uint8)


# ---------------------------------------------------------------------------
# Block offsets (SEC_BLOCK_OFFSETS): frame-of-reference bit counts


def pack_block_offsets(offsets: np.ndarray) -> list[bytes | None]:
    """The SEC_BLOCK_OFFSETS contents of each row of ``offsets`` (one
    stream's int64 block bit offsets, starting at 0, per row; all rows one
    block count); ``None`` for streams of one block, which store none.

    Rows are packed together, one pass per distinct bit width."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.shape[1] <= 1:
        return [None] * offsets.shape[0]
    counts = np.diff(offsets, axis=1).astype(np.uint64)  # every block but the last
    base = counts.min(axis=1)
    counts -= base[:, None]
    widths = np.array([max(int(span).bit_length(), 1) for span in counts.max(axis=1)])
    n_streams, n_counts = counts.shape
    out: list = [None] * n_streams
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        # Big-endian uint64s are each count's 64 bits MSB first: keep the
        # low ``width`` of them and pack every row's bits together.
        bits = np.unpackbits(counts[rows].astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
        packed = np.packbits(bits[:, 64 - width :].reshape(rows.size, n_counts * width), axis=1)
        for row, data in zip(rows.tolist(), packed):
            out[row] = _varints(int(base[row])) + bytes([width]) + data.tobytes()
    return out


def unpack_block_offsets(sections: list, n_blocks: int, total_bits: list[int]) -> np.ndarray:
    """The ``(len(sections), n_blocks)`` int64 block offsets of streams of
    ``n_blocks`` blocks and ``total_bits[i]`` payload bits, from each one's
    SEC_BLOCK_OFFSETS ``(codec, bytes)`` (``None`` where it stores none).

    Raises ``ValueError`` on a section of the wrong size or kind, a bit
    width outside ``1..64``, or counts whose total reaches ``total_bits``;
    nothing is allocated beyond the sizes the sections themselves have.
    """
    n_streams = len(sections)
    offsets = np.zeros((n_streams, max(n_blocks, 0)), dtype=np.int64)
    if n_blocks <= 1:
        if any(section is not None for section in sections):
            raise ValueError("a stream of one block stores no block offsets")
        return offsets
    n_counts = n_blocks - 1
    bases, widths, datas = [], [], []
    for section in sections:
        if section is None:
            raise ValueError(f"compressed stream is missing required section {SEC_BLOCK_OFFSETS}")
        codec, raw = section
        if codec != lossless.CODEC_RAW:
            raise ValueError("block offsets must be stored raw")
        (base,), at = _read_varints(raw, 0, 1)
        if at >= len(raw):
            raise ValueError("block offsets section has no bit width")
        width = raw[at]
        if not 1 <= width <= 64:
            raise ValueError(f"block offsets bit width {width} outside [1, 64]")
        if len(raw) - at - 1 != -(-n_counts * width // 8):
            raise ValueError(
                f"block offsets section holds {len(raw) - at - 1} bytes, not the "
                f"{-(-n_counts * width // 8)} that {n_counts} counts of {width} bits take"
            )
        bases.append(base)
        widths.append(width)
        datas.append(raw[at + 1 :])
    counts = np.empty((n_streams, n_counts), dtype=np.uint64)
    widths = np.array(widths)
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        packed = np.frombuffer(b"".join(datas[row] for row in rows.tolist()), dtype=np.uint8)
        bits = np.unpackbits(packed.reshape(rows.size, -1), axis=1, count=n_counts * width)
        words = np.zeros((rows.size * n_counts, 64), dtype=np.uint8)
        words[:, 64 - width :] = bits.reshape(-1, width)
        counts[rows] = np.packbits(words, axis=1).view(">u8").reshape(rows.size, n_counts)
    bases = np.array(bases, dtype=np.uint64)
    # A float gate first, so the exact sums below cannot wrap.
    approx = counts.sum(axis=1, dtype=np.float64) + bases.astype(np.float64) * n_counts
    if np.any(approx >= 2.0**62):
        raise ValueError("block offsets total more bits than the stream holds")
    counts += bases[:, None]
    np.cumsum(counts, axis=1, out=counts)
    offsets[:, 1:] = counts
    if any(start >= total for start, total in zip(offsets[:, -1].tolist(), total_bits)):
        raise ValueError("block offsets total more bits than the stream holds")
    return offsets


# ---------------------------------------------------------------------------
# Writer (version 2)


def serialize(header: StreamHeader, sections: list[tuple[int, int, bytes]]) -> bytes:
    """Assemble a version-2 blob from a header and (tag, codec, bytes)
    sections holding version-2 contents."""
    dtype_code = _DTYPE_CODES.get(np.dtype(header.dtype))
    if dtype_code is None:
        raise TypeError(f"unsupported dtype {header.dtype} for serialization")
    mode_code = _MODE_CODES.get(header.mode)
    if mode_code is None:
        raise ValueError(f"unknown error mode {header.mode!r}")
    if len(header.shape) > _MAX_NDIM:
        raise ValueError("too many dimensions")
    if not 0 <= header.flags <= FLAG_LOSSLESS_FALLBACK | FLAG_EMPTY:
        raise ValueError(f"unknown header flags {header.flags}")
    eb_user, eb_abs = _F64.pack(header.eb_user), _F64.pack(header.eb_abs)
    kind = mode_code | dtype_code << 2 | header.flags << 3
    if eb_user != eb_abs:
        kind |= _KIND_EB_USER
    out = bytearray(MAGIC)
    out += bytes((VERSION, kind))
    out += _varints(len(header.shape), *header.shape)
    if kind & _KIND_EB_USER:
        out += eb_user
    out += eb_abs
    out += _varints(len(sections))
    for tag, codec, payload in sections:
        if not (0 <= tag < 16 and 0 <= codec < 16):
            raise ValueError(f"section tag {tag} / codec {codec} outside [0, 16)")
        out.append(tag | codec << 4)
        out += _varints(len(payload))
        out += payload
    return bytes(out)


# ---------------------------------------------------------------------------
# Parser (versions 1 and 2)


def _version(view: memoryview) -> int:
    if len(view) < 5:
        raise ValueError("blob too short to be a compressed stream")
    if bytes(view[:4]) != MAGIC:
        raise ValueError("not a repro.sz stream (bad magic)")
    version = view[4]
    if version not in (1, VERSION):
        raise ValueError(f"unsupported stream version {version}")
    return version


def _header(mode_code: int, dtype_code: int, shape, eb_user, eb_abs, flags: int) -> StreamHeader:
    if mode_code not in _CODE_MODES:
        raise ValueError(f"unknown mode code {mode_code}")
    if dtype_code not in _CODE_DTYPES:
        raise ValueError(f"unknown dtype code {dtype_code}")
    return StreamHeader(
        mode=_CODE_MODES[mode_code],
        dtype=_CODE_DTYPES[dtype_code],
        shape=tuple(shape),
        eb_user=float(eb_user),
        eb_abs=float(eb_abs),
        flags=int(flags),
    )


def _parse_header(view: memoryview) -> tuple[StreamHeader, int]:
    """Decode a version-2 header; returns it and the section-table offset."""
    if len(view) < 6:
        raise ValueError("truncated stream header")
    kind = view[5]
    if kind >> 6:
        raise ValueError(f"unknown header kind bits {kind:#04x}")
    (ndim,), offset = _read_varints(view, 6, 1)
    if ndim > _MAX_NDIM:
        raise ValueError(f"header declares {ndim} dimensions")
    shape, offset = _read_varints(view, offset, ndim)
    n_floats = 2 if kind & _KIND_EB_USER else 1
    if offset + 8 * n_floats > len(view):
        raise ValueError("truncated stream header")
    eb_abs = _F64.unpack_from(view, offset + 8 * (n_floats - 1))[0]
    eb_user = _F64.unpack_from(view, offset)[0]
    header = _header(kind & 3, kind >> 2 & 1, shape, eb_user, eb_abs, kind >> 3 & 3)
    return header, offset + 8 * n_floats


def _parse_header_v1(view: memoryview) -> tuple[StreamHeader, int]:
    head_size = struct.calcsize(_HEADER_FMT)
    if len(view) < head_size:
        raise ValueError("blob too short to be a compressed stream")
    _magic, _version, flags, mode_code, dtype_code, ndim = struct.unpack_from(_HEADER_FMT, view, 0)
    offset = head_size + 8 * ndim + 16
    if offset > len(view):
        raise ValueError("truncated stream header")
    shape = struct.unpack_from(f"<{ndim}Q", view, head_size)
    eb_user, eb_abs = struct.unpack_from("<dd", view, offset - 16)
    return _header(mode_code, dtype_code, shape, eb_user, eb_abs, flags), offset


def peek_header(blob: bytes) -> StreamHeader:
    """Header only — dtype/shape/bound probe without touching sections."""
    view = memoryview(blob)
    return (_parse_header(view) if _version(view) == VERSION else _parse_header_v1(view))[0]


def parse(blob: bytes) -> Stream:
    """Parse a version-1 or version-2 blob into version-2 section contents;
    raises ``ValueError`` on any malformation."""
    view = memoryview(blob)
    if _version(view) != VERSION:
        return _parse_v1(view)
    header, offset = _parse_header(view)
    (n_sections,), offset = _read_varints(view, offset, 1)
    sections: dict[int, tuple[int, bytes]] = {}
    for _ in range(n_sections):
        if offset >= len(view):
            raise ValueError("truncated section table")
        entry = view[offset]
        tag = entry & 15
        (length,), offset = _read_varints(view, offset + 1, 1)
        if offset + length > len(view):
            raise ValueError(f"section {tag} overruns the blob")
        if tag in sections:
            raise ValueError(f"section {tag} stored twice")
        sections[tag] = (entry >> 4, bytes(view[offset : offset + length]))
        offset += length
    if offset != len(view):
        raise ValueError(f"{len(view) - offset} trailing bytes after last section")
    stored = {tag: len(payload) for tag, (_codec, payload) in sections.items()}
    return Stream(header, sections, stored, len(view) - sum(stored.values()))


def _parse_v1(view: memoryview) -> Stream:
    """A version-1 blob, its sections rewritten into version-2 contents:
    the meta record as varints, the code lengths as the alphabet-wide
    window, the int64 offset deltas as 64-bit frame-of-reference counts
    (none for one block)."""
    header, offset = _parse_header_v1(view)
    if offset >= len(view):
        raise ValueError("truncated section table")
    n_sections = view[offset]
    offset += 1
    sections: dict[int, tuple[int, bytes]] = {}
    sec_size = struct.calcsize(_SECTION_FMT)
    for _ in range(n_sections):
        if offset + sec_size > len(view):
            raise ValueError("truncated section table")
        tag, codec, length = struct.unpack_from(_SECTION_FMT, view, offset)
        offset += sec_size
        if offset + length > len(view):
            raise ValueError(f"section {tag} overruns the blob")
        sections[tag] = (codec, bytes(view[offset : offset + length]))
        offset += length
    if offset != len(view):
        raise ValueError(f"{len(view) - offset} trailing bytes after last section")
    stored = {tag: len(payload) for tag, (_codec, payload) in sections.items()}
    framing = len(view) - sum(stored.values())
    if SEC_META in sections:
        raw = sections[SEC_META][1]
        if len(raw) != _META_V1_LAYOUT.size:
            raise ValueError(f"malformed codec-parameter record ({len(raw)} bytes)")
        meta = _checked_meta(dict(zip(_META_FIELDS, _META_V1_LAYOUT.unpack(raw))))
        sections[SEC_META] = (lossless.CODEC_RAW, pack_meta(**meta))
        if SEC_CODE_LENGTHS in sections:
            codec, payload = sections[SEC_CODE_LENGTHS]
            sections[SEC_CODE_LENGTHS] = (codec, _varints(0, 2 * meta["radius"] + 1) + payload)
        if SEC_BLOCK_OFFSETS in sections:
            n_blocks = -(-meta["n_symbols"] // meta["block_size"])
            deltas = lossless.unpack_int_array(*sections[SEC_BLOCK_OFFSETS], np.int64, n_blocks)
            if deltas.size and deltas[0]:
                raise ValueError("first block offset is not 0")
            if n_blocks > 1:
                packed = _varints(0) + bytes([64]) + deltas[1:].astype(">i8").tobytes()
                sections[SEC_BLOCK_OFFSETS] = (lossless.CODEC_RAW, packed)
            else:
                del sections[SEC_BLOCK_OFFSETS]
    return Stream(header, sections, stored, framing)


# ---------------------------------------------------------------------------
# Shared Huffman tables (SEC_TABLE_REF + the level table container part):
# a read-only format.  Its writer encoded every stream of a TAC level
# under one canonical code built from the level-wide symbol histogram.
# The code lengths are stored once, in their own container part, and each
# stream carries only a fixed-size reference: the table's checksum id plus
# the alphabet size, so a decode against the wrong (or corrupted) table
# fails loudly instead of producing garbage.  The decoder never sees such a
# stream: the TAC reader rewrites each one into an ordinary stream as it is
# fetched (``repro.core.tac.SharedTableResolver``), so stored archives read
# forever (the reference writer lives in ``tests/helpers.py``).

TABLE_MAGIC = b"RPHT"
TABLE_VERSION = 1

_TABLE_REF_FMT = "<II"  # table_id (crc32 of the length bytes), alphabet size
_TABLE_HEAD_FMT = "<4sBBIIBQ"  # magic, version, max_len, alphabet, table_id,
#                                lossless codec tag, stored length


def shared_table_id(lengths_bytes: bytes) -> int:
    """Content id of a shared table: CRC-32 of the raw code-length bytes."""
    return zlib.crc32(lengths_bytes) & 0xFFFFFFFF


def unpack_table_ref(raw: bytes) -> dict:
    """Parse a SEC_TABLE_REF payload back into ``{table_id, alphabet}``."""
    if len(raw) != struct.calcsize(_TABLE_REF_FMT):
        raise ValueError(f"malformed table reference ({len(raw)} bytes)")
    table_id, alphabet = struct.unpack(_TABLE_REF_FMT, raw)
    return {"table_id": int(table_id), "alphabet": int(alphabet)}


def unpack_shared_table(blob: bytes) -> dict:
    """Parse and verify a shared-table part.

    Layout (little-endian)::

        magic b"RPHT" | version u8 | max_len u8 | alphabet u32 | table_id u32
        codec u8 | length u64 | code-length bytes (raw or DEFLATE)

    Returns ``{code_lengths, max_len, table_id, alphabet}``; raises
    ``ValueError`` on bad magic, unknown version, or checksum mismatch.
    """
    head_size = struct.calcsize(_TABLE_HEAD_FMT)
    if len(blob) < head_size:
        raise ValueError("blob too short to be a shared Huffman table")
    magic, version, max_len, alphabet, table_id, codec, length = struct.unpack_from(
        _TABLE_HEAD_FMT, blob, 0
    )
    if magic != TABLE_MAGIC:
        raise ValueError("not a shared Huffman table (bad magic)")
    if version != TABLE_VERSION:
        raise ValueError(f"unsupported shared-table version {version}")
    if len(blob) != head_size + length:
        raise ValueError("truncated shared Huffman table")
    raw = lossless.decompress_bytes(codec, blob[head_size:], alphabet)
    lengths = np.frombuffer(raw, dtype=np.uint8)
    if shared_table_id(raw) != table_id:
        raise ValueError("shared Huffman table checksum mismatch (corrupt part)")
    return {
        "code_lengths": lengths,
        "max_len": int(max_len),
        "table_id": int(table_id),
        "alphabet": int(alphabet),
    }
