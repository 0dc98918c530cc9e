"""Self-describing container format for compressed arrays.

A compressed array is a fixed header followed by a small table of typed,
length-prefixed sections.  Keeping the format explicit (rather than
pickling) gives us three production properties:

* **honest accounting** — every byte of side information (Huffman table,
  block offsets, outliers, masks) is inside the blob, so compression ratios
  include metadata exactly as the paper's do;
* **forward safety** — unknown section tags are rejected with a clear error
  instead of being misinterpreted;
* **testability** — headers round-trip independently of payloads.

Layout (little-endian)::

    magic  b"RPSZ" | version u8 | flags u8 | mode u8 | dtype u8
    ndim u8 | shape u64 * ndim | eb_user f64 | eb_abs f64
    n_sections u8 | sections: (tag u8, codec u8, length u64, bytes) *
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.sz import lossless

MAGIC = b"RPSZ"
VERSION = 1

# Section tags.
SEC_CODE_LENGTHS = 1   # Huffman code lengths, uint8 per alphabet symbol
SEC_BLOCK_OFFSETS = 2  # Huffman block bit offsets, int64
SEC_PAYLOAD = 3        # Huffman bit stream
SEC_OUTLIERS = 4       # escape-coded Lorenzo residuals, int64, in stream order
SEC_RAW = 5            # lossless fallback: the original array bytes
SEC_SIGNS = 6          # pw_rel: packed sign bits
SEC_ZERO_MASK = 7      # pw_rel: packed x==0 bits
SEC_META = 8           # codec parameters: radius u32, max_len u8, predictor
                       # u8, block u32, total_bits u64, n_symbols u64,
                       # n_outliers u64
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

_HEADER_FMT = "<4sBBBBB"  # magic, version, flags, mode, dtype, ndim
_SECTION_FMT = "<BBQ"

# Header flags.
FLAG_LOSSLESS_FALLBACK = 1  # blob stores the array verbatim (eb_abs == 0 path)
FLAG_EMPTY = 2              # zero-size array; no sections required


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
    """A parsed container: header plus raw (still-encoded) sections."""

    header: StreamHeader
    sections: dict[int, tuple[int, bytes]] = field(default_factory=dict)

    def section(self, tag: int) -> tuple[int, bytes]:
        if tag not in self.sections:
            raise ValueError(f"compressed stream is missing required section {tag}")
        return self.sections[tag]

    def section_sizes(self) -> dict[int, int]:
        """Serialized byte size per section (for stats breakdowns)."""
        return {tag: len(payload) for tag, (_codec, payload) in self.sections.items()}


# Predictor codes (SEC_META).
_PREDICTOR_CODES = {"interp": 0, "lorenzo": 1}
_CODE_PREDICTORS = {v: k for k, v in _PREDICTOR_CODES.items()}


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
    """Serialize the fixed codec-parameter record (SEC_META)."""
    if predictor not in _PREDICTOR_CODES:
        raise ValueError(f"unknown predictor {predictor!r}")
    return struct.pack(
        "<IBBIQQQ",
        radius,
        max_len,
        _PREDICTOR_CODES[predictor],
        block_size,
        total_bits,
        n_symbols,
        n_outliers,
    )


def unpack_meta(raw: bytes) -> dict:
    """Parse SEC_META back into a parameter dict.

    Rejects records no writer produces (wrong length, zero block size, a
    code-length cap outside the decoder's ``[2, 24]``) with ``ValueError``.
    """
    layout = "<IBBIQQQ"
    if len(raw) != struct.calcsize(layout):
        raise ValueError(f"malformed codec-parameter record ({len(raw)} bytes)")
    radius, max_len, pred_code, block_size, total_bits, n_symbols, n_outliers = struct.unpack(
        layout, raw
    )
    if pred_code not in _CODE_PREDICTORS:
        raise ValueError(f"unknown predictor code {pred_code}")
    if block_size < 1:
        raise ValueError("codec-parameter record has block_size 0")
    if not 2 <= max_len <= 24:
        raise ValueError(f"codec-parameter record has max_len {max_len} outside [2, 24]")
    return {
        "radius": radius,
        "max_len": max_len,
        "predictor": _CODE_PREDICTORS[pred_code],
        "block_size": block_size,
        "total_bits": total_bits,
        "n_symbols": n_symbols,
        "n_outliers": n_outliers,
    }


def serialize(header: StreamHeader, sections: list[tuple[int, int, bytes]]) -> bytes:
    """Assemble a container blob from a header and (tag, codec, bytes) sections."""
    dtype_code = _DTYPE_CODES.get(np.dtype(header.dtype))
    if dtype_code is None:
        raise TypeError(f"unsupported dtype {header.dtype} for serialization")
    mode_code = _MODE_CODES.get(header.mode)
    if mode_code is None:
        raise ValueError(f"unknown error mode {header.mode!r}")
    if len(header.shape) > 255:
        raise ValueError("too many dimensions")
    out = bytearray()
    out += struct.pack(
        _HEADER_FMT, MAGIC, VERSION, header.flags, mode_code, dtype_code, len(header.shape)
    )
    for dim in header.shape:
        out += struct.pack("<Q", int(dim))
    out += struct.pack("<dd", header.eb_user, header.eb_abs)
    if len(sections) > 255:
        raise ValueError("too many sections")
    out += struct.pack("<B", len(sections))
    for tag, codec, payload in sections:
        out += struct.pack(_SECTION_FMT, tag, codec, len(payload))
        out += payload
    return bytes(out)


def _parse_header(view: memoryview) -> tuple[StreamHeader, int]:
    """Decode the fixed header; returns it and the section-table offset."""
    head_size = struct.calcsize(_HEADER_FMT)
    if len(view) < head_size:
        raise ValueError("blob too short to be a compressed stream")
    magic, version, flags, mode_code, dtype_code, ndim = struct.unpack_from(_HEADER_FMT, view, 0)
    if magic != MAGIC:
        raise ValueError("not a repro.sz stream (bad magic)")
    if version != VERSION:
        raise ValueError(f"unsupported stream version {version}")
    if mode_code not in _CODE_MODES:
        raise ValueError(f"unknown mode code {mode_code}")
    if dtype_code not in _CODE_DTYPES:
        raise ValueError(f"unknown dtype code {dtype_code}")
    offset = head_size
    shape = []
    for _ in range(ndim):
        (dim,) = struct.unpack_from("<Q", view, offset)
        shape.append(int(dim))
        offset += 8
    eb_user, eb_abs = struct.unpack_from("<dd", view, offset)
    offset += 16
    header = StreamHeader(
        mode=_CODE_MODES[mode_code],
        dtype=_CODE_DTYPES[dtype_code],
        shape=tuple(shape),
        eb_user=float(eb_user),
        eb_abs=float(eb_abs),
        flags=int(flags),
    )
    return header, offset


def peek_header(blob: bytes) -> StreamHeader:
    """Header only — dtype/shape/bound probe without touching sections."""
    return _parse_header(memoryview(blob))[0]


def parse(blob: bytes) -> Stream:
    """Parse a container blob; raises ``ValueError`` on any malformation."""
    view = memoryview(blob)
    header, offset = _parse_header(view)
    (n_sections,) = struct.unpack_from("<B", view, offset)
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
    return Stream(header=header, sections=sections)


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
