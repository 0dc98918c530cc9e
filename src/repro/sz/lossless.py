"""Lossless back end (SZ's final stage) and array (de)serialization helpers.

SZ runs a dictionary coder (zstd) over the Huffman bit stream and stores all
side information losslessly.  We use :mod:`zlib` from the standard library —
same role, DEFLATE instead of zstd — behind a tiny codec-tagged interface so
the container can record *which* transform produced each section and so a
"store raw" fallback is always available when DEFLATE does not pay off.

Which DEFLATE each section gets is fixed per section kind, in code:

* **Huffman payload and code-length table** — :func:`compress_runs`,
  DEFLATE in zlib's run-length mode (``Z_RLE``: matches at distance 1
  only).  Huffman output has no repeats for LZ77's match search to find,
  only runs (of zero bytes at loose bounds), and a code-length table is
  runs of equal lengths.
* **Outliers, the eb == 0 raw array, the pw_rel sign and zero masks** —
  :func:`compress_bytes`, level-1 DEFLATE with the full LZ77 search: these
  do repeat at distances > 1.
* **Block offsets** — none: :mod:`repro.sz.stream` bit-packs them
  (frame of reference), which leaves nothing for DEFLATE to find.

Both write ordinary zlib streams, recorded as :data:`CODEC_ZLIB`, so one
inflate reads every section either writer ever produced.  Measured on the
``snap_dense`` data (Run1_Z3 at scale 4, eb 1e-4 rel; times on one core of
a 2-vCPU Intel Xeon VM), bytes after each coder, the last column what the
version-2 stream stores:

=================  =========  ================  ================  ===================
section            raw        level 1 (LZ77)    ``Z_RLE``         stream version 2
=================  =========  ================  ================  ===================
Huffman payload    959 103    927 715 (23.5 ms) 936 495 (9.4 ms)  936 495 (``Z_RLE``)
code lengths        81 930      2 830             2 059             1 865 (window)
block offsets       36 192     10 175            11 765             6 699 (packed)
=================  =========  ================  ================  ===================

At eb 1e-2 run-length mode is also the *smaller* payload (39 704 vs 51 578
bytes).  On the 1 542 16³ bricks of a 3-step ingest series of the same data
(eb 1e-4, tacbench's ``ingest_series``) version 1 stored 103 474 bytes of
run-length coded, alphabet-wide code lengths and 198 466 bytes of level-1
DEFLATEd int64 offset deltas; version 2 stores 68 490 bytes of windowed
code lengths and 85 252 bytes of packed offsets.

Every inflate is bounded by the size the stream's header and codec record
imply (:func:`decompress_bytes`), so a section that inflates past it — a
DEFLATE bomb — fails after at most that many bytes, not after the
allocation it asks for.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Codec tags recorded per section in the container format.
CODEC_RAW = 0
CODEC_ZLIB = 1


def _smaller(data: bytes, packed: bytes) -> tuple[int, bytes]:
    """The raw fallback: ``data`` itself when DEFLATE would not shrink it."""
    if len(packed) >= len(data):
        return CODEC_RAW, data
    return CODEC_ZLIB, packed


def compress_bytes(data: bytes) -> tuple[int, bytes]:
    """Compress ``data`` with level-1 DEFLATE; fall back to raw if it would
    grow.

    Returns ``(codec_tag, payload)``.
    """
    return _smaller(data, zlib.compress(data, 1))


def compress_runs(data: bytes) -> tuple[int, bytes]:
    """DEFLATE ``data`` in run-length mode (``Z_RLE``); raw if it would grow.

    The output is an ordinary zlib stream (the DEFLATE level does not
    change run-length output, so there is none to choose).  Returns
    ``(codec_tag, payload)`` like :func:`compress_bytes`.
    """
    packer = zlib.compressobj(1, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE)
    return _smaller(data, packer.compress(data) + packer.flush())


def _inflate(codec: int, payload: bytes, cap: int) -> bytes:
    """The section's bytes; a DEFLATE section is inflated to at most
    ``cap + 1`` of them, so more than ``cap`` means an overrun.  A damaged
    one raises ``ValueError``, like every other damage a stream can hold."""
    if codec == CODEC_RAW:
        return payload
    if codec != CODEC_ZLIB:
        raise ValueError(f"unknown lossless codec tag {codec!r}")
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload, cap + 1)
    except zlib.error as exc:
        raise ValueError(f"damaged DEFLATE section ({exc})") from None
    if len(raw) <= cap and not inflater.eof:
        raise ValueError("truncated DEFLATE section")
    return raw


def decompress_bytes(codec: int, payload: bytes, size: int) -> bytes:
    """Invert :func:`compress_bytes` / :func:`compress_runs` given the
    recorded codec tag and the ``size`` in bytes the stream implies.

    A section of any other size raises ``ValueError``; a DEFLATE section is
    never inflated past ``size + 1`` bytes.
    """
    raw = _inflate(codec, payload, size)
    if len(raw) != size:
        side = "longer" if len(raw) > size else "shorter"
        raise ValueError(f"lossless section {side} than the {size} bytes expected")
    return raw


def pack_int_array(arr: np.ndarray) -> tuple[int, bytes]:
    """Serialize an integer array: its native bytes through
    :func:`compress_bytes`.

    No transform is applied here; callers that want small values pass them
    (the block offsets travel as deltas).  The inverse is
    :func:`unpack_int_array`; dtype and length travel with the container
    header, not here.
    """
    arr = np.ascontiguousarray(arr)
    return compress_bytes(arr.tobytes())


def unpack_int_array(codec: int, payload: bytes, dtype, count: int) -> np.ndarray:
    """Invert :func:`pack_int_array` into ``count`` items of ``dtype``
    (inflating at most one byte past them)."""
    dtype = np.dtype(dtype)
    nbytes = count * dtype.itemsize
    raw = _inflate(codec, payload, nbytes)
    if len(raw) != nbytes:
        overrun = codec == CODEC_ZLIB and len(raw) > nbytes  # inflate stopped early
        got = f"more than {count}" if overrun else len(raw) // dtype.itemsize
        raise ValueError(f"expected {count} items of {dtype}, got {got}")
    return np.frombuffer(raw, dtype=dtype).copy()  # writable, detached from the input
