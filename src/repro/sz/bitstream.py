"""Vectorized variable-length bit packing and peeking.

The Huffman stage needs to (a) concatenate millions of variable-length
codewords into a byte buffer and (b) read back fixed-width *peeks* at
arbitrary bit offsets during table-driven decoding.  Both are implemented
with whole-array NumPy operations — no per-symbol Python loop — following
the vectorization idioms of the HPC guides:

* **pack**: for bit position ``j`` within a codeword (at most ``max_len``
  iterations, typically <= 18) scatter the ``j``-th bit of every codeword
  into a flat boolean bit array at ``offset + j``, then ``np.packbits``.
* **peek**: gather four consecutive bytes at ``offset // 8``, combine into a
  big-endian ``uint32`` and shift/mask to expose ``width`` bits.

Bit order is MSB-first within each byte (network order), so a peek of the
first codeword's bits is simply the top bits of the buffer.
"""

from __future__ import annotations

import numpy as np

#: Safety padding (bytes) appended to buffers so a 4-byte gather at the last
#: bit offset never reads out of bounds.
_PEEK_PAD = 4


def pack_codes(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[bytes, int] | tuple[list[bytes], list[int]]:
    """Concatenate MSB-aligned codewords into a packed byte string.

    Parameters
    ----------
    codes:
        ``uint32``/``uint64`` array; the lowest ``lengths[i]`` bits of
        ``codes[i]`` form the codeword (most significant code bit first).
        A 2-D array is a batch of streams, one per row.
    lengths:
        Per-codeword bit lengths (``> 0`` for every emitted symbol).

    Returns
    -------
    (buffer, total_bits):
        ``buffer`` is the packed stream plus :data:`_PEEK_PAD` zero bytes of
        slack; ``total_bits`` is the exact number of payload bits.  For 2-D
        input both are lists with one entry per row, and row ``i``'s entry
        equals ``pack_codes(codes[i], lengths[i])``.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have identical shapes")
    if codes.ndim == 2:
        return _pack_rows(codes, lengths)
    buffers, total_bits = _pack_rows(codes[None], lengths[None])
    return buffers[0], total_bits[0]


def _pack_rows(codes: np.ndarray, lengths: np.ndarray) -> tuple[list[bytes], list[int]]:
    """Pack every row of a 2-D code array in one flat pass."""
    n_rows = codes.shape[0]
    if codes.size == 0:
        return [b"\x00" * _PEEK_PAD] * n_rows, [0] * n_rows
    if lengths.min() <= 0:
        raise ValueError("all codeword lengths must be positive")
    max_len = int(lengths.max())
    if max_len > 57:
        # 57 bits keeps offset+j arithmetic within exact float64/int64 range
        # and far exceeds any length-limited Huffman code we build.
        raise ValueError(f"codeword length {max_len} exceeds supported maximum 57")

    row_bits = lengths.sum(axis=1)
    if n_rows > 1:
        # Every row starts on a byte boundary: a pseudo-code of zero bits
        # (possibly none) closes each row's last byte.  A lone row needs
        # none — np.packbits zero-pads the final partial byte itself.
        pad = (-row_bits) % 8
        lengths = np.concatenate([lengths, pad[:, None]], axis=1)
        codes = np.concatenate([codes, np.zeros((n_rows, 1), dtype=codes.dtype)], axis=1)
    lengths = lengths.ravel()
    ends = np.cumsum(lengths)
    total_bits = int(ends[-1])

    # One flat pass over the output bits: global bit position ``p`` belongs
    # to the symbol whose codeword covers it, and its in-codeword shift from
    # the LSB is ``ends[sym] - 1 - p``.  ``np.repeat`` expands the per-symbol
    # quantities to bit granularity, so the whole batch packs in a handful
    # of whole-array operations — O(total_bits), independent of ``max_len``
    # and of the row count.  int32 arithmetic halves the bandwidth of the
    # two big repeats whenever both the codes and the bit offsets fit
    # (always, for length-limited codes on batches under 2**31 bits).
    dtype = np.int32 if (max_len <= 31 and total_bits <= np.iinfo(np.int32).max) else np.int64
    shifts = np.repeat(ends.astype(dtype, copy=False), lengths)
    shifts -= 1
    shifts -= np.arange(total_bits, dtype=dtype)
    bitvals = np.repeat(codes.ravel().astype(dtype), lengths)
    bitvals >>= shifts
    bitvals &= 1
    packed = np.packbits(bitvals.astype(np.uint8)).tobytes()
    tail = b"\x00" * _PEEK_PAD
    stops = np.cumsum((row_bits + 7) >> 3).tolist()
    return (
        [packed[start:stop] + tail for start, stop in zip([0] + stops, stops)],
        row_bits.tolist(),
    )


def as_peekable(*buffers: bytes | np.ndarray) -> np.ndarray:
    """Return a ``uint8`` copy of ``buffers``, concatenated, with the gather guard.

    Padding is appended unconditionally: :func:`peek_bits` gathers four
    consecutive bytes at any in-range offset, so the final payload byte
    always needs :data:`_PEEK_PAD` bytes of slack after it.
    """
    arrays = [
        np.frombuffer(buffer, dtype=np.uint8)
        if isinstance(buffer, (bytes, bytearray))
        else np.asarray(buffer, dtype=np.uint8)
        for buffer in buffers
    ]
    return np.concatenate(arrays + [np.zeros(_PEEK_PAD, dtype=np.uint8)])


#: Above this payload size (bytes) :func:`window_words` is skipped and the
#: decoder falls back to per-round 4-byte gathers — the window array costs
#: 4 bytes per payload byte, which is fine for group-stream-sized payloads
#: but not for multi-hundred-MB monolithic streams.
WINDOW_WORDS_LIMIT = 256 * 1024 * 1024


def window_words(buf: np.ndarray) -> np.ndarray:
    """Big-endian ``uint32`` read of ``buf`` at *every* byte offset.

    ``window_words(buf)[i]`` equals the 32-bit big-endian word starting at
    byte ``i``, so a fixed-width peek at bit offset ``p`` collapses to one
    gather: ``(words[p >> 3] << (p & 7)) >> (32 - width)``.  Built once per
    decode, this replaces the four per-round byte gathers of
    :func:`peek_bits` with a single one.

    ``buf`` must carry the :data:`_PEEK_PAD` slack (see :func:`as_peekable`).
    """
    words = buf[: buf.size - 3].astype(np.uint32)
    words <<= np.uint32(8)
    words |= buf[1 : buf.size - 2]
    words <<= np.uint32(8)
    words |= buf[2 : buf.size - 1]
    words <<= np.uint32(8)
    words |= buf[3:]
    return words


def peek_bits(buf: np.ndarray, bit_offsets: np.ndarray, width: int) -> np.ndarray:
    """Vectorized fixed-width peek at arbitrary bit offsets.

    Parameters
    ----------
    buf:
        Padded ``uint8`` buffer from :func:`as_peekable` (or
        :func:`pack_codes`, which pads its output).
    bit_offsets:
        ``int64`` array of bit positions (MSB-first order).
    width:
        Number of bits to expose, ``1 <= width <= 24``.  24 keeps every peek
        within one aligned 4-byte gather regardless of the offset's
        intra-byte phase (24 + 7 <= 32).

    Returns
    -------
    ``uint32`` array of the peeked values; offsets past the end of the
    buffer read the zero padding (callers bound decoding by symbol count,
    not by buffer exhaustion).
    """
    if not 1 <= width <= 24:
        raise ValueError(f"peek width must be in [1, 24], got {width}")
    offsets = np.asarray(bit_offsets, dtype=np.int64)
    byte_idx = offsets >> 3
    # Clip so the 4-byte gather stays in bounds even for (invalid) offsets
    # past the payload; those lanes return padding bits and are ignored by
    # the caller's active mask.
    byte_idx = np.minimum(byte_idx, buf.size - _PEEK_PAD)
    b0 = buf[byte_idx].astype(np.uint32)
    b1 = buf[byte_idx + 1].astype(np.uint32)
    b2 = buf[byte_idx + 2].astype(np.uint32)
    b3 = buf[byte_idx + 3].astype(np.uint32)
    word = (b0 << np.uint32(24)) | (b1 << np.uint32(16)) | (b2 << np.uint32(8)) | b3
    phase = (offsets & 7).astype(np.uint32)
    shifted = word >> (np.uint32(32 - width) - phase)
    return shifted & np.uint32((1 << width) - 1)


def unpack_to_bits(buffer: bytes, total_bits: int) -> np.ndarray:
    """Expand a packed buffer back to a ``uint8`` 0/1 array (testing aid)."""
    arr = np.frombuffer(buffer, dtype=np.uint8)
    bits = np.unpackbits(arr)
    return bits[:total_bits]
