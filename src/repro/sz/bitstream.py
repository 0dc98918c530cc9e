"""Vectorized variable-length bit packing and peeking.

The Huffman stage needs to (a) concatenate millions of variable-length
codewords into a byte buffer and (b) read back fixed-width *peeks* at
arbitrary bit offsets during table-driven decoding.  Both are implemented
with whole-array NumPy operations — no per-symbol Python loop — following
the vectorization idioms of the HPC guides:

* **pack**: work at word resolution, never per bit.  Adjacent codewords
  are merged pairwise into chunks of at most 64 bits (4 codes at the
  default ``max_len = 16``), one prefix sum over the chunks gives every
  chunk's start bit, and each chunk is split at its start's offset within
  a 64-bit output word into a head for that word and a carry for the
  next.  Byte-swapping the words gives MSB-first bytes.
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


def packed_nbytes(total_bits: int) -> int:
    """Length of the :func:`pack_codes` buffer of a ``total_bits``-bit stream."""
    return -(-total_bits // 8) + _PEEK_PAD


def pack_codes(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[bytes, int] | tuple[list[bytes], list[int]]:
    """Concatenate MSB-aligned codewords into a packed byte string.

    Parameters
    ----------
    codes:
        Unsigned (or non-negative) integer array; the lowest ``lengths[i]``
        bits of ``codes[i]`` form the codeword (most significant code bit
        first) and higher bits are ignored.  A 2-D array is a batch of
        streams, one per row.
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
    # No widening here: the Huffman encoder hands over uint32 codes and
    # uint8 lengths; ``_pack_rows`` masks the codes in their own dtype and
    # widens them once, in its first merge.
    codes = np.asarray(codes)
    lengths = np.asarray(lengths)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have identical shapes")
    if codes.dtype.kind != "u":
        codes = codes.astype(np.uint64)
    if codes.ndim == 2:
        return _pack_rows(codes, lengths)
    buffers, total_bits = _pack_rows(codes[None], lengths[None])
    return buffers[0], total_bits[0]


def _pack_rows(codes: np.ndarray, lengths: np.ndarray) -> tuple[list[bytes], list[int]]:
    """Pack every row of a 2-D code array in one flat pass of 64-bit words.

    NumPy defines an unsigned shift by the type's width or more as 0
    (pinned by ``tests/test_sz_bitstream.py``); the masks of codes as wide
    as their dtype, the zero-length chunks and the chunks that start on a
    word boundary rely on it.
    """
    n_rows, n_cols = codes.shape
    if codes.size == 0:
        return [b"\x00" * _PEEK_PAD] * n_rows, [0] * n_rows
    if lengths.min() <= 0:
        raise ValueError("all codeword lengths must be positive")
    max_len = int(lengths.max())
    if max_len > 57:
        # 57 = 64 - 7: a codeword at any bit phase of its first byte lies
        # within one byte-aligned 64-bit load, the widest read a word-at-a-
        # time bit reader makes; and it far exceeds any length-limited
        # Huffman code we build.
        raise ValueError(f"codeword length {max_len} exceeds supported maximum 57")

    # ``depth`` pairwise merges of adjacent codes make chunks of
    # ``2**depth`` codes, each at most 64 bits (so chunk lengths fit uint8).
    # Rows are padded with zero-length codes to a whole number of chunks.
    depth = (64 // max_len).bit_length() - 1
    lens = lengths.astype(np.uint8, copy=False)
    width = -(-n_cols >> depth) << depth
    if width != n_cols:
        lens = np.pad(lens, ((0, 0), (0, width - n_cols)))
        codes = np.pad(codes, ((0, 0), (0, width - n_cols)))
    # Drop the bits above each length, still in the codes' own dtype (a
    # shift past its width is 0, so the mask is all ones there).
    one = codes.dtype.type(1)
    chunks = np.left_shift(one, lens, dtype=codes.dtype)
    chunks -= one
    chunks &= codes
    for _ in range(depth):
        low = lens[:, 1::2]
        merged = chunks[:, ::2].astype(np.uint64)
        merged <<= low
        merged |= chunks[:, 1::2]
        chunks = merged
        lens = lens[:, ::2] + low

    # The one prefix sum, over chunks; every row starts on a byte boundary.
    row_bits = lengths.sum(axis=1, dtype=np.int64)
    stops = np.cumsum((row_bits + 7) >> 3)
    starts = np.cumsum(lens, axis=1, dtype=np.uint64)
    starts -= lens
    starts[1:] += (stops[:-1, None] << 3).astype(np.uint64)
    chunks = chunks.astype(np.uint64, copy=False).ravel()
    lens = lens.ravel()
    starts = starts.ravel()
    # Left-align every chunk in its own word, then split it where it lands
    # in the output: the head goes into word ``start >> 6`` shifted right by
    # the start's offset ``start & 63``, the rest carries into the next word.
    chunks <<= np.uint64(64) - lens
    offsets = starts & np.uint64(63)
    heads = chunks >> offsets
    chunks <<= np.uint64(64) - offsets  # no carry when the offset is 0
    # The chunks' bits are disjoint, so summing into a word is ORing into it
    # (and ``np.add.at`` is the fast unbuffered scatter).
    word = (starts >> np.uint64(6)).view(np.int64)
    words = np.zeros(int(word[-1]) + 2, dtype=np.uint64)
    np.add.at(words, word, heads)
    np.add.at(words[1:], word, chunks)
    packed = words.astype(">u8").tobytes()
    tail = b"\x00" * _PEEK_PAD
    stops = stops.tolist()
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


#: Above this payload size (bytes) the decoder builds :func:`window_words`
#: per contiguous chunk of blocks, each over at most this many bytes — the
#: window array costs 4 bytes per payload byte, which is fine for
#: group-stream-sized payloads but not for multi-hundred-MB monolithic
#: streams.  A lone block wider than the limit peeks with 4-byte gathers.
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
    # Clip so the 4-byte gather stays in bounds even for (invalid) offsets
    # before or past the payload: those read its first or last word.
    byte_idx = np.clip(offsets >> 3, 0, buf.size - _PEEK_PAD)
    b0 = buf[byte_idx].astype(np.uint32)
    b1 = buf[byte_idx + 1].astype(np.uint32)
    b2 = buf[byte_idx + 2].astype(np.uint32)
    b3 = buf[byte_idx + 3].astype(np.uint32)
    word = (b0 << np.uint32(24)) | (b1 << np.uint32(16)) | (b2 << np.uint32(8)) | b3
    phase = (offsets & 7).astype(np.uint32)
    shifted = word >> (np.uint32(32 - width) - phase)
    return shifted & np.uint32((1 << width) - 1)
