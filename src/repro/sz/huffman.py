"""Canonical length-limited Huffman coding with vectorized block decode.

SZ's third stage is "a customized Huffman coding" over the quantization
codes.  This module reproduces it with a few HPC-minded twists that make
a pure-NumPy implementation fast:

1. **Length-limited canonical codes.**  Code lengths are capped at
   ``max_len`` (default 16) so decoding can use a single dense lookup
   table — ``2**longest_code`` entries, at most ``2**max_len`` — instead
   of walking a tree bit by bit.  Overlong Huffman depths (very skewed
   histograms) are repaired with a Kraft-sum fix-up, the same strategy
   zlib uses.

2. **Lockstep block decoding.**  Variable-length decoding is sequential by
   nature; we break the sequential chain by recording the *bit offset of
   every block* of ``block_size`` symbols at encode time.  Decoding then
   advances all blocks in lockstep — each round performs one table lookup
   per block as a whole-array gather — turning an O(n) Python loop into
   O(block_size) rounds of vectorized work over ``n/block_size`` lanes.
   With ``block_size ~ sqrt(n)`` both factors stay small.  The offsets
   are also the integrity check: a valid block ends exactly where the
   next one starts (the last at ``total_bits``), so one comparison after
   the rounds replaces any per-round test.  It catches unassigned code
   space and any damage whose bit count is still off at its block's end;
   damage the code re-synchronises from inside a block decodes wrong
   unnoticed, which only a checksum (the container's CRC-32) catches.

3. **Lanes from many streams share the rounds.**  The fixed cost of a
   round (a handful of NumPy calls) does not depend on the lane count, so
   a 4096-symbol stream — 64 lanes × 64 rounds — is almost pure call
   overhead.  :func:`decode_many` therefore decodes a *set* of streams
   with the same symbol count and block size in one schedule: their
   payloads sit behind one bit window, every lane carries its stream's
   table base and peek shift, and all lanes of all streams advance in the
   same rounds.  Their decode tables are built together too, in a few
   NumPy calls per pass (:func:`decode_tables`), and kept no longer than
   the pass: on 16³ bricks nearly every stream has a code of its own, so
   a cache of tables would mostly miss.  :meth:`HuffmanCodec.decode` is
   the batch of one.

4. **Rows of many streams share the encode passes.**  The encoder has
   the mirror-image problem: per stream it gathers lengths and codewords,
   bit-packs them and takes a prefix sum, each a few NumPy calls whose
   fixed cost dwarfs 4096 symbols of work.  :func:`encode_many` encodes
   the rows of a 2-D symbol array in chunks of rows
   (:data:`ENCODE_CHUNK_VALUES` symbols) — lengths and codewords come
   from the batch's :class:`CodeTables` (``table[row, symbol - lo]``), a
   chunk's rows go through one word-level bit-pack (each starting on a
   byte boundary) and one segment sum per block yields every block
   offset.  :meth:`HuffmanCodec.encode` is the batch of one.

5. **The code tables of a batch are built together.**  The code itself
   differs per stream, but building it is mostly fixed-cost NumPy calls
   too (scan, sort, Kraft check, canonical assignment), so
   :func:`code_tables` runs each of them once over the whole batch, in a
   window of the alphabet no wider than the symbols the batch uses
   (:func:`present_code_tables` takes the present symbols alone, so an
   encoder need not hold the batch's histogram).  What
   stays per stream is the tree: the two-queue merge, which pops nodes in
   the same ``(count, tie)`` order as a binary heap would (see
   :func:`_merge_depths` for the argument), hence builds the same tree
   and the same lengths as the heap version it replaced — kept in
   ``tests/helpers.py`` as the reference of a property test — in O(n)
   after the batch's one sort.  :meth:`HuffmanCodec.from_counts` is the
   batch of one.

The offsets are accounted for in the compressed size: a stream stores the
bit count of every block but its last, frame-of-reference packed
(:func:`repro.sz.stream.pack_block_offsets`) — about 7 bits a block on
16³ bricks.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sz import bitstream
from repro.sz.bitstream import (
    as_peekable,
    pack_codes,
    peek_bits,
    window_words,
)

#: Default cap on codeword length.  A stream's decode table has
#: ``2**longest_code`` entries of 4 bytes (one int32 ``sym << 5 | len``) in
#: its pass's table, so the cap bounds it at 65536 entries (256 KB); the
#: 16³-brick streams of a bricked level have 8–13-bit longest codes (12
#: typically: 16 KB).
DEFAULT_MAX_LEN = 16

#: A decode-table entry packs a symbol and its code length into one int32:
#: ``sym << LEN_BITS | len``.  A length is at most 24 (the peek width
#: :func:`decode_tables` allows), so it takes 5 bits, and the 26 bits left
#: below the sign hold any symbol under ``SYM_LIMIT`` — the largest
#: alphabet a stream may declare (radius 2**20) has 2**21 + 1 symbols.
LEN_BITS = 5
SYM_LIMIT = 1 << (31 - LEN_BITS)

#: Symbols one chunk of rows of the encoder's entropy stage holds (or one
#: row, when a row is longer): :func:`encode_many` gathers and bit-packs
#: that many at once, and the SZ compressor counts a batch's histogram in
#: chunks of that many.  A chunk's int64 index, lengths, codewords and packing
#: scratch take about 20 bytes per symbol, so a 64-brick batch of 16³
#: streams runs in four chunks of 16 rows and its Huffman stage never
#: holds more than 1.3 MB of them.  Interleaved in one process (median of
#: 40 calls; Run1_Z3's finest level at scale 4), chunks of 2**15 / 2**16 /
#: 2**17 / the whole batch take 18.4 / 18.2 / 18.2 / 17.9 ms for 64 bricks
#: at one thread and a bound of 1e-4 of the range (13.6 / 14.1 / 13.8 /
#: 14.4 ms at 1e-2), and 186 / 169 / 169 / 171 ms for 512 bricks at two
#: (135 / 130 / 125 / 124 ms).
ENCODE_CHUNK_VALUES = 1 << 16

#: Bounds on the adaptive decode block size.
_MIN_BLOCK = 64
_MAX_BLOCK = 8192


def default_block_size(n_symbols: int) -> int:
    """Balanced block size: rounds ~ lanes ~ sqrt(n), clamped to sane bounds."""
    if n_symbols <= 0:
        return _MIN_BLOCK
    return min(max(math.isqrt(n_symbols), _MIN_BLOCK), _MAX_BLOCK)


def huffman_code_lengths(counts: np.ndarray, max_len: int = DEFAULT_MAX_LEN) -> np.ndarray:
    """Compute length-limited Huffman code lengths from symbol counts.

    Parameters
    ----------
    counts:
        Non-negative integer frequencies per alphabet symbol.  Symbols with
        zero count receive length 0 (no code).
    max_len:
        Maximum codeword length; must satisfy ``2**max_len >= #present``.

    Returns
    -------
    ``uint8`` array of code lengths (0 for absent symbols) satisfying the
    Kraft inequality ``sum(2**-len) <= 1``.
    """
    return _row_tables(counts, max_len).row_lengths(0)


@dataclass(frozen=True)
class CodeTables:
    """The canonical codes of a batch of streams over one alphabet.

    Row ``i`` holds stream ``i``'s code lengths (0: no code) and codewords
    for the symbols ``lo .. lo + width - 1``, the batch's occupied window;
    no row has a code for a symbol outside it.  Keeping the tables
    window-wide keeps a batch's tables small: a 16³-brick batch occupies a
    few hundred of the 8193 symbols.
    """

    lengths: np.ndarray  # (n_rows, width) uint8
    codes: np.ndarray  # (n_rows, width) uint32
    lo: int
    alphabet: int

    def row_lengths(self, row: int) -> np.ndarray:
        """Stream ``row``'s code lengths over the whole alphabet."""
        return self._widen(self.lengths[row])

    def row_codes(self, row: int) -> np.ndarray:
        """Stream ``row``'s codewords over the whole alphabet (0 where absent)."""
        return self._widen(self.codes[row])

    def _widen(self, window: np.ndarray) -> np.ndarray:
        out = np.zeros(self.alphabet, dtype=window.dtype)
        out[self.lo : self.lo + window.size] = window
        return out


def code_tables(
    counts: np.ndarray, max_len: int = DEFAULT_MAX_LEN, lo: int = 0, alphabet: int | None = None
) -> CodeTables:
    """Build the length-limited canonical code of every row of ``counts``.

    ``counts`` is an ``(n_rows, width)`` histogram, one stream per row, of
    the symbols ``lo .. lo + width - 1`` of an ``alphabet``-symbol alphabet
    (by default ``lo + width``: the histogram spans it); the symbols
    outside that window count 0.  Row ``i`` of the result is the code
    :meth:`HuffmanCodec.from_counts` builds for ``counts[i]`` (that is the
    batch of one) — the same code whether the histogram is alphabet-wide
    or a window of it.  The batch shares every step but the tree merge: one
    scan for the occupied column window and one ``nonzero`` on it, one
    stable sort by (row, count), then the merge per row, the Kraft repair
    only on rows whose tree is deeper than ``max_len``, and the canonical
    codewords of all rows at once.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2:
        raise ValueError("counts must be two-dimensional (one histogram per row)")
    n_rows, width = counts.shape
    alphabet = lo + width if alphabet is None else int(alphabet)
    if lo < 0 or lo + width > alphabet:
        raise ValueError(f"window {lo}..{lo + width - 1} is not inside {alphabet} symbols")
    occupied = np.flatnonzero(counts.any(axis=0))
    first, end = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (0, 0)
    window = counts[:, first:end]  # no row has a symbol outside it
    if window.size and window.min() < 0:  # a negative count is nonzero: in the window
        raise ValueError("symbol counts must be non-negative")
    rows, cols = np.nonzero(window != 0)  # row-major: each row's symbols ascend
    symbols = cols + (lo + first)
    return present_code_tables(rows, symbols, window[rows, cols], n_rows, alphabet, max_len)


def present_code_tables(
    rows: np.ndarray,
    symbols: np.ndarray,
    counts: np.ndarray,
    n_rows: int,
    alphabet: int,
    max_len: int = DEFAULT_MAX_LEN,
) -> CodeTables:
    """:func:`code_tables` of ``n_rows`` streams over an ``alphabet``-symbol
    alphabet from their present symbols alone: ``(row, symbol, count)``
    triples, every count positive, in row-major order with each row's
    symbols ascending — what ``np.nonzero`` of the histogram gives, without
    a histogram."""
    n_present = np.bincount(rows, minlength=n_rows)
    if n_present.size and n_present.max() > (1 << max_len):
        raise ValueError(
            f"alphabet of {int(n_present[n_present > (1 << max_len)][0])} present "
            f"symbols cannot fit in max_len={max_len} bits"
        )
    # Stable, so equal counts keep symbol order: each row's leaf queue.
    order = np.lexsort((counts, rows))
    leaves = counts[order].tolist()
    bounds = [0, *np.cumsum(n_present).tolist()]  # row r: entries bounds[r]:bounds[r+1]
    depths: list[int] = []
    for start, end in zip(bounds, bounds[1:]):
        if end - start == 1:
            depths.append(1)
        elif end > start:
            depths += _merge_depths(leaves[start:end])
    lens = np.empty(rows.size, dtype=np.int64)
    lens[order] = depths
    # A Huffman tree is complete (Kraft sum exactly 1), so clamping breaks
    # the Kraft inequality exactly on the rows with a code over the cap:
    # only those go through the repair.
    over = lens > max_len
    if over.any():
        for row in np.unique(rows[over]).tolist():
            span = slice(bounds[row], bounds[row + 1])
            lens[span] = _limit_lengths(lens[span], max_len)
    return _tables(rows, symbols, lens, n_rows, alphabet)


def _row_tables(counts: np.ndarray, max_len: int) -> CodeTables:
    """:func:`code_tables` of one histogram."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError("counts must be one-dimensional")
    return code_tables(counts[None], max_len)


def _tables(rows, symbols, lens, n_rows: int, alphabet: int) -> CodeTables:
    """Window-wide tables from the present symbols' ``(row, symbol, length)``
    in row-major order, with their canonical codewords."""
    lo = int(symbols.min()) if symbols.size else 0
    width = int(symbols.max()) + 1 - lo if symbols.size else 0
    lengths = np.zeros((n_rows, width), dtype=np.uint8)
    codes = np.zeros((n_rows, width), dtype=np.uint32)
    lengths[rows, symbols - lo] = lens
    codes[rows, symbols - lo] = _canonical(rows, lens, n_rows)
    return CodeTables(lengths, codes, lo, alphabet)


def _canonical(rows: np.ndarray, lens: np.ndarray, n_rows: int) -> np.ndarray:
    """Canonical codewords of present symbols given in row-major order.

    Canonical order is shorter codes first, ties by symbol.  Per row, the
    first code of each length follows the recurrence
    ``first[L] = (first[L-1] + hist[L-1]) << 1``, whose closed form
    ``first[L] = sum(hist[k] << (L - k) for k < L)`` is, scaled by
    ``2**(width - L)``, an exclusive prefix sum: one ``cumsum`` for every
    row and length at once.  Within a (row, length) group codes are
    consecutive in symbol order, so each symbol's code is its group's
    first plus its rank in the group.
    """
    if rows.size == 0:
        return np.zeros(0, dtype=np.uint32)
    width = int(lens.max()) + 1
    group = rows * width + lens
    hist = np.bincount(group, minlength=n_rows * width).reshape(n_rows, width)
    scale = width - np.arange(width)
    scaled = hist << scale
    first = (np.cumsum(scaled, axis=1) - scaled) >> scale
    # Stable: a group's members keep symbol order.
    by_group = np.argsort(group, kind="stable")
    group_start = np.cumsum(hist.ravel()) - hist.ravel()
    rank = np.empty(rows.size, dtype=np.int64)
    rank[by_group] = np.arange(rows.size) - group_start[group[by_group]]
    return (first.ravel()[group] + rank).astype(np.uint32)


def _tree_depths(weights: np.ndarray) -> np.ndarray:
    """Leaf depths of the Huffman tree over ``weights`` (two or more, all > 0),
    in ``weights``' order: :func:`_merge_depths` after one stable argsort."""
    order = np.argsort(weights, kind="stable")
    depths = np.empty(order.size, dtype=np.int64)
    depths[order] = _merge_depths(weights[order].tolist())
    return depths


def _merge_depths(leaf: list) -> list[int]:
    """Leaf depths of the Huffman tree over ``leaf``: two or more weights,
    all > 0, stably sorted; the depths come back in that order.

    The tree is the one a binary heap on ``(weight, tie)`` builds when leaf
    ``i`` carries tie ``i`` and the k-th merged node tie ``n + k`` — the
    order that makes the lengths deterministic — but it is found with the
    two-queue merge instead.  Leaves wait in one queue, sorted by
    ``(weight, tie)``; merged nodes join a second queue as they are
    created.  Every merge joins the two lightest nodes left, so merged
    weights never decrease and the second queue is sorted by
    ``(weight, tie)`` too, with no sorting.  The heap's next pop is then
    the lighter of the two queue heads, and on equal weights the leaf,
    whose tie is below every merged node's.  Same pops, same tree, same
    depths — in O(n).
    """
    n = len(leaf)
    # Python ints (merged weights cannot wrap); an infinite sentinel ends
    # each queue so the merge loop needs no bounds checks.
    leaf = leaf + [math.inf]
    merged = [math.inf] * n
    parent = [0] * (2 * n - 1)  # nodes: leaves 0..n-1 in queue order, then merges
    i = j = 0  # queue heads
    for k in range(n - 1):  # the two pops of a merge, unrolled
        node = n + k
        if leaf[i] <= merged[j]:
            weight = leaf[i]
            parent[i] = node
            i += 1
        else:
            weight = merged[j]
            parent[n + j] = node
            j += 1
        if leaf[i] <= merged[j]:
            weight += leaf[i]
            parent[i] = node
            i += 1
        else:
            weight += merged[j]
            parent[n + j] = node
            j += 1
        merged[k] = weight
    # A parent is created after its children, so one backward sweep from
    # the root (the last node) reaches every merged node after its parent.
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, n - 1, -1):
        depth[node] = depth[parent[node]] + 1
    return [depth[p] + 1 for p in parent[:n]]


def _limit_lengths(raw: np.ndarray, max_len: int) -> np.ndarray:
    """Clamp code lengths to ``max_len`` and repair the Kraft sum.

    Clamping overlong codes can push the Kraft sum above 1 (an over-full,
    undecodable tree).  We restore validity by repeatedly lengthening the
    deepest still-extendable code (the first-indexed among equals), which
    removes code space in the smallest possible increments; the result is
    always decodable, at a negligible compression cost only for
    pathologically skewed histograms.

    That loop has a closed form: a lengthened code stays the deepest
    extendable one, so codes go to ``max_len`` one at a time in (length
    descending, index ascending) order, each freeing ``2**(max_len - L) - 1``
    units of ``2**-max_len``, and the last one moves only as far as the
    remaining excess needs.  (``tests/helpers.py::loop_limit_lengths`` is
    the loop, the oracle of a property test.)
    """
    lengths = np.minimum(raw, max_len)
    scale = 1 << max_len
    excess = int(np.sum(scale >> lengths)) - scale
    if excess <= 0:
        return lengths
    extendable = np.flatnonzero(lengths < max_len)
    order = extendable[np.lexsort((extendable, -lengths[extendable]))]
    freed = np.cumsum((scale >> lengths[order]) - 1)
    k = int(np.searchsorted(freed, excess))
    if k == order.size:  # pragma: no cover - guarded by caller
        raise ValueError("cannot satisfy Kraft inequality within max_len")
    lengths[order[:k]] = max_len
    # The k-th code, at length L, frees 2**(max_len - L) - 2**(max_len - L')
    # by moving to L'; it stops at the first L' that covers what is left.
    left = excess - (int(freed[k - 1]) if k else 0)
    room = (scale >> int(lengths[order[k]])) - left
    lengths[order[k]] = max_len - (room.bit_length() - 1)
    return lengths


@dataclass(frozen=True)
class HuffmanEncoded:
    """A Huffman-encoded symbol stream plus the metadata to decode it."""

    payload: bytes
    total_bits: int
    block_offsets: np.ndarray  # int64 bit offset of each block's first code
    n_symbols: int
    block_size: int


class HuffmanCodec:
    """Encoder/decoder for a fixed canonical code.

    Build either from explicit ``code_lengths`` (decoder side — lengths are
    the only table information that needs to travel in the stream) or from
    symbol counts via :meth:`from_counts` (encoder side).
    """

    def __init__(self, code_lengths: np.ndarray, *, max_len: int | None = None):
        lengths = np.asarray(code_lengths, dtype=np.uint8)
        if lengths.ndim != 1:
            raise ValueError("code_lengths must be one-dimensional")
        self.lengths = lengths
        present = np.flatnonzero(lengths != 0)
        plens = lengths[present].astype(np.int64)
        longest = int(plens.max()) if present.size else 0
        self.max_len = int(max_len if max_len is not None else max(longest, 1))
        if longest > self.max_len:
            raise ValueError("code length exceeds declared max_len")
        kraft = float(np.sum(np.ldexp(1.0, -plens)))
        if kraft > 1.0 + 1e-12:
            raise ValueError(f"code lengths violate the Kraft inequality (sum={kraft})")
        self._tables: CodeTables | None = None

    @property
    def tables(self) -> CodeTables:
        """The code as the one row of a :class:`CodeTables` (built on first
        use: encode only)."""
        if self._tables is None:
            present = np.flatnonzero(self.lengths != 0)
            plens = self.lengths[present].astype(np.int64)
            self._tables = _tables(np.zeros_like(present), present, plens, 1, self.lengths.size)
        return self._tables

    @property
    def codes(self) -> np.ndarray:
        """Canonical codewords per symbol (0 where absent)."""
        return self.tables.row_codes(0)

    # -- construction --------------------------------------------------
    @classmethod
    def from_counts(cls, counts: np.ndarray, max_len: int = DEFAULT_MAX_LEN) -> "HuffmanCodec":
        """Build an optimal (length-limited) code for the given histogram:
        the one-row :func:`code_tables`."""
        tables = _row_tables(counts, max_len)
        codec = cls(tables.row_lengths(0), max_len=max_len)
        codec._tables = tables
        return codec

    @classmethod
    def from_symbols(cls, symbols: np.ndarray, alphabet_size: int, max_len: int = DEFAULT_MAX_LEN) -> "HuffmanCodec":
        """Histogram ``symbols`` over ``alphabet_size`` and build the code."""
        counts = np.bincount(np.asarray(symbols, dtype=np.int64), minlength=alphabet_size)
        return cls.from_counts(counts, max_len=max_len)

    # -- encode ----------------------------------------------------------
    def encode(self, symbols: np.ndarray, block_size: int | None = None) -> HuffmanEncoded:
        """Encode ``symbols`` (ints in ``[0, alphabet)``) into a bit stream."""
        symbols = np.asarray(symbols).reshape(1, -1)
        return encode_many(self.tables, symbols, block_size)[0]

    # -- decode ----------------------------------------------------------
    def decode(self, encoded: HuffmanEncoded) -> np.ndarray:
        """Decode a stream produced by :meth:`encode` back to symbols."""
        return decode_many(decode_tables([(0, self.lengths)], self.max_len), [encoded])[0]


def encode_many(tables: CodeTables, symbols: np.ndarray, block_size: int | None = None) -> list[HuffmanEncoded]:
    """Encode the rows of a 2-D symbol array, in chunks of rows.

    Row ``i`` of ``tables`` encodes ``symbols[i]``; a one-row ``tables``
    (:attr:`HuffmanCodec.tables`) encodes every row.  Code lengths and
    codewords are gathered straight from the batch's window-wide tables
    (``table[row, symbol - lo]``), the rows of a chunk are bit-packed
    together and the block offsets come from one sum per block, so
    ``result[i]`` equals the batch of one of row ``i`` —
    :meth:`HuffmanCodec.encode`.

    ``symbols`` is read as it is when int32 or int64 (anything else is
    converted to int64) and never written: each chunk of rows, at most
    :data:`ENCODE_CHUNK_VALUES` symbols (or one row), builds its table
    index, lengths, codewords and bit-pack in scratch of its own, freed
    before the next chunk's is made, so those temporaries do not grow with
    the batch.
    """
    symbols = np.asarray(symbols)
    if symbols.dtype not in (np.int32, np.int64):
        symbols = np.asarray(symbols, dtype=np.int64)
    n_rows, width = tables.lengths.shape
    if symbols.ndim != 2 or n_rows not in (1, symbols.shape[0]):
        raise ValueError("need a 2-D symbol array with one row per table row")
    n_streams, n = symbols.shape
    block = default_block_size(n) if block_size is None else int(block_size)
    if block <= 0:
        raise ValueError("block_size must be positive")
    if n == 0:
        return [HuffmanEncoded(b"", 0, np.zeros(0, dtype=np.int64), 0, block)] * n_streams
    low, high = int(symbols.min()), int(symbols.max())
    if low < 0 or high >= tables.alphabet:
        raise ValueError("symbol out of alphabet range")
    # Outside the window no row has a code (and the flat index would land
    # in a neighbouring row).
    if low < tables.lo or high >= tables.lo + width:
        raise ValueError("attempted to encode a symbol with no codeword")
    flat_lengths, flat_codes = tables.lengths.ravel(), tables.codes.ravel()
    # Row r's table starts at r * width in the flat tables: the index of a
    # symbol is ``symbol + shift[r]``.
    shift = np.arange(n_streams)[:, None] * (width if n_rows > 1 else 0) - tables.lo
    step = max(ENCODE_CHUNK_VALUES // n, 1)
    blocks = np.arange(0, n, block)
    out = []
    for lo in range(0, n_streams, step):
        rows = slice(lo, lo + step)
        index = np.add(symbols[rows], shift[rows], dtype=np.intp)
        sym_lengths = flat_lengths[index]
        codes = flat_codes[index]
        del index
        if sym_lengths.min() == 0:
            raise ValueError("attempted to encode a symbol with no codeword")
        payloads, total_bits = pack_codes(codes, sym_lengths)
        del codes
        # Block offsets need the bits of each block, not a prefix sum over
        # the symbols: one segment sum per block, then a prefix sum over
        # the blocks.
        block_bits = np.add.reduceat(sym_lengths, blocks, axis=1, dtype=np.int64)
        del sym_lengths
        block_offsets = np.cumsum(block_bits, axis=1)
        block_offsets -= block_bits
        out += [
            HuffmanEncoded(payload, bits, offsets, n, block)
            for payload, bits, offsets in zip(payloads, total_bits, block_offsets)
        ]
    return out


_memo_lock = threading.Lock()
_memo_counts = [0, 0]  # hits, misses


@dataclass(frozen=True)
class DecodeTables:
    """The dense decode tables of one pass, concatenated.

    Stream ``i`` peeks ``bits[i]`` bits and looks the peek up at
    ``base[i] + peek`` in ``entry``: one int32 per slot, the decoded
    symbol and its code length packed as ``sym << LEN_BITS | len``
    (4 bytes a slot; see :data:`LEN_BITS` for why both always fit).
    Length 0 marks unassigned code space.  Streams with the same code
    share one table, hence one base.
    """

    entry: np.ndarray  # int32 per slot
    base: np.ndarray  # int64 per stream
    bits: np.ndarray  # int64 per stream

    def of_stream(self, i: int) -> "DecodeTables":
        """Stream ``i``'s table alone, as the pass of one stream."""
        at, bits = int(self.base[i]), self.bits[i : i + 1]
        span = slice(at, at + (1 << int(bits[0])))
        return DecodeTables(self.entry[span], np.zeros(1, np.int64), bits)


def decode_tables(windows: Sequence, max_len: int | Sequence[int]) -> DecodeTables:
    """Build a pass's decode tables from each stream's code-length window.

    ``windows[i]`` is ``(lo, lengths)``: stream ``i``'s code gives symbol
    ``lo + j`` a ``lengths[j]``-bit code (0: none); ``max_len`` caps the
    lengths, one for every stream or one per stream.  Identical windows
    share one table.  The build is a handful of NumPy calls for the whole
    pass, not per stream: one stable sort of the present symbols by
    (table, length) is canonical order (ties by symbol, as ``lo + j``
    ascends), a code of length ``L`` in a ``B``-bit table covers
    ``2**(B - L)`` consecutive entries, and each table closes with one
    zero-length *gap* entry spanning its unassigned code space, so every
    table fills exactly ``2**B`` entries and the whole pass is one
    ``np.repeat`` by span.  ``B`` is the table's longest code (at least 1).

    A window whose longest code is over its ``max_len``, whose table would
    peek more than 24 bits, whose Kraft sum is above 1 (checked exactly,
    in integers), or that gives a code to a symbol outside
    ``[0, SYM_LIMIT)`` (it would not fit its packed entry) raises
    ``ValueError``.
    """
    tables: dict = {}  # (lo, window bytes) -> table, in first-use order
    owners = np.array(
        [
            tables.setdefault((int(lo), np.asarray(lengths, dtype=np.uint8).tobytes()), len(tables))
            for lo, lengths in windows
        ],
        dtype=np.int64,
    )
    n_tables = len(tables)
    with _memo_lock:
        _memo_counts[0] += owners.size - n_tables
        _memo_counts[1] += n_tables
    sizes = np.array([len(window) for _lo, window in tables], dtype=np.int64)
    ends = np.cumsum(sizes)
    flat = np.frombuffer(b"".join(window for _lo, window in tables), dtype=np.uint8)
    present = np.flatnonzero(flat)
    table = np.searchsorted(ends, present, side="right")
    lens = flat[present].astype(np.int64)
    order = np.argsort(table << 8 | lens, kind="stable")
    table, lens = table[order], lens[order]
    los = np.array([lo for lo, _window in tables], dtype=np.int64)
    syms = present[order] - (ends - sizes)[table] + los[table]
    if syms.size and (syms.min() < 0 or syms.max() >= SYM_LIMIT):
        raise ValueError(f"symbol outside [0, {SYM_LIMIT}) cannot be packed in a decode-table entry")
    counts = np.bincount(table, minlength=n_tables)
    last = np.cumsum(counts)  # one past each table's codes
    longest = np.zeros(n_tables, dtype=np.int64)
    np.maximum.at(longest, table, lens)
    limits = np.broadcast_to(np.asarray(max_len, dtype=np.int64), owners.shape)
    if np.any(longest[owners] > limits):
        raise ValueError("code length exceeds declared max_len")
    bits = np.maximum(longest, 1)
    if bits.max() > 24:
        # Phase 7 + width must fit the 32-bit window (and peek_bits' gather).
        raise ValueError("peek width must be in [1, 24]")
    spans = np.left_shift(1, bits[table] - lens)
    covered = np.concatenate([[0], np.cumsum(spans)])
    used = covered[last] - covered[last - counts]
    size = np.left_shift(1, bits)
    if np.any(used > size):
        raise ValueError("code lengths violate the Kraft inequality")
    # Table t's codes, then its gap entry (0: symbol 0, length 0): code k
    # of the sorted order sits after the gap entries of the tables before
    # its own.
    entry = np.zeros(lens.size + n_tables, dtype=np.int32)
    entry_span = np.empty(lens.size + n_tables, dtype=np.int64)
    at = np.arange(lens.size) + table
    entry[at], entry_span[at] = syms << LEN_BITS | lens, spans
    entry_span[last + np.arange(n_tables)] = size - used
    base = np.cumsum(size) - size
    return DecodeTables(np.repeat(entry, entry_span), base[owners], bits[owners])


@dataclass(frozen=True)
class _LaneTables:
    """Decode tables of a lane span: one table, or several concatenated.

    ``down`` (the ``32 - bits`` peek shift) is per lane, an array operand
    being cheaper per round than a scalar one; ``base`` is ``None`` when
    every lane decodes under the same table and per lane when the span
    mixes streams with different codes.
    """

    entry: np.ndarray
    base: np.ndarray | None
    down: np.ndarray


def decode_many(tables: DecodeTables, streams) -> np.ndarray:
    """Decode streams of equal symbol count and block size in one pass.

    ``tables`` (:func:`decode_tables`) holds stream ``i``'s table at
    ``tables.base[i]``.  Returns an ``(n_streams, n_symbols)`` int32 array.
    All lanes of all streams advance in the same ``block_size`` lockstep
    rounds, so the per-round call overhead is paid once per batch, not per
    stream.
    """
    n_streams = len(streams)
    n, block = streams[0].n_symbols, streams[0].block_size
    if any(e.n_symbols != n or e.block_size != block for e in streams):
        raise ValueError("streams of one decode batch must share n_symbols and block_size")
    if n == 0:
        return np.zeros((n_streams, 0), dtype=np.int32)
    if block < 1:
        raise ValueError("block_size must be positive")
    n_blocks = -(-n // block)
    if any(e.block_offsets.size != n_blocks for e in streams):
        raise ValueError("block offset table does not match symbol count")
    limit = bitstream.WINDOW_WORDS_LIMIT
    if n_streams > 1 and sum(len(e.payload) for e in streams) + 4 > limit:
        # Only single streams get the chunked-window treatment.
        return np.concatenate(
            [decode_many(tables.of_stream(i), [e]) for i, e in enumerate(streams)]
        )

    # Every lane is one block.  The ragged last block of each stream (if
    # any) goes to the end of the lane order, so that after ``tail``
    # rounds the active set shrinks to a contiguous prefix.
    tail = n - block * (n_blocks - 1)
    n_tail = n_streams if tail < block else 0
    full = n_blocks - 1 if n_tail else n_blocks  # whole blocks per stream

    def per_lane(per_stream) -> np.ndarray:
        lanes = np.repeat(per_stream, full)
        return np.concatenate([lanes, per_stream]) if n_tail else lanes

    base = per_lane(tables.base).astype(np.uint32) if tables.base.any() else None
    down = per_lane(32 - tables.bits).astype(np.uint32)
    lane_tables = _LaneTables(tables.entry, base, down)

    buf = as_peekable(*(e.payload for e in streams))
    offsets = np.stack([e.block_offsets for e in streams]).astype(np.int64)
    starts = np.cumsum([0] + [len(e.payload) for e in streams[:-1]]) * 8
    offsets += starts[:, None]
    # A valid block ends where the next one starts, a stream's last block
    # at its ``start + total_bits``: the rounds' one integrity check.
    ends = np.column_stack([offsets[:, 1:], [e.total_bits for e in streams] + starts])

    def lane_order(per_block: np.ndarray) -> np.ndarray:
        return (
            np.concatenate([per_block[:, :-1].ravel(), per_block[:, -1]])
            if n_tail else per_block.ravel()
        )

    positions, expected = lane_order(offsets), lane_order(ends)
    # Round-major layout: each round writes one contiguous row (a
    # strided column write is ~40% slower per np.take); the stitch at
    # the end transposes back to block-major stream order.
    out = np.empty((block, positions.size), dtype=np.int32)
    # One big-endian 32-bit window per byte offset: each round's peek
    # is a single gather plus two shifts.  A single stream too large to
    # window in one array is decoded in contiguous lane chunks, each
    # with a window over its own byte span, so snapshot-scale streams
    # keep the one-gather fast path.  Chunking multiplies the rounds, but
    # an encoder-written payload over the limit holds >= 2**27 codes of
    # <= 16 bits, so its blocks are 8192 codes and <= 16 KiB long and a
    # full chunk runs ~16 000 lanes; a foreign block size still decodes,
    # in more rounds.
    if buf.size <= limit:
        _decode_span(buf, window_words(buf), positions, expected, out, 0, tail, n_tail, lane_tables)
    else:
        _decode_chunked(buf, positions, expected, out, tail, limit, lane_tables)
    # Stitch rounds back into block-major stream order, trimming the
    # ragged tails, and unpack each entry's symbol on the way: the shift
    # writes a C-ordered transpose, the single copy, which reshapes freely.
    n_full = n_streams * full
    symbols = np.right_shift(out[:, :n_full].T, LEN_BITS, order="C")
    symbols = symbols.reshape(n_streams, full * block)
    if n_tail:
        symbols = np.concatenate([symbols, out[:tail, n_full:].T >> LEN_BITS], axis=1)
    return symbols


def _decode_chunked(
    buf: np.ndarray,
    offsets: np.ndarray,
    ends: np.ndarray,
    out: np.ndarray,
    tail: int,
    limit: int,
    tables: _LaneTables,
) -> None:
    """Windowed decode in lane chunks for one over-limit payload.

    Blocks are contiguous in the bit stream, so a contiguous lane
    span ``[i, j)`` only touches payload bytes between its first
    block's start and its last block's end — both known from the
    block-offset table before any decoding.  Each chunk builds a
    32-bit window over just its byte span (positions and ends rebased
    to the slice), bounding window memory by ``limit`` while every
    round stays a single gather.  A single block whose own span exceeds
    the limit (pathological block sizes) degrades to 4-byte-gather
    peeks for that chunk alone.
    """
    n_blocks = offsets.size
    block = out.shape[0]
    start = 0
    while start < n_blocks:
        # Clamped like peek_bits, so corrupt offsets still get a window of
        # at least one word.
        lo_byte = min(max(int(offsets[start]) >> 3, 0), buf.size - 4)
        # Largest j with the span's window (end byte + 4-byte gather
        # slack, rebased to lo_byte) within the limit.
        j = int(np.searchsorted(ends, (lo_byte + limit - 4) * 8, side="right"))
        j = min(max(j, start + 1), n_blocks)
        ragged = int(j == n_blocks and tail < block)
        positions, expected = offsets[start:j].copy(), ends[start:j]
        hi_byte = max((int(ends[j - 1]) + 7) >> 3, lo_byte)
        if j == start + 1 and hi_byte + 4 - lo_byte > limit:
            words = None
        else:
            words = window_words(buf[lo_byte : hi_byte + 4])
            positions -= lo_byte << 3
            expected = expected - (lo_byte << 3)
        _decode_span(buf, words, positions, expected, out, start, tail, ragged, tables)
        start = j


def _decode_span(
    buf: np.ndarray,
    words: np.ndarray | None,
    positions: np.ndarray,
    expected: np.ndarray,
    out: np.ndarray,
    lane0: int,
    tail_rounds: int,
    n_tail: int,
    tables: _LaneTables,
) -> None:
    """Lockstep rounds over the contiguous lane span that starts at ``lane0``.

    Every active lane decodes one symbol per round via whole-array
    gathers.  The schedule is known up front: all lanes run for
    ``tail_rounds`` rounds, then the span's last ``n_tail`` lanes drop
    out (the ragged final blocks of its streams) and the remaining
    contiguous prefix runs to the full block length — no per-round
    active-set scan.  Spans without ragged blocks pass ``n_tail == 0``
    and never shrink.  ``positions`` (advanced in place) and ``expected``
    must be rebased to ``words``' byte origin when a sliced window is
    used; ``words is None`` peeks ``buf`` with 4-byte gathers and needs
    a single table.

    A round is eight NumPy calls into reused buffers (nine with per-lane
    table bases) and checks nothing: five to peek, one ``take`` of the
    packed entries (:class:`DecodeTables`) straight into the output row,
    ``& 31`` of that row into the length scratch, and the advance.  The
    row keeps the whole entry; :func:`decode_many` shifts the symbols
    out when it stitches the rows.  Integrity comes from the block end
    offsets, once, after the rounds: each lane must stop exactly at its
    ``expected`` end.  A lane that peeks unassigned code space gets
    length 0 and stalls (same position, same peek, every later round), so
    its last length is 0 too.
    """
    m0 = positions.size
    table = tables.entry
    # Scratch and constant operands (an array operand is cheaper per call
    # than a scalar one); each phase of the schedule uses a prefix.
    byte_idx, lens = np.empty(m0, dtype=np.int64), np.empty(m0, dtype=np.int32)
    peeks, phase = np.empty(m0, dtype=np.uint32), np.empty(m0, dtype=np.uint32)
    three, seven = np.full(m0, 3, dtype=np.int64), np.full(m0, 7, dtype=np.uint32)
    len_mask = np.full(m0, (1 << LEN_BITS) - 1, dtype=np.int32)
    # ``pos & 7`` only needs each position's low 32-bit word, and on it
    # the op runs without a cast to the uint32 phase.
    low = positions.view(np.uint32)[sys.byteorder == "big" :: 2]
    shr, shl, band, add = np.right_shift, np.left_shift, np.bitwise_and, np.add

    def rounds(rows: np.ndarray, m: int) -> None:
        pos, bidx, peek, ph, ln = positions[:m], byte_idx[:m], peeks[:m], phase[:m], lens[:m]
        lo, by3, by7, down, mask = low[:m], three[:m], seven[:m], tables.down[:m], len_mask[:m]
        base = None if tables.base is None else tables.base[:m]
        for row in rows:
            if words is None:
                peek[...] = peek_bits(buf, pos, 32 - int(down[0]))
            else:
                shr(pos, by3, out=bidx)
                band(lo, by7, out=ph)
                # mode="clip" clamps like peek_bits: corrupt offsets read
                # the window's final words instead of raising IndexError.
                words.take(bidx, out=peek, mode="clip")
                shl(peek, ph, out=peek)
                shr(peek, down, out=peek)
                if base is not None:
                    add(peek, base, out=peek)
            # Peeks are in range, and "clip" (unlike "raise") writes
            # straight into ``out`` with no buffered copy.
            table.take(peek, out=row, mode="clip")
            band(row, mask, out=ln)
            add(pos, ln, out=pos)

    m = m0 - n_tail
    rounds(out[: tail_rounds if n_tail else None, lane0 : lane0 + m0], m0)
    if n_tail and m:
        rounds(out[tail_rounds:, lane0 : lane0 + m], m)
    if not (lens.all() and np.array_equal(positions, expected)):
        raise ValueError(
            "corrupt Huffman stream (unassigned code space, or a block that "
            "does not end where the next one starts)"
        )


_MemoInfo = namedtuple("DecodeTableMemoInfo", "hits misses")


def decode_table_cache_info():
    """Process-wide counts of the pass memo of :func:`decode_tables`:
    ``misses`` tables built, ``hits`` streams served by a table built
    earlier in the same pass."""
    with _memo_lock:
        return _MemoInfo(*_memo_counts)
