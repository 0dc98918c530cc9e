"""SZ-style error-bounded lossy compressor for N-D floating-point arrays.

Pipeline (mirrors SZ's predict → quantize → Huffman → lossless):

1. **Bound resolution** — the user bound (abs / value-range-relative /
   point-wise-relative) becomes an absolute lattice pitch.
2. **Pre-quantization** — values snap to ``2*eb*round(x/2eb)``
   (:mod:`repro.sz.quantizer`), guaranteeing the bound up front.
3. **Lorenzo decorrelation** — the integer lattice is transformed to
   prediction residuals (:mod:`repro.sz.predictor`); smooth data yields
   near-zero residuals.
4. **Entropy coding** — residuals inside ``[-radius, radius)`` become
   Huffman symbols; the rare rest go through an escape symbol with exact
   values stored in an outlier section (SZ's "unpredictable data").
5. **Lossless back end** — run-length DEFLATE over the bit stream and the
   code table, LZ77 DEFLATE over the side sections, each whenever it pays
   off (:mod:`repro.sz.lossless`).

Point-wise-relative mode wraps the same pipeline in a log transform: the
magnitudes are compressed with an absolute bound of ``ln(1 + eb)`` in log
space, signs and exact zeros travel as packed bit masks.

The public entry points are :class:`SZCompressor` (reusable, configured
once) and the convenience functions :func:`compress` / :func:`decompress`.

Guarantee fine print: reconstructions are computed in float64 and rounded
into the input's storage dtype, so the effective bound is
``max(eb, ulp(value)/2)`` in that dtype — for float32 data, bounds tighter
than half an ULP of the largest magnitude are physically unrepresentable.
When ``eb`` itself sits within a few ULPs of the largest magnitude (e.g.
float64 values near 5e9 with ``eb ~ 1e-6``), the multi-stage interp
reconstruction can add one further rounding step, so the honest bound in
that regime is ``eb`` plus a small number of ULPs (pinned by
``tests/test_property_roundtrip.py::test_abs_bound_near_ulp_floor``).
"""

from __future__ import annotations

import functools
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.sz import huffman, lossless, stream
from repro.sz.bitstream import packed_nbytes
from repro.sz.huffman import (
    DEFAULT_MAX_LEN,
    CodeTables,
    HuffmanEncoded,
    code_tables,
    decode_many,
    decode_tables,
    encode_many,
    present_code_tables,
)
from repro.sz.interp import interp_decompress, interp_encode
from repro.sz.predictor import SUPPORTED_NDIM, lorenzo_forward, lorenzo_inverse
from repro.sz.quantizer import ErrorMode, dequantize, quantize, resolve_error_bound
from repro.utils.timer import TimingRecord, timed
from repro.utils.validation import check_error_bound, check_finite, ensure_ndarray


#: Half-width of the Huffman symbol alphabet: residuals with
#: ``|d| >= RADIUS`` are escape-coded into the outlier section.  Each
#: stream records it, and the decoder reads it from there.
RADIUS = 4096

#: Cap on Huffman codeword length (the decode table has
#: ``2**longest_code`` entries, so at most ``2**MAX_CODE_LEN``); recorded
#: per stream as ``max_len``.
MAX_CODE_LEN = DEFAULT_MAX_LEN


@dataclass(frozen=True)
class SZConfig:
    """The codec's one choice.

    ``predictor`` is ``"interp"`` (default) — SZ3-style multilevel
    interpolation, predicting from reconstructed neighbours (best
    rate-distortion, the behaviour the paper's SZ exhibits) — or
    ``"lorenzo"`` — dual-quant N-D Lorenzo (fastest, exact integer
    pipeline).  The alphabet (:data:`RADIUS`), the code-length cap
    (:data:`MAX_CODE_LEN`), the decode block length (``~sqrt(n)``, picked
    by :func:`~repro.sz.huffman.encode_many` and recorded per stream) and
    the DEFLATE of every section (:mod:`repro.sz.lossless`) are fixed.
    """

    predictor: str = "interp"

    def __post_init__(self):
        if self.predictor not in ("interp", "lorenzo"):
            raise ValueError(f"predictor must be 'interp' or 'lorenzo', got {self.predictor!r}")


@dataclass
class CompressionStats:
    """Byte-level accounting for one compress call."""

    original_bytes: int
    compressed_bytes: int
    n_values: int
    eb_abs: float
    mode: str
    section_bytes: dict[str, int] = field(default_factory=dict)
    n_outliers: int = 0
    timings: TimingRecord = field(default_factory=TimingRecord)

    @property
    def ratio(self) -> float:
        """Compression ratio (original / compressed)."""
        return self.original_bytes / self.compressed_bytes if self.compressed_bytes else float("inf")

    @property
    def bit_rate(self) -> float:
        """Amortized bits per value."""
        return 8.0 * self.compressed_bytes / self.n_values if self.n_values else 0.0


_SECTION_LABELS = {
    stream.SEC_CODE_LENGTHS: "huffman_table",
    stream.SEC_BLOCK_OFFSETS: "block_offsets",
    stream.SEC_PAYLOAD: "payload",
    stream.SEC_OUTLIERS: "outliers",
    stream.SEC_RAW: "raw",
    stream.SEC_SIGNS: "signs",
    stream.SEC_ZERO_MASK: "zero_mask",
    stream.SEC_META: "meta",
    stream.SEC_TABLE_REF: "table_ref",
}


def section_bytes(parsed: stream.Stream) -> dict[str, int]:
    """Bytes per section kind of a parsed stream, as stored (either
    version), plus ``framing``: header and section table.  The values sum
    to the blob's length."""
    sizes = {_SECTION_LABELS[tag]: n for tag, n in parsed.section_sizes().items()}
    sizes["framing"] = parsed.framing
    return sizes


#: Values one batch may hold (64 bricks of 16³): the streams one lockstep
#: decode pass reconstructs, and — divided among the
#: :data:`ENCODE_THREADS` that drain an encode — the arrays one encode
#: pass predicts and packs, so the batches in flight together hold this
#: many values.  Below it the per-call overhead is spread over too few
#: lanes; above it the batch's window, symbol and reconstruction arrays
#: fall out of cache and the gathers slow down again (a 64-brick batch
#: peaks at 13.4 bytes per value to encode and 14 to decode, tracemalloc).
#: Measured on 512 × 16³ streams: batches of 8 / 16 / 32 / 64 / 128 /
#: 256 / 512 decode in about 190 / 165 / 135 / 135 / 135 / 160 / 185 ms
#: and encode (eb 1e-4 rel) in about 280 / 255 / 255 / 265 / 300 / 300 /
#: 310 ms.  A single stream larger than its share is a batch of its
#: own.
BATCH_VALUES = 1 << 18

#: Threads one :meth:`SZCompressor.compress_many` call encodes on: the
#: caller plus ``ENCODE_THREADS - 1`` process-wide ``sz-encode`` helpers.
#: The CPU affinity count, capped at 2 — the only width measured (a
#: 2-core host).  Each thread's batches hold ``BATCH_VALUES //
#: ENCODE_THREADS`` values, so a wider drain also means smaller batches:
#: 16 bricks of 16³ at 4 threads, 8 (slower, see above) at 8, and at 64
#: every brick a batch of one, the per-stream path the batched encode
#: replaced.  Raise the cap only with a measurement on more cores.
ENCODE_THREADS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _batches(keys: Sequence, sizes: Sequence[int], threads: int = 1) -> list[list[int]]:
    """Indices of equal ``keys`` grouped into batches, in first-seen order.

    A batch holds at most ``BATCH_VALUES // threads`` values (``sizes[i]``
    per member, equal within a key) but always at least one member; members
    keep their order within a batch.
    """
    budget = BATCH_VALUES // threads
    batches: list[list[int]] = []
    open_batches: dict = {}
    for index, (key, size) in enumerate(zip(keys, sizes)):
        batch = open_batches.get(key)
        if batch is None or (len(batch) + 1) * size > budget:
            batch = open_batches[key] = []
            batches.append(batch)
        batch.append(index)
    return batches


@functools.cache
def _helpers() -> ThreadPoolExecutor:
    """The process-wide ``sz-encode`` pool: ``ENCODE_THREADS - 1`` helper
    threads (at least one), sized when first used and started on demand.
    A drain is correct with any pool size — helpers it cannot get stay
    queued and are cancelled — and with any pool: first calls that race
    may each build one, and every one of them works."""
    return ThreadPoolExecutor(max(ENCODE_THREADS - 1, 1), thread_name_prefix="sz-encode")


def _drain(jobs: Sequence[Callable[[], None]], threads: int) -> None:
    """Run every job once, on the calling thread and up to ``threads - 1``
    helpers that claim jobs in order from a shared index.

    The caller runs jobs too and, once none is left, cancels the helpers
    still queued: it waits only on helpers that started, so a drain called
    from a busy pool (ingest workers, concurrent callers) cannot deadlock.
    After a failure no job is claimed; the first failed job's error is
    raised — every earlier job was claimed before it and ran to its end, so
    that is the error a serial loop raises.
    """
    claims = itertools.count()  # next() on it is atomic under the GIL
    errors: dict[int, BaseException] = {}

    def work() -> None:
        while not errors:
            index = next(claims)
            if index >= len(jobs):
                return
            try:
                jobs[index]()
            except BaseException as exc:  # re-raised on the caller's thread
                errors[index] = exc

    helpers = []
    for _ in range(min(threads, len(jobs)) - 1):
        try:
            helpers.append(_helpers().submit(work))
        except RuntimeError:  # interpreter shutdown: the caller drains alone
            break
    work()
    for helper in helpers:
        if not helper.cancel():
            helper.result()
    if errors:
        raise errors[min(errors)]


@dataclass
class _Member:
    """One parsed stream queued for decode; ``index`` is its caller slot."""

    index: int
    parsed: stream.Stream
    #: SEC_META record, or ``None`` for streams stored without the
    #: predict/quantize/Huffman pipeline (empty, lossless fallback).
    meta: dict | None


@dataclass
class StreamBatch:
    """Streams that one lockstep decode pass reconstructs together."""

    members: list[_Member]

    def decode(
        self, timings: TimingRecord | None = None, errors: dict | None = None
    ) -> list[tuple[int, np.ndarray]]:
        """``(caller index, array)`` for every member that decodes.

        If a damaged stream fails the pass, the members are decoded again
        one at a time (untimed — ``timings`` describes the batched pass) so
        the failure lands on the stream that caused it: recorded in
        ``errors`` under its index when given, raised otherwise.
        """
        members = self.members
        try:
            arrays = _decode_members(members, timings)
        except ValueError as exc:
            if len(members) > 1:
                return [
                    pair
                    for member in members
                    for pair in StreamBatch([member]).decode(None, errors)
                ]
            if errors is None:
                raise
            errors[members[0].index] = exc
            return []
        return [(member.index, values) for member, values in zip(members, arrays)]


def stream_batches(blobs: Sequence[bytes], errors: dict | None = None) -> list[StreamBatch]:
    """Parse ``blobs`` and partition them into lockstep decode batches.

    Streams share a batch when they agree on shape, dtype, predictor,
    symbol count, Huffman block size and radius — then their Huffman lanes
    run the same rounds, their block offsets unpack together and their
    reconstructions take the same traversal — up to :data:`BATCH_VALUES`
    decoded values per batch.  Batches are independent work items (callers
    may decode them on different threads); each keeps its members in
    caller order.  A blob that does not parse, or whose codec-parameter
    record disagrees with its header, is recorded in ``errors`` (``index →
    exception``) when given, else raises.
    """
    members: list[_Member] = []
    keys: list[tuple] = []
    for index, blob in enumerate(blobs):
        try:
            parsed = stream.parse(blob)
            header = parsed.header
            if header.flags & (stream.FLAG_EMPTY | stream.FLAG_LOSSLESS_FALLBACK):
                members.append(_Member(index, parsed, None))
                keys.append((index,))  # a batch of its own
                continue
            meta = stream.unpack_meta(parsed.section(stream.SEC_META)[1])
            if meta["n_symbols"] != header.size:
                raise ValueError(
                    f"codec-parameter record counts {meta['n_symbols']} symbols "
                    f"for {header.size} values"
                )
            if meta["total_bits"] < meta["n_symbols"]:
                raise ValueError("codec-parameter record holds fewer bits than symbols")
        except ValueError as exc:
            if errors is None:
                raise
            errors[index] = exc
            continue
        members.append(_Member(index, parsed, meta))
        keys.append(
            (
                header.shape,
                header.dtype,
                meta["predictor"],
                meta["n_symbols"],
                meta["block_size"],
                meta["radius"],
            )
        )
    sizes = [member.meta["n_symbols"] if member.meta else 0 for member in members]
    return [StreamBatch([members[i] for i in batch]) for batch in _batches(keys, sizes)]


def _decode_members(members: list[_Member], timings: TimingRecord | None) -> list[np.ndarray]:
    """Decode one batch's members (all lattice streams of one key, or one
    verbatim stream); any failure propagates to :meth:`StreamBatch.decode`."""
    first = members[0]
    if first.meta is None:
        header = first.parsed.header
        if header.flags & stream.FLAG_EMPTY:
            return [np.zeros(header.shape, dtype=header.dtype)]
        codec, payload = first.parsed.section(stream.SEC_RAW)
        raw = lossless.decompress_bytes(codec, payload, header.size * header.dtype.itemsize)
        return [np.frombuffer(raw, dtype=header.dtype).reshape(header.shape).copy()]
    values = _decode_lattices(members, timings)
    alone = len(members) == 1
    out = []
    for member, lattice in zip(members, values):
        header = member.parsed.header
        if header.mode == ErrorMode.PW_REL.value:
            with timed(timings, "transform"):
                out.append(_undo_log_transform(member.parsed, lattice))
        else:
            # A batch hands out copies so no result pins its batch-mates.
            out.append(lattice.astype(header.dtype, copy=not alone))
    return out


def _undo_log_transform(parsed: stream.Stream, values: np.ndarray) -> np.ndarray:
    """pw_rel post-transform: log-space magnitudes → signed values."""
    header = parsed.header
    n = values.size

    def mask(tag: int) -> np.ndarray:
        raw = lossless.decompress_bytes(*parsed.section(tag), -(-n // 8))
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n].astype(bool)

    signs, zeros = mask(stream.SEC_SIGNS), mask(stream.SEC_ZERO_MASK)
    return _from_log_space(values, signs, zeros).reshape(header.shape).astype(header.dtype)


def _to_log_space(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """pw_rel pre-transform, inverted by :func:`_from_log_space`: float64
    log-magnitudes of ``values``' shape (0 at exact zeros), and the flat
    sign / exact-zero masks."""
    flat = values.astype(np.float64, copy=False)
    zeros = flat == 0.0
    signs = np.signbit(flat) & ~zeros
    logs = np.where(zeros, 0.0, np.log(np.where(zeros, 1.0, np.abs(flat))))
    return logs, signs.ravel(), zeros.ravel()


def _from_log_space(logs: np.ndarray, signs: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """Flat float64 values from reconstructed log-magnitudes and the flat
    sign / exact-zero masks — the one expression both the decoder and the
    encoder's ``recon=`` hand-out evaluate."""
    mags = np.exp(logs.ravel())
    out = np.where(signs, -mags, mags)
    out[zeros] = 0.0
    return out


def _decode_lattices(members: list[_Member], timings: TimingRecord | None):
    """Float64 reconstructions of same-key lattice streams, stream-major."""
    meta = members[0].meta
    shape = members[0].parsed.header.shape
    with timed(timings, "decode"):
        symbols = _decode_symbols(members)
    with timed(timings, "reconstruct"):
        radius = meta["radius"]
        escape = 2 * radius
        counts = [member.meta["n_outliers"] for member in members]
        # Escapes are found on the symbols before the shift; a stream holds
        # one per outlier.
        patches = []
        if any(counts) or (symbols.size and int(symbols.max()) >= escape):
            for row, (member, count) in enumerate(zip(members, counts)):
                positions = np.flatnonzero(symbols[row] == escape)
                if positions.size != count:
                    raise ValueError("outlier count mismatch (corrupt stream)")
                if count:
                    codec_tag, payload = member.parsed.section(stream.SEC_OUTLIERS)
                    outliers = lossless.unpack_int_array(codec_tag, payload, np.int64, count)
                    patches.append((row, positions, outliers))
        # The residuals are the symbols shifted by the radius, in place on
        # decode_many's own int32 array (|residual| <= radius <= 2**20):
        # the reconstruction's codes cost 4 bytes per value.  Outliers may
        # be any int64 and the Lorenzo kernel is int64-only, so those
        # batches widen first.
        residuals = symbols
        if patches or meta["predictor"] == "lorenzo":
            residuals = symbols.astype(np.int64)
        del symbols  # not needed by the reconstruction, whose peak is this function's
        residuals -= radius
        for row, positions, outliers in patches:
            residuals[row, positions] = outliers
        ebs = [member.parsed.header.eb_abs for member in members]
        if meta["predictor"] == "interp":
            return interp_decompress(residuals, ebs, shape)
        return [
            dequantize(lorenzo_inverse(row.reshape(shape)), eb, dtype=np.float64)
            for row, eb in zip(residuals, ebs)
        ]


def _decode_symbols(members: list[_Member]) -> np.ndarray:
    """The ``(n_streams, n_symbols)`` int32 Huffman symbols of same-key
    lattice streams, one lockstep pass; the array is the caller's own."""
    meta = members[0].meta
    n_symbols, block_size = meta["n_symbols"], meta["block_size"]
    alphabet = 2 * meta["radius"] + 1
    windows, payloads = [], []
    for member in members:
        parsed = member.parsed
        # Every section is inflated to exactly the size the meta implies.
        windows.append(
            stream.unpack_code_lengths(parsed.section(stream.SEC_CODE_LENGTHS), alphabet)
        )
        codec_tag, payload = parsed.section(stream.SEC_PAYLOAD)
        payloads.append(
            lossless.decompress_bytes(codec_tag, payload, packed_nbytes(member.meta["total_bits"]))
        )
    # The batch shares its block count: every member's offsets unpack in
    # one pass.
    total_bits = [member.meta["total_bits"] for member in members]
    offsets = stream.unpack_block_offsets(
        [member.parsed.sections.get(stream.SEC_BLOCK_OFFSETS) for member in members],
        -(-n_symbols // block_size),
        total_bits,
    )
    encoded = [
        HuffmanEncoded(payload, bits, row, n_symbols, block_size)
        for payload, bits, row in zip(payloads, total_bits, offsets)
    ]
    max_lens = [member.meta["max_len"] for member in members]
    return decode_many(decode_tables(windows, max_lens), encoded)


def _check_destination(dest, shape: tuple[int, ...], dtype) -> None:
    """A ``recon=`` destination must be an array of the stream's shape and
    storage dtype (float32 / float64 inputs keep theirs, anything else is
    stored as float64)."""
    stored = np.dtype(dtype if dtype in (np.float32, np.float64) else np.float64)
    if not isinstance(dest, np.ndarray):
        raise ValueError(f"recon destination must be an ndarray, got {type(dest).__name__}")
    if dest.shape != shape or dest.dtype != stored:
        raise ValueError(
            f"recon destination must be a {stored} array of shape {shape}, "
            f"got {dest.dtype} of shape {dest.shape}"
        )


def _hand_out(dests: Sequence[np.ndarray], values: Sequence[np.ndarray]) -> None:
    """Round each float64 reconstruction into its destination's dtype.  A
    function of its own so no view of ``values`` outlives the hand-out."""
    for dest, row in zip(dests, values):
        dest[...] = row


class SZCompressor:
    """Reusable error-bounded compressor.

    Example
    -------
    >>> import numpy as np
    >>> codec = SZCompressor()
    >>> data = np.linspace(0, 1, 64, dtype=np.float32).reshape(4, 4, 4)
    >>> blob = codec.compress(data, error_bound=1e-3, mode="abs")
    >>> out = codec.decompress(blob)
    >>> bool(np.all(np.abs(out - data) <= 1e-3 * 1.0001))
    True
    """

    def __init__(self, config: SZConfig | None = None, **kwargs):
        if config is not None and kwargs:
            raise TypeError("pass either a config object or keyword overrides, not both")
        self.config = config if config is not None else SZConfig(**kwargs)

    # ------------------------------------------------------------------
    # compression
    # ------------------------------------------------------------------
    def compress(self, data, error_bound: float, mode: ErrorMode | str = ErrorMode.ABS) -> bytes:
        """Compress ``data`` under ``error_bound`` and return the blob."""
        blob, _ = self.compress_with_stats(data, error_bound, mode)
        return blob

    def compress_with_stats(
        self,
        data,
        error_bound: float,
        mode: ErrorMode | str = ErrorMode.ABS,
        recon: np.ndarray | None = None,
    ) -> tuple[bytes, CompressionStats]:
        """Compress — a batch of one — and also return byte-level
        accounting, read back from the finished blob.

        ``recon`` is a destination array of the stream's shape and dtype,
        filled with exactly what ``decompress(blob)`` returns — the
        reconstruction the closed-loop predictor computed anyway, so no
        decode runs.  It may be ``data`` itself (written only after the
        predictor has consumed the input); a destination of the wrong shape
        or dtype raises ``ValueError`` before anything is encoded.
        """
        mode = ErrorMode(mode)
        arr = self._check(data, error_bound, mode)
        if recon is not None:
            _check_destination(recon, arr.shape, arr.dtype)
        timings = TimingRecord()
        (blob,) = self._encode_batch([arr], [recon], error_bound, mode, timings)
        parsed = stream.parse(blob)
        meta = parsed.sections.get(stream.SEC_META)
        return blob, CompressionStats(
            original_bytes=arr.nbytes,
            compressed_bytes=len(blob),
            n_values=arr.size,
            eb_abs=parsed.header.eb_abs,
            mode=mode.value,
            section_bytes=section_bytes(parsed),
            n_outliers=stream.unpack_meta(meta[1])["n_outliers"] if meta else 0,
            timings=timings,
        )

    def compress_many(
        self,
        arrays: Sequence,
        error_bound: float,
        mode: ErrorMode | str = ErrorMode.ABS,
        timings: TimingRecord | None = None,
        recon: Sequence[np.ndarray] | None = None,
    ) -> list[bytes]:
        """Compress every array; ``result[i]`` is ``compress(arrays[i], ...)``.

        Arrays of one shape and dtype are predicted, histogrammed and
        entropy-coded together — byte-identical to one call per array, at a
        fraction of the fixed cost when the arrays are small.  The batches
        are encoded on the caller's thread and :data:`ENCODE_THREADS`
        ``- 1`` shared helper threads, each batch holding at most
        ``BATCH_VALUES // ENCODE_THREADS`` values; a batch of one goes
        through :meth:`compress_with_stats`, the entry point the benchmark
        tracer times.  ``timings`` gets the batches' spans in batch order.

        A failing array raises the error :meth:`compress` raises for it, and
        nothing is returned.  The input checks (dtype, dimensionality,
        finiteness, the bound, each ``recon`` destination) run on every
        array before anything is encoded, so such a rejection writes no
        destination.  An error of the encode itself — a bound too small for
        an array's magnitude overflows the lattice — comes after other
        batches, earlier or (on another thread) later ones, may have written
        their destinations.

        ``recon`` is one destination array per input (see
        :meth:`compress_with_stats`): ``recon[i]`` ends up bit-identical to
        ``decompress(result[i])`` without a decode, and the blobs are the
        same bytes either way.  ``recon[i]`` may be ``arrays[i]`` itself —
        a member's destination is written only after its batch's predict
        stage has consumed the batch's inputs — but must not overlap any
        other input.
        """
        mode = ErrorMode(mode)
        arrays = list(arrays)
        dests = [None] * len(arrays) if recon is None else list(recon)
        if len(dests) != len(arrays):
            raise ValueError(
                f"need one recon destination per array: {len(arrays)} arrays, {len(dests)} given"
            )
        # Checked in place: a non-contiguous member is not copied; the batch
        # that encodes it stacks it straight from its view.
        checked = []
        for data, dest in zip(arrays, dests):
            checked.append(self._check(data, error_bound, mode))
            if recon is not None:
                _check_destination(dest, checked[-1].shape, checked[-1].dtype)
        threads = ENCODE_THREADS
        batches = _batches(
            [(arr.shape, arr.dtype) for arr in checked], [arr.size for arr in checked], threads
        )
        records = [TimingRecord() for _ in batches]
        out: list = [None] * len(arrays)

        def encode(batch: list[int], record: TimingRecord) -> None:
            if len(batch) == 1:
                blob, stats = self.compress_with_stats(
                    checked[batch[0]], error_bound, mode, dests[batch[0]]
                )
                for span, seconds in stats.timings.spans.items():
                    record.add(span, seconds)
                blobs = [blob]
            else:
                blobs = self._encode_batch(
                    [checked[i] for i in batch],
                    [dests[i] for i in batch],
                    error_bound,
                    mode,
                    record,
                )
            for index, blob in zip(batch, blobs):
                out[index] = blob

        _drain([functools.partial(encode, *job) for job in zip(batches, records)], threads)
        if timings is not None:
            for record in records:
                for span, seconds in record.spans.items():
                    timings.add(span, seconds)
        return out

    def _encode_batch(
        self,
        arrays: list[np.ndarray],
        dests: list,
        error_bound: float,
        mode: ErrorMode,
        record: TimingRecord,
    ) -> list[bytes]:
        """The blobs of one batch of :meth:`_check`-ed arrays of one shape
        and dtype, timed into the batch's own ``record`` — the one place
        that picks each member's stream kind.  An empty member is a header
        alone; one whose bound resolves to 0 (eb == 0, a constant member of
        a ``rel`` call) is stored verbatim; the others share one lattice
        pass, a ``pw_rel`` member in log space at ``log1p(eb)`` with its
        sign and zero masks appended."""
        out: list = [None] * len(arrays)
        lattice: list[tuple] = []  # (slot, header, array predicted, pw_rel masks or None)
        for slot, (arr, dest) in enumerate(zip(arrays, dests)):
            header = stream.StreamHeader(
                mode=mode.value,
                dtype=arr.dtype,
                shape=arr.shape,
                eb_user=float(error_bound),
                eb_abs=0.0,
            )
            if arr.size == 0:
                header.flags |= stream.FLAG_EMPTY
                out[slot] = stream.serialize(header, [])
                continue
            if mode is ErrorMode.PW_REL:
                header.eb_abs = float(np.log1p(header.eb_user))
            else:
                header.eb_abs = resolve_error_bound(arr, header.eb_user, mode)
            if header.eb_abs == 0.0:
                header.flags |= stream.FLAG_LOSSLESS_FALLBACK
                if dest is not None:
                    dest[...] = arr
                with timed(record, "lossless"):
                    codec, payload = lossless.compress_bytes(arr.tobytes())
                out[slot] = stream.serialize(header, [(stream.SEC_RAW, codec, payload)])
                continue
            masks = None
            if mode is ErrorMode.PW_REL:
                with timed(record, "transform"):
                    arr, *masks = _to_log_space(arr)
            lattice.append((slot, header, arr, masks))
        if not lattice:
            return out
        slots, headers, arrs, masks = zip(*lattice)
        # The predictor hands out into the destinations; a pw_rel member's
        # goes to a log-space scratch first, mapped back below.
        targets = None
        if dests[0] is not None:
            targets = [
                dests[slot] if mask is None else np.empty_like(arr)
                for slot, arr, mask in zip(slots, arrs, masks)
            ]
        rows = self._prepare_symbols(arrs, [h.eb_abs for h in headers], record, targets)
        for i, sections in enumerate(self._encode_symbols(*rows, record)):
            if masks[i] is not None:
                if targets is not None:
                    with timed(record, "transform"):
                        logs = targets[i]
                        dests[slots[i]][...] = _from_log_space(logs, *masks[i]).reshape(logs.shape)
                with timed(record, "lossless"):
                    for tag, bits in zip((stream.SEC_SIGNS, stream.SEC_ZERO_MASK), masks[i]):
                        c, p = lossless.compress_bytes(np.packbits(bits).tobytes())
                        sections.append((tag, c, p))
            out[slots[i]] = stream.serialize(headers[i], sections)
        return out

    # -- pipelines -------------------------------------------------------
    def _check(self, data, error_bound: float, mode: ErrorMode) -> np.ndarray:
        """Every per-stream input check; ``data`` as an array of its stored
        dtype, not yet made contiguous (a view of a float array)."""
        arr = ensure_ndarray(data, name="data", contiguous=False)
        check_finite(arr, name="data")
        if arr.ndim not in SUPPORTED_NDIM and arr.size:
            raise ValueError(f"supported dimensionalities are {SUPPORTED_NDIM}, got {arr.ndim}")
        check_error_bound(error_bound, allow_zero=True)
        if mode is ErrorMode.PW_REL and error_bound >= 1.0:
            raise ValueError("pw_rel error bound must be < 1 (100% relative error)")
        return arr

    def _prepare_symbols(
        self,
        arrs: Sequence[np.ndarray],
        ebs: list[float],
        timings: TimingRecord,
        recon: Sequence[np.ndarray] | None = None,
    ):
        """Steps 2–3 plus symbol mapping for same-shape arrays.

        Returns ``(symbols, outliers, tables)``: an ``(n_streams, size)``
        symbol array (int32 when the interpolation wrote int32 codes, else
        int64), each stream's escape-coded residuals in stream order (int64),
        and the streams' :class:`~repro.sz.huffman.CodeTables` — the
        histogram they are built from is gone again.

        ``recon`` (one destination per array) receives the predictor's own
        reconstructions once it has consumed every input; the float64
        working copy is gone again before the symbols are mapped.
        """
        n_streams = len(arrs)
        if self.config.predictor == "interp":
            with timed(timings, "predict"):
                # The batch is stacked straight into float64, the sweep's own
                # buffer: it reads each value there and overwrites it with its
                # reconstruction, so the inputs are never written.
                values = np.stack(arrs, dtype=np.float64)
                residuals = interp_encode(values, ebs)
                if recon is not None:
                    _hand_out(recon, values)
                del values
        else:
            with timed(timings, "quantize"):
                lattices = [quantize(arr, eb) for arr, eb in zip(arrs, ebs)]
                if recon is not None:
                    _hand_out(
                        recon,
                        (dequantize(lattice, eb) for lattice, eb in zip(lattices, ebs)),
                    )
            with timed(timings, "predict"):
                rows = [lorenzo_forward(lattice).reshape(1, -1) for lattice in lattices]
                residuals = rows[0] if n_streams == 1 else np.concatenate(rows)
                del lattices, rows
        with timed(timings, "encode"):
            radius = RADIUS
            escape = 2 * radius
            # `residuals` is freshly materialized by the predictor, so the
            # symbol shift happens in place, in its dtype; escape masking
            # reuses the in-range mask buffer instead of a second np.where
            # temporary.  Only the outliers are widened to int64.
            symbols = residuals
            symbols += radius
            out_of_range = symbols < 0
            out_of_range |= symbols >= escape
            positions = np.flatnonzero(out_of_range)
            flat = symbols.reshape(-1)
            values = flat[positions].astype(np.int64)
            values -= radius
            flat[positions] = escape
            size = symbols.shape[1]
            bounds = np.searchsorted(positions, np.arange(n_streams + 1) * size).tolist()
            outliers = [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            del out_of_range
            tables = self._code_tables(symbols)
        return symbols, outliers, tables

    def _code_tables(self, symbols: np.ndarray) -> CodeTables:
        """The code tables of the rows of ``symbols`` (the batch's own
        array, read only), built together; only the tree merge runs per row.

        A single stream is histogrammed over the whole alphabet.  A batch
        is histogrammed over the window of symbols it occupies, in chunks
        of rows of at most :data:`~repro.sz.huffman.ENCODE_CHUNK_VALUES`
        symbols (or one row): row ``i`` of a chunk counts into its own bins
        at offset ``i * width``, through an int64 index of the chunk's own,
        and each chunk keeps only its present ``(row, symbol, count)``
        triples, so neither a batch-sized index nor an ``(n_streams,
        width)`` histogram is made.
        """
        alphabet = 2 * RADIUS + 1
        n_streams, size = symbols.shape
        if n_streams == 1:
            counts = np.bincount(symbols.reshape(-1), minlength=alphabet)[None]
            return code_tables(counts, MAX_CODE_LEN)
        lo = int(symbols.min())
        width = int(symbols.max()) + 1 - lo
        step = min(max(huffman.ENCODE_CHUNK_VALUES // max(size, width), 1), n_streams)
        shift = np.arange(step)[:, None] * width - lo
        present, counts = [], []
        for first in range(0, n_streams, step):
            chunk = symbols[first : first + step]
            index = np.add(chunk, shift[: chunk.shape[0]], dtype=np.intp)
            bins = np.bincount(index.reshape(-1), minlength=chunk.shape[0] * width)
            del index
            occupied = np.flatnonzero(bins)
            present.append(occupied + first * width)
            counts.append(bins[occupied])
            del bins
        rows, columns = np.divmod(np.concatenate(present), width)
        del present
        columns += lo
        return present_code_tables(
            rows, columns, np.concatenate(counts), n_streams, alphabet, MAX_CODE_LEN
        )

    def _encode_symbols(
        self,
        symbols: np.ndarray,
        outliers: list[np.ndarray],
        tables: CodeTables,
        timings: TimingRecord,
    ) -> list[list[tuple[int, int, bytes]]]:
        """Steps 4–5 for the rows of ``symbols``: entropy coding under the
        batch's ``tables`` + lossless back end; returns each stream's
        sections."""
        with timed(timings, "encode"):
            encoded = encode_many(tables, symbols)
        with timed(timings, "lossless"):
            return self._payload_sections(tables, encoded, outliers)

    def _payload_sections(
        self, tables: CodeTables, encoded: list[HuffmanEncoded], outliers: list[np.ndarray]
    ) -> list[list[tuple[int, int, bytes]]]:
        """Each lattice stream's sections, each through the coder
        :mod:`repro.sz.lossless` names for its kind: run-length DEFLATE for
        the Huffman table (the row's occupied window of ``tables``) and
        payload, LZ77 DEFLATE for the outliers; the block offsets of the
        whole batch are bit-packed together."""
        offsets = stream.pack_block_offsets(np.stack([enc.block_offsets for enc in encoded]))
        out = []
        for row, (enc, outl, packed) in enumerate(zip(encoded, outliers, offsets)):
            c, p = stream.pack_code_lengths(tables.lengths[row], tables.lo)
            sections: list[tuple[int, int, bytes]] = [(stream.SEC_CODE_LENGTHS, c, p)]
            if packed is not None:
                sections.append((stream.SEC_BLOCK_OFFSETS, lossless.CODEC_RAW, packed))
            c, p = lossless.compress_runs(enc.payload)
            sections.append((stream.SEC_PAYLOAD, c, p))
            if outl.size:
                c, p = lossless.pack_int_array(outl)
                sections.append((stream.SEC_OUTLIERS, c, p))
            meta = stream.pack_meta(
                radius=RADIUS,
                max_len=MAX_CODE_LEN,
                block_size=enc.block_size,
                total_bits=enc.total_bits,
                n_symbols=enc.n_symbols,
                n_outliers=int(outl.size),
                predictor=self.config.predictor,
            )
            sections.append((stream.SEC_META, lossless.CODEC_RAW, meta))
            out.append(sections)
        return out

    # ------------------------------------------------------------------
    # decompression
    # ------------------------------------------------------------------
    def decompress(self, blob: bytes, timings: TimingRecord | None = None) -> np.ndarray:
        """Reconstruct the array stored in ``blob``."""
        return self.decompress_many([blob], timings)[0]

    def decompress_many(
        self,
        blobs: Sequence[bytes],
        timings: TimingRecord | None = None,
        errors: dict[int, Exception] | None = None,
    ) -> list:
        """Reconstruct every blob; ``result[i]`` is ``decompress(blobs[i])``.

        Streams that can share a lockstep pass (:func:`stream_batches`) are
        decoded together — bit-identical to one call per blob, at a fraction
        of the fixed cost when the streams are small.

        With ``errors`` given, a damaged blob (``ValueError`` while parsing
        or decoding, the parser contract) is recorded there (``index →
        exception``) and its result is ``None``; the other blobs still
        decode.  Without it the first failure raises.  Anything else — a
        ``MemoryError`` on a batch's working set, a bug — is not a property
        of one stream and propagates.
        """
        out: list = [None] * len(blobs)
        for batch in stream_batches(blobs, errors):
            for index, values in batch.decode(timings, errors):
                out[index] = values
        return out


# Convenience module-level API -------------------------------------------

_DEFAULT = SZCompressor()


def compress(data, error_bound: float, mode: ErrorMode | str = ErrorMode.ABS) -> bytes:
    """Compress with default configuration (see :class:`SZCompressor`)."""
    return _DEFAULT.compress(data, error_bound, mode)


def decompress(blob: bytes) -> np.ndarray:
    """Decompress a blob produced by :func:`compress`."""
    return _DEFAULT.decompress(blob)
