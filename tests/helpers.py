"""Non-fixture test helpers (importable as ``tests.helpers``)."""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import re
import struct
import zlib

import numpy as np

from repro.amr.hierarchy import AMRDataset, AMRLevel


def smooth_cube(n: int, seed: int = 0, dtype=np.float32) -> np.ndarray:
    """A smooth, deterministic test cube (superposed low-frequency waves)."""
    rng_local = np.random.default_rng(seed)
    axis = np.linspace(0.0, 2.0 * np.pi, n)
    x = axis[:, None, None]
    y = axis[None, :, None]
    z = axis[None, None, :]
    field = (
        np.sin(x) * np.cos(2 * y) * np.sin(z)
        + 0.5 * np.cos(x + y)
        + 0.25 * np.sin(2 * z + 1.0)
    )
    field = field + 0.01 * rng_local.standard_normal((n, n, n))
    return field.astype(dtype)


def random_mask(shape, density: float, seed: int = 0, block: int = 1) -> np.ndarray:
    """Random boolean mask with approximately the requested density.

    ``block > 1`` produces block-granular masks (the AMR-like case).
    """
    rng_local = np.random.default_rng(seed)
    if block == 1:
        return rng_local.random(shape) < density
    nb = tuple(-(-dim // block) for dim in shape)
    coarse = rng_local.random(nb) < density
    mask = np.repeat(np.repeat(np.repeat(coarse, block, 0), block, 1), block, 2)
    return mask[: shape[0], : shape[1], : shape[2]]


def two_level_dataset(
    n: int = 16, fine_fraction: float = 0.25, seed: int = 0, dtype=np.float32
) -> AMRDataset:
    """Small hand-rolled two-level tree AMR dataset with exact tiling."""
    rng_local = np.random.default_rng(seed)
    coarse_n = n // 2
    # Refine the first `k` coarse cells (flat order) to the fine level.
    k = max(1, int(round(fine_fraction * coarse_n**3)))
    refined_coarse = np.zeros(coarse_n**3, dtype=bool)
    refined_coarse[:k] = True
    rng_local.shuffle(refined_coarse)
    refined_coarse = refined_coarse.reshape((coarse_n,) * 3)

    fine_mask = np.repeat(np.repeat(np.repeat(refined_coarse, 2, 0), 2, 1), 2, 2)
    coarse_mask = ~refined_coarse

    fine_data = np.where(fine_mask, smooth_cube(n, seed=seed, dtype=dtype), dtype(0))
    coarse_data = np.where(
        coarse_mask, smooth_cube(coarse_n, seed=seed + 1, dtype=dtype), dtype(0)
    )
    ds = AMRDataset(
        levels=[
            AMRLevel(data=fine_data, mask=fine_mask, level=0),
            AMRLevel(data=coarse_data, mask=coarse_mask, level=1),
        ],
        name="toy2",
        field="test_field",
    )
    ds.validate()
    return ds


def restore_extraction(extraction, dtype=None) -> np.ndarray:
    """Reference whole-level scatter: every sub-block of a NaST / OpST /
    AKDTree extraction put back into a zero grid, cropped to the level's
    extents — the oracle the strategies' extract round trips are checked
    against (TAC itself decodes window by window)."""
    if dtype is None:
        groups = extraction.groups.values()
        dtype = next(iter(groups)).dtype if groups else np.float32
    out = np.zeros(extraction.padded_shape, dtype=dtype)
    for shape, stacked in extraction.groups.items():
        extraction.scatter_group(shape, stacked, out)
    ox, oy, oz = extraction.orig_shape
    return out[:ox, :oy, :oz]


def golden_dataset(n: int = 8) -> AMRDataset:
    """Fully analytic two-level dataset for the golden-format fixture.

    No RNG anywhere: data is a closed-form wave field and the mask refines
    a fixed checkerboard-ish prefix of coarse cells, so the construction
    is reproducible on any platform/numpy forever.  Used both by
    ``tests/data/make_golden.py`` (fixture generation) and by
    ``tests/test_golden_format.py`` (bound verification).
    """
    coarse_n = n // 2
    idx = np.arange(coarse_n**3).reshape((coarse_n,) * 3)
    refined = (idx % 3 == 0) | (idx % 7 == 1)
    fine_mask = np.repeat(np.repeat(np.repeat(refined, 2, 0), 2, 1), 2, 2)

    def wave(m: int, phase: float) -> np.ndarray:
        axis = np.linspace(0.0, 2.0 * np.pi, m)
        x = axis[:, None, None]
        y = axis[None, :, None]
        z = axis[None, None, :]
        return (np.sin(x + phase) * np.cos(2 * y) + 0.5 * np.cos(z - phase)).astype(
            np.float32
        )

    fine_data = np.where(fine_mask, wave(n, 0.25), np.float32(0))
    coarse_data = np.where(~refined, wave(coarse_n, 1.5), np.float32(0))
    ds = AMRDataset(
        levels=[
            AMRLevel(data=fine_data, mask=fine_mask, level=0),
            AMRLevel(data=coarse_data, mask=~refined, level=1),
        ],
        name="golden",
        field="golden_field",
    )
    ds.validate()
    return ds


def golden_gsp_dataset(n: int = 16) -> AMRDataset:
    """Fully analytic two-level dataset whose fine level selects GSP.

    Companion to :func:`golden_dataset` for the GSP/ZF golden fixtures: the
    fine level is ~70% dense (>= T2, so the density filter picks GSP) and
    the coarse level holds the remaining ~30% (OpST), giving one blob with
    both a padded-grid level and a block-strategy level.  No RNG anywhere —
    the mask is a fixed modular pattern and the data a closed-form wave
    field, reproducible on any platform/numpy forever.
    """
    coarse_n = n // 2
    idx = np.arange(coarse_n**3).reshape((coarse_n,) * 3)
    refined = (idx % 10) < 7  # 70% of coarse cells refine -> dense fine level
    fine_mask = np.repeat(np.repeat(np.repeat(refined, 2, 0), 2, 1), 2, 2)

    def wave(m: int, phase: float) -> np.ndarray:
        axis = np.linspace(0.0, 2.0 * np.pi, m)
        x = axis[:, None, None]
        y = axis[None, :, None]
        z = axis[None, None, :]
        return (np.cos(x - phase) * np.sin(y) + 0.5 * np.sin(2 * z + phase)).astype(
            np.float32
        )

    fine_data = np.where(fine_mask, wave(n, 0.75), np.float32(0))
    coarse_data = np.where(~refined, wave(coarse_n, 2.25), np.float32(0))
    ds = AMRDataset(
        levels=[
            AMRLevel(data=fine_data, mask=fine_mask, level=0),
            AMRLevel(data=coarse_data, mask=~refined, level=1),
        ],
        name="golden-gsp",
        field="golden_field",
    )
    ds.validate()
    return ds


def assert_error_bounded(original, reconstructed, bound: float, rtol: float = 1e-4):
    """Assert max |a-b| <= bound, with the storage-dtype ULP allowance.

    The codec's documented guarantee is ``max(eb, ulp(value)/2)`` in the
    array's storage dtype: when the bound is below half an ULP, rounding the
    reconstruction into that dtype is the binding constraint, not the codec.
    """
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed)
    if a.size == 0:
        return
    # Half-ULP of the largest magnitude in the *storage* dtype.
    ulp = float(np.spacing(np.asarray(np.max(np.abs(a)), dtype=b.dtype)))
    err = float(np.max(np.abs(a - b.astype(np.float64))))
    limit = bound * (1.0 + rtol) + 0.5 * ulp + 1e-12
    assert err <= limit, f"max error {err:g} exceeds bound {bound:g} (+ulp/2 {ulp / 2:g})"


def golden_timestep_series(steps: int = 3, n: int = 8) -> list:
    """Analytic timestep series over :func:`golden_dataset` (no RNG).

    Step ``k`` scales the base field by ``1 + 0.07 k`` in float32 —
    masks stay constant (one temporal-delta chain) and consecutive steps
    differ by a small smooth residual, while the whole construction is
    closed-form so the ingest golden fixture is reproducible on any
    platform/numpy forever.
    """
    base = golden_dataset(n)
    series = []
    for k in range(steps):
        factor = np.float32(1.0 + 0.07 * k)
        series.append(
            AMRDataset(
                levels=[
                    AMRLevel(data=lvl.data * factor, mask=lvl.mask.copy(), level=lvl.level)
                    for lvl in base.levels
                ],
                name=base.name,
                field=base.field,
                ratio=base.ratio,
                box_size=base.box_size,
            )
        )
    return series


def golden_step_fields() -> dict:
    """Two analytic fields on :func:`golden_dataset`'s structure (no RNG):
    the multi-field step of the ``golden_ingest_step`` fixture.  ``aux``
    is the base field scaled by 0.5 in float32 — same masks, own values."""
    base = golden_dataset()
    aux = AMRDataset(
        levels=[
            AMRLevel(data=lvl.data * np.float32(0.5), mask=lvl.mask.copy(), level=lvl.level)
            for lvl in base.levels
        ],
        name=base.name,
        field="golden_aux",
        ratio=base.ratio,
        box_size=base.box_size,
    )
    return {"aux": aux, "field": base}


def reserialize_stream(blob: bytes, replace: dict) -> bytes:
    """An SZ stream re-serialised with some sections swapped out.

    ``replace`` maps a section tag to its new raw bytes (stored with the
    raw lossless codec) or to ``None`` to drop the section — how the
    hostile-input tests build a well-framed stream around one bad record.
    """
    from repro.sz import lossless, stream

    parsed = stream.parse(blob)
    sections = []
    for tag, (codec, payload) in parsed.sections.items():
        if tag not in replace:
            sections.append((tag, codec, payload))
        elif replace[tag] is not None:
            sections.append((tag, lossless.CODEC_RAW, replace[tag]))
    return stream.serialize(parsed.header, sections)


def inflate_section(parsed, tag: int) -> bytes:
    """Section ``tag`` of a parsed SZ stream, inflated with no size bound
    (the decoder bounds every inflate by the size the stream implies; test
    code reads streams it made itself).  A code-length section keeps its
    window prefix (two varints) in front of the inflated lengths."""
    from repro.sz import lossless, stream

    codec, payload = parsed.section(tag)
    at = window_prefix_length(payload) if tag == stream.SEC_CODE_LENGTHS else 0
    prefix, payload = payload[:at], payload[at:]
    return prefix + (zlib.decompress(payload) if codec == lossless.CODEC_ZLIB else payload)


def window_prefix_length(section: bytes) -> int:
    """Bytes of a code-length section's window prefix (``lo`` and count,
    two varints) ahead of its coded lengths."""
    from repro.sz import stream

    return stream._read_varints(section, 0, 2)[1]


def stream_content(parsed) -> dict:
    """What each section of a parsed SZ stream decodes to, whatever its
    framing: the meta record as a dict, the alphabet-wide code lengths,
    the absolute block offsets, every other section inflated."""
    from repro.sz import stream

    content = {}
    meta = None
    if stream.SEC_META in parsed.sections:
        meta = content[stream.SEC_META] = stream.unpack_meta(parsed.section(stream.SEC_META)[1])
    for tag in parsed.sections:
        if tag == stream.SEC_CODE_LENGTHS:
            lo, window = stream.unpack_code_lengths(parsed.section(tag), 2 * meta["radius"] + 1)
            lengths = np.zeros(2 * meta["radius"] + 1, dtype=np.uint8)
            lengths[lo : lo + window.size] = window
            content[tag] = lengths.tobytes()
        elif tag != stream.SEC_META:
            content[tag] = inflate_section(parsed, tag)
    if meta is not None:
        offsets = stream.unpack_block_offsets(
            [parsed.sections.get(stream.SEC_BLOCK_OFFSETS)],
            -(-meta["n_symbols"] // meta["block_size"]),
            [meta["total_bits"]],
        )
        content[stream.SEC_BLOCK_OFFSETS] = offsets[0].tolist()
    return content


def assert_same_streams(fresh: bytes, stored: bytes) -> None:
    """``fresh`` holds what ``stored`` holds, section by section: a part
    that is an SZ stream must have the same header fields, the same section
    tags in the same order and the same content once each section is
    decoded — the meta record, the full code-length array, the absolute
    block offsets, and the inflated payload, outliers and masks — how a
    blob written before the lossless coders or the stream framing changed
    is compared with a fresh compress.  Any other part must be
    byte-identical."""
    from repro.sz import stream

    if not (fresh.startswith(stream.MAGIC) and stored.startswith(stream.MAGIC)):
        assert fresh == stored
        return
    a, b = stream.parse(fresh), stream.parse(stored)
    assert a.header == b.header
    assert list(a.sections) == list(b.sections)
    mine, theirs = stream_content(a), stream_content(b)
    assert list(mine) == list(theirs)
    for tag in theirs:
        assert mine[tag] == theirs[tag], f"section {tag}"


def v1_stream_bytes(header, sections) -> bytes:
    """Reference writer of the retired version-1 SZ stream framing: a
    fixed-width header, then ``(tag u8, codec u8, length u64, bytes)`` per
    ``(tag, codec, payload)`` section, whose contents the caller gives in
    their version-1 form (:func:`v1_meta`, alphabet-wide code lengths,
    int64 offset deltas)."""
    from repro.sz import stream

    mode, dtype = stream._MODE_CODES[header.mode], stream._DTYPE_CODES[np.dtype(header.dtype)]
    head = (stream.MAGIC, 1, header.flags, mode, dtype, len(header.shape))
    out = bytearray(struct.pack("<4sBBBBB", *head))
    out += struct.pack(f"<{len(header.shape)}Q", *header.shape)
    out += struct.pack("<dd", header.eb_user, header.eb_abs)
    out += struct.pack("<B", len(sections))
    for tag, codec, payload in sections:
        out += struct.pack("<BBQ", tag, codec, len(payload)) + payload
    return bytes(out)


def v1_meta(meta: dict) -> bytes:
    """A codec-parameter record in its version-1 fixed-width layout."""
    from repro.sz import stream

    predictor = stream._PREDICTOR_CODES[meta["predictor"]]
    fields = (meta["radius"], meta["max_len"], predictor, meta["block_size"], meta["total_bits"])
    return struct.pack("<IBBIQQQ", *fields, meta["n_symbols"], meta["n_outliers"])


def bitwise_pack_rows(codes, lengths) -> tuple[list[bytes], list[int]]:
    """Reference packer: the per-bit ``repro.sz.bitstream._pack_rows`` that
    the 64-bit word packer replaced, kept as the oracle its property test
    holds it to.  Every codeword is expanded to one array element per bit
    (``np.repeat``) and the bits go through ``np.packbits``; rows of a 2-D
    batch each start on a byte boundary."""
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n_rows = codes.shape[0]
    if codes.size == 0:
        return [b"\x00" * 4] * n_rows, [0] * n_rows
    max_len = int(lengths.max())
    row_bits = lengths.sum(axis=1)
    if n_rows > 1:
        # A pseudo-code of zero bits (possibly none) closes each row's last
        # byte; a lone row leans on np.packbits' own zero fill.
        pad = (-row_bits) % 8
        lengths = np.concatenate([lengths, pad[:, None]], axis=1)
        codes = np.concatenate([codes, np.zeros((n_rows, 1), dtype=codes.dtype)], axis=1)
    lengths = lengths.ravel()
    ends = np.cumsum(lengths)
    total_bits = int(ends[-1])
    # Global bit ``p`` belongs to the codeword covering it, at shift
    # ``ends[sym] - 1 - p`` from that codeword's LSB.
    dtype = np.int32 if (max_len <= 31 and total_bits <= np.iinfo(np.int32).max) else np.int64
    shifts = np.repeat(ends.astype(dtype, copy=False), lengths)
    shifts -= 1
    shifts -= np.arange(total_bits, dtype=dtype)
    bitvals = np.repeat(codes.ravel().astype(dtype), lengths)
    bitvals >>= shifts
    bitvals &= 1
    packed = np.packbits(bitvals.astype(np.uint8)).tobytes()
    stops = np.cumsum((row_bits + 7) >> 3).tolist()
    return (
        [packed[start:stop] + b"\x00" * 4 for start, stop in zip([0] + stops, stops)],
        row_bits.tolist(),
    )


def loop_limit_lengths(raw, max_len: int) -> np.ndarray:
    """Reference Kraft repair: the loop ``repro.sz.huffman._limit_lengths``
    ran before its closed form, kept as the oracle the closed form is held
    to.  Clamp to ``max_len``, then lengthen the deepest still-extendable
    code (first index among equals) one bit at a time until the Kraft sum
    fits."""
    lengths = np.minimum(np.asarray(raw, dtype=np.int64), max_len)
    scale = 1 << max_len
    kraft = int(np.sum(scale >> lengths))
    while kraft > scale:
        extendable = np.flatnonzero(lengths < max_len)
        if extendable.size == 0:
            raise ValueError("cannot satisfy Kraft inequality within max_len")
        deepest = extendable[np.argmax(lengths[extendable])]
        kraft -= scale >> int(lengths[deepest] + 1)
        lengths[deepest] += 1
    return lengths


def oracle_decode_table(lengths) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference decode table of one code: ``(symbols, lengths, bits)``.

    This is the per-codec build ``repro.sz.huffman`` ran before
    :func:`~repro.sz.huffman.decode_tables` built a whole pass's tables at
    once, kept as the oracle that builder is held to.  ``lengths`` is the
    code's alphabet-wide code lengths; the table has ``2**bits`` entries,
    ``bits`` the longest code (at least 1).  Canonical codes occupy one
    contiguous run of code space from 0, so the table is two ``np.repeat``
    fills; the slack past the Kraft sum stays zero (length 0 marks
    undecodable space).
    """
    lengths = np.asarray(lengths, dtype=np.uint8)
    present = np.flatnonzero(lengths)
    plens = lengths[present].astype(np.int64)
    bits = max(int(plens.max()) if present.size else 0, 1)
    # Canonical order (by length, ties by symbol): ``present`` ascends, so
    # a stable sort on the lengths alone yields it.
    order = np.argsort(plens, kind="stable")
    spans = np.int64(1) << (bits - plens[order])
    used = int(spans.sum())
    table_sym = np.zeros(1 << bits, dtype=np.int32)
    table_len = np.zeros(1 << bits, dtype=np.int64)
    table_sym[:used] = np.repeat(present[order], spans)
    table_len[:used] = np.repeat(plens[order], spans)
    return table_sym, table_len, bits


def lockstep_decode(codec, encoded) -> np.ndarray:
    """Reference Huffman decode: the round loop ``repro.sz.huffman._decode_span``
    ran before its lean rounds, kept as the oracle its property test holds
    them to.  One lane per block of one stream; each round peeks every
    active lane with 4-byte gathers, looks the peek up in the codec's dense
    table (:func:`oracle_decode_table`) and raises on unassigned code space
    (length 0) in that round; the ragged last block drops out after its
    ``tail`` rounds."""
    from repro.sz.bitstream import as_peekable, peek_bits

    n, block = encoded.n_symbols, encoded.block_size
    table_sym, table_len, bits = oracle_decode_table(codec.lengths)
    positions = np.array(encoded.block_offsets, dtype=np.int64)
    lanes = positions.size
    tail = n - block * (lanes - 1)
    buf = as_peekable(encoded.payload)
    out = np.zeros((block, lanes), dtype=np.int32)
    m = lanes
    for r in range(block):
        if r == tail:  # only reached when the last block is ragged
            m -= 1
            if m == 0:
                break
        peeks = peek_bits(buf, positions[:m], bits)
        lens = np.take(table_len, peeks)
        if not int(lens.min()):
            raise ValueError("corrupt Huffman stream (unassigned code space)")
        out[r, :m] = np.take(table_sym, peeks)
        positions[:m] += lens
    return out.T.ravel()[:n]


def heap_code_lengths(counts, max_len: int = 16) -> np.ndarray:
    """Reference Huffman code lengths: the binary-heap tree build.

    This is the builder ``repro.sz.huffman.huffman_code_lengths`` used
    until the two-queue merge replaced it; it stays here as the reference
    the property tests hold the merge to (same tree, so same lengths, on
    every histogram).  Heap entries are ``(count, tie, node)`` with leaf
    ties the present-symbol index and merged-node ties the creation order.
    The Kraft repair is the reference loop :func:`loop_limit_lengths`.
    """
    import heapq

    counts = np.asarray(counts, dtype=np.int64)
    present = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.uint8)
    if present.size == 0:
        return lengths
    if present.size == 1:
        lengths[present[0]] = 1
        return lengths
    heap = [(int(counts[s]), i, int(s)) for i, s in enumerate(present)]
    heapq.heapify(heap)
    next_tie = present.size
    while len(heap) > 1:
        c1, _, n1 = heapq.heappop(heap)
        c2, _, n2 = heapq.heappop(heap)
        heapq.heappush(heap, (c1 + c2, next_tie, (n1, n2)))
        next_tie += 1
    depth_of: dict[int, int] = {}
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            depth_of[node] = max(depth, 1)
    raw = np.array([depth_of[int(s)] for s in present], dtype=np.int64)
    lengths[present] = loop_limit_lengths(raw, max_len)
    return lengths


def naive_canonical_codes(lengths) -> np.ndarray:
    """Reference canonical assignment: the per-symbol sequential loop."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint32)
    present = np.flatnonzero(lengths)
    if present.size == 0:
        return codes
    order = present[np.lexsort((present, lengths[present]))]
    code = 0
    prev_len = int(lengths[order[0]])
    for sym in order:
        length = int(lengths[sym])
        code <<= length - prev_len
        codes[sym] = code
        code += 1
        prev_len = length
    return codes


def legacy_container_bytes(comp, version: int) -> bytes:
    """Reference encoder for the read-only container versions 1-4 (the
    retired ``to_bytes`` body): reader tests build their inputs with it,
    the committed golden fixtures pin the same layouts byte-exactly."""
    assert version in (1, 2, 3, 4), version
    record = {
        "method": comp.method,
        "dataset_name": comp.dataset_name,
        "meta": comp.meta,
        "original_bytes": comp.original_bytes,
        "n_values": comp.n_values,
    }
    index = []
    offset = 0
    for name, payload in comp.parts.items():
        crc = [zlib.crc32(payload)] if version == 4 else []
        index.append([name, offset, len(payload), *crc])
        offset += len(payload)
    if version == 1:
        record["part_names"] = list(comp.parts)
    elif version == 2:
        record["part_index"] = index
    head = json.dumps(record, sort_keys=True).encode("utf-8")
    out = bytearray(b"RPAM" + struct.pack("<BQ", version, len(head)))
    index_blob = json.dumps(index, sort_keys=True).encode("utf-8") if version >= 3 else b""
    if version >= 3:
        out += struct.pack("<QQ", len(out) + 16 + len(head) + offset, len(index_blob))
    out += head
    for payload in comp.parts.values():
        out += struct.pack("<Q", len(payload)) if version == 1 else b""
        out += payload
    return bytes(out + index_blob)


def legacy_archive_bytes(blobs: dict, version: int, meta: dict | None = None) -> bytes:
    """Reference writer of the read-only monolithic batch archive (v1
    length-prefixed / v2 indexed; the retired ``BatchArchive.to_bytes``
    body) around already-serialized entry blobs of any container version.

    The manifest is computed from the blobs that parse — what the retired
    writer recorded, so ``golden_batch{,_v2}.rpbt`` regenerate byte for
    byte; a hostile test's unparseable blob gets no manifest row."""
    from repro.core.container import LazyCompressedDataset

    keys = sorted(blobs)
    manifest = []
    for key in keys:
        try:
            entry = LazyCompressedDataset.open(blobs[key])
        except ValueError:
            continue
        manifest.append(
            {
                "key": key,
                "method": entry.method,
                "dataset": entry.dataset_name,
                "original_bytes": entry.original_bytes,
                "compressed_bytes": entry.compressed_bytes(),
                "n_values": entry.n_values,
                "n_parts": len(entry.parts),
            }
        )
    record = {"version": version, "keys": keys, "meta": meta or {}, "manifest": manifest}
    if version == 2:
        sizes = [len(blobs[key]) for key in keys]
        record["index"] = {k: [sum(sizes[:i]), sizes[i]] for i, k in enumerate(keys)}
    head = json.dumps(record, sort_keys=True).encode("utf-8")
    out = b"RPBT" + struct.pack("<BQ", version, len(head)) + head
    for key in keys:
        out += (struct.pack("<Q", len(blobs[key])) if version == 1 else b"") + blobs[key]
    return out


def write_archive(path, entries: dict, **writer_options):
    """Write ``{key: comp}`` (keys in sorted order) as a sharded archive
    headed at ``path`` through the one archive writer; returns the head
    path.  ``writer_options`` go to ``ShardedArchiveWriter`` (``shard_size``,
    ``meta``)."""
    from repro.engine import ShardedArchiveWriter

    with ShardedArchiveWriter(path, **writer_options) as writer:
        for key in sorted(entries):
            writer.add_entry(key, entries[key])
    return writer.report.head_path


def oracle_timestep_read(archive, key: str, level: int, region=None) -> np.ndarray:
    """One level (or its ``region``) of the timestep stored under ``key``,
    read without the read service: the key's temporal chain walked here
    from each entry's ``meta["temporal"]``, every entry decoded alone
    through its own codec (``LazyBatchArchive.entry`` + ``with_structure``
    + ``decompress_level`` / ``decompress_region``), the boxes summed base
    first.  ``archive`` is an open :class:`repro.engine.LazyBatchArchive`;
    the oracle of every chain read."""
    from repro.engine import codec_for_method
    from repro.engine.archive import with_structure

    chain = [key]
    while (archive.entry(chain[-1]).meta.get("temporal") or {}).get("mode") == "delta":
        chain.append(archive.entry(chain[-1]).meta["temporal"]["base"])
    out = None
    for entry_key in reversed(chain):
        comp = with_structure(archive.entry(entry_key), entry_key, archive.entry)
        codec = codec_for_method(comp.method)
        if region is None:
            data = codec.decompress_level(comp, level).data
        else:
            data = codec.decompress_region(comp, level, region)
        out = data if out is None else out + data
    return out


def rpht_table(code_lengths, max_len: int) -> bytes:
    """Reference writer of an ``RPHT`` shared-Huffman-table part (the
    retired ``pack_shared_table``): ``<4sBBIIBQ`` head + code lengths."""
    from repro.sz import lossless

    raw = np.ascontiguousarray(code_lengths, dtype=np.uint8).tobytes()
    codec, payload = lossless.compress_bytes(raw)
    head = ("<4sBBIIBQ", b"RPHT", 1, max_len, len(raw), zlib.crc32(raw), codec, len(payload))
    return struct.pack(*head) + payload


def shared_table_streams(blobs: list):
    """Reference writer of the retired shared-table level: per-stream SZ
    ``blobs`` re-coded under one Huffman table built from their summed
    symbol histogram, in the version-1 stream framing that layout was
    written in (:func:`v1_stream_bytes`).  Returns ``(table part, blobs,
    {id, alphabet})``: each lattice stream trades its ``SEC_CODE_LENGTHS``
    for a ``SEC_TABLE_REF``; empty and lossless-fallback streams only
    change framing (``table part`` is ``None`` when there is nothing
    else)."""
    from repro.sz import lossless, stream
    from repro.sz.huffman import HuffmanCodec, HuffmanEncoded

    lattice = {}
    out = []
    for slot, blob in enumerate(blobs):
        parsed = stream.parse(blob)
        if stream.SEC_META not in parsed.sections:
            sections = [(tag, *section) for tag, section in parsed.sections.items()]
            out.append(v1_stream_bytes(parsed.header, sections))
            continue
        out.append(None)  # re-coded below
        content = stream_content(parsed)
        meta = content[stream.SEC_META]
        encoded = HuffmanEncoded(
            content[stream.SEC_PAYLOAD], meta["total_bits"],
            np.array(content[stream.SEC_BLOCK_OFFSETS], dtype=np.int64),
            meta["n_symbols"], meta["block_size"],
        )
        lengths = np.frombuffer(content[stream.SEC_CODE_LENGTHS], dtype=np.uint8)
        own = HuffmanCodec(lengths, max_len=meta["max_len"])
        lattice[slot] = parsed, meta, own.decode(encoded)
    if not lattice:
        return None, out, None
    alphabet = 2 * meta["radius"] + 1
    counts = sum(np.bincount(syms, minlength=alphabet) for _p, _m, syms in lattice.values())
    code = HuffmanCodec.from_counts(counts, max_len=meta["max_len"])
    info = {"id": zlib.crc32(code.lengths.tobytes()), "alphabet": alphabet}
    for slot, (parsed, meta, symbols) in lattice.items():
        enc = code.encode(symbols, meta["block_size"])
        deltas = np.diff(enc.block_offsets, prepend=0)
        sections = [
            (stream.SEC_TABLE_REF, lossless.CODEC_RAW, struct.pack("<II", *info.values())),
            (stream.SEC_BLOCK_OFFSETS, *lossless.pack_int_array(deltas)),
            (stream.SEC_PAYLOAD, *lossless.compress_bytes(enc.payload)),
        ]
        if stream.SEC_OUTLIERS in parsed.sections:
            sections.append((stream.SEC_OUTLIERS, *parsed.section(stream.SEC_OUTLIERS)))
        meta = v1_meta({**meta, "total_bits": enc.total_bits})
        sections.append((stream.SEC_META, lossless.CODEC_RAW, meta))
        out[slot] = v1_stream_bytes(parsed.header, sections)
    return rpht_table(code.lengths, code.max_len), out, info


def retired_tac_layout(comp, *, shared: bool = False, format1: bool = False):
    """A TAC blob rewritten into a layout only readers still know: every
    bricked level gets back the ``L<idx>/bricks`` table part the retired
    writers stored ahead of its bricks (:func:`serialize_brick_table`), and
    ``shared``: every level's streams under one ``L<idx>/table`` part
    (:func:`shared_table_streams`); ``format1``: a one-brick GSP/ZF level
    as the single ``L<idx>/grid`` stream, brick table and brick meta gone."""
    meta = copy.deepcopy(comp.meta)
    items = list(comp.parts.items())
    for level in meta["levels"]:
        idx = level["level"]
        if level.get("bricks"):
            table = BrickTable(
                tuple(level["padded_shape"]),
                tuple(comp.meta["shapes"][idx]),
                level["bricks"]["size"],
            )
            first = [n for n, _p in items].index(f"L{idx}/b0")
            items.insert(first, (f"L{idx}/bricks", serialize_brick_table(table)))
        if format1 and level.get("bricks"):
            assert level.pop("bricks")["n"] == 1 and level.pop("strategy_format") == 2
            grid = {f"L{idx}/b0": f"L{idx}/grid"}
            items = [(grid.get(n, n), p) for n, p in items if n != f"L{idx}/bricks"]
        stream_name = rf"L{idx}/(b\d+|g\d+|grid)"
        slots = [i for i, (n, _p) in enumerate(items) if re.fullmatch(stream_name, n)]
        if shared and slots:
            table, blobs, info = shared_table_streams([items[i][1] for i in slots])
            if table is not None:
                for i, blob in zip(slots, blobs):
                    items[i] = items[i][0], blob
                items.insert(slots[0], (f"L{idx}/table", table))
                level["shared_table"] = {"part": f"L{idx}/table", **info}
    return dataclasses.replace(comp, parts=dict(items), meta=meta)


def pin_block_size(monkeypatch, block) -> None:
    """SZ encodes in Huffman decode blocks of ``block`` symbols (``None``:
    the kernel's ``~sqrt(n)`` default) — the kernel's own ``block_size=``
    argument, bound where the compressor calls it."""
    from repro.sz import compressor, huffman

    encode = functools.partial(huffman.encode_many, block_size=block)
    monkeypatch.setattr(compressor, "encode_many", encode)


# -- the retired ``L<idx>/bricks`` part ---------------------------------------
# The TAC writer stored a bricked level's geometry twice: in the level meta
# (what every reader uses) and as this 17-byte part.  The part is no longer
# written; frozen fixtures still hold it, and these are its writer and parser.

_BRICK_TABLE = struct.Struct("<H3I3II")
_BRICK_TABLE_VERSION = 1


@dataclasses.dataclass(frozen=True)
class BrickTable:
    """Geometry of a brick-chunked padded grid (regular tiling), as the
    ``L<idx>/bricks`` part records it: ``padded_shape`` is the block-padded
    grid the bricks tile, ``orig_shape`` the level extents, ``brick_size``
    the brick edge (the final brick per axis may be ragged)."""

    padded_shape: tuple[int, int, int]
    orig_shape: tuple[int, int, int]
    brick_size: int

    def grid(self) -> tuple[int, int, int]:
        """Bricks per axis."""
        return tuple(-(-dim // self.brick_size) for dim in self.padded_shape)

    def n_bricks(self) -> int:
        gx, gy, gz = self.grid()
        return gx * gy * gz

    def boxes(self) -> list[tuple[tuple[int, int], ...]]:
        """Half-open padded-grid box of every brick, flat C order."""
        from repro.core.gsp import brick_boxes

        return brick_boxes(self.padded_shape, self.brick_size)


def serialize_brick_table(table: BrickTable) -> bytes:
    """The ``L<idx>/bricks`` part of ``table``."""
    raw = _BRICK_TABLE.pack(
        _BRICK_TABLE_VERSION, *table.padded_shape, *table.orig_shape, table.brick_size
    )
    return zlib.compress(raw, 1)


def deserialize_brick_table(payload: bytes) -> BrickTable:
    """Invert :func:`serialize_brick_table`."""
    raw = zlib.decompress(payload)
    if len(raw) != _BRICK_TABLE.size:
        raise ValueError("brick table record has the wrong length")
    version, px, py, pz, ox, oy, oz, brick_size = _BRICK_TABLE.unpack(raw)
    if version != _BRICK_TABLE_VERSION:
        raise ValueError(f"unsupported brick table version {version}")
    return BrickTable(
        padded_shape=(px, py, pz),
        orig_shape=(ox, oy, oz),
        brick_size=int(brick_size),
    )
