"""Shared perf-regression harness for the SZ/TAC hot paths.

This is the machine-readable perf trajectory of the repo: every op is
timed at a pinned scale, recorded as ``op → {seconds, mb_per_s,
n_values}``, and merged into ``BENCH_hotpaths.json`` at the repo root.
Memory rows (``*_peak_mb``) record ``op → {peak_mb: {threads_1,
threads_2}, n_values}`` instead: an op's tracemalloc peak in MB at one
and at two SZ encode threads; the baseline gate skips them.  The
``serve_*`` rows time a median of many reads instead of a best-of and
add its ``range_s`` (fastest, slowest).
Re-running after a change (or in CI's ``perf-smoke`` job) makes speedups
measurable and regressions loud — the ``--baseline`` mode fails the run
when any op is slower than a checked-in reference by more than
``--max-slowdown`` (a generous factor, to tolerate runner jitter).

Three ways in:

* **CLI** — ``PYTHONPATH=src python benchmarks/perf_harness.py
  [--scale 4] [--ops huffman_decode,tac_compress] [--baseline FILE]``;
* **pytest emitters** — ``bench_sz_codec.py`` and the ``table2`` entry of
  ``bench_experiments.py`` call :func:`merge_write` so the pytest-benchmark
  runs land in the same JSON trajectory;
* **library** — :func:`time_op` + :func:`merge_write` for new benchmarks.

Op workloads are pinned (fixed seeds, scale-derived sizes) so numbers are
comparable across commits at the same ``--scale``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hotpaths.json"

#: Version of the ``BENCH_hotpaths.json`` layout.
SCHEMA_VERSION = 1

#: JSON key reserved for run metadata (everything else is an op entry).
META_KEY = "_meta"


# ----------------------------------------------------------------------
# measurement + persistence primitives
# ----------------------------------------------------------------------
def time_op(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def time_spread(fn, reads: int = 30) -> tuple[float, float, float]:
    """``(median, min, max)`` wall time of ``reads`` calls of ``fn()`` in
    seconds.  For ops whose best-of-N is bimodal per process (cold reads
    on a shared host): a median over many calls is steadier, and never
    below the best it replaces."""
    seconds = []
    for _ in range(max(1, reads)):
        start = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), min(seconds), max(seconds)


def op_entry(seconds: float, n_values: int, nbytes: int | None = None) -> dict:
    """One schema entry: seconds, MB/s over the op's input, value count."""
    if nbytes is None:
        nbytes = 0
    return {
        "seconds": round(float(seconds), 6),
        "mb_per_s": round(nbytes / 1e6 / seconds, 3) if seconds > 0 and nbytes else None,
        "n_values": int(n_values),
    }


def spread_entry(spread: tuple[float, float, float], n_values: int, nbytes: int) -> dict:
    """:func:`op_entry` of a :func:`time_spread` median, plus its range."""
    median, lo, hi = spread
    return {**op_entry(median, n_values, nbytes), "range_s": [round(lo, 6), round(hi, 6)]}


def peak_mb(fn, threads: int) -> float:
    """The tracemalloc peak of one ``fn()`` in MB, with the SZ encode
    drained on ``threads`` threads (``ENCODE_THREADS``, restored after).
    Run it once before, so caches and lazy imports are not counted."""
    from repro.sz import compressor

    saved = compressor.ENCODE_THREADS
    compressor.ENCODE_THREADS = threads
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
    finally:
        tracemalloc.stop()
        compressor.ENCODE_THREADS = saved


def peak_entry(fn, n_values: int) -> dict:
    """A memory row: ``fn()``'s tracemalloc peak (MB) at one and at two
    encode threads, and the op's value count."""
    return {
        "peak_mb": {f"threads_{t}": peak_mb(fn, t) for t in (1, 2)},
        "n_values": int(n_values),
    }


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (ValueError, OSError):
        return {}


def merge_write(results: dict, path: Path | str = DEFAULT_OUTPUT, **meta) -> Path:
    """Merge op entries into the JSON trajectory file (create if absent).

    Existing entries for other ops are preserved, so the CLI suite and the
    pytest emitters can each contribute their slice of the trajectory.  A
    file holds one scale's numbers: rows measured at a ``scale`` other than
    the file's ``_meta.scale`` go to
    ``benchmarks/results/<stem>.scale<N>.json`` instead.
    """
    path = Path(path)
    existing = _load(path)
    scale = meta.get("scale")
    if scale is not None and existing.get(META_KEY, {}).get("scale", scale) != scale:
        path = REPO_ROOT / "benchmarks" / "results" / f"{path.stem}.scale{scale}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        existing = _load(path)
    existing_meta = existing.get(META_KEY, {})
    existing.update(results)
    existing_meta.update(
        {
            "schema": SCHEMA_VERSION,
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
    )
    existing_meta.update(meta)
    existing[META_KEY] = existing_meta
    path.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")
    return path


def compare_to_baseline(
    results: dict, baseline: dict, max_slowdown: float, min_delta: float = 0.005
) -> list[str]:
    """Regression report: ops slower than ``baseline * max_slowdown``.

    Only ops present in both records are compared; returns one message per
    offending op (empty list = pass).  ``min_delta`` (seconds) is absolute
    slack on top of the ratio so sub-millisecond smoke-scale ops can't trip
    the gate on scheduler jitter alone.
    """
    failures = []
    for op, entry in sorted(results.items()):
        if op == META_KEY or not isinstance(entry, dict) or "seconds" not in entry:
            continue
        ref = baseline.get(op)
        if not isinstance(ref, dict) or "seconds" not in ref:
            continue
        ref_s = float(ref["seconds"])
        now_s = float(entry["seconds"])
        if ref_s > 0 and now_s > ref_s * max_slowdown + min_delta:
            failures.append(
                f"{op}: {now_s:.6f}s vs baseline {ref_s:.6f}s "
                f"({now_s / ref_s:.2f}x > {max_slowdown:.2f}x allowed)"
            )
    return failures


# ----------------------------------------------------------------------
# the pinned op suite
# ----------------------------------------------------------------------
def _huffman_ops(scale: int, repeats: int) -> dict:
    from repro.sz.huffman import HuffmanCodec

    n = max(2_000_000 // scale, 50_000)
    rng = np.random.default_rng(0)
    symbols = np.clip(rng.geometric(0.3, size=n) + 4096 - 1, 0, 8192)
    codec = HuffmanCodec.from_symbols(symbols, alphabet_size=8193)
    encoded = codec.encode(symbols)
    codec.decode(encoded)  # warm the decode table
    nbytes = symbols.size * 8
    ops = {
        "huffman_encode": op_entry(
            time_op(lambda: codec.encode(symbols), repeats), n, nbytes
        ),
        "huffman_decode": op_entry(
            time_op(lambda: codec.decode(encoded), repeats), n, nbytes
        ),
    }
    # Ragged tail: a stream length far from a block multiple exercises the
    # active-lane schedule of the lockstep decoder.  The op's throughput is
    # set by its block_size=4096, not by that schedule: at --scale 4 it is
    # 68 lanes × 4096 rounds, nearly all per-round call overhead.  The same
    # stream cut to a block multiple decodes no faster at block 4096, and
    # 4-5× faster at its default block (526).  The name stays: the
    # perf-smoke baseline keys on it.
    ragged = symbols[: n - n // 9 * 4 - 223]
    codec_r = HuffmanCodec.from_symbols(ragged, alphabet_size=8193)
    enc_r = codec_r.encode(ragged, block_size=4096)
    codec_r.decode(enc_r)
    ops["huffman_decode_ragged"] = op_entry(
        time_op(lambda: codec_r.decode(enc_r), repeats), ragged.size, ragged.size * 8
    )

    from repro.sz.huffman import decode_tables

    def table_build():
        return decode_tables([(0, codec.lengths)], codec.max_len)

    # Throughput is over the dense decode table the op materializes
    # (sym + len arrays, 2**longest_code entries each — what the decoder
    # really builds, not 2**max_len) so mb_per_s is real and the baseline
    # gate covers this op.
    built = table_build()
    ops["huffman_table_build"] = op_entry(
        time_op(table_build, max(repeats, 10)), built.sym.size, built.sym.nbytes + built.len.nbytes
    )

    # The encoder's table build, on a brick-like histogram: ~150 present
    # symbols clustered round the zero residual in the 8193-symbol
    # alphabet (a 16^3 brick at a tight bound).  Heavy ties in the tail
    # counts, as real bricks have.
    from repro.sz.huffman import huffman_code_lengths

    residuals = np.rint(np.random.default_rng(2).standard_normal(4096) * 24).astype(np.int64)
    brick_counts = np.bincount(residuals + 4096, minlength=8193)
    ops["huffman_code_lengths"] = op_entry(
        time_op(lambda: huffman_code_lengths(brick_counts), max(repeats, 50)),
        int(np.count_nonzero(brick_counts)),
        brick_counts.nbytes,
    )
    # The same build on a histogram the length limit bites: the residuals
    # of a 64³ stream (262 144 symbols) with a heavy (Cauchy) tail, ~970
    # present symbols whose raw tree is deeper than 16, so the Kraft repair
    # runs.  The row above never reaches it.
    from repro.sz.huffman import _tree_depths

    tail = np.rint(np.random.default_rng(4).standard_cauchy(1 << 18)).astype(np.int64)
    skewed_counts = np.bincount(np.clip(tail, -4096, 4096) + 4096, minlength=8193)
    assert _tree_depths(skewed_counts[skewed_counts > 0]).max() > 16, (
        "huffman_code_lengths_skewed premise broken: no Kraft repair to time"
    )
    ops["huffman_code_lengths_skewed"] = op_entry(
        time_op(lambda: huffman_code_lengths(skewed_counts), max(repeats, 50)),
        int(np.count_nonzero(skewed_counts)),
        skewed_counts.nbytes,
    )

    # The encoder's table build for one batch of a bricked level: the
    # histograms of 32 real 16³ bricks (a 64³ field at eb 1e-3 of its
    # range: 3-80 present symbols each, 23 on average, in a 343-symbol
    # window),
    # through the batched builder, and next to it the per-row build it
    # replaced (one ``from_counts`` + ``.codes`` per brick).
    from repro.sim.nyx import generate_field
    from repro.sz import SZCompressor
    from repro.sz import compressor
    from repro.sz.huffman import code_tables
    from repro.utils.timer import TimingRecord

    cube = generate_field("baryon_density", 64, seed=42)
    bricks = [
        np.ascontiguousarray(cube[x : x + 16, y : y + 16, z : z + 16])
        for x in range(0, 64, 16) for y in range(0, 64, 16) for z in range(0, 32, 16)
    ]
    eb_brick = 1e-3 * float(cube.max() - cube.min())
    sz_codec = SZCompressor()
    brick_symbols, *_ = sz_codec._prepare_symbols(bricks, [eb_brick] * 32, TimingRecord())
    alphabet = 2 * compressor.RADIUS + 1
    batch_counts = np.stack([np.bincount(row, minlength=alphabet) for row in brick_symbols])
    ops["huffman_code_tables_bricks"] = op_entry(
        time_op(lambda: code_tables(batch_counts), max(repeats, 50)),
        int(np.count_nonzero(batch_counts)),
        batch_counts.nbytes,
    )
    ops["huffman_code_tables_bricks_loop"] = op_entry(
        time_op(
            lambda: [HuffmanCodec.from_counts(row).codes for row in batch_counts],
            max(repeats, 50),
        ),
        int(np.count_nonzero(batch_counts)),
        batch_counts.nbytes,
    )

    # The bit-pack alone, on what encode_many hands it for one batch of a
    # bricked level: 64 streams of 4096 symbols (16³ bricks), each under its
    # own table, as uint32 codes and uint8 lengths.
    from repro.sz.bitstream import pack_codes

    brick_rng = np.random.default_rng(3)
    spread = brick_rng.uniform(0.5, 24, size=(64, 1))
    rows = np.rint(brick_rng.standard_normal((64, 4096)) * spread).astype(np.int64) + 4096
    tables = [HuffmanCodec.from_symbols(row, alphabet_size=8193) for row in rows]
    brick_codes = np.stack([table.codes[row] for table, row in zip(tables, rows)])
    brick_lengths = np.stack([table.lengths[row] for table, row in zip(tables, rows)])
    ops["huffman_pack_bricks"] = op_entry(
        time_op(lambda: pack_codes(brick_codes, brick_lengths), max(repeats, 10)),
        rows.size,
        brick_codes.nbytes + brick_lengths.nbytes,
    )

    # Chunked decode windows: force the over-limit path (one window per
    # contiguous lane chunk) so the big-payload fast path — previously a
    # 4-gather peek fallback — is tracked alongside the single-window
    # decode it must stay close to.  block_size=32 gives the many-lane
    # shape snapshot-scale streams have: at the harness floor of 50 000
    # symbols the 2-chunk split still leaves >= 780 lanes per chunk, so
    # the lanes-per-chunk guard routes to the chunked path at *every*
    # --scale (asserted below — this op must never silently time the
    # 4-gather fallback instead).
    from repro.sz import bitstream
    from repro.sz.huffman import _MIN_CHUNK_LANES

    enc_many = codec.encode(symbols, block_size=32)
    assert enc_many.block_offsets.size // 2 >= _MIN_CHUNK_LANES, (
        "huffman_decode_chunked_window premise broken: the lanes-per-chunk "
        "guard would route this op to the unwindowed fallback"
    )

    def decode_chunked():
        saved = bitstream.WINDOW_WORDS_LIMIT
        bitstream.WINDOW_WORDS_LIMIT = len(enc_many.payload) // 2
        try:
            return codec.decode(enc_many)
        finally:
            bitstream.WINDOW_WORDS_LIMIT = saved

    assert np.array_equal(decode_chunked(), symbols)
    ops["huffman_decode_chunked_window"] = op_entry(
        time_op(decode_chunked, repeats), n, nbytes
    )
    return ops


def _blocks_ops(scale: int, repeats: int) -> dict:
    from repro.core.blocks import BlockExtraction, block_counts, gather_blocks

    n = max(512 // scale, 32)
    rng = np.random.default_rng(1)
    data = rng.standard_normal((n, n, n)).astype(np.float32)
    grid = np.arange(0, n, 4, dtype=np.int32)
    origins = np.stack(
        [g.ravel() for g in np.meshgrid(grid, grid, grid, indexing="ij")], axis=1
    )
    shape = (4, 4, 4)
    stacked = gather_blocks(data, origins, shape)
    extraction = BlockExtraction(
        padded_shape=data.shape, orig_shape=data.shape, block_size=4
    )
    extraction.coords[shape] = origins
    extraction.perms[shape] = np.zeros(origins.shape[0], dtype=np.uint8)
    out = np.zeros_like(data)
    mask = rng.random((n, n, n)) < 0.4
    return {
        "gather_blocks": op_entry(
            time_op(lambda: gather_blocks(data, origins, shape), repeats),
            data.size,
            data.nbytes,
        ),
        "scatter_blocks": op_entry(
            time_op(lambda: extraction.scatter_group(shape, stacked, out), repeats),
            data.size,
            data.nbytes,
        ),
        "block_counts": op_entry(
            time_op(lambda: block_counts(mask, 16), repeats), mask.size, mask.size
        ),
    }


def _sz_ops(scale: int, repeats: int) -> dict:
    from repro.sim.nyx import generate_field
    from repro.sz import SZCompressor, SZConfig
    from repro.sz.huffman import encode_many
    from repro.sz.predictor import lorenzo_forward
    from repro.sz.quantizer import quantize, resolve_error_bound
    from repro.utils.timer import TimingRecord

    n = max(512 // scale, 32)
    field = generate_field("baryon_density", n, seed=42)
    ops = {}
    for predictor in ("interp", "lorenzo"):
        codec = SZCompressor(SZConfig(predictor=predictor))
        ops[f"sz_compress_{predictor}"] = op_entry(
            time_op(lambda: codec.compress(field, 1e-3, "rel"), repeats),
            field.size,
            field.nbytes,
        )
        blob = codec.compress(field, 1e-3, "rel")
        ops[f"sz_decompress_{predictor}"] = op_entry(
            time_op(lambda: codec.decompress(blob), repeats), field.size, field.nbytes
        )
    # Stage-level ops: the quantize/predict stages are the widest remaining
    # serial gap (ROADMAP), so track them in isolation — a future PR on
    # them must land measured against these entries.
    eb_abs = resolve_error_bound(field, 1e-3, "rel")
    ops["sz_quantize"] = op_entry(
        time_op(lambda: quantize(field, eb_abs), repeats), field.size, field.nbytes
    )
    lattice = quantize(field, eb_abs)
    ops["sz_predict"] = op_entry(
        time_op(lambda: lorenzo_forward(lattice), repeats), field.size, field.nbytes
    )
    # The lossless stage alone — the compressor's `lossless` span — on the
    # `sz_compress_interp` stream: its Huffman payload and code table (plus
    # the small block-offset section) through `_payload_sections`, the call
    # `_encode_symbols` makes.  MB/s is over the bytes the stage codes.
    codec = SZCompressor(SZConfig(predictor="interp"))
    symbols, outliers, tables = codec._prepare_symbols([field], [eb_abs], TimingRecord())
    encoded = encode_many(tables, symbols)
    ops["sz_lossless_interp"] = op_entry(
        time_op(lambda: codec._payload_sections(tables, encoded, outliers), repeats),
        field.size,
        len(encoded[0].payload) + tables.row_lengths(0).nbytes,
    )
    ops.update(_brick_ops(scale, repeats))
    ops.update(_brick64_ops(repeats))
    return ops


def _brick64_ops(repeats: int) -> dict:
    """``sz_compress_many_64``: the eight 64³ bricks of one 128³ field
    (views of it, as TAC hands over a GSP level's bricks) through one
    ``compress_many`` call.  A 64³ brick holds ``BATCH_VALUES`` values, so
    every brick is a batch of its own: the regime where a call's batches,
    not its members, are the unit of work.  The size is fixed at every
    ``--scale`` — a smaller brick is a different regime."""
    from repro.sim.nyx import generate_field
    from repro.sz import SZCompressor

    n, brick = 128, 64
    field = generate_field("baryon_density", n, seed=42)
    codec = SZCompressor()
    eb_abs = 1e-3 * float(field.max() - field.min())
    bricks = [
        field[x : x + brick, y : y + brick, z : z + brick]
        for x in range(0, n, brick)
        for y in range(0, n, brick)
        for z in range(0, n, brick)
    ]
    return {
        "sz_compress_many_64": op_entry(
            time_op(lambda: codec.compress_many(bricks, eb_abs, "abs"), repeats),
            field.size,
            field.nbytes,
        ),
    }


def stream_bytes_entry(blobs: list[bytes]) -> dict:
    """Mean bytes per SZ stream of ``blobs``, by what they hold: the Huffman
    payload, the header with its section table and meta record, the block
    offsets, the code lengths, the outliers.  Informational: no
    ``seconds``, so the ``--baseline`` gate skips it."""
    from repro.sz import stream
    from repro.sz.compressor import section_bytes

    names = ("payload", "header_table_meta", "block_offsets", "code_lengths", "outliers")
    parts = dict.fromkeys(names, 0)
    for blob in blobs:
        sizes = section_bytes(stream.parse(blob))
        parts["payload"] += sizes.get("payload", 0)
        parts["header_table_meta"] += sizes["framing"] + sizes.get("meta", 0)
        parts["block_offsets"] += sizes.get("block_offsets", 0)
        parts["code_lengths"] += sizes.get("huffman_table", 0)
        parts["outliers"] += sizes.get("outliers", 0)
    n = max(len(blobs), 1)
    return {
        "bytes_per_stream": {name: round(total / n, 1) for name, total in parts.items()},
        "n_streams": len(blobs),
        "n_bytes": sum(map(len, blobs)),
    }


def _brick_ops(scale: int, repeats: int) -> dict:
    """Many small streams: batched passes vs one call per stream.

    The bricked layouts (read service, ingest) store a level as hundreds
    of 16^3 SZ streams.  ``*_many_*`` runs them through ``compress_many``
    / ``decompress_many`` (one predict/entropy pass per batch),
    ``*_loop_*`` through one ``compress`` / ``decompress`` per stream —
    the same kernels as a batch of one, so each pair measures exactly what
    batching buys.  All run over every brick of the field (512 at scale 4,
    27 at smoke scale); decode also over 27 bricks, one cold ROI read's
    worth.  The bricks are non-contiguous views of the field, as TAC
    hands them over.  ``sz_compress_many_bricks_recon`` is the same batched
    encode with ``recon=`` destinations aliasing the sources (bricks of a
    copy of the field, as an ingest session's encoder passes them): what
    handing out the encoder's own reconstruction costs on top.
    ``sz_compress_many_bricks_pw_rel`` is the batched encode under a
    point-wise relative bound (eb 1e-2): each brick goes to log space on its
    own, then the bricks share the lattice passes.
    ``sz_compress_many_bricks_peak_mb`` is a memory row: the tracemalloc
    peak of the ``sz_compress_many_bricks`` call, at one and at two encode
    threads — the working set of the batches in flight.
    ``sz_brick_stream_bytes`` is a byte row (:func:`stream_bytes_entry`):
    what each stream of that call spends on its payload and on framing.
    ``huffman_decode_tables_bricks_27`` times the decode-table build of the
    27-brick pass alone (:func:`~repro.sz.huffman.decode_tables`).
    """
    from repro.sim.nyx import generate_field
    from repro.sz import SZCompressor

    n = max(512 // scale, 48)
    field = generate_field("baryon_density", n, seed=42)
    codec = SZCompressor()
    eb_abs = 1e-3 * float(field.max() - field.min())
    brick = 16

    def cut(grid):
        return [
            grid[x : x + brick, y : y + brick, z : z + brick]
            for x in range(0, n, brick)
            for y in range(0, n, brick)
            for z in range(0, n, brick)
        ]

    bricks = cut(field)

    def compress_loop():
        return [codec.compress(b, eb_abs, "abs") for b in bricks]

    blobs = compress_loop()
    assert codec.compress_many(bricks, eb_abs, "abs") == blobs
    for many, one in zip(codec.decompress_many(blobs[:27]), blobs[:27]):
        assert np.array_equal(many, codec.decompress(one))

    def decode_pair(suffix: str, subset: list) -> dict:
        n_values = len(subset) * brick**3
        return {
            f"sz_decompress_many_bricks{suffix}": op_entry(
                time_op(lambda: codec.decompress_many(subset), repeats),
                n_values,
                n_values * 4,
            ),
            f"sz_decompress_loop_bricks{suffix}": op_entry(
                time_op(lambda: [codec.decompress(blob) for blob in subset], repeats),
                n_values,
                n_values * 4,
            ),
        }

    scratch = field.copy()
    own = cut(scratch)

    def compress_recon():
        # Every run starts from the field again: the destinations are the
        # sources, so one run leaves its reconstruction behind in them.
        np.copyto(scratch, field)
        return codec.compress_many(own, eb_abs, "abs", recon=own)

    assert compress_recon() == blobs
    for rec, one in zip(own[:27], blobs[:27]):
        assert np.array_equal(rec, codec.decompress(one))

    # The decode tables of one cold ROI read's worth of bricks (the first
    # 27 streams, one lockstep pass), built from their code-length windows.
    from repro.sz import stream
    from repro.sz.huffman import decode_tables

    windows, max_lens = [], []
    for blob in blobs[:27]:
        parsed = stream.parse(blob)
        meta = stream.unpack_meta(parsed.section(stream.SEC_META)[1])
        section = parsed.section(stream.SEC_CODE_LENGTHS)
        windows.append(stream.unpack_code_lengths(section, 2 * meta["radius"] + 1))
        max_lens.append(meta["max_len"])
    tables = decode_tables(windows, max_lens)

    n_values = len(bricks) * brick**3
    return {
        "huffman_decode_tables_bricks_27": op_entry(
            time_op(lambda: decode_tables(windows, max_lens), max(repeats, 50)),
            tables.sym.size,
            tables.sym.nbytes + tables.len.nbytes,
        ),
        "sz_compress_many_bricks": op_entry(
            time_op(lambda: codec.compress_many(bricks, eb_abs, "abs"), repeats),
            n_values,
            n_values * 4,
        ),
        "sz_compress_many_bricks_recon": op_entry(
            time_op(compress_recon, repeats), n_values, n_values * 4
        ),
        "sz_compress_many_bricks_peak_mb": peak_entry(
            lambda: codec.compress_many(bricks, eb_abs, "abs"), n_values
        ),
        "sz_brick_stream_bytes": stream_bytes_entry(blobs),
        "sz_compress_many_bricks_pw_rel": op_entry(
            time_op(lambda: codec.compress_many(bricks, 1e-2, "pw_rel"), repeats),
            n_values,
            n_values * 4,
        ),
        "sz_compress_loop_bricks": op_entry(
            time_op(compress_loop, repeats), n_values, n_values * 4
        ),
        **decode_pair("", blobs),
        **decode_pair("_27", blobs[:27]),
    }


def _codec_ops(scale: int, repeats: int) -> dict:
    """Compress / decompress / preprocess per registered paper codec, on
    Run1_Z3; plus TAC on Run2_T2 (``*_sparse``: a finest level at 0.2 %
    density in OpST blocks over a dense GSP one), where a cost that follows
    the bounding grid instead of the stored blocks shows."""
    from repro.engine.registry import get_codec
    from repro.sim.datasets import make_dataset
    from repro.utils.timer import TimingRecord

    dataset = make_dataset("Run1_Z3", scale=scale)
    nbytes = dataset.original_bytes()
    n_values = dataset.total_points()
    ops = {}
    for name in ("tac", "1d", "zmesh", "3d"):
        codec = get_codec(name)
        ops[f"{name}_compress"] = op_entry(
            time_op(lambda: codec.compress(dataset, 1e-4, mode="rel"), repeats),
            n_values,
            nbytes,
        )
        comp = codec.compress(dataset, 1e-4, mode="rel")
        ops[f"{name}_decompress"] = op_entry(
            time_op(lambda: codec.decompress(comp), repeats), n_values, nbytes
        )
    # Pre-process share of a TAC compress (the paper's Fig. 13 quantity).
    record = TimingRecord()
    get_codec("tac").compress(dataset, 1e-4, mode="rel", timings=record)
    ops["tac_preprocess"] = op_entry(record.get("preprocess"), n_values, nbytes)
    sparse = make_dataset("Run2_T2", scale=scale)
    tac = get_codec("tac")
    comp = tac.compress(sparse, 1e-4, mode="rel")
    for op, fn in (
        ("tac_compress_sparse", lambda: tac.compress(sparse, 1e-4, mode="rel")),
        ("tac_decompress_sparse", lambda: tac.decompress(comp)),
    ):
        ops[op] = op_entry(
            time_op(fn, repeats), sparse.total_points(), sparse.original_bytes()
        )
    return ops


def _preprocess_ops(scale: int, repeats: int) -> dict:
    """The two pre-process calls of a TAC compress of Run1_Z3, in isolation:
    ``gsp_pad`` on the dense finest level (L0), ``opst_extract`` on the
    sparse coarse one (L1) — the paper's Fig. 13 quantity per strategy,
    with the arguments ``TACCompressor._preprocess`` passes (the level's
    own data and mask)."""
    from repro.core.gsp import gsp_pad
    from repro.core.opst import opst_extract
    from repro.core.tac import default_unit_block
    from repro.sim.datasets import make_dataset

    dense, sparse = make_dataset("Run1_Z3", scale=scale).levels[:2]
    ops = {}
    for name, fn, lvl in (("gsp_pad", gsp_pad, dense), ("opst_extract", opst_extract, sparse)):
        block = default_unit_block(lvl.n)
        ops[name] = op_entry(
            time_op(lambda: fn(lvl.data, lvl.mask, block), repeats),
            lvl.n_points(),
            lvl.n_points() * lvl.data.dtype.itemsize,
        )
    return ops


def _ingest_ops(scale: int, repeats: int) -> dict:
    """Streamed ingest hot paths: ``compress_iter`` and a delta session.

    ``tac_compress_iter`` drains the chunked compressor over the same
    dataset/bound as ``tac_compress``, so the two entries stay directly
    comparable (chunked presentation must not cost throughput).
    ``ingest_session_delta`` times a short end-to-end temporal-delta
    session — generate-free (the series is prebuilt), so the number is
    residual + compress (the encoder hands out the reconstruction the next
    residual needs; nothing is decoded) + accumulate + streamed shard write.
    ``ingest_session_delta_peak_mb`` is that session's tracemalloc peak, at
    one and at two encode threads (a memory row).
    """
    import shutil
    import tempfile

    from repro.core.tac import TACCompressor
    from repro.ingest import IngestConfig, IngestSession
    from repro.sim.datasets import make_dataset
    from repro.sim.timesteps import make_timestep_series

    dataset = make_dataset("Run1_Z3", scale=scale)
    nbytes = dataset.original_bytes()
    codec = TACCompressor()

    def drain_iter():
        for _chunk in codec.compress_iter(dataset, 1e-4, "rel"):
            pass

    steps = 3
    series = list(make_timestep_series("Run1_Z10", steps=steps, scale=scale))
    series_bytes = sum(ds.original_bytes() for ds in series)

    def delta_session():
        workdir = Path(tempfile.mkdtemp(prefix="ingest_bench_"))
        try:
            cfg = IngestConfig(error_bound=1e-4, mode="rel", keyframe_interval=steps)
            with IngestSession(workdir / "series.rpbt", cfg) as session:
                session.extend(series)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    return {
        "tac_compress_iter": op_entry(
            time_op(drain_iter, repeats), dataset.total_points(), nbytes
        ),
        "ingest_session_delta": op_entry(
            time_op(delta_session, repeats),
            sum(ds.total_points() for ds in series),
            series_bytes,
        ),
        "ingest_session_delta_peak_mb": peak_entry(
            delta_session, sum(ds.total_points() for ds in series)
        ),
    }


def _container_ops(scale: int, repeats: int) -> dict:
    """Container framing round trip on a many-part blob.

    A ``brick_size=16`` TAC blob of Run1_Z3 (518+ parts at scale 4) is
    where the part index, not the payload copy, is the framing cost:
    one ``to_bytes`` + ``from_bytes`` + ``LazyCompressedDataset.open``.
    """
    from repro.core.container import CompressedDataset, LazyCompressedDataset
    from repro.core.tac import TACCompressor
    from repro.sim.datasets import make_dataset

    dataset = make_dataset("Run1_Z3", scale=scale)
    comp = TACCompressor(brick_size=16).compress(dataset, 1e-4, "rel")

    def roundtrip():
        blob = comp.to_bytes()
        back = CompressedDataset.from_bytes(blob)
        with LazyCompressedDataset.open(blob) as lazy:
            assert len(lazy.parts) == len(back.parts)
        return blob

    blob = roundtrip()
    return {
        "container_roundtrip_bricked": op_entry(
            time_op(roundtrip, max(repeats, 10)), len(comp.parts), len(blob)
        ),
    }


class _PassThroughSource:
    """Forwards reads to a local source without declaring itself local, so
    the read service treats it like object storage (I/O-pool fetches)."""

    def __init__(self, inner):
        self._inner = inner
        self.label = inner.label

    def read_at(self, offset: int, length: int) -> bytes:
        return self._inner.read_at(offset, length)

    def close(self) -> None:
        self._inner.close()


def _serve_ops(scale: int, repeats: int) -> dict:
    """ROI reads through the read service.

    A ``brick_size=16`` ingest of Run1_Z3; one unaligned 32³ ROI of level 0
    touches 27 bricks.  The grid divisor is capped at 8, so that level 0
    (at least 64³) holds such an ROI at smoke scale too.

    Cold reads are timed from the ``ArchiveReader`` constructor to the data
    (the reader is closed outside the timed region): ``serve_cold_roi`` is
    a default reader over local shard files; ``serve_cold_roi_pool`` reads
    the same shards through a non-local pass-through opener, which fetches
    on the prefetch pipeline's I/O pool.  ``serve_chain_cold_roi`` is the
    same ROI of the last step of a 3-step delta chain (``read_region`` of
    its key) through a fresh default reader: three entries' bricks fetched
    and decoded, summed, assembled.
    ``serve_warm_roi`` is that chain read through one long-lived default
    reader, after an untimed read has filled its cache: every unit cached,
    no fetch and no decode.

    Each row is the median of at least 30 reads (``range_s`` holds the
    fastest and the slowest): a cold read's best-of-N is bimodal per
    process on a shared host.
    """
    import shutil
    import tempfile

    from repro.engine import default_shard_opener
    from repro.ingest import IngestConfig, IngestSession
    from repro.serve import ArchiveReader
    from repro.sim.datasets import make_dataset
    from repro.sim.timesteps import make_timestep_series

    scale = min(scale, 8)
    reads = max(repeats, 30)
    dataset = make_dataset("Run1_Z3", scale=scale)
    roi = ((17, 49), (31, 63), (1, 33))
    workdir = Path(tempfile.mkdtemp(prefix="serve_bench_"))
    try:
        cfg = IngestConfig(error_bound=1e-4, mode="rel", codec_options={"brick_size": 16})
        with IngestSession(workdir / "series.rpbt", cfg) as session:
            (key,) = session.extend([dataset])
        head = workdir / "series.rpbt"
        local = default_shard_opener(workdir)

        def cold_read(head, read, shard_opener=None) -> dict:
            readers = []

            def run():
                reader = ArchiveReader(head, shard_opener=shard_opener)
                readers.append(reader)
                return read(reader)

            try:
                nbytes = run().nbytes
                spread = time_spread(run, reads)
            finally:
                for reader in readers:
                    reader.close()
            return spread_entry(spread, nbytes // dataset.levels[0].data.itemsize, nbytes)

        rows = {
            "serve_cold_roi": cold_read(head, lambda reader: reader.read_region(key, 0, roi)[0]),
            "serve_cold_roi_pool": cold_read(
                head,
                lambda reader: reader.read_region(key, 0, roi)[0],
                lambda name: _PassThroughSource(local(name)),
            ),
        }
        chain_cfg = IngestConfig(
            error_bound=1e-4, mode="rel", keyframe_interval=3, codec_options={"brick_size": 16}
        )
        chain_head = workdir / "chain.rpbt"
        with IngestSession(chain_head, chain_cfg) as session:
            *_, last = session.extend(make_timestep_series("Run1_Z3", steps=3, scale=scale))

        def chain_read(reader):
            return reader.read_region(last, 0, roi)[0]

        rows["serve_chain_cold_roi"] = cold_read(chain_head, chain_read)
        with ArchiveReader(chain_head) as reader:
            nbytes = chain_read(reader).nbytes
            rows["serve_warm_roi"] = spread_entry(
                time_spread(lambda: chain_read(reader), reads),
                nbytes // dataset.levels[0].data.itemsize,
                nbytes,
            )
        return rows
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


OP_GROUPS = {
    "huffman": _huffman_ops,
    "blocks": _blocks_ops,
    "sz": _sz_ops,
    "codecs": _codec_ops,
    "preprocess": _preprocess_ops,
    "ingest": _ingest_ops,
    "container": _container_ops,
    "serve": _serve_ops,
}


#: Op names each group can emit, for ``--ops`` selection without running
#: the group first (codecs additionally has dynamic per-codec names).
GROUP_OPS = {
    "huffman": (
        "huffman_encode",
        "huffman_decode",
        "huffman_decode_ragged",
        "huffman_table_build",
        "huffman_code_lengths",
        "huffman_code_lengths_skewed",
        "huffman_code_tables_bricks",
        "huffman_code_tables_bricks_loop",
        "huffman_pack_bricks",
        "huffman_decode_chunked_window",
    ),
    "blocks": ("gather_blocks", "scatter_blocks", "block_counts"),
    "sz": tuple(f"sz_{op}_{p}" for op in ("compress", "decompress") for p in ("interp", "lorenzo"))
    + ("sz_quantize", "sz_predict", "sz_lossless_interp")
    + tuple(f"sz_compress_{how}_bricks" for how in ("many", "loop"))
    + ("sz_compress_many_bricks_recon", "sz_compress_many_bricks_pw_rel", "sz_compress_many_64")
    + ("sz_compress_many_bricks_peak_mb", "sz_brick_stream_bytes")
    + ("huffman_decode_tables_bricks_27",)
    + tuple(
        f"sz_decompress_{how}_bricks{suffix}" for how in ("many", "loop") for suffix in ("", "_27")
    ),
    "codecs": tuple(
        f"{c}_{op}" for c in ("tac", "1d", "zmesh", "3d") for op in ("compress", "decompress")
    ) + (
        "tac_preprocess",
        "tac_compress_sparse",
        "tac_decompress_sparse",
    ),
    "preprocess": ("gsp_pad", "opst_extract"),
    "ingest": ("tac_compress_iter", "ingest_session_delta", "ingest_session_delta_peak_mb"),
    "container": ("container_roundtrip_bricked",),
    "serve": ("serve_cold_roi", "serve_cold_roi_pool", "serve_chain_cold_roi", "serve_warm_roi"),
}


def run_suite(scale: int = 4, repeats: int = 3, ops: set[str] | None = None) -> dict:
    """Time every (selected) op group at the pinned scale.

    ``ops`` may name groups (``huffman``) or individual ops
    (``tac_compress``).  Selection is *group-granular*: naming any op runs
    that op's whole group (group setup dominates the cost anyway) and then
    records only the selected entries; groups with no selected op are
    never executed.
    """
    if ops is not None:
        known = set(OP_GROUPS) | {op for names in GROUP_OPS.values() for op in names}
        unknown = ops - known
        if unknown:
            raise ValueError(
                f"unknown ops {sorted(unknown)}; choose groups {sorted(OP_GROUPS)} "
                f"or ops {sorted(known - set(OP_GROUPS))}"
            )
    results: dict = {}
    for group, runner in OP_GROUPS.items():
        if ops is not None and group not in ops and not (ops & set(GROUP_OPS[group])):
            continue
        group_results = runner(scale, repeats)
        if ops is not None:
            group_results = {
                op: entry
                for op, entry in group_results.items()
                if op in ops or group in ops
            }
        results.update(group_results)
    return results


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time SZ/TAC hot paths and maintain BENCH_hotpaths.json"
    )
    parser.add_argument("--scale", type=int, default=4, help="grid divisor (power of two)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats per op")
    parser.add_argument(
        "--ops", default=None,
        help="comma-separated op or group names to run (default: all; "
             "group-granular — naming an op runs its whole group, records "
             "only the selection)",
    )
    parser.add_argument(
        "-o", "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"trajectory JSON to merge into (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="reference JSON; fail when any shared op regresses past --max-slowdown",
    )
    parser.add_argument(
        "--max-slowdown", type=float, default=2.0,
        help="allowed seconds ratio vs baseline (default 2.0 — runner jitter headroom)",
    )
    parser.add_argument(
        "--min-delta", type=float, default=0.005,
        help="absolute slack in seconds on top of the ratio (shields tiny "
             "smoke-scale ops and cross-machine speed differences)",
    )
    args = parser.parse_args(argv)

    wanted = {op for op in args.ops.split(",") if op} if args.ops else None
    try:
        results = run_suite(scale=args.scale, repeats=args.repeats, ops=wanted)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not results:
        print("error: --ops selected nothing to run", file=sys.stderr)
        return 2
    path = merge_write(results, args.output, scale=args.scale, repeats=args.repeats)
    width = max(len(op) for op in results)
    for op, entry in sorted(results.items()):
        if "peak_mb" in entry:
            peaks = ", ".join(f"{mb} MB at {t}" for t, mb in entry["peak_mb"].items())
            print(f"{op:<{width}}  peak {peaks}")
            continue
        if "bytes_per_stream" in entry:
            parts = ", ".join(f"{name} {b}" for name, b in entry["bytes_per_stream"].items())
            print(f"{op:<{width}}  B/stream: {parts}")
            continue
        rate = f"{entry['mb_per_s']:>10.1f} MB/s" if entry["mb_per_s"] else " " * 15
        spread = " [{:.6f}-{:.6f}s]".format(*entry["range_s"]) if "range_s" in entry else ""
        print(f"{op:<{width}}  {entry['seconds']:>10.6f}s {rate}{spread}")
    print(f"wrote {path} ({len(results)} ops)")

    if args.baseline is not None:
        baseline = json.loads(Path(args.baseline).read_text())
        failures = compare_to_baseline(
            results, baseline, args.max_slowdown, min_delta=args.min_delta
        )
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"baseline check ok (max allowed slowdown {args.max_slowdown}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
