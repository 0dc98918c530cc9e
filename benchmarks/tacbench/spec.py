"""Declarative description of tacbench: workloads, metrics and span targets.

``BENCHMARK.json`` at the repository root is exactly
:func:`benchmark_json` (``python3 benchmarks/tacbench/spec.py`` prints it;
``test_tacbench.py`` checks the two agree).  The driver contract fixes the
keys of that file, so the owning layer and the "should move" sentence of
every metric live in README.md, not there.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "benchmarks/tacbench/run.py"]
PATHS = ["benchmarks/tacbench"]
RUN_SECONDS = 8

#: name -> why it exists (one line, <= 200 characters).
WORKLOADS = {
    "snap_dense": (
        "Run1_Z3 scale 4 (L0 64% dense GSP, L1 OpST), compress/decompress round trips: "
        "the paper's Table 2 / Fig. 13 case, pre-process is about half of compress, 14 SZ streams"
    ),
    "snap_sparse": (
        "Run2_T2 scale 1 (256^3 level at 0.2% OpST + one dense 128^3 GSP stream): same code, "
        "other regime, sz dominates; a pre-process change tuned for dense levels shows here"
    ),
    "ingest_series": (
        "3-step Run1_Z3 series through IngestSession with 16^3 bricks and delta chain: 518 small "
        "SZ streams per step, closed-loop decode, shard write; read-backs by fresh readers"
    ),
    "roi_cold": (
        "34 unaligned 32^3 ROIs, each through a fresh ArchiveReader: decoded-brick cache bypassed, "
        "so open, plan, fetch and per-brick sz decode do all the work"
    ),
    "roi_warm": (
        "24 ROIs on a 3-long delta chain through one long-lived reader with everything cached: "
        "hit rate ~1, only cache lookup, assemble and chain accumulate work; sz changes must not move it"
    ),
}

#: (name, unit, better, bound).  Every workload writes compressed bytes and
#: reads them back, so every metric is measured on every workload; README.md
#: maps them onto the paper's axes (compress/decompress MB/s, ROI latency).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("write_mb_s", "MB/s", "higher", 0.20),
    ("read_ms_p50", "ms", "lower", 0.20),
    ("compression_ratio", "x", "higher", 0.03),
    ("psnr_db", "dB", "higher", 0.001),
    ("peak_alloc_mb", "MB", "lower", 0.05),
]

#: (name, unit, better).  Computed in layers.py from the traced pass.
PER_LAYER = [
    ("sim.generate_s", "s", "lower"),
    ("amr.masked_data.busy_ms", "ms", "lower"),
    ("core.strategy.gsp_levels", "count", "lower"),
    ("core.strategy.opst_levels", "count", "lower"),
    ("core.strategy.akdtree_levels", "count", "lower"),
    ("core.pad_cells_ratio", "ratio", "lower"),
    ("core.blocks.extracted", "count", "lower"),
    ("core.preprocess.busy_ms", "ms", "lower"),
    ("core.preprocess.share", "share", "lower"),
    ("core.gsp_pad.busy_ms", "ms", "lower"),
    ("core.opst_extract.busy_ms", "ms", "lower"),
    ("core.akdtree_extract.busy_ms", "ms", "lower"),
    ("core.pack_mask.busy_ms", "ms", "lower"),
    ("sz.compress.busy_ms", "ms", "lower"),
    ("sz.compress.calls", "count", "lower"),
    ("sz.values_per_stream_p50", "count", "higher"),
    ("sz.predict.busy_ms", "ms", "lower"),
    ("sz.quantize.busy_ms", "ms", "lower"),
    ("sz.entropy_encode.busy_ms", "ms", "lower"),
    ("sz.lossless.busy_ms", "ms", "lower"),
    ("sz.table_bytes_share", "share", "lower"),
    ("sz.outlier_share", "share", "lower"),
    ("sz.decompress.busy_ms", "ms", "lower"),
    ("sz.decompress.calls", "count", "lower"),
    ("sz.entropy_decode.busy_ms", "ms", "lower"),
    ("sz.reconstruct.busy_ms", "ms", "lower"),
    ("sz.decode_table_cache.hit_rate", "share", "higher"),
    ("core.postprocess.busy_ms", "ms", "lower"),
    ("core.plan.busy_ms", "ms", "lower"),
    ("core.plan.units", "count", "lower"),
    ("core.container.to_bytes.busy_ms", "ms", "lower"),
    ("core.container.from_bytes.busy_ms", "ms", "lower"),
    ("core.container.parts", "count", "lower"),
    ("core.container.index_bytes_share", "share", "lower"),
    ("engine.archive.write.busy_ms", "ms", "lower"),
    ("engine.archive.bytes_written", "bytes", "lower"),
    ("engine.archive.shards", "count", "lower"),
    ("engine.archive.open.busy_ms", "ms", "lower"),
    ("ingest.submit_keyframe.busy_ms", "ms", "lower"),
    ("ingest.submit_delta.busy_ms", "ms", "lower"),
    ("ingest.close.busy_ms", "ms", "lower"),
    ("ingest.residual.busy_ms", "ms", "lower"),
    ("ingest.accumulate.busy_ms", "ms", "lower"),
    ("ingest.closed_loop_decode.busy_ms", "ms", "lower"),
    ("ingest.delta_bytes_share", "share", "lower"),
    ("ingest.chain_len", "count", "lower"),
    ("serve.open.busy_ms", "ms", "lower"),
    ("serve.close.busy_ms", "ms", "lower"),
    ("serve.fetch.busy_ms", "ms", "lower"),
    ("serve.fetch.reads", "count", "lower"),
    ("serve.fetch.bytes", "bytes", "lower"),
    ("serve.fetch.retries", "count", "lower"),
    ("serve.parts_per_read", "ratio", "higher"),
    ("serve.read_amplification", "ratio", "lower"),
    ("serve.bricks_decoded", "count", "lower"),
    ("serve.cache.hit_rate", "share", "higher"),
    ("serve.cache.evictions", "count", "lower"),
    ("serve.cache.bytes", "bytes", "lower"),
    ("serve.chain_cold_ms_p50", "ms", "lower"),
    ("op.read.ms_p90", "ms", "lower"),
    ("compress.unattributed_share", "share", "lower"),
    ("decompress.unattributed_share", "share", "lower"),
    ("ingest.unattributed_share", "share", "lower"),
    ("serve.request.unattributed_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("calib.drift_share", "share", "lower"),
]

#: (span name, "module:qualname", envelope).  Resolved lazily, in the traced
#: pass only.  Functions that ``repro.core.tac`` / ``repro.ingest.session``
#: import by name are patched where the call site looks them up.  An
#: *envelope* only dispatches to other traced layers: its self time is what
#: the ``*.unattributed_*`` metrics report.
SPANS = [
    ("amr.masked_data", "repro.amr.hierarchy:AMRLevel.masked_data", False),
    ("core.compress", "repro.core.tac:TACCompressor.compress", True),
    ("core.compress_iter", "repro.core.container:StreamingCompression.__next__", True),
    ("core.select_strategy", "repro.core.tac:select_strategy", False),
    ("core.gsp_pad", "repro.core.tac:gsp_pad", False),
    ("core.opst_extract", "repro.core.tac:opst_extract", False),
    ("core.akdtree_extract", "repro.core.tac:akdtree_extract", False),
    ("core.pack_mask", "repro.core.tac:pack_mask", False),
    ("sz.compress", "repro.sz.compressor:SZCompressor.compress_with_stats", False),
    ("sz.decompress", "repro.sz.compressor:SZCompressor.decompress", False),
    ("core.decompress", "repro.core.tac:TACCompressor.decompress", True),
    ("core.plan", "repro.core.tac:TACCompressor.build_decode_plan", False),
    ("core.container.to_bytes", "repro.core.container:CompressedDataset.to_bytes", False),
    ("core.container.from_bytes", "repro.core.container:CompressedDataset.from_bytes", False),
    ("engine.archive.write", "repro.engine.archive:ShardedArchiveWriter.add_entry_stream", False),
    ("engine.archive.close", "repro.engine.archive:ShardedArchiveWriter.close", False),
    ("engine.archive.open", "repro.engine.archive:LazyBatchArchive.open", False),
    ("ingest.submit", "repro.ingest.session:IngestSession.submit", True),
    ("ingest.close", "repro.ingest.session:IngestSession.close", True),
    ("ingest.residual", "repro.ingest.session:residual_dataset", False),
    ("ingest.accumulate", "repro.ingest.session:accumulate", False),
    ("ingest.closed_loop_decode", "repro.core.tac:TACCompressor.decompress_levels", True),
    ("serve.open", "repro.serve.reader:ArchiveReader.__init__", False),
    ("serve.close", "repro.serve.reader:ArchiveReader.close", False),
    ("serve.read_region", "repro.serve.reader:ArchiveReader.read_region", True),
    ("serve.fetch", "repro.serve.opener:RetryingSource.read_at", False),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
