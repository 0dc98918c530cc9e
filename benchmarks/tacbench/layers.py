"""Per-layer metrics of one traced pass.

:data:`HOOKS` attaches counts to the spans of :data:`spec.SPANS` from the
arguments and return values of the wrapped public callables;
:func:`derive` turns the recorded spans into every metric of
:data:`spec.PER_LAYER`.

``busy_ms`` is the summed time of a layer's spans per operation of the
kind it serves (``write``: compress / ingest session, ``read``: decompress /
ROI read), so with the reader's thread pools it may exceed the operation's
wall time.  Where a layer span nests other traced layers
(``engine.archive.write`` drives the streaming encoder, ``serve.open`` opens
the archive) its *self* time is reported.  A metric whose span target no
longer resolves is ``None``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracing import self_seconds, unattributed_seconds


# -- hooks: hook(args, kwargs) -> finish(result) -> attrs ---------------------

def _sz_compress(args, kwargs):
    def finish(out):
        blob, stats = out
        spans = stats.timings.spans
        return {
            "n_values": stats.n_values,
            "nbytes": len(blob),
            "table_bytes": stats.section_bytes.get("huffman_table", 0),
            "outliers": stats.n_outliers,
            "predict": spans.get("predict", 0.0),
            "quantize": spans.get("quantize", 0.0),
            "encode": spans.get("encode", 0.0),
            "lossless": spans.get("lossless", 0.0),
        }

    return finish


def _sz_decompress(args, kwargs):
    # decompress(self, blob, timings=None, ...): pass a record of our own
    # when the caller gave none, to read the stage times afterwards.
    record = kwargs.get("timings") if len(args) < 3 else args[2]
    if record is None and len(args) < 3:
        from repro.utils.timer import TimingRecord

        record = kwargs["timings"] = TimingRecord()

    def finish(_out):
        spans = record.spans if record is not None else {}
        return {"decode": spans.get("decode", 0.0), "reconstruct": spans.get("reconstruct", 0.0)}

    return finish


def _preprocess(args, kwargs):
    mask = args[1]

    def finish(out):
        padded = getattr(out, "padded", None)
        return {
            "cells": int(padded.size if padded is not None else out.total_cells()),
            "valid": int(np.count_nonzero(mask)),
            "blocks": 0 if padded is not None else out.n_blocks(),
        }

    return finish


def _to_bytes(args, kwargs):
    comp = args[0]

    def finish(blob):
        payload = sum(len(part) for part in comp.parts.values())
        return {"nbytes": len(blob), "parts": len(comp.parts), "index_bytes": len(blob) - payload}

    return finish


def _read_region(args, kwargs):
    reader = args[0]
    fetch = reader.fetch_stats.snapshot()
    evictions = reader.cache.evictions if reader.cache is not None else 0

    def finish(out):
        _data, stats = out
        after = reader.fetch_stats.snapshot()
        return {
            "bytes_fetched": stats.bytes_fetched,
            "bytes_served": stats.bytes_served,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "cache_lookups": stats.cache_hits + stats.cache_misses,
            "parts": stats.n_parts_fetched,
            "fetches": stats.n_fetches,
            "retries": after["read_retries"] + after["open_retries"]
            - fetch["read_retries"] - fetch["open_retries"],
            "evictions": (reader.cache.evictions if reader.cache is not None else 0) - evictions,
            "cache_bytes": reader.cache.current_bytes if reader.cache is not None else 0,
        }

    return finish


HOOKS = {
    "sz.compress": _sz_compress,
    "sz.decompress": _sz_decompress,
    "core.gsp_pad": _preprocess,
    "core.opst_extract": _preprocess,
    "core.akdtree_extract": _preprocess,
    "core.select_strategy": lambda args, kwargs: lambda out: {"strategy": out.value},
    "core.plan": lambda args, kwargs: lambda out: {"units": len(out.units)},
    "core.container.to_bytes": _to_bytes,
    "serve.read_region": _read_region,
    "serve.fetch": lambda args, kwargs: lambda out: {"nbytes": len(out)},
}

PREPROCESS = ("core.gsp_pad", "core.opst_extract", "core.akdtree_extract")


def derive(spans, missing, envelopes, n_ops, counters, keyframe_interval=3) -> dict:
    """Every per-layer metric from the traced pass.

    ``n_ops`` counts the traced operations per kind; ``counters`` carries
    what only the runner can see (set-up times, overhead, drift, ...).
    """
    roots = {s.id: s for s in spans if s.parent is None and s.name.startswith("op.")}
    by = defaultdict(list)  # (span name, kind of the request it ran in)
    in_request = defaultdict(list)
    for s in spans:
        root = roots.get(s.request)
        by[s.name, root.name[3:] if root else None].append(s)
        if root is not None:
            in_request[root.id].append(s)
    # Span times are brought to reference speed with the scale the runner
    # measured around their request (see run.SpeedProbe).
    scale = {root.id: root.attrs.get("scale", 1.0) for root in roots.values()}

    def dur(s):
        return s.seconds * scale.get(s.request, 1.0)

    own_raw = self_seconds(spans)
    own = {s.id: own_raw[s.id] * scale.get(s.request, 1.0) for s in spans}

    def per_op(total, kind):
        return total / n_ops[kind] if n_ops.get(kind) else 0.0

    def guarded(fn, *names):
        """``fn()`` unless one of the spans it reads could not be traced."""
        return None if any(name in missing for name in names) else fn()

    def busy(name, kind, self_time=False):
        seconds = (lambda s: own[s.id]) if self_time else dur
        return guarded(lambda: 1e3 * per_op(sum(map(seconds, by[name, kind])), kind), name)

    def total(name, kind, key):
        return sum(s.attrs.get(key, 0) for s in by[name, kind])

    def attr_ms(name, kind, key):
        """A stage time the program itself recorded inside span ``name``."""
        seconds = sum(
            s.attrs.get(key, 0.0) * scale.get(s.request, 1.0) for s in by[name, kind]
        )
        return guarded(lambda: 1e3 * per_op(seconds, kind), name)

    def ratio(num, den):
        return num / den if den else 0.0

    def strategy_levels(value):
        picked = [s for s in by["core.select_strategy", "write"] if s.attrs.get("strategy") == value]
        return guarded(lambda: per_op(len(picked), "write"), "core.select_strategy")

    def pre(key):
        return sum(total(name, "write", key) for name in PREPROCESS)

    def unattributed(kind, marker, present):
        """(unattributed seconds, wall seconds, requests) over the ``kind``
        requests that do (``present``) or do not contain a ``marker`` span."""
        lost = wall = 0.0
        count = 0
        for root in by[f"op.{kind}", kind]:
            inside = in_request[root.id]
            if any(s.name == marker for s in inside) == present:
                lost += unattributed_seconds(root, inside, envelopes) * scale[root.id]
                wall += dur(root)
                count += 1
        return lost, wall, count

    def calls(name, kind):
        return guarded(lambda: per_op(len(by[name, kind]), kind), name)

    def per_read(key):
        """A ``RequestStats`` count, per read operation."""
        return guarded(
            lambda: per_op(total("serve.read_region", "read", key), "read"),
            "serve.read_region",
        )

    def read_ratio(num, den):
        return guarded(
            lambda: ratio(total("serve.read_region", "read", num),
                          total("serve.read_region", "read", den)),
            "serve.read_region",
        )

    def submit_ms(want_keyframe):
        seconds = 0.0
        for root in by["op.write", "write"]:
            submits = sorted(
                (s for s in in_request[root.id] if s.name == "ingest.submit"),
                key=lambda s: s.start,
            )
            seconds += sum(
                dur(s) for i, s in enumerate(submits)
                if (i % keyframe_interval == 0) == want_keyframe
            )
        return guarded(lambda: 1e3 * per_op(seconds, "write"), "ingest.submit")

    preprocess_ms = guarded(
        lambda: sum(busy(name, "write") for name in PREPROCESS), *PREPROCESS
    )
    write_wall = sum(dur(s) for s in by["op.write", "write"])
    sz_values = [s.attrs.get("n_values", 0) for s in by["sz.compress", "write"]]
    closes = [s for (name, _kind), group in by.items() if name == "serve.close" for s in group]
    reads = by["serve.read_region", "read"]
    compress_lost, compress_wall, _n = unattributed("write", "ingest.submit", False)
    ingest_lost, ingest_wall, _n = unattributed("write", "ingest.submit", True)
    decompress_lost, decompress_wall, _n = unattributed("read", "serve.read_region", False)
    serve_lost, _wall, n_serve = unattributed("read", "serve.read_region", True)

    return {
        "sim.generate_s": counters["sim_s"],
        "amr.masked_data.busy_ms": busy("amr.masked_data", "write"),
        "core.strategy.gsp_levels": strategy_levels("gsp"),
        "core.strategy.opst_levels": strategy_levels("opst"),
        "core.strategy.akdtree_levels": strategy_levels("akdtree"),
        "core.pad_cells_ratio": guarded(lambda: ratio(pre("cells"), pre("valid")), *PREPROCESS),
        "core.blocks.extracted": guarded(lambda: per_op(pre("blocks"), "write"), *PREPROCESS),
        "core.preprocess.busy_ms": preprocess_ms,
        "core.preprocess.share": guarded(
            lambda: ratio(preprocess_ms * n_ops.get("write", 0), 1e3 * write_wall), *PREPROCESS
        ),
        "core.gsp_pad.busy_ms": busy("core.gsp_pad", "write"),
        "core.opst_extract.busy_ms": busy("core.opst_extract", "write"),
        "core.akdtree_extract.busy_ms": busy("core.akdtree_extract", "write"),
        "core.pack_mask.busy_ms": busy("core.pack_mask", "write"),
        "sz.compress.busy_ms": busy("sz.compress", "write"),
        "sz.compress.calls": calls("sz.compress", "write"),
        "sz.values_per_stream_p50": guarded(
            lambda: statistics.median(sz_values) if sz_values else 0.0, "sz.compress"
        ),
        "sz.predict.busy_ms": attr_ms("sz.compress", "write", "predict"),
        "sz.quantize.busy_ms": attr_ms("sz.compress", "write", "quantize"),
        "sz.entropy_encode.busy_ms": attr_ms("sz.compress", "write", "encode"),
        "sz.lossless.busy_ms": attr_ms("sz.compress", "write", "lossless"),
        "sz.table_bytes_share": guarded(
            lambda: ratio(total("sz.compress", "write", "table_bytes"),
                          total("sz.compress", "write", "nbytes")),
            "sz.compress",
        ),
        "sz.outlier_share": guarded(
            lambda: ratio(total("sz.compress", "write", "outliers"), sum(sz_values)),
            "sz.compress",
        ),
        "sz.decompress.busy_ms": busy("sz.decompress", "read"),
        "sz.decompress.calls": calls("sz.decompress", "read"),
        "sz.entropy_decode.busy_ms": attr_ms("sz.decompress", "read", "decode"),
        "sz.reconstruct.busy_ms": attr_ms("sz.decompress", "read", "reconstruct"),
        "sz.decode_table_cache.hit_rate": counters.get("decode_table_hit_rate"),
        "core.postprocess.busy_ms": 1e3 * per_op(counters.get("postprocess_s", 0.0), "read"),
        "core.plan.busy_ms": busy("core.plan", "read"),
        "core.plan.units": guarded(lambda: per_op(total("core.plan", "read", "units"), "read"),
                                   "core.plan"),
        "core.container.to_bytes.busy_ms": busy("core.container.to_bytes", "write"),
        "core.container.from_bytes.busy_ms": busy("core.container.from_bytes", "read"),
        "core.container.parts": guarded(
            lambda: ratio(total("core.container.to_bytes", "write", "parts"),
                          len(by["core.container.to_bytes", "write"])),
            "core.container.to_bytes",
        ),
        "core.container.index_bytes_share": guarded(
            lambda: ratio(total("core.container.to_bytes", "write", "index_bytes"),
                          total("core.container.to_bytes", "write", "nbytes")),
            "core.container.to_bytes",
        ),
        "engine.archive.write.busy_ms": guarded(
            lambda: busy("engine.archive.write", "write", self_time=True)
            + busy("engine.archive.close", "write", self_time=True),
            "engine.archive.write", "engine.archive.close",
        ),
        "engine.archive.bytes_written": counters.get("archive_bytes", 0),
        "engine.archive.shards": counters.get("archive_shards", 0),
        "engine.archive.open.busy_ms": busy("engine.archive.open", "read"),
        "ingest.submit_keyframe.busy_ms": submit_ms(True),
        "ingest.submit_delta.busy_ms": submit_ms(False),
        "ingest.close.busy_ms": busy("ingest.close", "write"),
        "ingest.residual.busy_ms": busy("ingest.residual", "write"),
        "ingest.accumulate.busy_ms": busy("ingest.accumulate", "write"),
        "ingest.closed_loop_decode.busy_ms": busy("ingest.closed_loop_decode", "write"),
        "ingest.delta_bytes_share": counters.get("delta_bytes_share", 0.0),
        "ingest.chain_len": counters.get("chain_len", 0),
        "serve.open.busy_ms": busy("serve.open", "read", self_time=True),
        "serve.close.busy_ms": guarded(
            lambda: 1e3 * per_op(sum(map(dur, closes)), "read"), "serve.close"
        ),
        "serve.fetch.busy_ms": busy("serve.fetch", "read"),
        "serve.fetch.reads": calls("serve.fetch", "read"),
        "serve.fetch.bytes": guarded(
            lambda: per_op(total("serve.fetch", "read", "nbytes"), "read"), "serve.fetch"
        ),
        "serve.fetch.retries": per_read("retries"),
        "serve.parts_per_read": read_ratio("parts", "fetches"),
        "serve.read_amplification": read_ratio("bytes_fetched", "bytes_served"),
        "serve.bricks_decoded": per_read("cache_misses"),
        "serve.cache.hit_rate": read_ratio("cache_hits", "cache_lookups"),
        "serve.cache.evictions": guarded(
            lambda: total("serve.read_region", "read", "evictions"), "serve.read_region"
        ),
        "serve.cache.bytes": guarded(
            lambda: max((s.attrs.get("cache_bytes", 0) for s in reads), default=0), "serve.read_region"
        ),
        "serve.chain_cold_ms_p50": counters.get("chain_cold_ms_p50", 0.0),
        "op.read.ms_p90": (
            1e3 * float(np.percentile([dur(s) for s in by["op.read", "read"]], 90))
            if by["op.read", "read"] else 0.0
        ),
        "compress.unattributed_share": ratio(compress_lost, compress_wall),
        "decompress.unattributed_share": ratio(decompress_lost, decompress_wall),
        "ingest.unattributed_share": ratio(ingest_lost, ingest_wall),
        "serve.request.unattributed_ms": 1e3 * ratio(serve_lost, n_serve),
        "trace.overhead_share": counters["trace_overhead_share"],
        "calib.drift_share": counters.get("calib_drift_share"),  # set at the end of the run
    }
