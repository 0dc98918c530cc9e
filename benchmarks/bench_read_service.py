"""Read-service benchmark: concurrent overlapping ROIs through ArchiveReader.

The CI gate for the serving layer: compress a dataset into a sharded
archive, then drive N request threads over a pool of overlapping ROIs
through :class:`repro.serve.ArchiveReader` and assert the properties the
layer exists for:

* **correctness** — every served ROI is bit-identical to a direct
  ``decompress_region`` on the same blob;
* **cache reuse** — overlapping ROIs hit the decoded-brick LRU
  (hit rate > 0) and warm p50 latency beats cold p50;
* **partial reads** — total bytes fetched stay below the archive's
  stored payload bytes (nobody downloaded the archive to serve ROIs);
* **coalescing** — cold requests issue fewer ranged reads than the
  number of parts they fetch;
* **overlap** — against a throttled (slow-I/O) opener, brick decode
  starts while later fetch windows are still in flight.

Per-request and aggregate stats land in
``benchmarks/results/read_service_stats.json`` (uploaded as a CI
artifact); cold/warm ROI latencies join ``BENCH_hotpaths.json`` as
``read_service_cold_roi`` / ``read_service_warm_roi``.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import SCALE
from benchmarks.perf_harness import merge_write, op_entry
from repro.core.tac import TACCompressor
from repro.engine import ShardedArchiveWriter, default_shard_opener
from repro.serve import ArchiveReader, prefetch
from repro.sim.datasets import make_dataset

#: Brick edge: small enough that smoke-scale levels still split into
#: several bricks per dimension (matches bench_brick_roi).
BRICK_SIZE = 8

#: Request threads and how many times the ROI pool is replayed.
THREADS = 4
REPLAYS = 3


class _ThrottledSource:
    """Byte source with a fixed per-read delay (object storage stand-in)."""

    def __init__(self, src, delay: float):
        self._src = src
        self._delay = delay
        self.label = getattr(src, "label", "<throttled>")

    def read_at(self, offset: int, length: int) -> bytes:
        time.sleep(self._delay)
        return self._src.read_at(offset, length)

    def close(self) -> None:
        self._src.close()


def bench_read_service_overlapping_rois(benchmark, results_dir, monkeypatch):
    dataset = make_dataset("Run1_Z10", scale=SCALE, field="baryon_density")
    tac = TACCompressor(brick_size=BRICK_SIZE)
    comp = tac.compress(dataset, 1e-4, mode="rel")
    brick_levels = [
        m["level"] for m in comp.meta["levels"] if m.get("bricks") is not None
    ]
    assert brick_levels, "benchmark premise: at least one brick-chunked level"
    level = brick_levels[0]
    shape = tuple(comp.meta["shapes"][level])

    with tempfile.TemporaryDirectory() as tmp:
        head = Path(tmp) / "service.rpbt"
        with ShardedArchiveWriter(head, shard_size=256 * 1024) as writer:
            writer.add_entry("bench/rho/tac", comp)
        stored_bytes = writer.report.payload_bytes

        # Overlapping ROI pool: half-edge windows anchored at staggered
        # origins, so neighbouring ROIs share bricks.
        edge = max(BRICK_SIZE, shape[0] // 2)
        origins = [0, shape[0] // 4, shape[0] // 2]
        pool = []
        for ox in origins:
            for oy in origins[:2]:
                lo = (min(ox, shape[0] - edge), min(oy, shape[1] - edge), 0)
                pool.append(
                    ("bench/rho/tac", level, tuple((o, o + edge) for o in lo))
                )
        requests = pool * REPLAYS

        def serve_all():
            reader = ArchiveReader(head, request_workers=THREADS)
            results = reader.read_many(requests)
            return reader, results

        reader, results = benchmark.pedantic(serve_all, rounds=1, iterations=1)
        try:
            aggregate = reader.stats()

            # Correctness: spot-check every distinct ROI against direct decode.
            for _key, lvl, roi in pool:
                expected = tac.decompress_region(comp, lvl, roi)
                for (data, _req), (_k, _l, r) in zip(results, requests):
                    if r == roi:
                        np.testing.assert_array_equal(data, expected)
                        break

            first_pass = [req for _data, req in results[: len(pool)]]
            later_pass = [req for _data, req in results[len(pool):]]
            cold_p50 = statistics.median(r.seconds for r in first_pass)
            warm_p50 = statistics.median(r.seconds for r in later_pass)
            latencies = sorted(r.seconds for _d, r in results)
            p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]

            cache = aggregate["cache"]
            assert cache["hit_rate"] > 0, (
                "overlapping ROIs produced zero decoded-brick cache hits"
            )
            assert warm_p50 < cold_p50, (
                f"repeat reads must beat cold reads "
                f"(warm p50 {warm_p50:.6f}s vs cold p50 {cold_p50:.6f}s)"
            )
            assert aggregate["bytes_fetched"] < stored_bytes, (
                f"served ROIs fetched {aggregate['bytes_fetched']} bytes but the "
                f"archive stores only {stored_bytes}: partial reads regressed"
            )
            multi_part = [r for r in first_pass if r.n_parts_fetched > 1]
            assert multi_part, "premise: cold ROIs span several brick parts"
            assert all(r.n_fetches < r.n_parts_fetched for r in multi_part), (
                "range coalescing regressed: as many ranged reads as parts"
            )
        finally:
            reader.close()

        # Overlap demonstration: slow I/O, cache off, per-part windows
        # (a coalescing gap of 0) on the default I/O pool.
        slow_opener = default_shard_opener(head.parent)
        monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)
        with ArchiveReader(
            head,
            shard_opener=lambda name: _ThrottledSource(slow_opener(name), 0.003),
            cache_bytes=0,
        ) as throttled:
            _data, slow = throttled.read_region(*pool[0])
        assert slow.n_fetches > 1, "premise: throttled read spans several windows"
        assert slow.overlapped, (
            "prefetch pipeline never overlapped decode with in-flight fetches"
        )

    benchmark.extra_info["cache_hit_rate"] = round(cache["hit_rate"], 4)
    benchmark.extra_info["bytes_fetched"] = aggregate["bytes_fetched"]
    benchmark.extra_info["bytes_stored"] = stored_bytes

    roi_values = int(np.prod([hi - lo for lo, hi in pool[0][2]]))
    roi_bytes = roi_values * dataset.levels[level].data.dtype.itemsize
    stats_doc = {
        "dataset": "Run1_Z10",
        "scale": SCALE,
        "brick_size": BRICK_SIZE,
        "level": level,
        "threads": THREADS,
        "n_requests": len(requests),
        "distinct_rois": len(pool),
        "stored_payload_bytes": stored_bytes,
        "bytes_fetched": aggregate["bytes_fetched"],
        "bytes_served": aggregate["bytes_served"],
        "cold_p50_seconds": round(cold_p50, 6),
        "warm_p50_seconds": round(warm_p50, 6),
        "p99_seconds": round(p99, 6),
        "cache": cache,
        "fetch": aggregate["fetch"],
        "coalescing": {
            "cold_parts_fetched": sum(r.n_parts_fetched for r in first_pass),
            "cold_ranged_reads": sum(r.n_fetches for r in first_pass),
        },
        "throttled_overlap": {
            "n_fetches": slow.n_fetches,
            "overlapped": slow.overlapped,
            "seconds": round(slow.seconds, 6),
        },
    }
    (results_dir / "read_service_stats.json").write_text(
        json.dumps(stats_doc, indent=2, sort_keys=True) + "\n"
    )

    merge_write(
        {
            "read_service_cold_roi": op_entry(cold_p50, roi_values, roi_bytes),
            "read_service_warm_roi": op_entry(warm_p50, roi_values, roi_bytes),
        },
        scale=SCALE,
    )

    print(
        f"\n== read_service: {len(requests)} requests over {len(pool)} ROIs "
        f"(level {level}, {THREADS} threads, scale {SCALE}) ==\n"
        f"cold p50   : {cold_p50 * 1e3:.2f}ms\n"
        f"warm p50   : {warm_p50 * 1e3:.2f}ms\n"
        f"p99        : {p99 * 1e3:.2f}ms\n"
        f"hit rate   : {cache['hit_rate']:.1%}\n"
        f"bytes      : fetched {aggregate['bytes_fetched']} / served "
        f"{aggregate['bytes_served']} / stored {stored_bytes}\n"
        f"coalescing : {stats_doc['coalescing']['cold_ranged_reads']} reads for "
        f"{stats_doc['coalescing']['cold_parts_fetched']} parts\n"
        f"overlap    : {slow.n_fetches} throttled windows, "
        f"overlapped={slow.overlapped}"
    )
