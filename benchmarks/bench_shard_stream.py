"""Sharded streaming-write smoke benchmark (the CI ``shard-smoke`` step).

Not a paper figure — exercises the v3 write path end-to-end at batch
scale and asserts its two contracts:

* **bounded memory**: streaming a compressed batch into payload shards
  allocates (tracemalloc) less than 2x the largest single part — an
  eager ``to_bytes`` would allocate the whole batch;
* **bit identity**: the sharded archive round-trips entry-identical to
  the in-memory compressed entries of the same batch.

Writes ``benchmarks/results/shard_manifest.json`` (head manifest +
shard table), which CI uploads as an artifact on every push.
"""

import json
import tracemalloc

import pytest

from benchmarks.conftest import SCALE
from repro.engine import LazyBatchArchive, ShardedArchiveWriter, get_codec
from repro.ingest import IngestSession
from repro.sim.datasets import make_dataset
from repro.sim.nyx import NYX_FIELDS

BATCH_FIELDS = tuple(NYX_FIELDS[:3])


@pytest.fixture(scope="module")
def batch_jobs():
    """``label -> dataset`` for three fields of one snapshot."""
    return {
        f"Run1_Z2/{field}": make_dataset("Run1_Z2", scale=SCALE, field=field)
        for field in BATCH_FIELDS
    }


def compress_batch(batch_jobs) -> dict:
    """``label -> compressed entry``, held in memory."""
    return {label: get_codec("tac").compress(ds, 1e-4) for label, ds in batch_jobs.items()}


def bench_shard_stream_write(benchmark, batch_jobs, results_dir, tmp_path):
    """Streamed sharded write of a precompressed batch: memory + identity."""
    batch = compress_batch(batch_jobs)
    largest_part = max(
        len(payload) for comp in batch.values() for payload in comp.parts.values()
    )

    head = tmp_path / "snapshot.rpbt"
    shard_size = max(1, largest_part)  # force several shards

    def write():
        for path in tmp_path.glob("snapshot*"):
            path.unlink()
        tracemalloc.start()
        with ShardedArchiveWriter(head, shard_size=shard_size) as writer:
            for label, comp in batch.items():
                writer.add_entry(label, comp)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return writer.report, peak

    report, peak = benchmark.pedantic(write, rounds=1, iterations=1)
    assert len(report.shard_paths) >= 2
    # The shard-smoke acceptance bound: bounded by the largest part, not
    # the batch (small absolute slack for index/JSON bookkeeping).
    limit = 2 * largest_part + (1 << 20)
    assert peak < limit, (
        f"writer peak {peak / 2**20:.2f} MiB exceeds 2x largest part "
        f"({largest_part / 2**20:.2f} MiB)"
    )

    with LazyBatchArchive.open(head, verify_shards=True) as lazy:
        for label, comp in batch.items():
            entry = lazy.entry(label)
            for name, payload in comp.parts.items():
                assert entry.parts[name] == payload, f"diverged: {label}/{name}"
        manifest = {
            "scale": SCALE,
            "largest_part_bytes": largest_part,
            "writer_peak_bytes": peak,
            "shards": lazy.shards(),
            "entry_shards": lazy.entry_shards(),
            "manifest": lazy.manifest(),
        }
    (results_dir / "shard_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    benchmark.extra_info["peak_mib"] = round(peak / 2**20, 3)
    benchmark.extra_info["largest_part_mib"] = round(largest_part / 2**20, 3)
    benchmark.extra_info["n_shards"] = len(report.shard_paths)


def bench_shard_stream_engine(benchmark, batch_jobs, results_dir, tmp_path):
    """End-to-end ``IngestSession`` vs compress-then-write wall time."""
    import time

    def compare():
        t0 = time.perf_counter()
        batch = compress_batch(batch_jobs)
        with ShardedArchiveWriter(tmp_path / "eager.rpbt") as writer:
            for label in sorted(batch):
                writer.add_entry(label, batch[label])
        t_eager = time.perf_counter() - t0
        t0 = time.perf_counter()
        with IngestSession(tmp_path / "streamed.rpbt", error_bound=1e-4, workers=2) as session:
            keys = [session.submit(ds, key=label) for label, ds in batch_jobs.items()]
        t_stream = time.perf_counter() - t0
        assert sorted(keys) == sorted(batch)
        with LazyBatchArchive.open(session.report.head_path) as lazy:
            for key in keys:
                entry = lazy.entry(key)
                for name, payload in batch[key].parts.items():
                    assert entry.parts[name] == payload
        return t_eager, t_stream

    t_eager, t_stream = benchmark.pedantic(compare, rounds=1, iterations=1)
    text = (
        f"== shard_stream: compress-then-write vs streamed write (scale {SCALE}) ==\n"
        f"eager     : {t_eager:.3f}s (compress all, then ShardedArchiveWriter)\n"
        f"streamed  : {t_stream:.3f}s (IngestSession, bounded memory)\n"
        f"overhead  : {t_stream / t_eager if t_eager else 1:.2f}x "
        f"(outputs entry-identical)\n"
    )
    print("\n" + text)
    (results_dir / "shard_stream.txt").write_text(text)
    benchmark.extra_info["eager_s"] = round(t_eager, 3)
    benchmark.extra_info["stream_s"] = round(t_stream, 3)
    # Streaming must not cost catastrophically more than the eager path.
    assert t_stream < 3.0 * t_eager + 1.0, (
        f"streamed write pathologically slow: {t_stream:.2f}s vs {t_eager:.2f}s"
    )
