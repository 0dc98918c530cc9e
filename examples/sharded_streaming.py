"""Bounded-memory batch writes and head-shard reads (archive v3).

Run:  python examples/sharded_streaming.py [scale]

A snapshot-scale batch should never need the whole compressed dump in
memory at once, and one monolithic archive file is the wrong shape for
object storage.  ``IngestSession`` streams each snapshot's output into
payload shards level by level (parts are released as they reach disk),
and the resulting ``.rpbt`` head file is
manifest-only: you can inspect a petabyte batch — or read one entry —
without touching the shards you don't need.
"""

import sys
import time
import tracemalloc
from pathlib import Path
from tempfile import TemporaryDirectory

from repro import LazyBatchArchive, make_dataset
from repro.engine import codec_for_method
from repro.ingest import IngestSession
from repro.sim import NYX_FIELDS


def main(scale: int = 8) -> None:
    fields = NYX_FIELDS[:4]
    datasets = [make_dataset("Run1_Z2", scale=scale, field=f) for f in fields]
    print(f"batch: {len(datasets)} snapshots ({', '.join(fields)})")

    with TemporaryDirectory() as tmp:
        head = Path(tmp) / "snapshot.rpbt"

        # -- streamed sharded write (bounded memory) -------------------
        tracemalloc.start()
        t0 = time.perf_counter()
        with IngestSession(
            head, error_bound=1e-4, shard_size=64 * 1024, meta={"run": "Run1_Z2"}
        ) as session:
            keys = session.extend(datasets)
        wall = time.perf_counter() - t0
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        report = session.report.write
        print(f"wrote    : head {head.name} + {len(report.shard_paths)} shard(s)")
        for path in report.shard_paths:
            print(f"           {path.name}  {path.stat().st_size} B")
        print(f"wall     : {wall:.3f}s, peak traced memory {peak / 2**20:.1f} MiB")
        print(f"ratio    : {session.report.ratio():.2f}x over {report.n_entries} entries")

        # -- manifest from the head alone ------------------------------
        # The payload shards are not opened: a batch is inspectable from
        # its (tiny) head file even when the shards live elsewhere.
        with LazyBatchArchive.open(head) as archive:
            print(f"manifest : {len(archive.manifest())} rows, no shard opened")
            for row in archive.manifest():
                print(f"           {row['key']:32s} {row['compressed_bytes']:>9d} B")

        # -- partial read: one entry, one shard ------------------------
        key = keys[0]
        with LazyBatchArchive.open(head, verify_shards=True) as archive:
            entry = archive.entry(key)
            codec = codec_for_method(entry.method)
            level = codec.decompress_level(entry, 1)
            print(f"partial  : level 1 of {key} -> {level.n_points()} values")
            touched = archive.entry_shards()[key]
            read = entry.parts.bytes_read
            total = entry.compressed_bytes()
            print(f"           opened shard {touched} only, read {read}/{total} B")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
