"""Serving concurrent ROI reads from a sharded archive.

Run:  python examples/read_service.py [scale]

Once a batch lives in a sharded archive, analysis traffic is many small
overlapping region reads, not full restores.  ``repro.serve.ArchiveReader``
is the layer built for that: one reader amortizes open/plan costs, keeps
a byte-bounded LRU of *decoded* bricks, coalesces each request's part
fetches into ranged reads, and retries transient shard I/O with backoff.
Local shard files, as here, are read on the request's own thread; a
remote store behind a custom ``shard_opener`` is fetched on a fixed I/O
pool ahead of decode.  Every request returns its data plus a stats
record — bytes fetched vs bytes served, cache hits, whether decode
overlapped pooled fetches — and the reader aggregates the same over its
lifetime.
"""

import random
import statistics
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

from repro import make_dataset
from repro.ingest import IngestSession
from repro.serve import ArchiveReader, RetryPolicy
from repro.sim import NYX_FIELDS


def main(scale: int = 8) -> None:
    fields = NYX_FIELDS[:2]
    with TemporaryDirectory() as tmp:
        head = Path(tmp) / "snapshot.rpbt"
        with IngestSession(
            head, error_bound=1e-4, shard_size=256 * 1024, workers=2,
            meta={"run": "Run1_Z10"},
        ) as session:
            session.extend(make_dataset("Run1_Z10", scale=scale, field=f) for f in fields)

        # -- a pool of overlapping ROIs on the finest level ------------
        with ArchiveReader(
            head,
            cache_bytes=64 * 1024 * 1024,
            retry=RetryPolicy(attempts=4, base_delay=0.05),
            request_workers=4,
        ) as reader:
            keys = reader.keys()
            shape = reader.entry_shapes(keys[0])[-1]
            level = len(reader.entry_shapes(keys[0])) - 1
            rng = random.Random(0)
            edge = max(8, shape[0] // 2)
            pool = []
            for _ in range(6):
                lo = [rng.randint(0, n - edge) for n in shape]
                pool.append(tuple((o, o + edge) for o in lo))

            # 3 replays of the pool across every entry, served concurrently.
            requests = [
                (key, level, roi) for key in keys for roi in pool
            ] * 3
            results = reader.read_many(requests)

            latencies = sorted(stats.seconds for _data, stats in results)
            cold = [s for _d, s in results if s.cache_hits == 0]
            agg = reader.stats()
            cache = agg["cache"]
            print(f"served {len(results)} requests over {len(pool)} ROIs x {len(keys)} entries")
            print(f"p50 latency    : {statistics.median(latencies) * 1e3:.2f} ms")
            print(f"p99 latency    : {latencies[int(0.99 * (len(latencies) - 1))] * 1e3:.2f} ms")
            print(f"cold requests  : {len(cold)}")
            print(f"cache hit rate : {cache['hit_rate']:.1%} "
                  f"({cache['hits']} hits, {cache['evictions']} evictions)")
            print(f"bytes fetched  : {agg['bytes_fetched']} "
                  f"vs served {agg['bytes_served']} "
                  f"({agg['bytes_served'] / max(1, agg['bytes_fetched']):.1f}x amplification "
                  f"in our favour)")
            print(f"shard opens    : {agg['fetch']['opens']}, "
                  f"ranged reads {agg['fetch']['reads']}, "
                  f"retries {agg['fetch']['open_retries'] + agg['fetch']['read_retries']}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
