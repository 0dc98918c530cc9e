"""Reading through injected storage faults: chaos, degradation, recovery.

Run:  python examples/chaos_read.py [scale]

Storage fails in boring, predictable ways — transient I/O errors, slow
reads, bit rot — but never on demand, which makes every recovery path
untested by default.  ``repro.faults`` makes failure a reproducible
input: a seeded :class:`FaultPlan` decides when faults fire (by
part-name glob, probability, call budget) and ``faulty_opener`` wraps
any shard opener so the same plan drives unit tests, benchmarks, and
``repro serve --chaos``.

This example compresses a dataset into a sharded archive (per-part
CRC-32s in every entry), injects 5% transient ``OSError``s plus one
bit-flipped brick, and reads through the damage with
``ArchiveReader(degraded=True)``: transients are retried away, the
corrupt brick is caught by its CRC, reported as a structured error row,
and filled with a sentinel value — and once the bit-flip's budget is
spent, a re-read heals bit-identically.
"""

import sys
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from repro import make_dataset
from repro.engine import default_shard_opener
from repro.faults import FaultPlan, FaultRule, archive_part_spans, faulty_opener
from repro.ingest import IngestSession
from repro.serve import ArchiveReader, RetryPolicy

FILL = -1.0


def main(scale: int = 8) -> None:
    dataset = make_dataset("Run1_Z10", scale=scale, field="baryon_density")

    with TemporaryDirectory() as tmp:
        head = Path(tmp) / "snapshot.rpbt"
        with IngestSession(head, error_bound=1e-4, shard_size=256 * 1024) as session:
            session.extend([dataset])

        # Part spans let the plan aim faults at named parts instead of
        # raw byte offsets.  Pick the first brick part as the victim.
        spans = archive_part_spans(head)
        parts = sorted(p for shard in spans.values() for p in shard)
        def is_brick(name: str) -> bool:
            leaf = name.rsplit("/", 1)[1]
            return leaf.startswith("b") and leaf[1:].isdigit()

        victim = next(p for p in parts if is_brick(p))
        key, lvl_name, _ = victim.rsplit("/", 2)
        level = int(lvl_name[1:])
        print(f"archive parts  : {len(parts)} across {len(spans)} shard(s)")
        print(f"fault victim   : {victim}")

        # Fault-free baseline for comparison.
        with ArchiveReader(head) as clean:
            baseline = clean.read_level(key, level)[0].data.copy()

        # The chaos: 5% transient OSErrors everywhere, one flipped bit
        # in the victim brick's stored bytes.  Seeded => replayable.
        plan = FaultPlan(
            [
                FaultRule("oserror", match="*", p=0.05),
                FaultRule("bitflip", match=victim, times=1),
            ],
            seed=7,
        )
        opener = faulty_opener(default_shard_opener(head.parent), plan, spans)

        with ArchiveReader(
            head,
            shard_opener=opener,
            retry=RetryPolicy(attempts=4, base_delay=0.01),
            default_deadline=30.0,
            degraded=True,
            fill_value=FILL,
        ) as reader:
            lvl, stats = reader.read_level(key, level)
            print(f"\ndegraded read  : {stats.seconds * 1e3:.1f} ms, "
                  f"{len(stats.errors)} bad unit(s)")
            for row in stats.errors:
                print(f"  {row['kind']:>9}  {row['unit']}  box={row['box']}")
                print(f"             {row['error']}")
            box = tuple(slice(lo, hi) for lo, hi in stats.errors[0]["box"])
            assert np.all(lvl.data[box] == FILL)
            outside = lvl.data.copy()
            outside[box] = baseline[box]
            np.testing.assert_array_equal(outside, baseline)
            print("fill check     : bad box fill-valued, rest bit-identical")

            # The bit-flip budget (times=1) is spent; transients keep
            # firing but the retry layer absorbs them.  Re-read heals.
            healed, healed_stats = reader.read_level(key, level)
            np.testing.assert_array_equal(healed.data, baseline)
            print(f"healed re-read : bit-identical, "
                  f"{len(healed_stats.errors)} error(s)")

        print("\nfired faults   :")
        for event in plan.events:
            print(f"  {event.kind:>8}  {event.target}  read={event.read}")
        agg = reader.stats()["fetch"]
        print(f"retries        : {agg['open_retries'] + agg['read_retries']} "
              f"(transients absorbed, never surfaced)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
