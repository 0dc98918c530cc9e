"""In-situ ingest: a live snapshot stream into a temporal-delta archive.

Run:  python examples/insitu_ingest.py [scale]

A running simulation emits one snapshot per timestep; consecutive steps
differ by a small, smooth residual.  ``repro.ingest.IngestSession``
exploits both facts: snapshots are compressed level-by-level as they are
submitted (``compress_iter`` streams each level's parts straight into a
payload shard, so no whole compressed snapshot is ever held), and with
``keyframe_interval > 1`` each chain stores closed-loop residuals
against the running *reconstruction* — every reconstructed step honors
the keyframe's absolute error bound, with no drift along the chain.

The read side resolves delta chains transparently:
``read_timestep_level`` / ``read_timestep_region`` read keyframe +
residuals as one ``ArchiveReader.read_chain`` request (each decoded brick
summed across the chain and cached under it, the box assembled once),
and an ROI read of a chain is bit-identical to slicing the full
reconstruction.
"""

import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from repro.core.container import resolve_global_eb
from repro.ingest import (
    IngestConfig,
    IngestSession,
    read_timestep_level,
    read_timestep_region,
)
from repro.serve.reader import ArchiveReader
from repro.sim import make_timestep_series

EB, MODE = 1e-4, "rel"
STEPS, KEYFRAME_EVERY = 8, 4


def main(scale: int = 8) -> None:
    # Keep the raw steps around only to check bounds at the end — a real
    # in-situ producer would hand each snapshot over and drop it.
    steps = list(
        make_timestep_series("Run1_Z10", steps=STEPS, scale=scale, sigma_step=0.05)
    )

    with TemporaryDirectory() as tmp:
        head = Path(tmp) / "series.rpbt"

        # -- ingest the stream ----------------------------------------
        config = IngestConfig(
            error_bound=EB,
            mode=MODE,
            keyframe_interval=KEYFRAME_EVERY,
            workers=2,  # overlap encode of step t+1 with write of t
        )
        t0 = time.perf_counter()
        with IngestSession(head, config, meta={"run": "Run1_Z10"}) as session:
            keys = [session.submit(snapshot) for snapshot in steps]
        report = session.report
        wall = time.perf_counter() - t0

        print(f"ingested {report.n_entries} steps in {wall:.2f}s:")
        for row in report.entries:
            kind = row["temporal"]["mode"] if row["temporal"] else "keyframe"
            print(f"  {row['key']:<38} {kind:<9} {row['wall_seconds']:.3f}s")
        print(
            f"archive ratio {report.ratio():.2f}x "
            f"({report.n_keyframes} keyframes + {report.n_deltas} deltas)"
        )

        # -- delta chains honor the keyframe's bound, every step -------
        kf_index = 0
        with ArchiveReader(head) as reader:
            for i, key in enumerate(keys):
                if i % KEYFRAME_EVERY == 0:
                    kf_index = i
                eb_abs = resolve_global_eb(steps[kf_index], EB, MODE)
                # Delta entries store residuals; the read helpers sum the
                # chain (keyframe + residuals) per decoded brick, in one
                # request with one RequestStats per chain entry.
                level, stats = read_timestep_level(reader, key, 0)
                truth = steps[i].levels[0]
                worst = float(np.abs(truth.data - level.data)[truth.mask].max())
                roi = (slice(0, 16), slice(0, 16), slice(0, 16))
                region, _ = read_timestep_region(reader, key, 0, roi)
                print(
                    f"  step {i}: level err {worst:.3e} <= eb_abs {eb_abs:.3e} "
                    f"({len(stats)}-entry chain)"
                )
                assert worst <= eb_abs * 1.0001
                assert np.array_equal(region, level.data[roi])  # ROI = slice


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
