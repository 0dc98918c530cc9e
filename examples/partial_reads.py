"""Partial reads: the lazy-decompression tour.

A post-hoc analysis workflow rarely wants a whole snapshot back — it
wants one field, one AMR level, or one spatial region.  This example
compresses a small batch, then reads it back three increasingly narrow
ways, printing how little of the archive each read actually touched
(the lazy reader logs every part fetch).

Run from the repo root::

    PYTHONPATH=src python examples/partial_reads.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    LazyBatchArchive,
    LazyCompressedDataset,
    ShardedArchiveWriter,
    get_codec,
    make_dataset,
)


def main() -> None:
    # -- build a two-field batch archive (a head plus payload shards) ---
    path = Path(tempfile.mkdtemp()) / "run1_z2.rpbt"
    with ShardedArchiveWriter(path) as writer:
        for field in ("baryon_density", "temperature"):
            dataset = make_dataset("Run1_Z2", scale=8, field=field)
            writer.add_entry(f"Run1_Z2/{field}", get_codec("tac").compress(dataset, 1e-4))
    report = writer.report
    print(f"archive: {report.n_entries} entries, {report.total_bytes()} bytes -> {path}")

    # -- open lazily: header only, no payload bytes ----------------------
    lazy = LazyBatchArchive.open(path)
    print(f"entries: {lazy.keys()} (opened without reading any payload)")

    entry = lazy.entry("Run1_Z2/baryon_density")
    tac = get_codec("tac")

    # 1. Full decompression: every decode unit, in lockstep SZ batches.
    full = tac.decompress(entry)
    print(
        f"full decode    : {full.n_levels} levels, "
        f"read {len(entry.parts.accessed())}/{len(entry.parts)} parts"
    )

    # 2. One level: only that level's payloads are fetched and decoded.
    entry_lvl = lazy.entry("Run1_Z2/baryon_density")
    finest = tac.decompress_level(entry_lvl, 0)
    assert np.array_equal(finest.data, full.levels[0].data)
    print(
        f"level 0 only   : read {len(entry_lvl.parts.accessed())}/"
        f"{len(entry_lvl.parts)} parts ({entry_lvl.parts.bytes_read} B)"
    )

    # 3. A region of interest: for block strategies only the group
    #    streams whose sub-blocks intersect the ROI are decoded.
    entry_roi = lazy.entry("Run1_Z2/baryon_density")
    n = full.levels[0].n
    roi = (slice(0, n // 4), slice(0, n // 4), slice(0, n // 4))
    corner = tac.decompress_region(entry_roi, 0, roi)
    assert np.array_equal(corner, full.levels[0].data[roi])
    print(
        f"ROI {n // 4}^3 corner: shape {corner.shape}, "
        f"read {entry_roi.parts.bytes_read} B "
        f"(vs {entry.compressed_bytes()} B stored for the entry)"
    )

    # The other field's payloads were never touched by any of the above —
    # that is the random-access property of the archive's entry index.
    lazy.close()

    # 4. Brick-chunked GSP levels: dense levels (the ones GSP pads) are
    #    stored as independently-compressed bricks, so an ROI read on
    #    *those* levels also decodes only what it touches — the decoded
    #    cell count is the brick-aligned ROI volume, never the level's.
    ds = make_dataset("Run1_Z10", scale=8, field="baryon_density")
    bricked = get_codec("tac", brick_size=8).compress(ds, 1e-4)
    gsp_level = next(
        m["level"] for m in bricked.meta["levels"] if m.get("bricks")
    )
    lazy_blob = LazyCompressedDataset.open(bricked.to_bytes())
    m = ds.levels[gsp_level].n
    roi = (slice(0, m // 2), slice(0, m // 2), slice(0, m // 2))
    tac.decompress_region(lazy_blob, gsp_level, roi)
    bricks_hit = [
        name for name in lazy_blob.parts.accessed()
        if name.startswith(f"L{gsp_level}/b") and not name.endswith("bricks")
    ]
    total = bricked.meta["levels"][gsp_level]["bricks"]["n"]
    print(
        f"GSP bricks     : 1/8-domain ROI on level {gsp_level} decoded "
        f"{len(bricks_hit)}/{total} bricks"
    )


if __name__ == "__main__":
    main()
