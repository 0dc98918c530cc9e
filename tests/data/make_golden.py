"""Regenerate the golden fixtures the code can still write byte-exactly.

Run from the repo root::

    PYTHONPATH=src:. python tests/data/make_golden.py

The library writes one container version (v5) and keeps readers for every
older one, so the fixtures split in two:

**Regenerated here** (the writer must reproduce them byte for byte —
``tests/test_golden_format.py`` replays both constructions):

* ``golden_entry_v5.rpam`` / ``golden_entry_v5.json`` — the ``golden/tac``
  entry of the frozen v2 archive (read through ``LazyBatchArchive``),
  re-serialized by
  ``CompressedDataset.to_bytes`` (same payload bytes as the fixture it
  came from, v5 framing);
* ``golden_ingest_delta.rpbt`` + shards / ``golden_ingest_delta.json`` —
  a 3-step temporal-delta series through ``IngestSession``;
* ``golden_ingest_step.rpbt`` + shard / ``golden_ingest_step.json`` — one
  two-field step through ``IngestSession.submit_step``: the second entry
  stores no masks and names the first in ``meta["structure"]``.

**Frozen** (written by retired writers; never regenerated by the library —
they are the proof that stored archives stay readable):
``golden_batch.rpbt`` (archive v1 / container v1) and
``golden_batch_v2.rpbt`` (v2 / v2) — both reproduced byte for byte by the
reference writers ``tests/helpers.py::legacy_archive_bytes`` around
``legacy_container_bytes`` — ``golden_batch_v3.rpbt`` + shards
(sharded, container v3), ``golden_batch_v4.rpbt`` + shards and
``golden_entry_v4.rpam`` (container v4), and the v2-framed
``golden_gsp_{legacy,bricks,shared}.rpbt`` — whose *parts* (GSP grid,
brick table, shared Huffman table) stay writer-pinned by
``TestGoldenGSPFormats::test_writer_regenerates_fixture_parts``.

Every frozen fixture was written while the SZ Huffman payload and code
table were level-1 (LZ77) DEFLATE; the writer now codes them in run-length
mode.  Both are ordinary zlib streams, so the frozen fixtures read as
before, and they are the proof that LZ77-coded payloads stay readable:
``golden_gsp_{legacy,bricks}`` are compared with a fresh compress section
by section once inflated (``tests/helpers.py::assert_same_streams``), not
byte for byte.  ``golden_gsp_shared``'s reference writer keeps level 1 and
still matches byte for byte.  The two ingest fixtures above were
re-emitted with run-length coded sections; each of their sections
inflates to the bytes it held before.

Every frozen fixture also holds SZ streams of version 1 (fixed-width
framing, alphabet-wide code lengths, DEFLATEd int64 block offsets); the
writer now writes version 2 (varint framing, windowed code lengths,
bit-packed offsets) and reads both.  The ingest fixtures were re-emitted
once more for it: same payload bits, same reconstructions (their recorded
sums did not move), fewer bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.engine import LazyBatchArchive

HERE = Path(__file__).parent
EB = 1e-3
MODE = "abs"
#: Forces the ingest fixture's three entries across two payload shards.
V3_SHARD_SIZE = 2048


def entry_v5_expectations() -> dict:
    """Write the v5 container fixture and record it."""
    with LazyBatchArchive.open(HERE / "golden_batch_v2.rpbt") as archive:
        comp = archive.entry("golden/tac").materialize()
    blob = comp.to_bytes()
    path = HERE / "golden_entry_v5.rpam"
    path.write_bytes(blob)
    return {
        "name": path.name,
        "key": "golden/tac",
        "source": "golden_batch_v2.rpbt",
        "container_version": blob[4],
        "n_bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def _file_record(path: Path) -> dict:
    return {
        "name": path.name,
        "n_bytes": path.stat().st_size,
        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
    }


#: Keyframe cadence of the ingest fixture: 3 steps -> kf, delta, kf.
INGEST_KF_INTERVAL = 2
INGEST_STEPS = 3
#: ROI pinned by the delta-chain partial-read expectation (one octant).
INGEST_ROI = (slice(0, 4), slice(0, 4), slice(0, 4))


def ingest_expectations() -> dict:
    """Write and record the temporal-delta ingest fixture.

    ``golden_ingest_delta.rpbt`` (+ shards) is an analytic 3-step series
    written through :class:`repro.ingest.IngestSession` with
    ``keyframe_interval=2``: entry t0000 is a keyframe, t0001 a
    closed-loop residual against t0000's reconstruction, t0002 the
    cadence keyframe.  Pins the deferred-head (v5) streamed entries, the
    ``temporal`` entry/level metadata, and — via recorded per-level
    reconstruction stats and a pinned ROI read — the read-side chain
    summation.
    """
    from repro.ingest import IngestConfig, IngestSession
    from repro.serve.reader import ArchiveReader
    from tests.helpers import golden_timestep_series

    series = golden_timestep_series(INGEST_STEPS)
    head_path = HERE / "golden_ingest_delta.rpbt"
    config = IngestConfig(
        error_bound=EB, mode=MODE,
        keyframe_interval=INGEST_KF_INTERVAL, shard_size=V3_SHARD_SIZE,
    )
    with IngestSession(head_path, config, meta={"fixture": "golden-ingest"}) as session:
        keys = session.extend(series)
    report = session.report
    expected: dict = {
        "eb": EB,
        "mode": MODE,
        "keyframe_interval": INGEST_KF_INTERVAL,
        "shard_size": V3_SHARD_SIZE,
        "roi": [[s.start, s.stop] for s in INGEST_ROI],
        "keys": keys,
        "temporal": [row["temporal"] for row in report.entries],
        "head": _file_record(head_path),
        "shards": [_file_record(path) for path in report.write.shard_paths],
        "reconstructed": {},
    }
    with ArchiveReader(head_path) as reader:
        for key in keys:
            rows = []
            for level in range(len(series[0].levels)):
                lvl, _stats = reader.read_level(key, level)
                rows.append(
                    {
                        "level": level,
                        "n_points": int(lvl.mask.sum()),
                        "sum": float(lvl.data[lvl.mask].sum(dtype=np.float64)),
                    }
                )
            expected["reconstructed"][key] = rows
        roi, _stats = reader.read_region(keys[1], 0, INGEST_ROI)
        expected["roi_sum"] = float(roi.sum(dtype=np.float64))
        expected["roi_nonzero"] = int(np.count_nonzero(roi))
    return expected


def step_expectations() -> dict:
    """Write and record the multi-field step fixture.

    ``golden_ingest_step.rpbt`` (+ shard) holds the two analytic fields of
    ``tests.helpers.golden_step_fields`` written as one
    ``IngestSession.submit_step``: entry ``golden/golden_aux/t0000`` (first
    in sorted field order) stores the masks, ``golden/golden_field/t0000``
    stores none and carries ``"structure": "golden/golden_aux/t0000"``.
    Pins that meta key and — via recorded per-level sums — its resolution
    on the read side.
    """
    from repro.ingest import IngestSession
    from repro.serve.reader import ArchiveReader
    from tests.helpers import golden_step_fields

    head_path = HERE / "golden_ingest_step.rpbt"
    with IngestSession(
        head_path, error_bound=EB, mode=MODE, meta={"fixture": "golden-step"}
    ) as session:
        keys = session.submit_step(golden_step_fields())
    expected: dict = {
        "eb": EB,
        "mode": MODE,
        "keys": keys,
        "structure": keys[0],
        "head": _file_record(head_path),
        "shards": [_file_record(path) for path in session.report.write.shard_paths],
        "reconstructed": {},
    }
    with ArchiveReader(head_path) as reader:
        for key in keys:
            rows = []
            for level in range(len(reader.entry_shapes(key))):
                lvl, _stats = reader.read_level(key, level)
                rows.append(
                    {
                        "level": level,
                        "n_points": int(lvl.mask.sum()),
                        "sum": float(lvl.data[lvl.mask].sum(dtype=np.float64)),
                    }
                )
            expected["reconstructed"][key] = rows
    return expected


def main() -> None:
    expected = entry_v5_expectations()
    (HERE / "golden_entry_v5.json").write_text(json.dumps(expected, indent=2) + "\n")
    print(f"wrote {expected['name']} ({expected['n_bytes']} bytes) and golden_entry_v5.json")
    expected = ingest_expectations()
    (HERE / "golden_ingest_delta.json").write_text(json.dumps(expected, indent=2) + "\n")
    names = [rec["name"] for rec in expected["shards"]]
    print(f"wrote golden_ingest_delta.rpbt + {names} and golden_ingest_delta.json")
    expected = step_expectations()
    (HERE / "golden_ingest_step.json").write_text(json.dumps(expected, indent=2) + "\n")
    names = [rec["name"] for rec in expected["shards"]]
    print(f"wrote golden_ingest_step.rpbt + {names} and golden_ingest_step.json")


if __name__ == "__main__":
    main()
