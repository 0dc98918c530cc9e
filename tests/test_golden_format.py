"""Golden-format regression: stored archives must stay readable, byte-stable.

``tests/data/golden_batch.rpbt`` (wire version 1) and
``tests/data/golden_batch_v2.rpbt`` (version 2, part/entry-indexed) are
checked-in batch archives holding the fully analytic
:func:`tests.helpers.golden_dataset` compressed by all four registry
codecs (``tests/data/make_golden.py`` regenerates them).  The assertions
pin the container contract future refactors must keep:

* the bytes parse through the one archive parser,
  :class:`~repro.engine.LazyBatchArchive` (no silent format break for
  existing stored archives);
* the reference writers in ``tests/helpers.py`` (``legacy_archive_bytes``
  around ``legacy_container_bytes``) regenerate both fixtures byte for
  byte from their parsed entries;
* the manifest matches what was recorded at fixture-creation time;
* every entry still decompresses to the recorded values and honours the
  recorded error bound against the analytically regenerated original;
* lazy entries (:class:`~repro.core.container.LazyCompressedDataset`)
  and their materialized copies hold the same parts and decode to the
  same values.

``tests/data/golden_batch_v3.rpbt`` plus its two
``golden_batch_v3.shard-NNNN.rpsh`` files pin wire version 3, the
sharded streaming layout: the head is manifest-only, entries live in the
payload shards (container v3 blobs; ``golden_batch_v4`` holds v4 ones).

The fixtures for container v1–v4 and archive v1/v2 are *frozen*: their
library writers are retired (``tests/data/golden_inventory.json`` →
``_retired_writers``), so the library only reads them.  The write path is pinned by
``golden_entry_v5.rpam`` (both ``to_bytes`` and a file-backed
``StreamingContainerWriter`` must regenerate it) and by the
``golden_ingest_delta`` and ``golden_ingest_step`` session replays (the
latter pins the ``structure`` entry-meta key of a multi-field step).

If a format change is intentional, bump the container version, keep
readers for every older version, and only then regenerate the fixtures.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import LazyBatchArchive, codec_for_method, is_batch_archive
from tests.helpers import (
    assert_error_bounded,
    golden_dataset,
    legacy_archive_bytes,
    legacy_container_bytes,
)

DATA = Path(__file__).parent / "data"

FIXTURES = {
    1: "golden_batch",
    2: "golden_batch_v2",
}


def materialized(source) -> dict:
    """``{key: CompressedDataset}`` of a stored archive, read through the
    one archive parser."""
    with LazyBatchArchive.open(source) as lazy:
        return {key: lazy.entry(key).materialize() for key in lazy.keys()}


def decoded(comp):
    return codec_for_method(comp.method).decompress(comp)


V2_FIXTURE = DATA / "golden_batch_v2.rpbt"


@pytest.fixture(scope="module", params=sorted(FIXTURES), ids=lambda v: f"v{v}")
def fixture_version(request) -> int:
    return request.param


@pytest.fixture(scope="module")
def golden_blob(fixture_version) -> bytes:
    return (DATA / f"{FIXTURES[fixture_version]}.rpbt").read_bytes()


@pytest.fixture(scope="module")
def expected(fixture_version) -> dict:
    return json.loads((DATA / f"{FIXTURES[fixture_version]}.json").read_text())


class TestGoldenFormat:
    def test_fixture_integrity(self, golden_blob, expected):
        """The fixture pair itself is consistent (guards bad regeneration)."""
        assert len(golden_blob) == expected["n_bytes"]
        assert hashlib.sha256(golden_blob).hexdigest() == expected["sha256"]

    def test_magic_sniff(self, golden_blob):
        assert is_batch_archive(golden_blob)
        assert not is_batch_archive(b"PK\x03\x04whatever")

    def test_stored_wire_versions_reported(self, golden_blob, fixture_version):
        with LazyBatchArchive.open(golden_blob) as lazy:
            assert lazy.version == fixture_version
            for key in lazy.keys():
                assert lazy.entry(key).container_version == fixture_version

    def test_reference_writer_regenerates_fixture_bytes(self, golden_blob, fixture_version):
        """The retired monolithic writer lives on in ``tests/helpers.py``:
        from the parsed entries it rebuilds the stored archive exactly."""
        with LazyBatchArchive.open(golden_blob) as lazy:
            meta = lazy.meta
        blobs = {
            key: legacy_container_bytes(comp, fixture_version)
            for key, comp in materialized(golden_blob).items()
        }
        assert legacy_archive_bytes(blobs, fixture_version, meta) == golden_blob

    def test_manifest_matches_record(self, golden_blob, expected):
        with LazyBatchArchive.open(golden_blob) as archive:
            assert archive.keys() == expected["keys"]
            assert archive.manifest() == expected["manifest"]
            assert archive.meta["fixture"] == "golden"

    def test_entries_decompress_to_recorded_values(self, golden_blob, expected):
        with LazyBatchArchive.open(golden_blob) as archive:
            restored_by_key = {key: archive.decompress(key) for key in expected["decompressed"]}
        for key, level_stats in expected["decompressed"].items():
            restored = restored_by_key[key]
            assert restored.n_levels == len(level_stats)
            for lvl, stats in zip(restored.levels, level_stats):
                assert lvl.level == stats["level"]
                assert lvl.n_points() == stats["n_points"]
                values = lvl.values()
                if not values.size:
                    continue
                assert float(values.sum(dtype=np.float64)) == pytest.approx(
                    stats["sum"], rel=1e-10, abs=1e-10
                )
                assert float(values.min()) == pytest.approx(stats["min"], rel=1e-10)
                assert float(values.max()) == pytest.approx(stats["max"], rel=1e-10)

    def test_entries_honour_recorded_error_bound(self, golden_blob, expected):
        original = golden_dataset()
        assert expected["mode"] == "abs"
        for comp in materialized(golden_blob).values():
            restored = decoded(comp)
            for orig, back in zip(original.levels, restored.levels):
                assert np.array_equal(orig.mask, back.mask)
                assert_error_bounded(orig.values(), back.values(), expected["eb"])

    def test_both_fixture_versions_hold_identical_payloads(self):
        """v1 and v2 differ only in framing — parts and meta are equal."""
        v1 = materialized(DATA / "golden_batch.rpbt")
        v2 = materialized(V2_FIXTURE)
        assert list(v1) == list(v2)
        for key in v1:
            a, b = v1[key], v2[key]
            assert a.meta == b.meta
            assert list(a.parts) == list(b.parts)
            for name in a.parts:
                assert a.parts[name] == b.parts[name]


class TestGoldenLazyReaders:
    def test_lazy_archive_matches_eager(self, golden_blob, expected):
        eager = materialized(golden_blob)
        with LazyBatchArchive.open(golden_blob) as lazy:
            assert lazy.keys() == list(eager)
            for key in lazy.keys():
                a = decoded(eager[key])
                b = lazy.decompress(key)
                for la, lb in zip(a.levels, b.levels):
                    assert np.array_equal(la.data, lb.data)
                    assert np.array_equal(la.mask, lb.mask)

    def test_lazy_entry_reads_only_itself(self, golden_blob):
        """Random access: decoding one entry never touches its siblings."""
        from repro.engine import codec_for_method

        with LazyBatchArchive.open(golden_blob) as lazy:
            key = "golden/tac"
            entry = lazy.entry(key)
            eager_entry = materialized(golden_blob)[key]
            assert entry.part_sizes() == eager_entry.part_sizes()
            codec_for_method(entry.method).decompress(entry)
            # Decoding went through this entry's logged store, and the
            # fetched byte total is bounded by this entry alone.
            assert 0 < entry.parts.bytes_read <= eager_entry.compressed_bytes()
            assert entry.parts.accessed() <= set(eager_entry.parts)

    def test_entry_close_leaves_archive_usable(self, golden_blob):
        """An entry's context-manager exit must not poison its siblings
        (entries share the archive's byte source)."""
        with LazyBatchArchive.open(golden_blob) as lazy:
            with lazy.entry("golden/tac") as entry:
                entry.parts["mask/L0"]
            restored = lazy.decompress("golden/1d")
            assert restored.n_levels == 2

    def test_lazy_archive_from_file(self, golden_blob, tmp_path):
        path = tmp_path / "golden.rpbt"
        path.write_bytes(golden_blob)
        with LazyBatchArchive.open(path) as lazy:
            restored = lazy.decompress("golden/1d")
            eager = decoded(materialized(golden_blob)["golden/1d"])
            for la, lb in zip(eager.levels, restored.levels):
                assert np.array_equal(la.data, lb.data)


class TestGoldenShardedV3:
    """The sharded streaming fixture: head + payload shards stay
    byte-stable, readable, and payload-identical to the v2 archive."""

    @pytest.fixture(scope="class")
    def expected_v3(self) -> dict:
        return json.loads((DATA / "golden_batch_v3.json").read_text())

    @pytest.fixture(scope="class")
    def head_path(self) -> Path:
        return DATA / "golden_batch_v3.rpbt"

    def test_fixture_integrity(self, expected_v3, head_path):
        head = expected_v3["head"]
        blob = head_path.read_bytes()
        assert len(blob) == head["n_bytes"]
        assert hashlib.sha256(blob).hexdigest() == head["sha256"]
        assert is_batch_archive(blob)
        for record in expected_v3["shards"]:
            shard = (DATA / record["name"]).read_bytes()
            assert len(shard) == record["n_bytes"]
            assert hashlib.sha256(shard).hexdigest() == record["sha256"]

    def test_lazy_open_verified(self, expected_v3, head_path):
        with LazyBatchArchive.open(head_path, verify_shards=True) as lazy:
            assert lazy.version == 3
            assert lazy.is_sharded
            assert lazy.keys() == expected_v3["keys"]
            assert [rec["name"] for rec in lazy.shards()] == [
                rec["name"] for rec in expected_v3["shards"]
            ]

    def test_payloads_identical_to_v2_fixture(self, head_path):
        v2 = materialized(V2_FIXTURE)
        with LazyBatchArchive.open(head_path) as lazy, LazyBatchArchive.open(V2_FIXTURE) as mono:
            assert lazy.keys() == list(v2)
            assert lazy.manifest() == mono.manifest()
            for key, reference in v2.items():
                entry = lazy.entry(key)
                assert entry.meta == reference.meta
                assert list(entry.parts) == list(reference.parts)
                for name in reference.parts:
                    assert entry.parts[name] == reference.parts[name]

    def test_entries_decompress_and_honour_bound(self, expected_v3, head_path):
        original = golden_dataset()
        assert expected_v3["mode"] == "abs"
        with LazyBatchArchive.open(head_path) as lazy:
            for key in lazy.keys():
                restored = lazy.decompress(key)
                for orig, back in zip(original.levels, restored.levels):
                    assert np.array_equal(orig.mask, back.mask)
                    assert_error_bounded(
                        orig.values(), back.values(), expected_v3["eb"]
                    )

    def test_entries_materialize_from_shards(self, head_path):
        eager = materialized(head_path)
        v2 = materialized(V2_FIXTURE)
        assert list(eager) == list(v2)
        for key, reference in v2.items():
            assert eager[key].parts == reference.parts


class TestGoldenContainerV4:
    """The integrity fixtures: container v4 (per-part CRC-32s in the
    tail index) — a sharded set and one eager ``.rpam`` blob, frozen
    outputs of the retired v4 writers — stay readable, verify every part,
    and carry the same payload bytes as the v2 fixture they derive from."""

    @pytest.fixture(scope="class")
    def expected_v4(self) -> dict:
        return json.loads((DATA / "golden_batch_v4.json").read_text())

    @pytest.fixture(scope="class")
    def head_path(self) -> Path:
        return DATA / "golden_batch_v4.rpbt"

    def test_fixture_integrity(self, expected_v4, head_path):
        assert expected_v4["container_version"] == 4
        head = expected_v4["head"]
        blob = head_path.read_bytes()
        assert len(blob) == head["n_bytes"]
        assert hashlib.sha256(blob).hexdigest() == head["sha256"]
        for record in expected_v4["shards"]:
            shard = (DATA / record["name"]).read_bytes()
            assert len(shard) == record["n_bytes"]
            assert hashlib.sha256(shard).hexdigest() == record["sha256"]
        eager = expected_v4["eager_entry"]
        blob = (DATA / eager["name"]).read_bytes()
        assert len(blob) == eager["n_bytes"]
        assert hashlib.sha256(blob).hexdigest() == eager["sha256"]

    def test_entries_are_v4_and_verify_on_read(self, head_path):
        with LazyBatchArchive.open(head_path) as lazy:
            for key in lazy.keys():
                entry = lazy.entry(key)
                assert entry.container_version == 4
                assert entry.parts.verifies_integrity
                for name in entry.parts:
                    entry.parts[name]  # every part passes its CRC

    def test_payloads_identical_to_v2_fixture(self, head_path):
        v2 = materialized(V2_FIXTURE)
        with LazyBatchArchive.open(head_path) as lazy:
            assert lazy.keys() == list(v2)
            for key, reference in v2.items():
                entry = lazy.entry(key)
                assert list(entry.parts) == list(reference.parts)
                for name in reference.parts:
                    assert entry.parts[name] == reference.parts[name]

    def test_eager_v4_blob_reads_and_migrates(self, expected_v4):
        from repro.core.container import CompressedDataset, LazyCompressedDataset

        blob = (DATA / expected_v4["eager_entry"]["name"]).read_bytes()
        comp = CompressedDataset.from_bytes(blob)
        with LazyCompressedDataset.open(blob) as lazy:
            assert lazy.container_version == 4
            assert lazy.parts.verifies_integrity
            for name in comp.parts:
                assert lazy.parts[name] == comp.parts[name]
        assert comp.to_bytes() == (DATA / "golden_entry_v5.rpam").read_bytes()

    def test_flipped_payload_bit_raises_part_integrity_error(self, expected_v4):
        from repro.core.container import LazyCompressedDataset, PartIntegrityError

        blob = bytearray((DATA / expected_v4["eager_entry"]["name"]).read_bytes())
        with LazyCompressedDataset.open(bytes(blob)) as lazy:
            name = next(iter(lazy.parts))
            offset, length = lazy.parts.spans()[name]
        blob[offset + length // 2] ^= 0x01
        with LazyCompressedDataset.open(bytes(blob)) as lazy:
            with pytest.raises(PartIntegrityError, match="CRC-32"):
                lazy.parts[name]


class TestGoldenContainerV5:
    """The one written container version: ``golden_entry_v5.rpam`` is
    ``to_bytes()`` of the v2 fixture's ``golden/tac`` entry, and both
    faces of the writer must regenerate it byte for byte."""

    @pytest.fixture(scope="class")
    def expected_v5(self) -> dict:
        return json.loads((DATA / "golden_entry_v5.json").read_text())

    @pytest.fixture(scope="class")
    def source_entry(self, expected_v5):
        return materialized(DATA / expected_v5["source"])[expected_v5["key"]]

    def test_fixture_integrity(self, expected_v5):
        blob = (DATA / expected_v5["name"]).read_bytes()
        assert len(blob) == expected_v5["n_bytes"]
        assert hashlib.sha256(blob).hexdigest() == expected_v5["sha256"]
        assert blob[4] == expected_v5["container_version"] == 5

    def test_to_bytes_regenerates_fixture_bytes(self, expected_v5, source_entry):
        assert source_entry.to_bytes() == (DATA / expected_v5["name"]).read_bytes()

    def test_streaming_writer_on_a_file_regenerates_fixture_bytes(
        self, expected_v5, source_entry, tmp_path
    ):
        from repro.core.container import StreamingContainerWriter

        path = tmp_path / "entry.rpam"
        with StreamingContainerWriter(
            path, source_entry.method, source_entry.dataset_name,
            original_bytes=source_entry.original_bytes, n_values=source_entry.n_values,
        ) as writer:
            for name, payload in source_entry.parts.items():
                writer.add_part(name, payload)
            writer.set_meta(source_entry.meta)  # sealed after the payloads
        assert path.read_bytes() == (DATA / expected_v5["name"]).read_bytes()

    def test_round_trip_is_byte_stable_and_verified(self, expected_v5, source_entry):
        from repro.core.container import CompressedDataset, LazyCompressedDataset

        blob = (DATA / expected_v5["name"]).read_bytes()
        comp = CompressedDataset.from_bytes(blob)
        assert comp.parts == source_entry.parts
        assert comp.meta == source_entry.meta
        assert comp.to_bytes() == blob
        with LazyCompressedDataset.open(blob) as lazy:
            assert lazy.container_version == 5
            assert lazy.parts.verifies_integrity

    def test_flipped_payload_bit_raises_from_eager_parse(self, expected_v5):
        """What the v2 → v5 default buys: an eager parse now notices."""
        from repro.core.container import CompressedDataset, PartIntegrityError

        blob = bytearray((DATA / expected_v5["name"]).read_bytes())
        blob[4 + 9 + 16 + 3] ^= 0x01  # inside the first payload
        with pytest.raises(PartIntegrityError, match="CRC-32"):
            CompressedDataset.from_bytes(bytes(blob))


class TestGoldenGSPFormats:
    """Both GSP strategy formats are golden-pinned.

    ``golden_gsp_legacy.rpbt`` is the single-stream layout (strategy
    format 1, one ``L0/grid`` part) every blob used before brick chunking
    existed, ``golden_gsp_bricks.rpbt`` pins strategy format 2 (brick
    table part + one part per brick), and ``golden_gsp_shared.rpbt`` pins
    the shared-table layout on top of it (one ``L<idx>/table`` part per
    level, ``SEC_TABLE_REF`` sections in every stream).  The library
    writes format 2 only; the format-1 and shared-table writers live on
    as references in ``tests/helpers.py::retired_tac_layout``.  The JSON
    also records a 1/8-domain ROI read on the GSP level, so the
    partial-read *values* are pinned for every format, not just the wire
    bytes.  The blobs are v2-framed and frozen; the *parts* inside (GSP
    grid, brick table, RPHT table) stay writer-pinned — the shared
    fixture's byte for byte, the other two's SZ streams section by
    section once inflated (they predate run-length DEFLATE of the Huffman
    payload and table).
    """

    STEMS = ["golden_gsp_legacy", "golden_gsp_bricks", "golden_gsp_shared"]

    @pytest.fixture(scope="class")
    def expected_gsp(self) -> dict:
        return json.loads((DATA / "golden_gsp.json").read_text())

    def _blob(self, stem: str) -> bytes:
        return (DATA / f"{stem}.rpbt").read_bytes()

    def _codec(self, stem: str, expected_gsp):
        """The writer configuration behind ``stem`` (readers take theirs
        from the blob): the legacy level is one brick of format 2."""
        from repro.core.tac import TACCompressor

        brick = 16 if stem.endswith("legacy") else expected_gsp["brick_size"]
        return TACCompressor(brick_size=brick)

    @pytest.mark.parametrize("stem", STEMS)
    def test_fixture_integrity(self, stem, expected_gsp):
        blob = self._blob(stem)
        record = expected_gsp["blobs"][stem]
        assert len(blob) == record["n_bytes"]
        assert hashlib.sha256(blob).hexdigest() == record["sha256"]

    @pytest.mark.parametrize("stem", STEMS)
    def test_writer_regenerates_fixture_parts(self, stem, expected_gsp):
        """Re-compressing the analytic dataset reproduces every part of
        the checked-in blob, in order, plus its metadata — the two retired
        layouts through their reference writers, so every fixture stays
        reproducible offline.  (Only the container framing around the
        parts moved on from the fixture's v2.)

        The shared fixture's parts come back byte for byte: its reference
        writer re-codes every stream with level-1 DEFLATE, as the retired
        writer did.  The other two were written when the Huffman payload
        and table were LZ77-coded too, so their SZ streams are compared
        section by section, inflated — the proof those still read."""
        from repro.core.container import CompressedDataset
        from tests.helpers import assert_same_streams, golden_gsp_dataset, retired_tac_layout

        tac = self._codec(stem, expected_gsp)
        comp = retired_tac_layout(
            tac.compress(golden_gsp_dataset(), expected_gsp["eb"], mode=expected_gsp["mode"]),
            shared=stem.endswith("shared"),
            format1=stem.endswith("legacy"),
        )
        stored = CompressedDataset.from_bytes(self._blob(stem))
        assert list(comp.parts) == list(stored.parts)
        for name in stored.parts:
            if stem.endswith("shared"):
                assert comp.parts[name] == stored.parts[name], name
            else:
                assert_same_streams(comp.parts[name], stored.parts[name])
        assert comp.meta == stored.meta
        assert (comp.method, comp.original_bytes, comp.n_values) == (
            stored.method, stored.original_bytes, stored.n_values
        )

    @pytest.mark.parametrize("stem", STEMS)
    def test_decode_matches_recorded_stats_and_bound(self, stem, expected_gsp):
        from repro.core.container import CompressedDataset
        from tests.helpers import golden_gsp_dataset

        record = expected_gsp["blobs"][stem]
        comp = CompressedDataset.from_bytes(self._blob(stem))
        assert [m["strategy"] for m in comp.meta["levels"]] == record["strategies"]
        tac = self._codec(stem, expected_gsp)
        restored = tac.decompress(comp)
        original = golden_gsp_dataset()
        for lvl, stats, orig in zip(restored.levels, record["levels"], original.levels):
            assert lvl.level == stats["level"]
            assert lvl.n_points() == stats["n_points"]
            assert float(lvl.values().sum(dtype=np.float64)) == pytest.approx(
                stats["sum"], rel=1e-10, abs=1e-10
            )
            assert_error_bounded(orig.values(), lvl.values(), expected_gsp["eb"])

    @pytest.mark.parametrize("stem", STEMS)
    def test_roi_read_matches_recorded_values(self, stem, expected_gsp):
        from repro.core.container import LazyCompressedDataset

        record = expected_gsp["blobs"][stem]
        roi = tuple(slice(lo, hi) for lo, hi in expected_gsp["roi"])
        tac = self._codec(stem, expected_gsp)
        lazy = LazyCompressedDataset.open(self._blob(stem))
        region = tac.decompress_region(lazy, 0, roi)
        assert float(region.sum(dtype=np.float64)) == pytest.approx(
            record["roi_sum"], rel=1e-10, abs=1e-10
        )
        assert int(np.count_nonzero(region)) == record["roi_nonzero"]
        full = tac.decompress(LazyCompressedDataset.open(self._blob(stem)))
        assert np.array_equal(region, full.levels[0].data[roi])

    def test_brick_fixture_reads_fewer_parts_for_roi(self, expected_gsp):
        """The brick fixture's ROI read fetches a strict subset of the
        parts a full decode touches; the legacy fixture cannot (its GSP
        level is one stream) — the asymmetry the format bump exists for."""
        from repro.core.container import MASK_PREFIX, LazyCompressedDataset

        record = expected_gsp["blobs"]["golden_gsp_bricks"]
        roi = tuple(slice(lo, hi) for lo, hi in expected_gsp["roi"])
        tac = self._codec("golden_gsp_bricks", expected_gsp)
        blob = self._blob("golden_gsp_bricks")

        lazy_full = LazyCompressedDataset.open(blob)
        tac.decompress(lazy_full)
        full_parts = {n for n in lazy_full.parts.accessed() if not n.startswith(MASK_PREFIX)}
        lazy_roi = LazyCompressedDataset.open(blob)
        tac.decompress_region(lazy_roi, 0, roi)
        roi_parts = {n for n in lazy_roi.parts.accessed() if not n.startswith(MASK_PREFIX)}

        assert roi_parts < full_parts
        assert lazy_roi.parts.bytes_read < lazy_full.parts.bytes_read
        n_bricks = record["bricks"]["n"]
        touched = sum(1 for n in roi_parts if n.startswith("L0/b") and n != "L0/bricks")
        assert touched == 8  # 1/8-domain ROI on the 4^3 brick grid
        assert touched < n_bricks

    def test_shared_fixture_roi_reads_table_plus_touched_bricks(self, expected_gsp):
        """The shared fixture's ROI read fetches only the level's shared
        table part plus the bricks the ROI intersects — pruning survives
        the table indirection."""
        from repro.core.container import MASK_PREFIX, LazyCompressedDataset

        record = expected_gsp["blobs"]["golden_gsp_shared"]
        roi = tuple(slice(lo, hi) for lo, hi in expected_gsp["roi"])
        tac = self._codec("golden_gsp_shared", expected_gsp)
        lazy = LazyCompressedDataset.open(self._blob("golden_gsp_shared"))
        tac.decompress_region(lazy, 0, roi)
        parts = {n for n in lazy.parts.accessed() if not n.startswith(MASK_PREFIX)}

        assert record["shared_table"]["part"] in parts
        touched = sum(1 for n in parts if n.startswith("L0/b") and n != "L0/bricks")
        assert touched == 8  # same pruning as the per-stream brick fixture
        assert touched < record["bricks"]["n"]
        # Only metadata/table parts beyond the touched bricks.
        assert parts - {"L0/bricks", "L0/table"} == {
            n for n in parts if n.startswith("L0/b") and n != "L0/bricks"
        }


class TestGoldenIngestDelta:
    """The temporal-delta ingest fixture: a 3-step analytic series written
    through :class:`~repro.ingest.IngestSession` with ``keyframe_interval=2``
    (keyframe, closed-loop delta, cadence keyframe).  Pins the deferred-head
    streamed entries, the ``temporal`` entry/level metadata, the write path
    (full session replay must regenerate the bytes) and the read-side chain
    summation (per-level stats plus one pinned ROI)."""

    @pytest.fixture(scope="class")
    def expected_ingest(self) -> dict:
        return json.loads((DATA / "golden_ingest_delta.json").read_text())

    @pytest.fixture(scope="class")
    def head_path(self) -> Path:
        return DATA / "golden_ingest_delta.rpbt"

    def test_fixture_integrity(self, expected_ingest, head_path):
        head = expected_ingest["head"]
        blob = head_path.read_bytes()
        assert len(blob) == head["n_bytes"]
        assert hashlib.sha256(blob).hexdigest() == head["sha256"]
        assert is_batch_archive(blob)
        for record in expected_ingest["shards"]:
            shard = (DATA / record["name"]).read_bytes()
            assert len(shard) == record["n_bytes"]
            assert hashlib.sha256(shard).hexdigest() == record["sha256"]

    def test_temporal_metadata(self, expected_ingest, head_path):
        assert expected_ingest["temporal"][0]["mode"] == "keyframe"
        assert expected_ingest["temporal"][1]["mode"] == "delta"
        with LazyBatchArchive.open(head_path) as lazy:
            assert lazy.keys() == expected_ingest["keys"]
            for key, temporal in zip(
                expected_ingest["keys"], expected_ingest["temporal"]
            ):
                meta = lazy.entry(key).meta
                assert meta["temporal"] == temporal
                level_tags = {
                    lm.get("temporal") for lm in meta["levels"]
                }
                if temporal["mode"] == "delta":
                    assert level_tags == {"delta"}
                else:
                    assert level_tags == {None}

    def test_session_replay_regenerates_fixture_bytes(
        self, expected_ingest, head_path, tmp_path
    ):
        """Re-running the exact fixture construction — fresh series through
        a fresh IngestSession — must reproduce the checked-in bytes, so the
        whole write path (compress_iter chunking, residual encoding, v5
        deferred-head layout, shard packing) is golden-pinned."""
        from repro.ingest import IngestConfig, IngestSession
        from tests.helpers import golden_timestep_series

        series = golden_timestep_series(len(expected_ingest["keys"]))
        head = tmp_path / "golden_ingest_delta.rpbt"
        config = IngestConfig(
            error_bound=expected_ingest["eb"],
            mode=expected_ingest["mode"],
            keyframe_interval=expected_ingest["keyframe_interval"],
            shard_size=expected_ingest["shard_size"],
        )
        with IngestSession(head, config, meta={"fixture": "golden-ingest"}) as session:
            keys = session.extend(series)
        assert keys == expected_ingest["keys"]
        assert head.read_bytes() == head_path.read_bytes()
        for path, record in zip(
            session.report.write.shard_paths, expected_ingest["shards"]
        ):
            assert path.name == record["name"]
            assert path.read_bytes() == (DATA / record["name"]).read_bytes()

    def test_reconstructions_match_recorded_stats_and_bound(
        self, expected_ingest, head_path
    ):
        from repro.serve.reader import ArchiveReader
        from tests.helpers import golden_timestep_series

        series = golden_timestep_series(len(expected_ingest["keys"]))
        with ArchiveReader(head_path) as reader:
            for key, snapshot in zip(expected_ingest["keys"], series):
                for record in expected_ingest["reconstructed"][key]:
                    lvl, _stats = reader.read_level(key, record["level"])
                    assert int(lvl.mask.sum()) == record["n_points"]
                    got = float(lvl.data[lvl.mask].sum(dtype=np.float64))
                    assert got == record["sum"]  # bit-stable chain sum
                    want = snapshot.levels[record["level"]]
                    assert_error_bounded(
                        want.data[want.mask],
                        lvl.data[lvl.mask],
                        expected_ingest["eb"],
                    )

    def test_pinned_roi_read(self, expected_ingest, head_path):
        from repro.serve.reader import ArchiveReader

        roi = tuple(slice(lo, hi) for lo, hi in expected_ingest["roi"])
        with ArchiveReader(head_path) as reader:
            data, stats = reader.read_region(expected_ingest["keys"][1], 0, roi)
        assert len(stats.chain) == 2  # keyframe + delta
        assert float(data.sum(dtype=np.float64)) == expected_ingest["roi_sum"]
        assert int(np.count_nonzero(data)) == expected_ingest["roi_nonzero"]


class TestGoldenIngestStep:
    """The multi-field step fixture: two analytic fields on one structure
    written by one ``IngestSession.submit_step``.  Pins the one wire
    addition — the mask-less second entry and its ``meta["structure"]``
    reference — on the write side (session replay regenerates the bytes)
    and on the read side (the reference resolves; recorded per-level sums)."""

    @pytest.fixture(scope="class")
    def expected_step(self) -> dict:
        return json.loads((DATA / "golden_ingest_step.json").read_text())

    @pytest.fixture(scope="class")
    def head_path(self) -> Path:
        return DATA / "golden_ingest_step.rpbt"

    def test_fixture_integrity(self, expected_step, head_path):
        for record in (expected_step["head"], *expected_step["shards"]):
            blob = (DATA / record["name"]).read_bytes()
            assert len(blob) == record["n_bytes"]
            assert hashlib.sha256(blob).hexdigest() == record["sha256"]
        assert is_batch_archive(head_path.read_bytes())

    def test_structure_reference_is_stored_once(self, expected_step, head_path):
        holder, field = expected_step["keys"]
        assert holder == expected_step["structure"]
        with LazyBatchArchive.open(head_path, verify_shards=True) as lazy:
            assert lazy.keys() == expected_step["keys"]
            assert "structure" not in lazy.entry(holder).meta
            assert {"mask/L0", "mask/L1"} <= set(lazy.entry(holder).parts)
            assert lazy.entry(field).meta["structure"] == holder
            assert not [n for n in lazy.entry(field).parts if n.startswith("mask/")]

    def test_session_replay_regenerates_fixture_bytes(
        self, expected_step, head_path, tmp_path
    ):
        from repro.ingest import IngestSession
        from tests.helpers import golden_step_fields

        head = tmp_path / head_path.name
        with IngestSession(
            head, error_bound=expected_step["eb"], mode=expected_step["mode"],
            meta={"fixture": "golden-step"},
        ) as session:
            keys = session.submit_step(golden_step_fields())
        assert keys == expected_step["keys"]
        assert head.read_bytes() == head_path.read_bytes()
        for path, record in zip(session.report.write.shard_paths, expected_step["shards"]):
            assert path.name == record["name"]
            assert path.read_bytes() == (DATA / record["name"]).read_bytes()

    def test_reconstructions_match_recorded_stats_and_bound(
        self, expected_step, head_path
    ):
        from tests.helpers import golden_step_fields

        fields = golden_step_fields()
        with LazyBatchArchive.open(head_path) as lazy:
            for key, name in zip(expected_step["keys"], sorted(fields)):
                restored = lazy.decompress(key)  # no structure= from the caller
                for record in expected_step["reconstructed"][key]:
                    lvl = restored.levels[record["level"]]
                    want = fields[name].levels[record["level"]]
                    assert np.array_equal(lvl.mask, want.mask)
                    assert int(lvl.mask.sum()) == record["n_points"]
                    assert float(lvl.data[lvl.mask].sum(dtype=np.float64)) == record["sum"]
                    assert_error_bounded(
                        want.data[want.mask], lvl.data[lvl.mask], expected_step["eb"]
                    )
