"""Shared-histogram Huffman blobs: a read-only format (writer retired).

One code table per TAC level (``L<idx>/table`` container part), referenced
by every stream through a fixed-size ``SEC_TABLE_REF`` section.  Inputs
come from the reference writers in ``tests/helpers.py`` and the frozen
``golden_gsp_shared.rpbt``.  The tests pin the three layers:

* the standalone table part format (``RPHT``) and the reference section
  parse and fail loudly on corruption; the fetch-time rewrite
  (:class:`repro.core.tac.SharedTableResolver`) turns a referencing
  stream into the ordinary one the single-format SZ decoder reads;
* TAC reads such blobs end-to-end — bit-identical reconstruction against
  the per-stream blob of the same data, pruned ROI reads fetch only the
  table plus the touched bricks, the table part is resolved exactly once
  per read, and a damaged table or reference costs a degraded read
  exactly its level's streams;
* the serving layer (:class:`repro.serve.reader.ArchiveReader`) decodes
  on its pipeline's workers bit-identically to the serial codec, and
  resolves the cached table concurrently without tearing.
"""

from __future__ import annotations

import dataclasses
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.container import (
    MASK_PREFIX,
    CompressedDataset,
    ContainerIOError,
    LazyCompressedDataset,
    collapse_part_sizes,
)
from repro.core.tac import SharedTableResolver, TACCompressor
from repro.engine import LazyBatchArchive
from repro.sz import stream
from repro.sz.compressor import SZCompressor
from tests.helpers import (
    golden_gsp_dataset,
    reserialize_stream,
    retired_tac_layout,
    rpht_table,
    shared_table_streams,
    write_archive,
)

EB = 1e-3
ROI = (slice(0, 8), slice(0, 8), slice(0, 8))
GOLDEN = Path(__file__).parent / "data" / "golden_gsp_shared.rpbt"


@pytest.fixture(scope="module")
def dataset():
    return golden_gsp_dataset()


@pytest.fixture(scope="module")
def shared_comp(dataset):
    return retired_tac_layout(
        TACCompressor(brick_size=4).compress(dataset, EB, mode="abs"), shared=True
    )


class TestTableWireFormat:
    def test_table_ref_round_trip(self):
        raw = struct.pack("<II", 0xDEADBEEF, 8193)
        assert stream.unpack_table_ref(raw) == {
            "table_id": 0xDEADBEEF,
            "alphabet": 8193,
        }

    def test_table_ref_rejects_bad_length(self):
        with pytest.raises(ValueError, match="malformed table reference"):
            stream.unpack_table_ref(b"\x00" * 7)

    def test_shared_table_round_trip(self):
        lengths = np.array([0, 3, 3, 2, 2, 4, 4, 0, 1], dtype=np.uint8)
        blob = rpht_table(lengths, max_len=4)
        table = stream.unpack_shared_table(blob)
        assert np.array_equal(table["code_lengths"], lengths)
        assert table["max_len"] == 4
        assert table["alphabet"] == lengths.size
        assert table["table_id"] == stream.shared_table_id(lengths.tobytes())

    def test_shared_table_rejects_bad_magic(self):
        blob = rpht_table(np.ones(4, dtype=np.uint8), max_len=1)
        with pytest.raises(ValueError, match="bad magic"):
            stream.unpack_shared_table(b"XXXX" + blob[4:])

    def test_shared_table_rejects_bad_version(self):
        blob = rpht_table(np.ones(4, dtype=np.uint8), max_len=1)
        bad = blob[:4] + bytes([stream.TABLE_VERSION + 1]) + blob[5:]
        with pytest.raises(ValueError, match="unsupported shared-table version"):
            stream.unpack_shared_table(bad)

    def test_shared_table_rejects_truncation(self):
        blob = rpht_table(np.ones(64, dtype=np.uint8), max_len=1)
        with pytest.raises(ValueError, match="truncated"):
            stream.unpack_shared_table(blob[:-1])
        with pytest.raises(ValueError, match="too short"):
            stream.unpack_shared_table(blob[:8])

    def test_shared_table_detects_corrupt_payload(self):
        # Flip a bit in the stored (raw-codec) length bytes: the CRC in
        # the header no longer matches.
        lengths = np.arange(1, 9, dtype=np.uint8)
        blob = bytearray(rpht_table(lengths, max_len=8))
        blob[-1] ^= 0x01
        with pytest.raises(ValueError, match="checksum mismatch"):
            stream.unpack_shared_table(bytes(blob))

    def test_resolver_validates_reference(self):
        sz = SZCompressor()
        table, (blob,), info = shared_table_streams([sz.compress(np.arange(64.0), 1e-3)])
        resolver = SharedTableResolver({"t": table}, "t")
        lengths = stream.unpack_shared_table(table)["code_lengths"]
        ordinary = stream.parse(resolver.ordinary(blob))
        assert stream.SEC_TABLE_REF not in ordinary.sections
        section = ordinary.section(stream.SEC_CODE_LENGTHS)
        lo, window = stream.unpack_code_lengths(section, lengths.size)
        assert lo == np.flatnonzero(lengths)[0]
        assert np.array_equal(window, np.trim_zeros(lengths))
        for ref, message in (
            ((info["id"] ^ 1, info["alphabet"]), "table id"),
            ((info["id"], info["alphabet"] + 1), "alphabet"),
        ):
            bad = reserialize_stream(blob, {stream.SEC_TABLE_REF: struct.pack("<II", *ref)})
            with pytest.raises(ValueError, match=message):
                resolver.ordinary(bad)

    def test_streams_without_a_reference_pass_through(self):
        sz = SZCompressor()
        resolver = SharedTableResolver({}, "t")  # never fetched
        for blob in (sz.compress(np.zeros((0, 4)), 1e-3), sz.compress(np.arange(8.0), 0.0)):
            assert resolver.ordinary(blob) is blob


class TestSZSharedStreams:
    def _streams(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(6, 512)).astype(np.float64)
        # Correlated streams: the regime where one table fits all.
        return [np.cumsum(row).reshape(8, 8, 8) for row in base]

    def test_shared_streams_decode_identically(self):
        sz = SZCompressor()
        private = [sz.compress(arr, 1e-3) for arr in self._streams()]
        table, shared, _info = shared_table_streams(private)
        resolver = SharedTableResolver({"t": table}, "t")
        for blob, own in zip(shared, private):
            sizes = stream.parse(blob).section_sizes()
            assert stream.SEC_CODE_LENGTHS not in sizes
            assert sizes[stream.SEC_TABLE_REF] == 8
            assert np.array_equal(sz.decompress(resolver.ordinary(blob)), sz.decompress(own))

    def test_shared_blob_without_its_table_fails_loudly(self):
        """The decoder reads one format: a referencing stream that skipped
        the fetch-time rewrite has no code lengths to decode with."""
        sz = SZCompressor()
        _table, (blob,), _info = shared_table_streams([sz.compress(self._streams()[0], 1e-3)])
        with pytest.raises(ValueError, match=f"missing required section {stream.SEC_CODE_LENGTHS}"):
            sz.decompress(blob)


class TestTACSharedMode:
    def test_bit_identical_to_per_stream_decode(self, dataset, shared_comp):
        per = TACCompressor(brick_size=4)
        out_per = per.decompress(per.compress(dataset, EB, mode="abs"))
        out_shared = per.decompress(shared_comp)
        for a, b in zip(out_per.levels, out_shared.levels):
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(a.mask, b.mask)

    def test_one_table_part_per_entropy_level(self, shared_comp):
        tables = [n for n in shared_comp.parts if n.endswith("/table")]
        metas = [m for m in shared_comp.meta["levels"] if "shared_table" in m]
        assert tables and len(tables) == len(metas)
        for meta in metas:
            info = meta["shared_table"]
            table = stream.unpack_shared_table(shared_comp.parts[info["part"]])
            assert table["table_id"] == info["id"]
            assert table["alphabet"] == info["alphabet"]

    def test_default_config_reader_decodes_shared_blob(self, shared_comp, dataset):
        """Reading never depends on the writer's config: the resolver comes
        from the blob's level meta."""
        restored = TACCompressor().decompress(
            LazyCompressedDataset.open(shared_comp.to_bytes())
        )
        reference = TACCompressor(brick_size=4).decompress(shared_comp)
        for a, b in zip(restored.levels, reference.levels):
            assert np.array_equal(a.data, b.data)

    def test_roi_fetches_table_plus_touched_bricks_only(self, shared_comp):
        tac = TACCompressor(brick_size=4)
        lazy = LazyCompressedDataset.open(shared_comp.to_bytes())
        region = tac.decompress_region(lazy, 0, ROI)
        full = tac.decompress(shared_comp)
        assert np.array_equal(region, full.levels[0].data[ROI])

        accessed = {
            n for n in lazy.parts.accessed() if not n.startswith(MASK_PREFIX)
        }
        bricks = {n for n in accessed if n.startswith("L0/b") and n != "L0/bricks"}
        # The bricks index is parsed at plan time (before the logged ROI
        # fetches); the payload reads are exactly the table + the bricks.
        assert accessed - {"L0/bricks"} == bricks | {"L0/table"}
        assert len(bricks) == 8  # 1/8-domain ROI on the 4^3 brick grid
        # The table part is fetched exactly once, not once per brick.
        assert lazy.parts.access_counts["L0/table"] == 1

    def test_collapse_groups_table_parts(self, shared_comp):
        labels = [label for label, _count, _size in collapse_part_sizes(shared_comp.part_sizes())]
        n_tables = sum(1 for n in shared_comp.parts if n.endswith("/table"))
        assert n_tables >= 2
        assert f"L*/table x{n_tables}" in labels
        assert not any(label.endswith("/table") for label in labels)

    def test_collapse_keeps_single_table_raw(self):
        labels = [label for label, _c, _s in collapse_part_sizes({"L0/table": 64, "L0/grid": 256})]
        assert "L0/table" in labels


def _rewrite_refs(parts: dict, table_id_xor: int = 0, alphabet_add: int = 0) -> None:
    """Point every L0 brick's ``SEC_TABLE_REF`` at a table L0 does not hold."""
    for name in [n for n in parts if n.startswith("L0/b") and n != "L0/bricks"]:
        ref = stream.unpack_table_ref(stream.parse(parts[name]).section(stream.SEC_TABLE_REF)[1])
        bad = struct.pack("<II", ref["table_id"] ^ table_id_xor, ref["alphabet"] + alphabet_add)
        parts[name] = reserialize_stream(parts[name], {stream.SEC_TABLE_REF: bad})


#: mutation of the frozen blob's parts → what the reader says about it
DAMAGE = {
    "wrong-table-id": (lambda parts: _rewrite_refs(parts, table_id_xor=1), "table id"),
    "wrong-alphabet": (lambda parts: _rewrite_refs(parts, alphabet_add=1), "alphabet"),
    "missing-table": (lambda parts: parts.pop("L0/table"), "L0/table"),
    "truncated-table": (
        lambda parts: parts.update({"L0/table": parts["L0/table"][:-1]}), "truncated",
    ),
    "bad-magic-table": (
        lambda parts: parts.update({"L0/table": b"XXXX" + parts["L0/table"][4:]}), "bad magic",
    ),
}


class TestDamagedSharedTable:
    """A shared level whose table or references are damaged fails loudly
    on an eager decode and costs a degraded read exactly that level's
    bricks — the other level (its own table intact) still decodes."""

    @pytest.fixture(scope="class")
    def golden(self):
        return CompressedDataset.from_bytes(GOLDEN.read_bytes())

    @pytest.fixture(params=sorted(DAMAGE))
    def damaged(self, request, golden):
        mutate, message = DAMAGE[request.param]
        parts = dict(golden.parts)
        mutate(parts)
        return dataclasses.replace(golden, parts=parts), message

    def test_eager_decompress_raises(self, damaged):
        comp, message = damaged
        with pytest.raises((ValueError, ContainerIOError), match=message):
            TACCompressor().decompress(comp)
        with pytest.raises((ValueError, ContainerIOError), match=message):
            TACCompressor().decompress(LazyCompressedDataset.open(comp.to_bytes()))

    def test_degraded_read_loses_exactly_the_levels_bricks(self, damaged, golden, tmp_path):
        from repro.serve.reader import ArchiveReader

        comp, message = damaged
        write_archive(tmp_path / "damaged.rpbt", {"gsp/shared": comp})
        intact = TACCompressor().decompress(golden)
        n_bricks = golden.meta["levels"][0]["bricks"]["n"]
        with ArchiveReader(tmp_path / "damaged.rpbt", degraded=True, fill_value=-7.0) as reader:
            lost, stats = reader.read_level("gsp/shared", 0)
            other, other_stats = reader.read_level("gsp/shared", 1)
        assert sorted(row["unit"] for row in stats.errors) == sorted(
            f"L0/b{i}" for i in range(n_bricks)
        )
        assert all(message in row["error"] for row in stats.errors)
        assert np.array_equal(lost.mask, intact.levels[0].mask)
        assert np.all(lost.data[lost.mask] == -7.0)
        assert other_stats.errors == []
        assert np.array_equal(other.data, intact.levels[1].data)


class TestServeSharedTables:
    @pytest.fixture(scope="class")
    def archive_path(self, tmp_path_factory, shared_comp):
        path = tmp_path_factory.mktemp("serve") / "shared.rpbt"
        return write_archive(path, {"gsp/shared": shared_comp})

    def test_pipeline_level_reads_match_serial(self, archive_path, shared_comp):
        from repro.serve.reader import ArchiveReader

        serial = TACCompressor(brick_size=4).decompress(shared_comp)
        with ArchiveReader(archive_path, cache_bytes=0) as reader:
            for idx, lvl in enumerate(serial.levels):
                threaded, _stats = reader.read_level("gsp/shared", idx)
                assert np.array_equal(threaded.data, lvl.data)
                assert np.array_equal(threaded.mask, lvl.mask)

    def test_concurrent_roi_reads_match_serial(self, archive_path, dataset):
        """Satellite stress: many threads resolve the cached shared table
        concurrently through the read service; every ROI must match the
        serial single-codec reference."""
        from repro.serve.reader import ArchiveReader

        tac = TACCompressor(brick_size=4)
        rois = [
            (slice(x, x + 8), slice(y, y + 8), slice(0, 16))
            for x in (0, 4, 8) for y in (0, 4, 8)
        ]
        reference = {}
        with LazyBatchArchive.open(archive_path) as archive:
            for i, roi in enumerate(rois):
                reference[i] = tac.decompress_region(archive.entry("gsp/shared"), 0, roi)

        results: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []
        with ArchiveReader(archive_path, request_workers=4) as reader:
            barrier = threading.Barrier(len(rois))

            def worker(i, roi):
                try:
                    barrier.wait(timeout=30)
                    data, _stats = reader.read_region("gsp/shared", 0, roi)
                    results[i] = data
                except BaseException as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i, roi))
                for i, roi in enumerate(rois)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors, errors
        assert len(results) == len(rois)
        for i in range(len(rois)):
            assert np.array_equal(results[i], reference[i])


class TestCLISharedTables:
    def test_inspect_and_decompress_the_frozen_blob(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["inspect", str(GOLDEN)]) == 0
        shown = capsys.readouterr().out
        assert "shared table 0x" in shown and "L*/table" in shown
        assert main(["decompress", str(GOLDEN), "-o", str(tmp_path / "back.npz")]) == 0
