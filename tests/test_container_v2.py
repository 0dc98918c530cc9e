"""Container + lazy-reader unit tests.

Contracts under test:

* ``to_bytes`` writes v5 and ``to_bytes → from_bytes → to_bytes`` is
  byte-stable; v1–v4 blobs (built by the test-only reference encoder
  ``tests.helpers.legacy_container_bytes``) parse to the same parts and
  re-serialize as v5 — mixed-version batch archives included, read
  through :class:`LazyBatchArchive`;
* :class:`LazyCompressedDataset` opens bytes, files, and archive members
  without reading any payload, serves parts on demand, and logs every
  fetch (the accounting partial-decode proofs rely on);
* corrupt/truncated inputs fail loudly, not with garbage data — and
  lazy-read failures carry the container path and part name
  (:class:`ContainerIOError`).
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.container import (
    CompressedDataset,
    ContainerIOError,
    LazyCompressedDataset,
    make_source,
    pack_mask,
)
from repro.cli import main
from repro.engine import LazyBatchArchive, codec_for_method, supports_partial_decode
from tests.helpers import (
    legacy_archive_bytes,
    legacy_container_bytes,
    two_level_dataset,
    write_archive,
)


@pytest.fixture(scope="module")
def sample() -> CompressedDataset:
    comp = CompressedDataset(
        method="tac",
        dataset_name="toy",
        meta={"shapes": [[4, 4, 4]], "levels": []},
        original_bytes=1024,
        n_values=64,
    )
    comp.parts["L0/layout"] = b"layout-bytes"
    comp.parts["L0/g0"] = b"group-zero-payload"
    comp.parts["mask/L0"] = pack_mask(np.ones((4, 4, 4), dtype=bool))
    return comp


class TestContainerV2:
    def test_roundtrip_byte_stable(self, sample):
        blob = sample.to_bytes()
        assert blob[4] == 5
        back = CompressedDataset.from_bytes(blob)
        assert back.parts == sample.parts
        assert back.meta == sample.meta
        assert back.to_bytes() == blob

    def test_old_blob_migrates_to_v5_on_reserialize(self, sample):
        back = CompressedDataset.from_bytes(legacy_container_bytes(sample, 2))
        assert back.parts == sample.parts
        assert back.to_bytes() == sample.to_bytes()

    def test_unknown_version_rejected(self, sample):
        blob = bytearray(sample.to_bytes())
        blob[4] = 99
        with pytest.raises(ValueError, match="unsupported container version"):
            CompressedDataset.from_bytes(bytes(blob))

    def test_trailing_bytes_rejected(self, sample):
        with pytest.raises(ValueError, match="trailing"):
            CompressedDataset.from_bytes(sample.to_bytes() + b"extra")

    def test_foreign_blob_rejected(self):
        with pytest.raises(ValueError, match="not a CompressedDataset"):
            CompressedDataset.from_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(ValueError, match="not a CompressedDataset"):
            CompressedDataset.from_bytes(b"RPAM\x05")  # shorter than the header


class TestContainerV3:
    def test_all_versions_carry_identical_parts(self, sample):
        blobs = {v: legacy_container_bytes(sample, v) for v in (1, 2, 3)}
        assert len(set(blobs.values())) == 3  # framing differs
        parsed = {v: CompressedDataset.from_bytes(b).parts for v, b in blobs.items()}
        assert parsed[1] == parsed[2] == parsed[3] == sample.parts

    def test_v3_trailing_bytes_rejected(self, sample):
        with pytest.raises(ValueError, match="trailing"):
            CompressedDataset.from_bytes(legacy_container_bytes(sample, 3) + b"extra")

    def test_v3_truncated_blob_fails_at_open(self, sample):
        """The tail index is the last thing written: a truncated v3 blob
        cannot even open, rather than serving a partial part set."""
        with pytest.raises(ValueError):
            LazyCompressedDataset.open(legacy_container_bytes(sample, 3)[:-10]).parts["mask/L0"]

    def test_v3_overstated_part_length_rejected(self, sample):
        """A tampered tail index whose part overlaps the index region must
        fail loudly, not serve a silently truncated payload."""
        import struct

        blob = bytearray(legacy_container_bytes(sample, 3))
        index_off, index_len = struct.unpack_from("<QQ", blob, 13)
        import json

        index = json.loads(bytes(blob[index_off : index_off + index_len]))
        index[0][2] += 1000
        new_index = json.dumps(index, sort_keys=True).encode("utf-8")
        tampered = blob[:index_off] + new_index
        struct.pack_into("<QQ", tampered, 13, index_off, len(new_index))
        with pytest.raises(ValueError, match="payload region"):
            CompressedDataset.from_bytes(bytes(tampered))
        with pytest.raises(ValueError, match="payload region"):
            LazyCompressedDataset.open(bytes(tampered))


class TestContainerIOErrors:
    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope" / "gone.rpam"
        with pytest.raises(ContainerIOError, match="gone.rpam"):
            make_source(missing)
        with pytest.raises(OSError):
            LazyCompressedDataset.open(missing)

    def test_part_read_failure_names_part_and_source(self, sample, tmp_path):
        path = tmp_path / "cut.rpam"
        # v2 keeps its index up front, so a cut tail opens and the *part*
        # read fails (a v5 blob, index at the tail, fails at open).
        path.write_bytes(legacy_container_bytes(sample, 2)[:-5])
        lazy = LazyCompressedDataset.open(path)
        with pytest.raises(ContainerIOError) as excinfo:
            lazy.parts["mask/L0"]
        message = str(excinfo.value)
        assert "mask/L0" in message
        assert "cut.rpam" in message
        # Both historical except clauses keep catching it.
        assert isinstance(excinfo.value, OSError)
        assert isinstance(excinfo.value, ValueError)


class TestLazyCompressedDataset:
    @pytest.fixture(scope="class", params=[1, 2, 3], ids=["v1", "v2", "v3"])
    def blob(self, request, sample):
        return legacy_container_bytes(sample, request.param)

    def test_header_without_payload_reads(self, blob, sample):
        lazy = LazyCompressedDataset.open(blob)
        assert lazy.method == "tac"
        assert lazy.dataset_name == "toy"
        assert lazy.meta == sample.meta
        assert lazy.part_sizes() == sample.part_sizes()
        assert lazy.compressed_bytes() == sample.compressed_bytes()
        assert lazy.compressed_bytes(include_masks=False) == sample.compressed_bytes(
            include_masks=False
        )
        assert "L0/g0" in lazy.parts  # membership probes read nothing
        assert lazy.parts.accessed() == set()
        assert lazy.parts.bytes_read == 0

    def test_parts_served_on_demand_and_logged(self, blob, sample):
        lazy = LazyCompressedDataset.open(blob)
        assert lazy.parts["L0/g0"] == sample.parts["L0/g0"]
        assert lazy.parts.accessed() == {"L0/g0"}
        assert lazy.parts.bytes_read == len(sample.parts["L0/g0"])
        assert lazy.parts["L0/g0"] == sample.parts["L0/g0"]
        assert lazy.parts.access_counts["L0/g0"] == 2
        assert lazy.parts.n_reads == 2

    def test_materialize_matches_eager(self, blob):
        lazy = LazyCompressedDataset.open(blob)
        eager = CompressedDataset.from_bytes(blob)
        materialized = lazy.materialize()
        assert materialized.parts == eager.parts
        assert materialized.to_bytes() == eager.to_bytes()

    def test_open_from_file_and_fileobj(self, blob, tmp_path):
        path = tmp_path / "blob.rpam"
        path.write_bytes(blob)
        with LazyCompressedDataset.open(path) as lazy:
            assert lazy.parts["L0/layout"] == b"layout-bytes"
        with LazyCompressedDataset.open(io.BytesIO(blob)) as lazy:
            assert lazy.parts["L0/layout"] == b"layout-bytes"

    def test_unknown_part_raises(self, blob):
        lazy = LazyCompressedDataset.open(blob)
        with pytest.raises(KeyError):
            lazy.parts["nope"]

    def test_truncated_blob_fails_loudly(self, blob):
        if blob[4] == 3:
            # v3 keeps its index at the tail: truncation fails at open.
            with pytest.raises(ValueError, match="read past end|short read"):
                LazyCompressedDataset.open(blob[:-5])
            return
        lazy = LazyCompressedDataset.open(blob[:-5])
        with pytest.raises(ValueError, match="read past end|short read"):
            lazy.parts["mask/L0"]  # last part's payload is cut off

    def test_unsupported_source_type(self):
        with pytest.raises(TypeError, match="byte source"):
            LazyCompressedDataset.open(12345)


class TestArchiveVersions:
    """The read-only monolithic archives (v1 / v2, from the reference
    writer ``tests.helpers.legacy_archive_bytes``) next to the entries
    they were built from."""

    @pytest.fixture(scope="class")
    def entries(self) -> dict:
        ds = two_level_dataset(n=8, fine_fraction=0.3, seed=3)
        from repro.engine import get_codec

        return {
            f"toy/{name}": get_codec(name).compress(ds, 1e-3, mode="abs")
            for name in ("tac", "1d")
        }

    @staticmethod
    def _archive(entries, version: int) -> bytes:
        """A v``version`` archive of container-v``version`` entries."""
        blobs = {key: legacy_container_bytes(comp, version) for key, comp in entries.items()}
        return legacy_archive_bytes(blobs, version, {"purpose": "v2-test"})

    def test_v2_reads_back_the_entries(self, entries):
        with LazyBatchArchive.open(self._archive(entries, 2)) as lazy:
            assert lazy.version == 2
            assert lazy.meta == {"purpose": "v2-test"}
            for key, comp in entries.items():
                assert lazy.entry(key).materialize().parts == comp.parts

    def test_v1_archive_reads_and_migrates(self, entries, tmp_path):
        """Its entries re-written through the one archive writer are the
        bytes the fresh entries write (container v5, sharded v3)."""
        for sub in ("fresh", "migrated"):
            (tmp_path / sub).mkdir()
        fresh = write_archive(tmp_path / "fresh" / "a.rpbt", entries)
        with LazyBatchArchive.open(self._archive(entries, 1)) as lazy:
            assert lazy.version == 1  # what was read
            assert {k: lazy.entry(k).materialize().parts for k in lazy.keys()} == {
                k: c.parts for k, c in entries.items()
            }
            migrated = write_archive(
                tmp_path / "migrated" / "a.rpbt", {k: lazy.entry(k) for k in lazy.keys()}
            )
        for path in [fresh, *fresh.parent.glob("*.rpsh")]:
            assert (migrated.parent / path.name).read_bytes() == path.read_bytes()

    def test_mixed_entry_versions(self, entries):
        tac = entries["toy/tac"]
        blobs = {
            "toy/tac": legacy_container_bytes(tac, 1),
            "toy/1d": legacy_container_bytes(entries["toy/1d"], 3),
            "toy/v5": tac.to_bytes(),
        }
        blob = legacy_archive_bytes(blobs, 2)
        with LazyBatchArchive.open(blob) as lazy:
            versions = {key: lazy.entry(key).container_version for key in lazy.keys()}
            assert versions == {"toy/tac": 1, "toy/1d": 3, "toy/v5": 5}
            for key in lazy.keys():
                reference = entries["toy/1d" if key == "toy/1d" else "toy/tac"]
                assert lazy.entry(key).materialize().parts == reference.parts
        with pytest.raises(ValueError, match="trailing"):
            LazyBatchArchive.open(blob + b"x")

    def test_lazy_open_both_versions(self, entries):
        from repro.engine import codec_for_method

        for version in (1, 2):
            with LazyBatchArchive.open(self._archive(entries, version)) as lazy:
                assert lazy.version == version
                assert sorted(lazy.keys()) == sorted(entries)
                entry = lazy.entry("toy/tac")
                assert entry.container_version == version
                assert entry.part_sizes() == entries["toy/tac"].part_sizes()
                restored = lazy.decompress("toy/tac")
                reference = codec_for_method("tac").decompress(entries["toy/tac"])
                for a, b in zip(reference.levels, restored.levels):
                    assert np.array_equal(a.data, b.data)

    @staticmethod
    def _reindexed(blob: bytes, key: str, offset_delta: int = 0, length_delta: int = 0) -> bytes:
        """``blob`` (a v2 archive) with one index row moved or stretched."""
        import json
        import struct

        head_len = struct.unpack_from("<Q", blob, 5)[0]
        record = json.loads(blob[13 : 13 + head_len])
        offset, length = record["index"][key]
        record["index"][key] = [offset + offset_delta, length + length_delta]
        head = json.dumps(record, sort_keys=True).encode("utf-8")
        return blob[:5] + struct.pack("<Q", len(head)) + head + blob[13 + head_len :]

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda blob: blob + b"junk", "4 trailing bytes after last archive entry"),
            (
                lambda blob: TestArchiveVersions._reindexed(blob, "toy/1d", length_delta=10**9),
                "archive entry 'toy/1d'",
            ),
            (
                # The first entry's offset is 0, so this one is -5.
                lambda blob: TestArchiveVersions._reindexed(blob, "toy/1d", offset_delta=-5),
                "archive entry 'toy/1d'",
            ),
        ],
        ids=["trailing-junk", "length-past-end", "negative-offset"],
    )
    def test_damaged_monolithic_archive_fails_at_open(self, entries, mutate, message):
        """The parser checks a v1/v2 index before trusting it: every entry
        inside the payload region, nothing after the last one."""
        blob = self._archive(entries, 2)
        with LazyBatchArchive.open(blob) as lazy:  # the intact archive opens
            assert lazy.entry("toy/tac").materialize().parts == entries["toy/tac"].parts
        assert self._reindexed(blob, "toy/tac") == blob
        with pytest.raises(ValueError, match=message):
            LazyBatchArchive.open(mutate(blob))

    def test_lazy_missing_entry(self, entries):
        with LazyBatchArchive.open(self._archive(entries, 2)) as lazy:
            with pytest.raises(KeyError, match="no entry"):
                lazy.entry("nope")

    def test_lazy_rejects_foreign_blobs(self):
        with pytest.raises(ValueError, match="not a batch archive"):
            LazyBatchArchive.open(b"junkjunkjunkjunk")

    def test_partial_reads_reject_non_partial_codecs(self, tmp_path, scratch_registry, capsys):
        """A Codec-protocol-only downstream codec restores whole entries,
        through ``repro decompress`` too, and a level read of it is a usage
        error naming the method."""
        from repro.amr.hierarchy import AMRDataset
        from repro.core.container import CompressedDataset
        from repro.engine import register

        @register("blobonly", method_name="blobonly", description="test only")
        class BlobOnlyCodec:
            method_name = "blobonly"

            def compress(self, dataset, error_bound, mode="rel"):
                raise NotImplementedError

            def decompress(self, comp, structure=None):
                import numpy as _np
                from repro.amr.hierarchy import AMRLevel

                shape = (comp.meta["edge"],) * 3  # no partial-decode ``shapes``
                lvl = AMRLevel(
                    data=_np.zeros(shape, dtype=_np.float32),
                    mask=_np.ones(shape, dtype=bool),
                    level=0,
                )
                return AMRDataset(levels=[lvl], name="blob")

        head = write_archive(
            tmp_path / "blobonly.rpbt",
            {
                "x": CompressedDataset(
                    method="blobonly", dataset_name="x",
                    meta={"edge": 4},
                )
            },
        )
        with LazyBatchArchive.open(head) as stored:
            restored = stored.decompress("x")
            assert restored.n_levels == 1
        assert not supports_partial_decode(codec_for_method("blobonly"))
        out = tmp_path / "x.npz"
        assert main(["decompress", str(head), "-o", str(out)]) == 0
        out.unlink()
        assert main(["decompress", str(head), "-o", str(out), "--level", "0"]) == 2
        assert "'blobonly' has no partial-decode support" in capsys.readouterr().err
        assert not out.exists()

    def test_indexed_entries_match_manifest(self, entries):
        with LazyBatchArchive.open(self._archive(entries, 2)) as lazy:
            assert [row["key"] for row in lazy.manifest()] == sorted(entries)
            for row in lazy.manifest():
                entry = lazy.entry(row["key"])
                assert entry.compressed_bytes() == row["compressed_bytes"]
                assert len(entry.parts) == row["n_parts"] == len(entries[row["key"]].parts)


class TestCollapsePartSizes:
    """Display aggregation of numbered sibling parts (brick/group streams)."""

    def test_numbered_runs_collapse_above_threshold(self):
        from repro.core.container import collapse_part_sizes

        sizes = {f"L0/b{i}": 10 for i in range(6)}
        sizes.update({"L0/bricks": 3, "L1/layout": 7, "mask/L0": 5})
        rows = collapse_part_sizes(sizes)
        assert ("L0/b* x6", 6, 60) in rows
        # Small families and unnumbered parts keep their own rows.
        assert ("L0/bricks", 1, 3) in rows
        assert ("L1/layout", 1, 7) in rows
        assert ("mask/L0", 1, 5) in rows

    def test_small_families_stay_individual(self):
        from repro.core.container import collapse_part_sizes

        sizes = {"L1/g0": 4, "L1/g1": 6, "L0/grid": 9}
        rows = collapse_part_sizes(sizes)
        assert ("L1/g0", 1, 4) in rows and ("L1/g1", 1, 6) in rows
        assert ("L0/grid", 1, 9) in rows

    def test_totals_preserved(self):
        from repro.core.container import collapse_part_sizes

        sizes = {f"L0/b{i}": i + 1 for i in range(12)}
        rows = collapse_part_sizes(sizes)
        assert sum(total for _label, _count, total in rows) == sum(sizes.values())
