"""Reader matrix: every container version through every way of opening it.

One table of readers × one table of versions: a v1…v5 blob of the same
dataset must hand back the same ``(method, dataset_name, meta, parts)``
whether it is parsed eagerly, opened lazily over bytes or a file, found at
an offset inside a larger buffer (a payload shard), or served as an entry
of a monolithic archive.  And one table of mutations: a damaged blob must
raise the same exception class from the eager parse and from the lazy
open that knows the blob's length (an archive entry) — both sit on
``_read_layout``, so they cannot disagree.

v1–v4 inputs come from ``tests.helpers.legacy_container_bytes`` (the
library only writes v5); the committed golden fixtures pin the same
layouts byte-exactly in ``test_golden_format.py``.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.core.container import (
    CompressedDataset,
    LazyCompressedDataset,
    PartIntegrityError,
)
from repro.core.tac import TACCompressor
from repro.engine import LazyBatchArchive
from tests.helpers import legacy_archive_bytes, legacy_container_bytes, two_level_dataset

VERSIONS = (1, 2, 3, 4, 5)
HEADER = 4 + 9  # magic + version byte + u64 head_len


@pytest.fixture(scope="module")
def comp() -> CompressedDataset:
    ds = two_level_dataset(n=8, fine_fraction=0.3, seed=5)
    return TACCompressor(brick_size=4).compress(ds, 1e-3, mode="abs")


def blob_of(comp, version: int) -> bytes:
    return comp.to_bytes() if version == 5 else legacy_container_bytes(comp, version)


def surface(entry) -> tuple:
    return (
        entry.method,
        entry.dataset_name,
        entry.meta,
        {name: bytes(entry.parts[name]) for name in entry.parts},
    )


# -- readers: (blob, tmp_path) -> (stored version or None, surface) -------------
def read_eager(blob, tmp_path):
    return None, surface(CompressedDataset.from_bytes(blob))


def read_lazy_bytes(blob, tmp_path):
    with LazyCompressedDataset.open(blob) as lazy:
        return lazy.container_version, surface(lazy)


def read_lazy_file(blob, tmp_path):
    path = tmp_path / "blob.rpam"
    path.write_bytes(blob)
    with LazyCompressedDataset.open(path) as lazy:
        return lazy.container_version, surface(lazy)


def read_lazy_at_offset(blob, tmp_path):
    """As inside a payload shard: other bytes before and after."""
    path = tmp_path / "shard.rpsh"
    path.write_bytes(b"\xaa" * 37 + blob + b"\xbb" * 11)
    with LazyCompressedDataset.open(path, offset=37) as lazy:
        return lazy.container_version, surface(lazy)


def read_archive_entry(blob, tmp_path):
    archive = legacy_archive_bytes({"a/first": blob_of_filler(), "k/entry": blob}, 2)
    with LazyBatchArchive.open(archive) as lazy:
        entry = lazy.entry("k/entry")
        eager = surface(entry.materialize())
        assert surface(entry) == eager
        return entry.container_version, eager


def blob_of_filler() -> bytes:
    return CompressedDataset(method="x", dataset_name="filler", parts={"p": b"f" * 23}).to_bytes()


READERS = {
    "from_bytes": read_eager,
    "lazy_bytes": read_lazy_bytes,
    "lazy_file": read_lazy_file,
    "lazy_at_offset": read_lazy_at_offset,
    "archive_entry": read_archive_entry,
}


class TestReaderMatrix:
    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("version", VERSIONS)
    def test_every_version_through_every_reader(self, comp, version, reader, tmp_path):
        blob = blob_of(comp, version)
        assert blob[4] == version
        stored, got = READERS[reader](blob, tmp_path)
        assert stored in (None, version)
        assert got == (comp.method, comp.dataset_name, comp.meta, comp.parts)
        assert list(got[3]) == list(comp.parts)  # wire order too

    @pytest.mark.parametrize("version", VERSIONS)
    def test_reserialization_lands_on_v5(self, comp, version):
        back = CompressedDataset.from_bytes(blob_of(comp, version))
        assert back.to_bytes() == comp.to_bytes()


# -- mutations: (blob, version) -> damaged blob ---------------------------------
def _index_rows(blob, version):
    """``(rows, rewrite)`` for the versions that carry index rows."""
    (head_len,) = struct.unpack_from("<Q", blob, 5)
    if version == 2:
        head = json.loads(blob[HEADER : HEADER + head_len])

        def rewrite(rows):
            head["part_index"] = rows
            new = json.dumps(head, sort_keys=True).encode("utf-8")
            return blob[:4] + struct.pack("<BQ", 2, len(new)) + new + blob[HEADER + head_len :]

        return head["part_index"], rewrite
    index_off, index_len = struct.unpack_from("<QQ", blob, HEADER)
    rows = json.loads(blob[index_off : index_off + index_len])

    def rewrite(rows):
        new = json.dumps(rows, sort_keys=True).encode("utf-8")
        out = bytearray(blob[:index_off] + new)
        struct.pack_into("<QQ", out, HEADER, index_off, len(new))
        return bytes(out)

    return rows, rewrite


def truncate(blob, version):
    return blob[:-7]


def trailing_byte(blob, version):
    return blob + b"\0"


def overstated_length(blob, version):
    if version == 1:
        (head_len,) = struct.unpack_from("<Q", blob, 5)
        out = bytearray(blob)
        struct.pack_into("<Q", out, HEADER + head_len, len(blob))
        return bytes(out)
    rows, rewrite = _index_rows(blob, version)
    rows[0][2] += len(blob)
    return rewrite(rows)


def negative_offset(blob, version):
    rows, rewrite = _index_rows(blob, version)
    rows[0][1] = -6
    return rewrite(rows)


def bad_crc(blob, version):
    rows, _rewrite = _index_rows(blob, version)
    (head_len,) = struct.unpack_from("<Q", blob, 5)
    payload_base = HEADER + 16 + (0 if version == 5 else head_len)
    out = bytearray(blob)
    out[payload_base + rows[0][1] + rows[0][2] // 2] ^= 0x01
    return bytes(out)


def head_overlaps_payload(blob, version):
    out = bytearray(blob)
    struct.pack_into("<Q", out, 5, len(blob))
    return bytes(out)


#: name -> (mutate, exception class, versions that have the thing to damage)
MUTATIONS = {
    "truncate": (truncate, ValueError, VERSIONS),
    "trailing_byte": (trailing_byte, ValueError, VERSIONS),
    "overstated_length": (overstated_length, ValueError, VERSIONS),
    "negative_offset": (negative_offset, ValueError, (2, 3, 4, 5)),  # v1: no offsets on the wire
    "bad_crc": (bad_crc, PartIntegrityError, (4, 5)),
    "head_overlaps_payload": (head_overlaps_payload, ValueError, (5,)),
}


class TestMutationMatrix:
    @pytest.mark.parametrize(
        "mutation,version",
        [(name, v) for name in sorted(MUTATIONS) for v in MUTATIONS[name][2]],
    )
    def test_eager_and_lazy_raise_the_same_class(self, comp, version, mutation):
        mutate, expected, _versions = MUTATIONS[mutation]
        bad = mutate(blob_of(comp, version), version)
        with pytest.raises(expected) as eager:
            CompressedDataset.from_bytes(bad)
        # The lazy open that knows the blob's length: an archive entry.
        archive = legacy_archive_bytes({"k": bad}, 2)
        with LazyBatchArchive.open(archive) as lazy:
            with pytest.raises(expected) as lazily:
                lazy.entry("k").materialize()
        assert type(eager.value) is type(lazily.value) is expected

    @pytest.mark.parametrize("version", (4, 5))
    def test_bad_crc_names_the_part_either_way(self, comp, version):
        bad = bad_crc(blob_of(comp, version), version)
        first = next(iter(comp.parts))
        with pytest.raises(PartIntegrityError) as eager:
            CompressedDataset.from_bytes(bad)
        with LazyCompressedDataset.open(bad) as lazy:
            with pytest.raises(PartIntegrityError) as lazily:
                lazy.parts[first]
        for exc in (eager.value, lazily.value):
            assert (exc.part, exc.entry) == (first, comp.dataset_name)
            assert exc.expected != exc.actual

    def test_short_input_is_not_a_blob(self):
        for junk in (b"", b"RP", b"RPAM\x05", b"JUNKJUNKJUNKJUNK"):
            with pytest.raises(ValueError, match="not a CompressedDataset blob"):
                CompressedDataset.from_bytes(junk)
            with pytest.raises(ValueError, match="not a CompressedDataset blob"):
                LazyCompressedDataset.open(junk)
