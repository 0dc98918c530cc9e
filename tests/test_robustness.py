"""Failure injection and cross-cutting property tests.

Compressed archives travel through file systems and networks; a production
codec must fail loudly on damaged input, never return silently-wrong data.
These tests corrupt, truncate, and drop pieces of real archives and assert
that every path raises instead of fabricating values.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.zmesh import level_traversal_keys, zmesh_order
from repro.core.container import CompressedDataset, LazyCompressedDataset
from repro.core.tac import TACCompressor
from repro.engine import LazyBatchArchive
from repro.sz import stream
from repro.sz.compressor import SZCompressor
from tests.helpers import (
    legacy_archive_bytes,
    legacy_container_bytes,
    reserialize_stream,
    smooth_cube,
    two_level_dataset,
)


@pytest.fixture(scope="module")
def tac_archive(z10_small):
    tac = TACCompressor()
    return tac, tac.compress(z10_small, 1e-3, mode="rel")


class TestFailureInjection:
    def test_missing_payload_part_raises(self, tac_archive):
        tac, comp = tac_archive
        broken = CompressedDataset(
            method=comp.method,
            dataset_name=comp.dataset_name,
            parts={k: v for k, v in comp.parts.items() if not k.startswith("L0/")},
            meta=comp.meta,
        )
        with pytest.raises((KeyError, ValueError)):
            tac.decompress(broken)

    def test_corrupted_payload_raises(self, tac_archive):
        tac, comp = tac_archive
        for key in comp.parts:
            if key.startswith("L0/g") or key.endswith("/grid"):
                parts = dict(comp.parts)
                blob = bytearray(parts[key])
                blob[len(blob) // 2] ^= 0xFF
                blob = blob[: max(8, len(blob) // 2)]  # truncate too
                parts[key] = bytes(blob)
                broken = CompressedDataset(
                    method=comp.method, dataset_name=comp.dataset_name,
                    parts=parts, meta=comp.meta,
                )
                with pytest.raises((ValueError, Exception)):
                    out = tac.decompress(broken)
                    # If parsing somehow survives, the values must still
                    # differ detectably — never a silent pass-through.
                    assert not np.array_equal(out.levels[0].data, tac.decompress(comp).levels[0].data)
                break

    def test_corrupted_mask_raises(self, tac_archive):
        tac, comp = tac_archive
        parts = dict(comp.parts)
        parts["mask/L0"] = b"\x00" * 10
        broken = CompressedDataset(
            method=comp.method, dataset_name=comp.dataset_name, parts=parts, meta=comp.meta
        )
        # The mask inflates through the same bounded DEFLATE reader as SZ
        # sections, so its damage is the parser contract's ValueError.
        with pytest.raises(ValueError, match="damaged DEFLATE section"):
            tac.decompress(broken)

    def test_truncated_container_raises(self, tac_archive):
        _, comp = tac_archive
        blob = comp.to_bytes()
        with pytest.raises(ValueError):
            CompressedDataset.from_bytes(blob[: len(blob) - 7])

    def test_meta_level_mismatch_raises(self, tac_archive):
        tac, comp = tac_archive
        meta = dict(comp.meta)
        meta["levels"] = comp.meta["levels"][:1]
        meta["shapes"] = comp.meta["shapes"][:1]
        partial = CompressedDataset(
            method=comp.method, dataset_name=comp.dataset_name,
            parts=comp.parts, meta=meta,
        )
        # One-level rebuild from two-level parts: grid ratio check fires.
        with pytest.raises(ValueError, match="tile the domain"):
            recon = tac.decompress(partial)
            recon.validate()


class TestHostileStreamMeta:
    """A well-framed SZ stream around one bad ``SEC_META`` record.

    The parser contract is ``ValueError`` only: before the record was
    validated, ``block_size == 0`` surfaced as ``ZeroDivisionError`` from
    the block-count arithmetic and a short record as ``struct.error``.
    """

    @pytest.fixture(scope="class")
    def good(self):
        codec = SZCompressor()
        blob = codec.compress(smooth_cube(8), 1e-3, "abs")
        meta = stream.unpack_meta(stream.parse(blob).section(stream.SEC_META)[1])
        return codec, blob, meta

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("block_size", 0, "block_size"),
            ("max_len", 0, "max_len"),
            ("max_len", 1, "max_len"),
            ("max_len", 25, "max_len"),
        ],
    )
    def test_out_of_range_field_is_a_value_error(self, good, field, value, match):
        codec, blob, meta = good
        record = stream.pack_meta(**{**meta, field: value})
        with pytest.raises(ValueError, match=match):
            codec.decompress(reserialize_stream(blob, {stream.SEC_META: record}))

    @pytest.mark.parametrize("keep", [0, 5, 33, 35])
    def test_wrong_length_record_is_a_value_error(self, good, keep):
        codec, blob, meta = good
        record = (stream.pack_meta(**meta) + b"\0")[:keep]
        assert len(record) != len(stream.pack_meta(**meta))
        with pytest.raises(ValueError, match="codec-parameter record"):
            codec.decompress(reserialize_stream(blob, {stream.SEC_META: record}))

    def test_good_record_still_round_trips(self, good):
        codec, blob, meta = good
        same = reserialize_stream(blob, {stream.SEC_META: stream.pack_meta(**meta)})
        assert np.array_equal(codec.decompress(same), codec.decompress(blob))


class TestZMeshProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31), st.floats(0.1, 0.9))
    def test_order_is_bijection(self, seed, fine_fraction):
        ds = two_level_dataset(n=8, fine_fraction=fine_fraction, seed=seed)
        order = zmesh_order(ds)
        assert np.array_equal(np.sort(order), np.arange(ds.total_points()))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31))
    def test_keys_unique_and_deterministic(self, seed):
        ds = two_level_dataset(n=8, seed=seed)
        keys = np.concatenate(
            [level_traversal_keys(l.mask, l.level, ds.n_levels) for l in ds.levels]
        )
        assert np.unique(keys).size == keys.size
        again = np.concatenate(
            [level_traversal_keys(l.mask, l.level, ds.n_levels) for l in ds.levels]
        )
        assert np.array_equal(keys, again)


class TestEndToEndProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.floats(0.1, 0.9),
        st.sampled_from([1e-2, 1e-4]),
    )
    def test_tac_roundtrip_random_structures(self, seed, fine_fraction, eb):
        ds = two_level_dataset(n=16, fine_fraction=fine_fraction, seed=seed)
        tac = TACCompressor()
        comp = tac.compress(ds, eb, mode="rel")
        recon = tac.decompress(comp)
        for lo, ld, meta in zip(ds.levels, recon.levels, comp.meta["levels"]):
            if lo.n_points() == 0:
                continue
            err = np.max(np.abs(lo.values().astype(np.float64) - ld.values()))
            assert err <= meta["eb_abs"] * 1.001 + 1e-12

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**31))
    def test_container_serialization_idempotent(self, seed):
        ds = two_level_dataset(n=8, seed=seed)
        comp = TACCompressor().compress(ds, 1e-3, mode="rel")
        once = CompressedDataset.from_bytes(comp.to_bytes())
        twice = CompressedDataset.from_bytes(once.to_bytes())
        assert once.parts == twice.parts
        assert once.meta == twice.meta


def _v2_with_row(comp, row) -> bytes:
    """A v2 blob of ``comp`` whose first part-index row is ``row``."""
    blob = legacy_container_bytes(comp, 2)
    (head_len,) = struct.unpack_from("<Q", blob, 5)
    head = json.loads(blob[13 : 13 + head_len])
    head["part_index"][0] = row
    new_head = json.dumps(head, sort_keys=True).encode("utf-8")
    return blob[:4] + struct.pack("<BQ", 2, len(new_head)) + new_head + blob[13 + head_len :]


def _v1_with_first_length(comp, length: int) -> bytes:
    """A v1 blob of ``comp`` whose first length prefix is ``length``."""
    blob = bytearray(legacy_container_bytes(comp, 1))
    (head_len,) = struct.unpack_from("<Q", blob, 5)
    struct.pack_into("<Q", blob, 13 + head_len, length)
    return bytes(blob)


class TestPartIndexBounds:
    """v1/v2 part rows are bounds-checked like v3-v5 rows always were: a
    corrupt row raises at open — eagerly and lazily, the same exception
    class — instead of serving bytes of the JSON head or of a neighbour."""

    TOY = CompressedDataset(
        method="tac", dataset_name="toy", parts={"a": b"AAAA", "b": b"BBBBBB"}
    )
    NEIGHBOUR = CompressedDataset(method="tac", dataset_name="next", parts={"n": b"N" * 64})

    CASES = {
        "v2-offset-into-head": lambda toy: _v2_with_row(toy, ["a", -6, 4]),
        "v2-offset-before-blob": lambda toy: _v2_with_row(toy, ["a", -10_000, 4]),
        "v2-length-past-entry": lambda toy: _v2_with_row(toy, ["a", 0, 40]),
        "v2-negative-length": lambda toy: _v2_with_row(toy, ["a", 4, -4]),
        "v1-length-past-entry": lambda toy: _v1_with_first_length(toy, 40),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_corrupt_row_rejected_by_eager_and_lazy(self, case):
        bad = self.CASES[case](self.TOY)
        with pytest.raises(ValueError) as eager:
            CompressedDataset.from_bytes(bad)
        # Lazily, as an archive entry followed by a neighbour the
        # overstated rows would otherwise reach into.
        archive = legacy_archive_bytes(
            {"a/bad": bad, "b/next": legacy_container_bytes(self.NEIGHBOUR, 2)}, 2
        )
        with LazyBatchArchive.open(archive) as lazy:
            assert lazy.entry("b/next").parts["n"] == b"N" * 64
            with pytest.raises(ValueError) as lazily:
                lazy.entry("a/bad")
        assert type(eager.value) is type(lazily.value) is ValueError

    @pytest.mark.parametrize("case", ["v2-offset-into-head", "v2-offset-before-blob"])
    def test_negative_offset_rejected_without_a_known_length(self, case):
        """A standalone lazy open has no entry length to bound rows with,
        but never serves bytes from before the payload region."""
        with pytest.raises(ValueError, match="payload region"):
            LazyCompressedDataset.open(self.CASES[case](self.TOY))

    def test_good_rows_still_read(self):
        for version in (1, 2):
            blob = legacy_container_bytes(self.TOY, version)
            assert CompressedDataset.from_bytes(blob).parts == self.TOY.parts
            with LazyCompressedDataset.open(blob) as lazy:
                assert dict(lazy.parts.items()) == self.TOY.parts
