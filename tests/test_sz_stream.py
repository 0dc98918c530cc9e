"""Unit tests for the container stream format and the lossless back end."""

import dataclasses
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.container import CompressedDataset, inflate_mask, pack_mask
from repro.sim.nyx import generate_field
from repro.sz import SZCompressor, lossless, stream
from tests.helpers import (
    inflate_section,
    reserialize_stream,
    stream_content,
    window_prefix_length,
)

DATA = Path(__file__).parent / "data"


class TestLossless:
    def test_zlib_roundtrip(self):
        data = b"abc" * 1000
        codec, payload = lossless.compress_bytes(data)
        assert codec == lossless.CODEC_ZLIB
        assert lossless.decompress_bytes(codec, payload, len(data)) == data

    def test_raw_fallback_for_incompressible(self, rng):
        data = rng.integers(0, 256, size=256, dtype=np.uint8).tobytes()
        codec, payload = lossless.compress_bytes(data)
        if codec == lossless.CODEC_RAW:
            assert payload == data
        assert lossless.decompress_bytes(codec, payload, len(data)) == data

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            lossless.decompress_bytes(99, b"", 0)

    def test_int_array_roundtrip(self, rng):
        arr = rng.integers(-(2**40), 2**40, size=500).astype(np.int64)
        codec, payload = lossless.pack_int_array(arr)
        out = lossless.unpack_int_array(codec, payload, np.int64, arr.size)
        assert np.array_equal(out, arr)
        assert out.flags.writeable

    def test_int_array_count_mismatch(self):
        codec, payload = lossless.pack_int_array(np.arange(10, dtype=np.int64))
        with pytest.raises(ValueError, match="expected"):
            lossless.unpack_int_array(codec, payload, np.int64, 11)


class TestStreamFormat:
    def make_header(self, **overrides):
        defaults = dict(
            mode="abs",
            dtype=np.dtype(np.float32),
            shape=(4, 5, 6),
            eb_user=1e-3,
            eb_abs=1e-3,
            flags=0,
        )
        defaults.update(overrides)
        return stream.StreamHeader(**defaults)

    def test_header_roundtrip(self):
        header = self.make_header()
        blob = stream.serialize(header, [(stream.SEC_RAW, lossless.CODEC_RAW, b"abc")])
        parsed = stream.parse(blob)
        assert parsed.header.mode == "abs"
        assert parsed.header.dtype == np.float32
        assert parsed.header.shape == (4, 5, 6)
        assert parsed.header.eb_abs == 1e-3
        assert parsed.section(stream.SEC_RAW) == (lossless.CODEC_RAW, b"abc")

    def test_multiple_sections_preserved(self):
        header = self.make_header()
        sections = [
            (stream.SEC_PAYLOAD, 0, b"payload"),
            (stream.SEC_OUTLIERS, 1, b"outliers"),
            (stream.SEC_META, 0, b"meta"),
        ]
        parsed = stream.parse(stream.serialize(header, sections))
        assert parsed.section_sizes() == {
            stream.SEC_PAYLOAD: 7,
            stream.SEC_OUTLIERS: 8,
            stream.SEC_META: 4,
        }

    def test_missing_section_raises(self):
        parsed = stream.parse(stream.serialize(self.make_header(), []))
        with pytest.raises(ValueError, match="missing"):
            parsed.section(stream.SEC_PAYLOAD)

    def test_bad_magic_rejected(self):
        blob = stream.serialize(self.make_header(), [])
        with pytest.raises(ValueError, match="magic"):
            stream.parse(b"XXXX" + blob[4:])

    def test_truncation_rejected(self):
        blob = stream.serialize(
            self.make_header(), [(stream.SEC_PAYLOAD, 0, b"0123456789")]
        )
        with pytest.raises(ValueError):
            stream.parse(blob[:-3])

    def test_trailing_bytes_rejected(self):
        blob = stream.serialize(self.make_header(), [])
        with pytest.raises(ValueError, match="trailing"):
            stream.parse(blob + b"\x00")

    def test_header_size_property(self):
        header = self.make_header(shape=(3, 4))
        assert header.size == 12

    def test_unsupported_dtype_rejected(self):
        header = self.make_header(dtype=np.dtype(np.int32))
        with pytest.raises(TypeError, match="unsupported dtype"):
            stream.serialize(header, [])

    def test_unknown_mode_rejected(self):
        header = self.make_header(mode="bogus")
        with pytest.raises(ValueError, match="unknown error mode"):
            stream.serialize(header, [])

    def test_meta_roundtrip(self):
        raw = stream.pack_meta(
            radius=4096,
            max_len=16,
            block_size=1024,
            total_bits=123456,
            n_symbols=999,
            n_outliers=7,
            predictor="interp",
        )
        meta = stream.unpack_meta(raw)
        assert meta == {
            "radius": 4096,
            "max_len": 16,
            "predictor": "interp",
            "block_size": 1024,
            "total_bits": 123456,
            "n_symbols": 999,
            "n_outliers": 7,
        }

    def test_meta_predictor_codes(self):
        raw = stream.pack_meta(
            radius=1, max_len=2, block_size=3, total_bits=4, n_symbols=5,
            n_outliers=6, predictor="lorenzo",
        )
        assert stream.unpack_meta(raw)["predictor"] == "lorenzo"
        with pytest.raises(ValueError, match="unknown predictor"):
            stream.pack_meta(
                radius=1, max_len=2, block_size=3, total_bits=4, n_symbols=5,
                n_outliers=6, predictor="nope",
            )

    @pytest.mark.parametrize("max_len", [0, 1, 25, 255])
    def test_meta_max_len_outside_decoder_range_rejected(self, max_len):
        # No writer produces these: the encoder's cap is a module constant
        # in [2, 24], so a record outside it is hostile input.
        raw = stream.pack_meta(
            radius=8, max_len=max_len, block_size=64, total_bits=4, n_symbols=5,
            n_outliers=0, predictor="interp",
        )
        with pytest.raises(ValueError, match="max_len"):
            stream.unpack_meta(raw)


class TestRunLengthCoder:
    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=600),
            # Runs of a few byte values: what Huffman payloads at loose
            # bounds and code-length tables look like.
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(1, 300)), max_size=40
            ).map(lambda runs: b"".join(bytes([v]) * n for v, n in runs)),
        )
    )
    def test_roundtrip_and_raw_fallback(self, data):
        codec, payload = lossless.compress_runs(data)
        assert lossless.decompress_bytes(codec, payload, len(data)) == data
        packer = zlib.compressobj(1, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE)
        packed = packer.compress(data) + packer.flush()
        if len(packed) >= len(data):
            assert (codec, payload) == (lossless.CODEC_RAW, data)
        else:
            assert (codec, payload) == (lossless.CODEC_ZLIB, packed)

    def test_incompressible_input_is_stored_raw(self, rng):
        data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
        assert lossless.compress_runs(data) == (lossless.CODEC_RAW, data)

    def test_output_is_a_plain_zlib_stream(self):
        data = bytes(5000) + b"\x07" * 3000
        codec, payload = lossless.compress_runs(data)
        assert codec == lossless.CODEC_ZLIB and zlib.decompress(payload) == data


class TestBoundedInflate:
    """Every inflate stops one byte past the size the stream implies."""

    def test_exact_size_passes_and_any_other_raises(self):
        data = b"\x01\x02" * 500
        for codec, payload in (lossless.compress_bytes(data), (lossless.CODEC_RAW, data)):
            assert lossless.decompress_bytes(codec, payload, len(data)) == data
            with pytest.raises(ValueError, match="longer than the 999 bytes"):
                lossless.decompress_bytes(codec, payload, 999)
            with pytest.raises(ValueError, match="shorter than the 1001 bytes"):
                lossless.decompress_bytes(codec, payload, 1001)

    @pytest.mark.parametrize("payload", [b"garbage", b"x\x9c\xff\xff\xff\xff", b""])
    def test_damaged_deflate_section_raises_valueerror(self, payload):
        # The parser contract: zlib's own error never escapes.
        with pytest.raises(ValueError):
            lossless.decompress_bytes(lossless.CODEC_ZLIB, payload, 64)
        with pytest.raises(ValueError):
            lossless.unpack_int_array(lossless.CODEC_ZLIB, payload, np.int64, 8)

    def test_truncated_deflate_section_raises(self):
        data = bytes(range(256)) * 8
        payload = zlib.compress(data, 1)
        with pytest.raises(ValueError, match="truncated"):
            lossless.decompress_bytes(lossless.CODEC_ZLIB, payload[:-2], len(data))

    def test_int_array_overrun_names_the_count(self):
        codec, payload = lossless.pack_int_array(np.zeros(100, dtype=np.int64))
        with pytest.raises(ValueError, match="expected 10 items of int64, got more than 10"):
            lossless.unpack_int_array(codec, payload, np.int64, 10)


#: Inflated bytes of the DEFLATE bombs below (zeros: about 1000:1).
BOMB_BYTES = 64 << 20


@pytest.fixture(scope="module")
def bomb() -> bytes:
    packer = zlib.compressobj(1, zlib.DEFLATED, zlib.MAX_WBITS, 8, zlib.Z_RLE)
    chunk = bytes(1 << 20)
    return b"".join(packer.compress(chunk) for _ in range(BOMB_BYTES >> 20)) + packer.flush()


def _with_section(blob: bytes, tag: int, payload: bytes) -> bytes:
    """``blob`` with section ``tag``'s DEFLATEd bytes replaced by ``payload``
    (a code-length section keeps its window prefix)."""
    parsed = stream.parse(blob)
    sections = []
    for t, (codec, data) in parsed.sections.items():
        if t == tag:
            prefix = data[: window_prefix_length(data)] if t == stream.SEC_CODE_LENGTHS else b""
            codec, data = lossless.CODEC_ZLIB, prefix + payload
        sections.append((t, codec, data))
    return stream.serialize(parsed.header, sections)


def _peak_while_raising(fn) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDeflateBomb:
    """A section that inflates to far more than its stream implies fails
    after at most that many bytes, not after the allocation it asks for."""

    @pytest.fixture(scope="class")
    def blobs(self) -> dict:
        cube = generate_field("baryon_density", 16, seed=3)
        eb = 1e-3 * float(np.ptp(cube))
        spiked = cube.copy()
        spiked[0, 0, 0] += 1e5 * eb  # an escape-coded residual: an outlier section
        signed = cube - np.median(cube)
        signed[:2] = 0.0
        codec = SZCompressor()
        return {
            "lattice": codec.compress(spiked, eb, "abs"),
            "raw": codec.compress(cube, 0.0, "abs"),
            "pw_rel": codec.compress(signed, 1e-2, "pw_rel"),
        }

    @pytest.mark.parametrize(
        "kind, tag",
        [
            ("lattice", stream.SEC_PAYLOAD),
            ("lattice", stream.SEC_CODE_LENGTHS),
            ("lattice", stream.SEC_BLOCK_OFFSETS),
            ("lattice", stream.SEC_OUTLIERS),
            ("raw", stream.SEC_RAW),
            ("pw_rel", stream.SEC_SIGNS),
            ("pw_rel", stream.SEC_ZERO_MASK),
        ],
    )
    def test_bomb_section_raises_within_a_small_peak(self, blobs, bomb, kind, tag):
        blob = blobs[kind]
        assert tag in stream.parse(blob).sections
        hostile = _with_section(blob, tag, bomb)
        assert len(hostile) < BOMB_BYTES // 200
        assert _peak_while_raising(lambda: SZCompressor().decompress(hostile)) < 16e6

    def test_bomb_mask_raises_within_a_small_peak(self, bomb):
        assert _peak_while_raising(lambda: inflate_mask(bomb, (16, 16, 16))) < 16e6

    def test_mask_of_another_shape_raises(self):
        payload = pack_mask(np.ones((8, 8, 8), dtype=bool))
        assert inflate_mask(payload, (8, 8, 8)).nbytes == 64
        with pytest.raises(ValueError, match="longer"):
            inflate_mask(payload, (4, 4, 4))
        with pytest.raises(ValueError, match="shorter"):
            inflate_mask(payload, (8, 8, 9))


def _recoded(tag: int, raw: bytes) -> tuple[int, bytes]:
    """What the coder ``repro.sz.lossless`` names for section kind ``tag``
    makes of ``raw``: run-length DEFLATE for the Huffman payload and table
    (after its window prefix), level-1 LZ77 for every other section,
    SEC_META and the bit-packed block offsets stored as they are."""
    if tag in (stream.SEC_META, stream.SEC_BLOCK_OFFSETS):
        return lossless.CODEC_RAW, raw
    if tag == stream.SEC_CODE_LENGTHS:
        at = window_prefix_length(raw)
        codec, packed = lossless.compress_runs(raw[at:])
        return codec, raw[:at] + packed
    if tag == stream.SEC_PAYLOAD:
        return lossless.compress_runs(raw)
    return lossless.compress_bytes(raw)


class TestSectionCoderPolicy:
    """Recoding every inflated section with its kind's coder gives back the
    blob's own bytes: the per-kind rule is what the writer does."""

    @pytest.fixture(scope="class")
    def field(self) -> np.ndarray:
        return generate_field("baryon_density", 64, seed=5)

    def assert_policy(self, blobs) -> set:
        seen = set()
        for blob in blobs:
            parsed = stream.parse(blob)
            for tag, section in parsed.sections.items():
                assert _recoded(tag, inflate_section(parsed, tag)) == section, tag
                seen.add(tag)
        return seen

    def test_real_64_cubed_streams(self, field):
        signed = field - np.median(field)
        signed[:4] = 0.0
        codec = SZCompressor()
        seen = self.assert_policy(
            [
                codec.compress(field, 1e-4, "rel"),
                codec.compress(field, 1e-2, "rel"),
                SZCompressor(predictor="lorenzo").compress(field, 1e-4, "rel"),
                codec.compress(signed, 1e-3, "pw_rel"),
                codec.compress(field, 0.0, "abs"),
            ]
        )
        assert seen == {
            stream.SEC_CODE_LENGTHS, stream.SEC_BLOCK_OFFSETS, stream.SEC_PAYLOAD,
            stream.SEC_OUTLIERS, stream.SEC_RAW, stream.SEC_SIGNS,
            stream.SEC_ZERO_MASK, stream.SEC_META,
        }

    def test_batch_of_16_cubed_bricks(self, field):
        bricks = [
            field[x : x + 16, y : y + 16, z : z + 16]
            for x in range(0, 64, 16)
            for y in range(0, 64, 16)
            for z in range(0, 64, 16)
        ]
        eb = 1e-3 * float(np.ptp(field))
        bricks[0] = bricks[0].copy()
        bricks[0][0, 0, 0] += 1e5 * eb  # one brick with an outlier section
        blobs = SZCompressor().compress_many(bricks, eb, "abs")
        seen = self.assert_policy(blobs)
        assert {
            stream.SEC_CODE_LENGTHS, stream.SEC_BLOCK_OFFSETS, stream.SEC_PAYLOAD,
            stream.SEC_OUTLIERS,
        } <= seen
        # At this bound some brick payloads pay for DEFLATE and some do not.
        codecs = {stream.parse(blob).sections[stream.SEC_PAYLOAD][0] for blob in blobs}
        assert codecs == {lossless.CODEC_RAW, lossless.CODEC_ZLIB}


class TestVarints:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=12))
    def test_roundtrip(self, values):
        raw = stream._varints(*values)
        offset, back = 0, []
        for _ in values:
            value, offset = stream._read_varint(raw, offset)
            back.append(value)
        assert back == values and offset == len(raw)

    def test_small_values_take_one_byte(self):
        assert stream._varints(0, 127, 128) == b"\x00\x7f\x80\x01"

    @pytest.mark.parametrize(
        "raw, match",
        [
            (b"", "truncated varint"),
            (b"\x80\x80", "truncated varint"),
            (b"\x80" * 10 + b"\x01", "longer than 10 bytes"),
            (b"\xff" * 9 + b"\x7f", "exceeds 64 bits"),
        ],
    )
    def test_malformed_varints_raise(self, raw, match):
        with pytest.raises(ValueError, match=match):
            stream._read_varint(raw, 0)

    def test_negative_or_wide_values_are_not_written(self):
        for value in (-1, 2**64):
            with pytest.raises(ValueError, match="outside"):
                stream._varints(value)


#: One stream's block offsets: ``n`` block bit counts (each >= 1; the last
#: one only sets ``total_bits``), drawn from narrow or wide ranges.
_block_counts = st.integers(1, 40).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.integers(1, 300), st.integers(1, 2**48)), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)


class TestBlockOffsets:
    """Frame-of-reference block offsets: the minimum, a bit width and the
    packed per-block bit counts of every block but the last."""

    @settings(max_examples=150, deadline=None)
    @given(_block_counts)
    def test_roundtrip(self, rows):
        counts = np.array(rows, dtype=np.int64)
        offsets = np.cumsum(counts, axis=1) - counts
        totals = counts.sum(axis=1).tolist()
        packed = stream.pack_block_offsets(offsets)
        if counts.shape[1] == 1:
            assert packed == [None] * len(rows)
        sections = [None if p is None else (lossless.CODEC_RAW, p) for p in packed]
        back = stream.unpack_block_offsets(sections, counts.shape[1], totals)
        assert np.array_equal(back, offsets)

    def test_width_follows_the_spread_not_the_magnitude(self):
        offsets = np.cumsum([[0] + [10_000] * 63], axis=1)  # equal counts
        (packed,) = stream.pack_block_offsets(offsets)
        assert packed == stream._varints(10_000) + bytes([1]) + bytes(8)

    def test_single_block_stream_stores_none(self):
        blob = SZCompressor().compress(np.linspace(0, 1, 8), 1e-3, "abs")
        parsed = stream.parse(blob)
        assert stream.SEC_BLOCK_OFFSETS not in parsed.sections
        assert np.allclose(SZCompressor().decompress(blob), np.linspace(0, 1, 8), atol=1e-3)


class TestHostileV2:
    """Every malformed version-2 stream raises ``ValueError`` and nothing
    else, after allocating no more than its own few kilobytes imply."""

    @pytest.fixture(scope="class")
    def good(self):
        cube = generate_field("baryon_density", 16, seed=3)
        blob = SZCompressor().compress(cube, 1e-3 * float(np.ptp(cube)), "abs")
        parsed = stream.parse(blob)
        return blob, parsed, stream.unpack_meta(parsed.section(stream.SEC_META)[1])

    def assert_rejected(self, blob: bytes, match: str) -> None:
        def decode():
            SZCompressor().decompress(blob)

        assert _peak_while_raising(decode) < 4e6
        with pytest.raises(ValueError, match=match):
            decode()

    def _offsets(self, good, base: int, width: int, data: bytes) -> bytes:
        section = stream._varints(base) + bytes([width]) + data
        return reserialize_stream(good[0], {stream.SEC_BLOCK_OFFSETS: section})

    @pytest.mark.parametrize(
        "tail, match",
        [
            (b"\x80", "truncated varint"),
            (b"\x80" * 10 + b"\x01", "longer than 10 bytes"),
        ],
    )
    def test_bad_varint_in_the_header(self, tail, match):
        self.assert_rejected(stream.MAGIC + bytes([stream.VERSION, 0]) + tail, match)

    def test_truncated_section_length(self, good):
        head = stream.serialize(good[1].header, [])[:-1]  # without its section count
        hostile = head + b"\x01" + bytes([stream.SEC_PAYLOAD]) + b"\x80"
        self.assert_rejected(hostile, "truncated varint")

    def test_section_length_overruns_the_blob(self, good):
        head = stream.serialize(good[1].header, [])[:-1]
        hostile = head + b"\x01" + bytes([stream.SEC_PAYLOAD]) + stream._varints(2**62)
        self.assert_rejected(hostile + b"\x00" * 16, "section 3 overruns the blob")

    @pytest.mark.parametrize("width", [0, 65, 255])
    def test_bit_width_outside_1_to_64(self, good, width):
        self.assert_rejected(self._offsets(good, 10, width, b""), f"bit width {width} outside")

    def test_packed_offsets_of_the_wrong_size(self, good):
        self.assert_rejected(self._offsets(good, 10, 8, bytes(62)), "holds 62 bytes, not the 63")

    @pytest.mark.parametrize("base", ["total", 2**63])
    def test_packed_offsets_past_total_bits(self, good, base):
        _blob, _parsed, meta = good
        base = meta["total_bits"] if base == "total" else base
        self.assert_rejected(self._offsets(good, base, 1, bytes(8)), "total more bits")

    def test_code_length_window_past_the_alphabet(self, good):
        window = stream._varints(8000, 500) + bytes([3]) * 500
        hostile = reserialize_stream(good[0], {stream.SEC_CODE_LENGTHS: window})
        self.assert_rejected(hostile, "runs past the 8193-symbol alphabet")

    def test_a_claim_of_2_to_the_40_values(self, good):
        blob, parsed, meta = good
        sections = [(tag, *section) for tag, section in parsed.sections.items()]
        claim = {**meta, "n_symbols": 2**40, "total_bits": 2**40, "block_size": 2**20}
        sections[-1] = (stream.SEC_META, lossless.CODEC_RAW, stream.pack_meta(**claim))
        header = dataclasses.replace(parsed.header, shape=(2**14, 2**13, 2**13))
        self.assert_rejected(stream.serialize(header, sections), "lossless section shorter")

    def test_unknown_kind_bits(self, good):
        blob = bytearray(good[0])
        blob[5] |= 0x40
        self.assert_rejected(bytes(blob), "kind bits")


class TestFramingVersions:
    """Version 2 is written, version 1 is read into the same form."""

    @pytest.fixture(scope="class")
    def v1_streams(self) -> list[bytes]:
        fixture = CompressedDataset.from_bytes((DATA / "golden_gsp_bricks.rpbt").read_bytes())
        return [blob for blob in fixture.parts.values() if blob.startswith(stream.MAGIC)]

    def test_v1_transcodes_to_v2_of_the_same_content(self, v1_streams):
        """(A fresh compress holds the same content too: the golden test
        ``test_writer_regenerates_fixture_parts`` compares it.)"""
        codec = SZCompressor()
        assert v1_streams and {blob[4] for blob in v1_streams} == {1}
        for blob in v1_streams:
            v2 = stream.serialize(*_header_and_sections(blob))
            assert v2[4] == stream.VERSION and len(v2) < len(blob)
            assert stream_content(stream.parse(v2)) == stream_content(stream.parse(blob))
            assert np.array_equal(codec.decompress(v2), codec.decompress(blob))
            assert stream.serialize(*_header_and_sections(v2)) == v2

    def test_eb_user_is_stored_only_when_it_differs(self):
        cube = generate_field("baryon_density", 8, seed=1)
        codec = SZCompressor()
        same, other = codec.compress(cube, 1e-3, "abs"), codec.compress(cube, 1e-3, "rel")
        assert not same[5] & 0x20 and other[5] & 0x20
        assert stream.parse(same).header.eb_user == stream.parse(same).header.eb_abs == 1e-3
        assert stream.parse(other).header.eb_user == 1e-3


def _header_and_sections(blob: bytes):
    parsed = stream.parse(blob)
    return parsed.header, [(tag, *section) for tag, section in parsed.sections.items()]
