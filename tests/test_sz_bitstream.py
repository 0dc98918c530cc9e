"""Unit tests for the vectorized bit packing/peeking layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz.bitstream import as_peekable, pack_codes, peek_bits
from tests.helpers import bitwise_pack_rows


def unpack_to_bits(buffer: bytes, total_bits: int) -> np.ndarray:
    """Reference unpack: the first ``total_bits`` bits, MSB first, as 0/1."""
    return np.unpackbits(np.frombuffer(buffer, dtype=np.uint8))[:total_bits]


class TestPackCodes:
    def test_single_byte_code(self):
        buf, total = pack_codes(np.array([0b101], dtype=np.uint64), np.array([3]))
        assert total == 3
        assert unpack_to_bits(buf, 3).tolist() == [1, 0, 1]

    def test_two_codes_concatenate(self):
        codes = np.array([0b11, 0b0001], dtype=np.uint64)
        lengths = np.array([2, 4])
        buf, total = pack_codes(codes, lengths)
        assert total == 6
        assert unpack_to_bits(buf, 6).tolist() == [1, 1, 0, 0, 0, 1]

    def test_empty_input(self):
        buf, total = pack_codes(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        assert total == 0
        assert len(buf) >= 4  # safety padding retained

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError, match="positive"):
            pack_codes(np.array([1], dtype=np.uint64), np.array([0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="identical shapes"):
            pack_codes(np.array([1, 2], dtype=np.uint64), np.array([1]))

    def test_rejects_overlong_codes(self):
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            pack_codes(np.array([1], dtype=np.uint64), np.array([60]))

    def test_total_bits_matches_lengths(self, rng):
        lengths = rng.integers(1, 17, size=1000)
        codes = np.array(
            [rng.integers(0, 1 << int(l)) for l in lengths], dtype=np.uint64
        )
        _, total = pack_codes(codes, lengths)
        assert total == int(lengths.sum())

    def test_payload_is_padded_for_peeks(self):
        buf, total = pack_codes(np.array([1], dtype=np.uint64), np.array([1]))
        # 1 bit of payload needs 1 byte + 4 bytes padding.
        assert len(buf) == 5


class TestPackRows:
    """2-D input: row ``i`` packs to exactly ``pack_codes(row i)``."""

    @staticmethod
    def random_rows(rng, n_rows, n_cols, max_len=16):
        lengths = rng.integers(1, max_len + 1, size=(n_rows, n_cols))
        codes = rng.integers(0, 1 << 62, size=(n_rows, n_cols)) & ((1 << lengths) - 1)
        return codes.astype(np.uint64), lengths

    @pytest.mark.parametrize("shape", [(1, 50), (7, 33), (64, 257), (3, 1)])
    def test_rows_equal_single_packs(self, shape, rng):
        codes, lengths = self.random_rows(rng, *shape)
        buffers, totals = pack_codes(codes, lengths)
        assert len(buffers) == len(totals) == shape[0]
        for row in range(shape[0]):
            assert (buffers[row], totals[row]) == pack_codes(codes[row], lengths[row])

    def test_rows_ending_on_a_byte_boundary(self, rng):
        # Bit totals 16, 8, 24, 7: the aligned rows take no pad bits and the
        # ragged last row leans on packbits' own zero fill.
        lengths = np.array([[8, 4, 4], [2, 3, 3], [9, 9, 6], [1, 2, 4]])
        codes = (rng.integers(0, 1 << 20, size=lengths.shape) & ((1 << lengths) - 1)).astype(
            np.uint64
        )
        buffers, totals = pack_codes(codes, lengths)
        assert totals == [16, 8, 24, 7]
        assert [len(b) for b in buffers] == [2 + 4, 1 + 4, 3 + 4, 1 + 4]
        for row in range(4):
            assert (buffers[row], totals[row]) == pack_codes(codes[row], lengths[row])

    def test_wide_codes_pack_one_per_chunk(self, rng):
        # Codes over 32 bits leave no room to merge a pair into one word.
        codes, lengths = self.random_rows(rng, 5, 40, max_len=40)
        lengths[0, 0] = 40
        buffers, totals = pack_codes(codes, lengths)
        for row in range(5):
            assert (buffers[row], totals[row]) == pack_codes(codes[row], lengths[row])
        assert (buffers, totals) == bitwise_pack_rows(codes, lengths)

    def test_empty_rows(self):
        buffers, totals = pack_codes(np.zeros((3, 0), np.uint64), np.zeros((3, 0), np.int64))
        assert totals == [0, 0, 0]
        assert buffers == [pack_codes(np.zeros(0, np.uint64), np.zeros(0, np.int64))[0]] * 3

    def test_rejects_zero_length_in_any_row(self):
        with pytest.raises(ValueError, match="positive"):
            pack_codes(np.ones((2, 2), np.uint64), np.array([[1, 2], [0, 3]]))


def _widen_to_multiple(row: np.ndarray, cap: int, multiple: int) -> None:
    """Lengthen codes of ``row`` (each up to ``cap``) until its bit total is
    a multiple of ``multiple``, as far as the row has room."""
    short = -int(row.sum()) % multiple
    for i in range(row.size):
        grow = min(short, cap - int(row[i]))
        row[i] += grow
        short -= grow


class TestWordPacker:
    """The 64-bit word packer against the per-bit packer it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_rows=st.integers(1, 70),
        n_cols=st.one_of(st.just(1), st.integers(1, 300)),
        # Longest codes 16 / 24 / 40 / 57 merge 2 / 1 / 0 / 0 times; 1, 5 and
        # 9 reach the deeper merges (up to 64 one-bit codes per chunk).
        cap=st.sampled_from([1, 5, 9, 16, 24, 40, 57]),
        align=st.sampled_from([None, 8, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_bitwise_packer(self, n_rows, n_cols, cap, align, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, cap + 1, size=(n_rows, n_cols))
        lengths[:, rng.integers(n_cols)] = cap
        if align:
            for row in lengths:
                _widen_to_multiple(row, cap, align)
        # Garbage above every code's length: the packer must ignore it.
        codes = rng.integers(0, 2**64, size=(n_rows, n_cols), dtype=np.uint64)
        want = bitwise_pack_rows(codes, lengths)
        assert pack_codes(codes, lengths) == want
        narrow = pack_codes(codes.astype(np.uint32), lengths.astype(np.uint8))
        assert narrow == bitwise_pack_rows(codes.astype(np.uint32), lengths)
        if n_rows == 1:
            assert pack_codes(codes[0], lengths[0]) == (want[0][0], want[1][0])

    @pytest.mark.parametrize(
        "lengths",
        [
            [[16, 16, 16, 16]] * 3,  # every row one whole word
            [[8]] * 5,  # single-symbol rows of one byte
            [[57, 7]] * 2,  # one word, the longest code first
            [[1] * 64] * 2,  # one-bit codes: 64 to a chunk
            [[1] * 7] * 3,  # rows one bit short of a byte
            [[24, 24, 16], [16, 24, 24]],  # 64-bit rows, merged in pairs
        ],
    )
    def test_rows_on_byte_and_word_boundaries(self, lengths, rng):
        lengths = np.array(lengths)
        codes = rng.integers(0, 2**64, size=lengths.shape, dtype=np.uint64)
        assert pack_codes(codes, lengths) == bitwise_pack_rows(codes, lengths)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
    def test_numpy_shifts_past_the_width_are_zero(self, dtype):
        # The packer's masks, zero-length chunks and word-aligned chunks
        # rely on this definition (C leaves such shifts undefined).
        bits = np.dtype(dtype).itemsize * 8
        values = np.full(1000, 0b1011, dtype=dtype)
        for shift in (bits, bits + 1):
            by = np.full(1000, shift, dtype=dtype)
            assert not (values << by).any()
            assert not (values >> by).any()
            assert not (dtype(1) << by).any()


class TestPeekBits:
    def test_peek_first_bits(self):
        buf, _ = pack_codes(np.array([0b10110011], dtype=np.uint64), np.array([8]))
        arr = as_peekable(buf)
        got = peek_bits(arr, np.array([0]), 8)
        assert got[0] == 0b10110011

    def test_peek_with_phase_offsets(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0], dtype=np.uint8)
        packed = np.packbits(bits)
        arr = as_peekable(packed.tobytes())
        for offset in range(9):
            got = int(peek_bits(arr, np.array([offset]), 4)[0])
            want = int("".join(str(b) for b in bits[offset : offset + 4]).ljust(4, "0"), 2)
            assert got == want, f"offset {offset}"

    def test_peek_vectorized_matches_scalar(self, rng):
        payload = rng.integers(0, 256, size=64, dtype=np.uint8)
        arr = as_peekable(payload.tobytes())
        offsets = rng.integers(0, 64 * 8 - 16, size=100)
        batch = peek_bits(arr, offsets, 13)
        singles = np.array([int(peek_bits(arr, np.array([o]), 13)[0]) for o in offsets])
        assert np.array_equal(batch, singles)

    def test_width_bounds(self):
        arr = as_peekable(b"\x00" * 8)
        with pytest.raises(ValueError):
            peek_bits(arr, np.array([0]), 0)
        with pytest.raises(ValueError):
            peek_bits(arr, np.array([0]), 25)

    def test_peek_past_end_reads_padding(self):
        arr = as_peekable(b"\xff")
        got = peek_bits(arr, np.array([100]), 8)
        assert got[0] == 0  # zero padding, no crash


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=200), st.integers(0, 2**31))
    def test_pack_then_peek_recovers_codes(self, lengths, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths, dtype=np.int64)
        codes = np.array(
            [rng.integers(0, 1 << int(l)) for l in lengths], dtype=np.uint64
        )
        buf, total = pack_codes(codes, lengths)
        arr = as_peekable(buf)
        offsets = np.cumsum(lengths) - lengths
        for i, (code, length) in enumerate(zip(codes, lengths)):
            width = min(int(length), 20)
            peeked = int(peek_bits(arr, offsets[i : i + 1], width)[0])
            want = int(code) >> (int(length) - width)
            assert peeked == want
