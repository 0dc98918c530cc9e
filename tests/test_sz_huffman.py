"""Unit and property tests for the canonical length-limited Huffman coder."""

import contextlib
import dataclasses
import functools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz import bitstream, huffman
from repro.sz.huffman import (
    HuffmanCodec,
    _limit_lengths,
    _tree_depths,
    code_tables,
    decode_many,
    decode_table_cache_info,
    decode_tables,
    default_block_size,
    encode_many,
    huffman_code_lengths,
)
from tests.helpers import (
    heap_code_lengths,
    lockstep_decode,
    loop_limit_lengths,
    naive_canonical_codes,
    oracle_decode_table,
)


def pass_tables(codecs):
    """The decode tables of one pass whose stream ``i`` is coded by
    ``codecs[i]`` (alphabet-wide windows)."""
    return decode_tables([(0, c.lengths) for c in codecs], [c.max_len for c in codecs])


def unpacked(tables) -> tuple[np.ndarray, np.ndarray]:
    """A pass's ``(symbol, length)`` per table slot, out of its packed
    int32 entries ``sym << 5 | len``."""
    assert tables.entry.dtype == np.int32
    return tables.entry >> 5, tables.entry & 31


def kraft_sum(lengths: np.ndarray) -> float:
    present = lengths[lengths > 0].astype(np.int64)
    return float(np.sum(np.ldexp(1.0, -present)))


class TestCodeLengths:
    def test_single_symbol_gets_one_bit(self):
        lengths = huffman_code_lengths(np.array([0, 5, 0]))
        assert lengths.tolist() == [0, 1, 0]

    def test_two_equal_symbols(self):
        lengths = huffman_code_lengths(np.array([3, 3]))
        assert lengths.tolist() == [1, 1]

    def test_skewed_distribution_shorter_code_for_frequent(self):
        counts = np.array([1000, 10, 10, 10])
        lengths = huffman_code_lengths(counts)
        assert lengths[0] == min(lengths[lengths > 0])

    def test_absent_symbols_have_no_code(self):
        lengths = huffman_code_lengths(np.array([5, 0, 5, 0]))
        assert lengths[1] == 0 and lengths[3] == 0

    def test_kraft_inequality_holds(self, rng):
        counts = rng.integers(0, 1000, size=300)
        lengths = huffman_code_lengths(counts)
        assert kraft_sum(lengths) <= 1.0 + 1e-12

    def test_length_limit_enforced_on_fibonacci_counts(self):
        # Fibonacci frequencies force maximal Huffman depth.
        fib = [1, 1]
        while len(fib) < 40:
            fib.append(fib[-1] + fib[-2])
        counts = np.array(fib, dtype=np.int64)
        lengths = huffman_code_lengths(counts, max_len=12)
        assert int(lengths.max()) <= 12
        assert kraft_sum(lengths) <= 1.0 + 1e-12

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            huffman_code_lengths(np.array([1, -1]))

    def test_rejects_overfull_alphabet(self):
        with pytest.raises(ValueError, match="cannot fit"):
            huffman_code_lengths(np.ones(10, dtype=np.int64), max_len=3)

    def test_empty_counts(self):
        lengths = huffman_code_lengths(np.zeros(5, dtype=np.int64))
        assert (lengths == 0).all()

    def test_optimality_on_uniform_distribution(self):
        counts = np.full(8, 100)
        lengths = huffman_code_lengths(counts)
        assert (lengths == 3).all()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    def test_property_kraft_and_limit(self, counts):
        counts = np.array(counts, dtype=np.int64)
        lengths = huffman_code_lengths(counts, max_len=16)
        assert kraft_sum(lengths) <= 1.0 + 1e-12
        assert int(lengths.max(initial=0)) <= 16
        assert np.array_equal(lengths > 0, counts > 0)


class TestCanonicalCodes:
    def test_prefix_free(self, rng):
        counts = rng.integers(0, 100, size=64)
        lengths = huffman_code_lengths(counts)
        codes = HuffmanCodec(lengths).codes
        present = np.flatnonzero(lengths)
        strings = [
            format(int(codes[s]), "b").zfill(int(lengths[s])) for s in present
        ]
        for i, a in enumerate(strings):
            for j, b in enumerate(strings):
                if i != j:
                    assert not b.startswith(a), f"{a} prefixes {b}"

    def test_canonical_ordering(self):
        lengths = np.array([2, 1, 2], dtype=np.uint8)
        codes = HuffmanCodec(lengths).codes
        # Symbol 1 (shortest) gets 0; then symbols 0, 2 get 10, 11.
        assert codes[1] == 0b0
        assert codes[0] == 0b10
        assert codes[2] == 0b11


class TestCodecRoundTrip:
    def test_simple_roundtrip(self, rng):
        symbols = rng.integers(0, 16, size=5000)
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=16)
        encoded = codec.encode(symbols)
        decoded = codec.decode(encoded)
        assert np.array_equal(decoded, symbols)

    def test_single_symbol_stream(self):
        symbols = np.full(100, 7)
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=8)
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)

    def test_empty_stream(self):
        codec = HuffmanCodec.from_counts(np.array([1, 1]))
        encoded = codec.encode(np.zeros(0, dtype=np.int64))
        assert codec.decode(encoded).size == 0

    def test_length_one_stream(self):
        codec = HuffmanCodec.from_counts(np.array([1, 1]))
        assert codec.decode(codec.encode(np.array([1]))).tolist() == [1]

    def test_block_boundary_sizes(self, rng):
        # Exercise exact-multiple and ragged-tail block splits.
        codec = HuffmanCodec.from_counts(np.array([5, 3, 2, 1]))
        for n in (63, 64, 65, 128, 129):
            symbols = rng.integers(0, 4, size=n)
            encoded = codec.encode(symbols, block_size=64)
            assert np.array_equal(codec.decode(encoded), symbols)

    def test_tiny_block_size(self, rng):
        symbols = rng.integers(0, 4, size=100)
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=4)
        encoded = codec.encode(symbols, block_size=1)
        assert np.array_equal(codec.decode(encoded), symbols)

    def test_rejects_out_of_alphabet(self):
        codec = HuffmanCodec.from_counts(np.array([1, 1]))
        with pytest.raises(ValueError, match="alphabet"):
            codec.encode(np.array([5]))

    def test_rejects_zero_block_size(self):
        codec = HuffmanCodec.from_counts(np.array([1, 1]))
        with pytest.raises(ValueError, match="block_size"):
            codec.encode(np.array([0, 1, 1]), block_size=0)

    def test_rejects_symbol_without_code(self):
        codec = HuffmanCodec.from_counts(np.array([1, 0, 1]))
        with pytest.raises(ValueError, match="no codeword"):
            codec.encode(np.array([1]))

    def test_skewed_distribution_roundtrip(self, rng):
        symbols = np.where(rng.random(10_000) < 0.99, 0, rng.integers(1, 100, size=10_000))
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=100)
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)

    def test_expected_bits_matches_payload(self, rng):
        symbols = rng.integers(0, 32, size=4096)
        counts = np.bincount(symbols, minlength=32)
        codec = HuffmanCodec.from_counts(counts)
        encoded = codec.encode(symbols)
        assert int(np.sum(counts * codec.lengths.astype(np.int64))) == encoded.total_bits

    def test_decoder_from_lengths_only(self, rng):
        # The decoder side reconstructs the code purely from lengths.
        symbols = rng.integers(0, 10, size=1000)
        enc_codec = HuffmanCodec.from_symbols(symbols, alphabet_size=10)
        encoded = enc_codec.encode(symbols)
        dec_codec = HuffmanCodec(enc_codec.lengths, max_len=enc_codec.max_len)
        assert np.array_equal(dec_codec.decode(encoded), symbols)

    def test_corrupt_stream_detected(self, rng):
        symbols = rng.integers(0, 3, size=256)
        # Alphabet with unused code space (3 symbols -> lengths 1,2,2 uses all
        # space; use 5 symbols at depth 3 to leave holes).
        codec = HuffmanCodec(np.array([3, 3, 3, 3, 3], dtype=np.uint8))
        encoded = codec.encode(rng.integers(0, 5, size=64))
        corrupted = encoded.__class__(
            payload=b"\xff" * len(encoded.payload),
            total_bits=encoded.total_bits,
            block_offsets=encoded.block_offsets,
            n_symbols=encoded.n_symbols,
            block_size=encoded.block_size,
        )
        with pytest.raises(ValueError, match="corrupt|unassigned"):
            codec.decode(corrupted)

    def test_block_offset_mismatch_detected(self, rng):
        symbols = rng.integers(0, 4, size=256)
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=4)
        encoded = codec.encode(symbols, block_size=64)
        bad = encoded.__class__(
            payload=encoded.payload,
            total_bits=encoded.total_bits,
            block_offsets=encoded.block_offsets[:-1],
            n_symbols=encoded.n_symbols,
            block_size=encoded.block_size,
        )
        with pytest.raises(ValueError, match="offset table"):
            codec.decode(bad)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 64),
        st.integers(1, 2000),
        st.integers(0, 2**31),
    )
    def test_property_roundtrip(self, alphabet, n, seed):
        rng = np.random.default_rng(seed)
        # Zipf-ish skew to exercise variable code lengths.
        weights = 1.0 / np.arange(1, alphabet + 1)
        symbols = rng.choice(alphabet, size=n, p=weights / weights.sum())
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=alphabet)
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)


class TestRaggedTailDecode:
    """The lockstep decoder's precomputed active-lane schedule.

    After ``tail`` rounds the ragged last block drops out and the remaining
    contiguous lane prefix runs to ``block`` rounds — no per-round
    active-set scan.  These tests pin the schedule across tail positions
    and prove corruption is still detected inside the ragged rounds.
    """

    def test_deep_ragged_tail_roundtrip(self, rng):
        # Large block, tiny tail: almost every round runs on the reduced
        # lane set (the regime the old np.flatnonzero path made slow).
        symbols = rng.integers(0, 16, size=4096 * 3 + 5)
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=16)
        encoded = codec.encode(symbols, block_size=4096)
        assert np.array_equal(codec.decode(encoded), symbols)

    def test_single_ragged_block(self, rng):
        # n < block: the only block is the ragged one; the loop must stop
        # at its tail round without touching the (empty) lane prefix.
        symbols = rng.integers(0, 8, size=37)
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=8)
        encoded = codec.encode(symbols, block_size=4096)
        assert np.array_equal(codec.decode(encoded), symbols)

    @pytest.mark.parametrize("n", [127, 128, 129, 191, 193, 255])
    def test_every_tail_phase(self, rng, n):
        symbols = rng.integers(0, 6, size=n)
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=6)
        encoded = codec.encode(symbols, block_size=64)
        assert np.array_equal(codec.decode(encoded), symbols)

    @pytest.mark.parametrize("offset", ["past", "before"])
    @pytest.mark.parametrize("limit", [None, 16, 4])
    def test_out_of_range_block_offsets_raise_valueerror(self, rng, monkeypatch, offset, limit):
        # Corrupt offsets past or before the payload read its last or first
        # word, like the clamped 4-byte peek, on every path (limit None: one
        # window; 16: chunked windows; 4, below one block's span: each block
        # a chunk of 4-byte gathers) — and fail the end offset check, never
        # with an IndexError.
        codec = HuffmanCodec(np.array([3, 3, 3, 3, 3], dtype=np.uint8))
        symbols = rng.integers(0, 5, size=300)
        encoded = codec.encode(symbols, block_size=64)
        bad_offsets = encoded.block_offsets.copy()
        bad_offsets[2] = encoded.total_bits + 10_000 if offset == "past" else -(10**9)
        if limit is not None:
            monkeypatch.setattr(bitstream, "WINDOW_WORDS_LIMIT", limit)
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            codec.decode(dataclasses.replace(encoded, block_offsets=bad_offsets))

    def test_corrupt_stream_detected_in_ragged_rounds(self, rng):
        # Sparse depth-3 code leaves unassigned code space; corruption that
        # only the post-tail rounds reach must still raise.
        codec = HuffmanCodec(np.array([3, 3, 3, 3, 3], dtype=np.uint8))
        symbols = rng.integers(0, 5, size=150)
        encoded = codec.encode(symbols, block_size=128)  # tail = 22
        tail_bit = int(encoded.block_offsets[0]) + 3 * 30  # inside block 0,
        # round 30 > tail — decoded only after the last block dropped out.
        payload = bytearray(encoded.payload)
        payload[tail_bit // 8] = 0xFF  # 111 is unassigned for 5 symbols
        payload[tail_bit // 8 + 1] = 0xFF
        corrupted = encoded.__class__(
            payload=bytes(payload),
            total_bits=encoded.total_bits,
            block_offsets=encoded.block_offsets,
            n_symbols=encoded.n_symbols,
            block_size=encoded.block_size,
        )
        with pytest.raises(ValueError, match="corrupt|unassigned"):
            codec.decode(corrupted)


class TestCompleteCodeCorruption:
    """A complete code (Kraft sum 1) has no unassigned code space, so only
    the block end offsets can tell a damaged stream from a valid one."""

    @pytest.fixture()
    def complete(self, rng):
        symbols = np.clip(rng.geometric(0.2, size=20_000), 1, 60)
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=61)
        assert kraft_sum(codec.lengths) == 1.0
        return codec, codec.encode(symbols)

    def test_flipped_payload_bytes_raise_unless_the_block_resyncs(self, complete):
        # A flip is caught when its lane's bit count is still off at the
        # block's end.  Huffman decoding often re-synchronises first, and
        # then the block decodes wrong without an error: the check catches
        # most flips here, not all.
        codec, encoded = complete
        flips = range(0, len(encoded.payload) - 4, 97)
        caught = 0
        for at in flips:
            payload = bytearray(encoded.payload)
            payload[at] ^= 0xFF
            try:
                codec.decode(dataclasses.replace(encoded, payload=bytes(payload)))
            except ValueError as exc:
                assert "corrupt Huffman stream" in str(exc)
                caught += 1
        assert caught >= len(flips) // 2

    def test_interior_offset_shifted_one_bit_raises(self, complete):
        codec, encoded = complete
        offsets = encoded.block_offsets.copy()
        offsets[offsets.size // 2] += 1
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            codec.decode(dataclasses.replace(encoded, block_offsets=offsets))

    def test_wrong_total_bits_raises(self, complete):
        codec, encoded = complete
        with pytest.raises(ValueError, match="corrupt Huffman stream"):
            codec.decode(dataclasses.replace(encoded, total_bits=encoded.total_bits - 1))


class TestLeanRoundsMatchReference:
    """The lean rounds ≡ the reference round loop (``tests.helpers.lockstep_decode``)
    on every decode path: one window, chunked windows, and per-block 4-byte
    gathers (a window limit below one block's span)."""

    @staticmethod
    def _batch(seeds, alphabets, n, block, max_len):
        codecs, encoded = [], []
        for seed, alphabet in zip(seeds, alphabets):
            rng = np.random.default_rng(seed)
            weights = 1.0 / np.arange(1, alphabet + 1) ** rng.uniform(0.3, 3.0)
            symbols = rng.choice(alphabet, size=n, p=weights / weights.sum())
            codecs.append(HuffmanCodec.from_symbols(symbols, alphabet, max_len=max_len))
            encoded.append(codecs[-1].encode(symbols, block_size=block))
        return codecs, encoded

    @staticmethod
    def _route(path, encoded):
        """Patches that send a decode down ``path``."""
        if path == "window":
            return contextlib.nullcontext()
        # A window needs 4 bytes past its last peek, so at a limit of 4 any
        # block of one bit or more is wider than the window.
        limit = max(len(e.payload) for e in encoded) // 2 if path == "chunked" else 4
        return patch.object(bitstream, "WINDOW_WORDS_LIMIT", limit)

    @given(
        streams=st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 600)), min_size=1, max_size=4
        ),
        n=st.integers(1, 2500),
        block=st.sampled_from([1, 2, 7, 64, 100, "over n"]),
        max_len=st.sampled_from([10, 12, 16]),
        path=st.sampled_from(["window", "chunked", "gather"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_valid_streams_bit_for_bit(self, streams, n, block, max_len, path):
        block = n + 3 if block == "over n" else block
        codecs, encoded = self._batch(*zip(*streams), n, block, max_len)
        with self._route(path, encoded):
            got = decode_many(pass_tables(codecs), encoded)
        assert got.dtype == np.int32 and got.shape == (len(streams), n)
        for row, codec, stream in zip(got, codecs, encoded):
            assert np.array_equal(row, lockstep_decode(codec, stream))

    @given(
        seed=st.integers(0, 2**32 - 1),
        alphabet=st.integers(1, 40),
        block=st.sampled_from([1, 5, 64]),
        damage=st.sampled_from(["byte", "offset"]),
        path=st.sampled_from(["window", "chunked", "gather"]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_damaged_streams_fail_whenever_the_reference_does(
        self, seed, alphabet, block, damage, path, data
    ):
        (codec,), (encoded,) = self._batch([seed], [alphabet], 300, block, 16)
        if damage == "byte":
            payload = bytearray(encoded.payload)
            at = data.draw(st.integers(0, len(payload) - 1))
            payload[at] ^= data.draw(st.integers(1, 255))
            bad = dataclasses.replace(encoded, payload=bytes(payload))
        else:
            offsets = encoded.block_offsets.copy()
            at = data.draw(st.integers(0, offsets.size - 1))
            shift = data.draw(st.sampled_from([-9, -1, 1, 3, 10_000]))
            offsets[at] += shift
            bad = dataclasses.replace(encoded, block_offsets=offsets)
        try:
            want = lockstep_decode(codec, bad)
        except ValueError:
            want = None
        with self._route(path, [bad]):
            try:
                got = codec.decode(bad)
            except ValueError:
                return  # at least as strict as the reference
        assert want is not None and np.array_equal(got, want)


def oracle_pass_tables(windows):
    """The pass tables as the per-codec oracle builds them: one table per
    distinct window, concatenated in first-appearance order."""
    tables, owners, bits_of = {}, [], {}
    for lo, window in windows:
        key = (lo, np.asarray(window, dtype=np.uint8).tobytes())
        if key not in tables:
            lengths = np.zeros(lo + len(window), dtype=np.uint8)
            lengths[lo:] = window
            tables[key] = oracle_decode_table(lengths)
        owners.append(key)
    sizes = [sym.size for sym, _len, _bits in tables.values()]
    start = dict(zip(tables, np.cumsum([0] + sizes[:-1]).tolist()))
    sym = np.concatenate([sym for sym, _len, _bits in tables.values()])
    lens = np.concatenate([lens for _sym, lens, _bits in tables.values()])
    return sym, lens, [start[k] for k in owners], [tables[k][2] for k in owners]


@st.composite
def code_windows(draw):
    """One stream's ``(lo, window)``: a Huffman code, an incomplete code, a
    one-symbol code, an empty or all-zero window, or a version-1
    alphabet-wide window."""
    kind = draw(st.sampled_from(["huffman", "incomplete", "one", "empty", "v1"]))
    lo = draw(st.integers(0, 40))
    if kind == "empty":
        return lo, np.zeros(draw(st.integers(0, 3)), dtype=np.uint8)
    if kind == "one":
        window = np.zeros(draw(st.integers(1, 4)), dtype=np.uint8)
        window[draw(st.integers(0, window.size - 1))] = 1
        return lo, window
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    width = draw(st.integers(2, 300))
    counts = np.where(rng.random(width) < 0.7, rng.geometric(0.05, width), 0)
    counts[[0, -1]] = 1 + rng.integers(0, 9, 2)
    window = huffman_code_lengths(counts, max_len=draw(st.sampled_from([8, 12, 16])))
    if kind == "incomplete":
        window[int(rng.integers(0, width))] = 0  # frees that code's space
    if kind == "v1":
        wide = np.zeros(8193, dtype=np.uint8)
        wide[lo : lo + width] = window
        return 0, wide
    return lo, window


class TestDecodeTables:
    """``decode_tables`` ≡ the per-codec oracle tables, concatenated."""

    @given(
        windows=st.lists(code_windows(), min_size=1, max_size=6),
        repeats=st.lists(st.integers(0, 5), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_pass_tables_equal_the_oracle(self, windows, repeats):
        # Repeated windows share one table, hence one base.
        windows = windows + [windows[r % len(windows)] for r in repeats]
        got = decode_tables(windows, 16)
        sym, lens, base, bits = oracle_pass_tables(windows)
        got_sym, got_len = unpacked(got)
        assert np.array_equal(got_sym, sym) and np.array_equal(got_len, lens)
        assert got.base.tolist() == base and got.bits.tolist() == bits

    def test_one_symbol_code_closes_with_a_gap_entry(self):
        got = decode_tables([(7, np.array([0, 1], dtype=np.uint8))], 16)
        assert got.entry.tolist() == [8 << 5 | 1, 0]
        assert got.bits.tolist() == [1]

    @given(
        windows=st.lists(
            st.tuples(st.integers(0, 9), st.binary(max_size=40)), min_size=1, max_size=4
        ),
        max_len=st.integers(2, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_window_builds_the_oracle_or_raises_valueerror(self, windows, max_len):
        windows = [(lo, np.frombuffer(raw, dtype=np.uint8)) for lo, raw in windows]
        try:
            got = decode_tables(windows, max_len)
        except ValueError:
            return
        sym, lens, base, bits = oracle_pass_tables(windows)
        got_sym, got_len = unpacked(got)
        assert np.array_equal(got_sym, sym) and np.array_equal(got_len, lens)
        assert got.base.tolist() == base and got.bits.tolist() == bits

    @pytest.mark.parametrize(
        "window, max_len, match",
        [
            ([1, 1, 1], 16, "Kraft"),
            ([2, 2, 2, 2, 3], 16, "Kraft"),
            ([1, 2, 17, 17], 16, "max_len"),
            ([1, 2, 3] + list(range(4, 26)) + [25], 30, "peek width"),
            ([255, 1], 24, "max_len"),
        ],
    )
    def test_hostile_window_raises_valueerror(self, window, max_len, match):
        good = (0, huffman_code_lengths(np.array([5, 3, 2, 1, 1])))
        with pytest.raises(ValueError, match=match):
            decode_tables([good, (3, np.array(window, dtype=np.uint8)), good], max_len)

    def test_top_of_the_widest_declarable_alphabet_decodes_exactly(self):
        """A stream may declare radius 2**20: symbols up to 2**21, far
        inside the 26-bit symbol field of a packed entry."""
        top = 2 * 2**20  # the alphabet's last symbol
        counts = np.arange(1, 40) ** 2
        window = huffman_code_lengths(counts)
        lo = top + 1 - window.size
        rng = np.random.default_rng(11)
        symbols = lo + rng.choice(window.size, size=3000, p=counts / counts.sum())
        symbols[[0, -1]] = top, lo
        wide = np.zeros(top + 1, dtype=np.uint8)
        wide[lo:] = window
        encoded = HuffmanCodec(wide, max_len=16).encode(symbols, block_size=64)
        # The windowed and the alphabet-wide form: two tables, two bases.
        tables = decode_tables([(lo, window), (0, wide)], 16)
        assert (tables.entry >> 5).max() == top and tables.base.tolist()[0] == 0 < tables.base[1]
        out = decode_many(tables, [encoded, encoded])
        assert out.dtype == np.int32 and np.array_equal(out, np.stack([symbols] * 2))

    @pytest.mark.parametrize("lo", [huffman.SYM_LIMIT - 1, 2**31 - 2, -1])
    def test_symbol_past_the_entry_field_raises_instead_of_wrapping(self, lo):
        """A public window whose codes reach a symbol the 26-bit field
        cannot hold (or a negative one) is refused, not packed into a
        neighbouring symbol."""
        window = (lo, np.array([1, 1], dtype=np.uint8))
        with pytest.raises(ValueError, match="cannot be packed"):
            decode_tables([(0, np.array([1, 1], dtype=np.uint8)), window], 16)
        top = (huffman.SYM_LIMIT - 2, np.array([1, 1], dtype=np.uint8))
        assert (decode_tables([top], 16).entry >> 5).tolist() == [2**26 - 2, 2**26 - 1]

    def test_each_stream_is_checked_against_its_own_max_len(self):
        window = (0, np.array([1, 2, 3, 3], dtype=np.uint8))
        assert decode_tables([window, window], [3, 4]).bits.tolist() == [3, 3]
        with pytest.raises(ValueError, match="max_len"):
            decode_tables([window, window], [3, 2])

    def test_memo_counts_tables_built_and_streams_served(self):
        a = (0, huffman_code_lengths(np.array([5, 3, 2, 1, 1])))
        b = (4, huffman_code_lengths(np.array([1, 1])))
        before = decode_table_cache_info()
        decode_tables([a, b, a, a, (0, a[1].copy())], 16)
        after = decode_table_cache_info()
        assert after.misses - before.misses == 2
        assert after.hits - before.hits == 3

    def test_memo_counts_are_exact_under_concurrent_passes(self):
        import threading

        windows = [(0, huffman_code_lengths(np.arange(1, 9)))] * 3 + [(2, np.ones(2, np.uint8))]
        n_threads, n_passes = 4, 50
        start = threading.Barrier(n_threads)

        def worker():
            start.wait()
            for _ in range(n_passes):
                decode_tables(windows, 16)

        before = decode_table_cache_info()
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = decode_table_cache_info()
        assert after.misses - before.misses == n_threads * n_passes * 2
        assert after.hits - before.hits == n_threads * n_passes * 2

    def test_bricks_sharing_one_16_bit_code_build_one_table(self):
        import tracemalloc

        counts = np.array([1 << 20] + [1] * 17, dtype=np.int64)
        counts[:16] = 1 << np.arange(20, 4, -1)
        lengths = huffman_code_lengths(counts, max_len=16)
        assert lengths.max() == 16
        windows = [(4090, lengths.copy()) for _ in range(27)]
        decode_tables(windows, 16)  # lazy imports and caches are not counted
        tracemalloc.start()
        try:
            got = decode_tables(windows, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table_bytes = 4 << 16  # one int32 ``sym << 5 | len`` an entry
        assert got.entry.size == 1 << 16 and not got.base.any()
        assert peak < 1.5 * table_bytes  # 27 tables would take 27×


class TestTwoQueueBuild:
    """The two-queue merge builds the heap's tree: equal lengths, always."""

    @given(
        counts=st.lists(st.integers(0, 6), min_size=1, max_size=300),
        max_len=st.sampled_from([9, 12, 16]),
    )
    @settings(max_examples=300, deadline=None)
    def test_heavy_ties(self, counts, max_len):
        counts = np.array(counts)
        assert np.array_equal(
            huffman_code_lengths(counts, max_len), heap_code_lengths(counts, max_len)
        )

    @given(
        exponents=st.lists(st.integers(0, 50), min_size=2, max_size=120),
        max_len=st.sampled_from([9, 12, 16]),
    )
    @settings(max_examples=200, deadline=None)
    def test_skewed_counts_that_force_the_length_limit(self, exponents, max_len):
        counts = np.array([1 << e for e in exponents], dtype=np.int64)
        got = huffman_code_lengths(counts, max_len)
        assert np.array_equal(got, heap_code_lengths(counts, max_len))
        assert got.max() <= max_len and kraft_sum(got) <= 1.0 + 1e-12

    def test_fibonacci_counts_exceed_the_limit_before_repair(self):
        counts = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377])
        for max_len in (5, 9):
            got = huffman_code_lengths(counts, max_len)
            assert np.array_equal(got, heap_code_lengths(counts, max_len))
        assert huffman_code_lengths(counts, 5).max() == 5  # unlimited depth is 13

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 100, 512])
    @pytest.mark.parametrize("count", [1, 5])
    def test_all_equal_counts(self, n, count):
        counts = np.full(n, count)
        assert np.array_equal(huffman_code_lengths(counts, 9), heap_code_lengths(counts, 9))

    def test_single_present_symbol(self):
        counts = np.array([0, 0, 9, 0])
        assert huffman_code_lengths(counts).tolist() == heap_code_lengths(counts).tolist()

    def test_alphabet_exactly_fills_the_code_space(self, rng):
        max_len = 6
        counts = rng.integers(1, 1000, size=1 << max_len)
        got = huffman_code_lengths(counts, max_len)
        assert np.array_equal(got, heap_code_lengths(counts, max_len))
        assert got.tolist() == [max_len] * (1 << max_len)

    def test_brick_like_histograms(self, rng):
        for _ in range(50):
            residuals = np.rint(rng.standard_normal(4096) * rng.uniform(0.3, 40)).astype(np.int64)
            counts = np.bincount(np.clip(residuals + 4096, 0, 8192), minlength=8193)
            assert np.array_equal(huffman_code_lengths(counts), heap_code_lengths(counts))

    def test_weights_beyond_int64_do_not_wrap(self):
        counts = np.full(4, 2**62, dtype=np.int64)
        assert huffman_code_lengths(counts).tolist() == [2, 2, 2, 2]


class TestKraftRepair:
    """The closed-form Kraft repair ≡ the lengthen-the-deepest loop."""

    @given(
        max_len=st.integers(2, 24),
        n_present=st.integers(2, 8193),
        shape=st.floats(0.2, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_pareto_histograms(self, max_len, n_present, shape, seed):
        n_present = min(n_present, 1 << max_len)
        rng = np.random.default_rng(seed)
        tail = rng.pareto(shape, size=n_present) * rng.uniform(1, 1e4)
        counts = np.minimum(tail, 2**40).astype(np.int64) + 1
        raw = _tree_depths(counts)
        assert np.array_equal(_limit_lengths(raw, max_len), loop_limit_lengths(raw, max_len))

    def test_last_code_moves_part_of_the_way(self):
        # Clamped to 3 bits the Kraft sum is 10/8: the 2-bit code goes to 3
        # (frees 1/8), then the 1-bit code to 2 covers the last 1/8 — it
        # stops short of max_len.
        raw = np.array([1, 2, 3, 4, 5, 5])
        want = loop_limit_lengths(raw, 3)
        assert want.tolist() == [2, 3, 3, 3, 3, 3]
        assert np.array_equal(_limit_lengths(raw, 3), want)

    def test_no_repair_needed_returns_the_depths(self):
        raw = np.array([1, 2, 3, 3])
        assert _limit_lengths(raw, 16).tolist() == [1, 2, 3, 3]


@functools.cache
def _cauchy_counts() -> np.ndarray:
    """The harness's ``huffman_code_lengths_skewed`` histogram: a 64³
    stream's heavy-tailed residuals, ~970 present symbols whose raw tree is
    deeper than 16 bits, so its row needs the Kraft repair."""
    tail = np.rint(np.random.default_rng(4).standard_cauchy(1 << 18)).astype(np.int64)
    return np.bincount(np.clip(tail, -4096, 4096) + 4096, minlength=8193)


_BATCH_ROWS = st.one_of(
    st.just(("zero",)),
    st.tuples(st.just("one"), st.integers(0, 8192), st.integers(1, 2**40)),
    st.tuples(
        st.just("ties"),
        st.integers(0, 8000),
        st.lists(st.integers(0, 6), min_size=1, max_size=190),
    ),
    st.tuples(
        st.just("skewed"),
        st.integers(0, 8000),
        st.lists(st.integers(0, 40), min_size=2, max_size=60),
    ),
    st.just(("cauchy",)),
)


def _batch_row(spec) -> np.ndarray:
    row = np.zeros(8193, dtype=np.int64)
    kind, *args = spec
    if kind == "one":
        row[args[0]] = args[1]
    elif kind == "ties":
        row[args[0] : args[0] + len(args[1])] = args[1]
    elif kind == "skewed":
        row[args[0] : args[0] + len(args[1])] = [1 << e for e in args[1]]
    elif kind == "cauchy":
        row[:] = _cauchy_counts()
    return row


class TestCodeTables:
    """Every row of a batched build ≡ the batch of one ≡ the heap reference."""

    @given(
        specs=st.lists(_BATCH_ROWS, min_size=1, max_size=8),
        max_len=st.sampled_from([12, 16]),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_single_builds(self, specs, max_len):
        counts = np.stack([_batch_row(spec) for spec in specs])
        tables = code_tables(counts, max_len)
        assert tables.alphabet == 8193
        for i, row in enumerate(counts):
            codec = HuffmanCodec.from_counts(row, max_len)
            lengths = tables.row_lengths(i)
            assert np.array_equal(lengths, heap_code_lengths(row, max_len))
            assert np.array_equal(lengths, codec.lengths)
            assert np.array_equal(tables.row_codes(i), codec.codes)
            assert np.array_equal(tables.row_codes(i), naive_canonical_codes(lengths))

    def test_cauchy_row_takes_the_kraft_repair(self):
        counts = _cauchy_counts()
        assert _tree_depths(counts[counts > 0]).max() > 16
        tables = code_tables(np.stack([counts, np.roll(counts, 3), counts]), 16)
        for i, row in enumerate((counts, np.roll(counts, 3), counts)):
            assert np.array_equal(tables.row_lengths(i), heap_code_lengths(row, 16))
        assert tables.lengths.max() == 16

    def test_tables_span_only_the_occupied_window(self):
        counts = np.zeros((3, 100), dtype=np.int64)
        counts[0, 40:43] = [5, 1, 1]
        counts[2, 50] = 7
        tables = code_tables(counts)
        assert (tables.lo, tables.lengths.shape, tables.codes.shape) == (40, (3, 11), (3, 11))
        assert tables.row_lengths(1).tolist() == [0] * 100
        assert tables.row_lengths(2)[50] == 1

    def test_all_zero_and_empty_batches(self):
        tables = code_tables(np.zeros((2, 5), dtype=np.int64))
        assert tables.lengths.shape == (2, 0)
        assert tables.row_lengths(1).tolist() == [0] * 5
        assert tables.row_codes(0).tolist() == [0] * 5
        assert code_tables(np.zeros((1, 0), dtype=np.int64)).row_lengths(0).size == 0

    def test_bad_rows_raise_what_from_counts_raises(self):
        cases = [
            (np.array([1, -1, 0]), 16, "symbol counts must be non-negative"),
            (np.ones(10, dtype=np.int64), 3, "alphabet of 10 present symbols cannot fit in max_len=3"),
        ]
        for bad, max_len, message in cases:
            with pytest.raises(ValueError, match=message) as single:
                HuffmanCodec.from_counts(bad, max_len)
            good = np.zeros_like(bad)
            good[:2] = 1
            batch = np.stack([good, bad])
            with pytest.raises(ValueError) as batched:
                code_tables(batch, max_len)
            assert str(batched.value) == str(single.value)

    def test_rejects_non_matrix_counts(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            code_tables(np.ones(4, dtype=np.int64))

    @given(
        specs=st.lists(_BATCH_ROWS, min_size=1, max_size=6),
        margins=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_with_offset_equals_the_alphabet_wide_call(self, specs, margins):
        """A histogram over any window that holds every occupied symbol, with
        its offset, builds the alphabet-wide call's tables."""
        counts = np.stack([_batch_row(spec) for spec in specs])
        occupied = np.flatnonzero(counts.any(axis=0))
        first, last = (int(occupied[0]), int(occupied[-1])) if occupied.size else (0, -1)
        lo = max(first - margins[0], 0)
        hi = min(last + 1 + margins[1], counts.shape[1])
        wide = code_tables(counts, 16)
        window = code_tables(counts[:, lo:hi], 16, lo, counts.shape[1])
        assert (window.lo, window.alphabet) == (wide.lo, wide.alphabet)
        assert np.array_equal(window.lengths, wide.lengths)
        assert np.array_equal(window.codes, wide.codes)

    def test_window_must_lie_inside_the_alphabet(self):
        with pytest.raises(ValueError, match="not inside"):
            code_tables(np.ones((1, 4), dtype=np.int64), 16, 6, 8)
        with pytest.raises(ValueError, match="not inside"):
            code_tables(np.ones((1, 4), dtype=np.int64), 16, -1)


class TestEncodeMany:
    """Rows of one pass ≡ one ``encode`` per row."""

    @pytest.mark.parametrize("block_size", [None, 1, 64, 100])
    def test_rows_equal_single_encodes(self, block_size, rng):
        rows = [np.clip(rng.geometric(p, size=1000) - 1, 0, 40) for p in (0.2, 0.5, 0.8, 0.05)]
        counts = np.stack([np.bincount(row, minlength=41) for row in rows])
        batch = encode_many(code_tables(counts), np.stack(rows), block_size)
        for row_counts, row, got in zip(counts, rows, batch):
            codec = HuffmanCodec.from_counts(row_counts)
            want = codec.encode(row, block_size)
            assert (got.payload, got.total_bits, got.n_symbols, got.block_size) == (
                want.payload, want.total_bits, want.n_symbols, want.block_size
            )
            assert np.array_equal(got.block_offsets, want.block_offsets)
            assert np.array_equal(codec.decode(got), row)

    def test_the_callers_symbols_are_read_as_they_are(self, rng):
        """The symbols are never written and never copied: read-only int32
        and int64 rows encode alike, and ``encode`` hands over the caller's
        own array."""
        rows = rng.integers(3, 9, size=(3, 200))
        counts = np.stack([np.bincount(row, minlength=9) for row in rows])
        tables = code_tables(counts)
        want = [e.payload for e in encode_many(tables, rows)]
        for dtype in (np.int32, np.int64):
            frozen = rows.astype(dtype)
            frozen.flags.writeable = False
            assert [e.payload for e in encode_many(tables, frozen)] == want
            assert np.array_equal(frozen, rows)
        codec = HuffmanCodec.from_counts(counts[0])
        kept = rows[0].copy()
        kept.flags.writeable = False
        with patch.object(huffman, "encode_many", side_effect=huffman.encode_many) as spy:
            assert codec.encode(kept).payload == want[0]
        assert np.shares_memory(spy.call_args.args[1], kept)

    @pytest.mark.parametrize("chunk_values", [1, 200, 450, 1 << 16])
    @pytest.mark.parametrize("shared", [False, True])
    def test_every_chunking_gives_the_same_streams(self, monkeypatch, rng, chunk_values, shared):
        """Chunks of rows (one row, two and a half, the whole batch) encode
        every row as the whole batch does, under per-row tables or one."""
        rows = rng.integers(2, 30, size=(7, 200)).astype(np.int32)
        counts = np.stack([np.bincount(row, minlength=30) for row in rows])
        tables = code_tables(counts.sum(axis=0, keepdims=True) if shared else counts)
        want = encode_many(tables, rows, 64)
        monkeypatch.setattr(huffman, "ENCODE_CHUNK_VALUES", chunk_values)
        got = encode_many(tables, rows, 64)
        for a, b in zip(got, want):
            assert (a.payload, a.total_bits, a.n_symbols) == (b.payload, b.total_bits, b.n_symbols)
            assert np.array_equal(a.block_offsets, b.block_offsets)

    def test_one_codec_serving_every_row(self, rng):
        rows = rng.integers(0, 9, size=(5, 300))
        codec = HuffmanCodec.from_symbols(rows.ravel(), alphabet_size=9)
        for row, got in zip(rows, encode_many(codec.tables, rows)):
            assert got.payload == codec.encode(row).payload

    def test_member_checks(self):
        tables = code_tables(np.array([[1, 1, 0], [0, 1, 1]]))
        ok = np.array([[0, 1, 0], [1, 2, 1]])
        assert len(encode_many(tables, ok)) == 2
        with pytest.raises(ValueError, match="no codeword"):
            encode_many(tables, np.array([[0, 1, 0], [1, 0, 1]]))  # in the window
        with pytest.raises(ValueError, match="no codeword"):
            encode_many(HuffmanCodec(np.array([0, 1, 1], dtype=np.uint8)).tables, ok)
        with pytest.raises(ValueError, match="out of alphabet range"):
            encode_many(tables, np.array([[0, 1, 0], [1, 3, 0]]))
        with pytest.raises(ValueError, match="one row per table row"):
            encode_many(tables, ok[:1])
        empty = encode_many(tables, np.zeros((2, 0), dtype=np.int64))
        assert [e.n_symbols for e in empty] == [0, 0]


class TestBlockSizeHeuristic:
    def test_scales_with_sqrt(self):
        assert default_block_size(0) == 64
        assert default_block_size(10_000) == 100
        assert default_block_size(10**9) == 8192  # clamped

    def test_bounds(self):
        assert default_block_size(1) == 64
        assert default_block_size(2**40) == 8192

    def test_equals_the_float_sqrt_rule_it_replaced(self):
        sizes = list(range(0, 5000)) + [k * k + d for k in range(60, 8200, 7) for d in (-1, 0, 1)]
        for n in sizes:
            want = int(np.clip(int(np.sqrt(n)), 64, 8192)) if n > 0 else 64
            assert default_block_size(n) == want


class TestChunkedWindowDecode:
    """Over-limit payloads decode through per-chunk windows, bit-identically.

    `WINDOW_WORDS_LIMIT` bounds the one-gather window array; past it,
    contiguous lane chunks each build a window over their own byte span
    (positions rebased), so the fast path survives at any size.  Only a
    lone block wider than the limit peeks with 4-byte gathers.  Either way
    the output must be identical to the unlimited-window decode.
    """

    def _roundtrip_with_limit(self, monkeypatch, symbols, block_size, limit):
        from repro.sz import bitstream

        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=int(symbols.max()) + 1)
        encoded = codec.encode(symbols, block_size=block_size)
        reference = codec.decode(encoded)
        assert np.array_equal(reference, symbols)
        monkeypatch.setattr(bitstream, "WINDOW_WORDS_LIMIT", limit)
        assert np.array_equal(codec.decode(encoded), symbols)

    @pytest.mark.parametrize("limit", [16, 64, 257, 1024, 8192])
    def test_many_lane_stream_every_limit(self, rng, monkeypatch, limit):
        symbols = rng.integers(0, 300, size=60_000)
        self._roundtrip_with_limit(monkeypatch, symbols, 16, limit)

    def test_ragged_tail_lands_in_final_chunk(self, rng, monkeypatch):
        # n far from a block multiple: the ragged block is the last lane of
        # the last chunk and must drop out at its tail round.
        symbols = rng.integers(0, 64, size=16 * 4000 + 5)
        self._roundtrip_with_limit(monkeypatch, symbols, 16, 512)

    def test_single_block_stream_over_limit(self, rng, monkeypatch):
        # One (ragged) block larger than the window budget: the chunk
        # degrades to 4-gather peeks and still decodes exactly.
        symbols = rng.integers(0, 32, size=1000)
        self._roundtrip_with_limit(monkeypatch, symbols, 4096, 8)

    def test_chunked_matches_unchunked_bit_exactly(self, rng, monkeypatch):
        from repro.sz import bitstream

        symbols = np.where(
            rng.random(50_000) < 0.95, 0, rng.integers(1, 500, size=50_000)
        )
        codec = HuffmanCodec.from_symbols(symbols, alphabet_size=500)
        encoded = codec.encode(symbols, block_size=32)
        reference = codec.decode(encoded)
        monkeypatch.setattr(bitstream, "WINDOW_WORDS_LIMIT", 100)
        chunked = codec.decode(encoded)
        assert chunked.dtype == reference.dtype
        assert np.array_equal(chunked, reference)

    def test_corruption_detected_in_chunked_mode(self, rng, monkeypatch):
        from repro.sz import bitstream

        codec = HuffmanCodec(np.array([3, 3, 3, 3, 3], dtype=np.uint8))
        symbols = rng.integers(0, 5, size=40_000)
        encoded = codec.encode(symbols, block_size=16)
        corrupted = encoded.__class__(
            payload=b"\xff" * len(encoded.payload),
            total_bits=encoded.total_bits,
            block_offsets=encoded.block_offsets,
            n_symbols=encoded.n_symbols,
            block_size=encoded.block_size,
        )
        monkeypatch.setattr(bitstream, "WINDOW_WORDS_LIMIT", 256)
        with pytest.raises(ValueError, match="corrupt|unassigned"):
            codec.decode(corrupted)


class TestDecodeMany:
    """Lanes of many streams share the lockstep rounds."""

    @staticmethod
    def _streams(rng, n, block, alphabets):
        codecs, encoded, symbols = [], [], []
        for alphabet in alphabets:
            weights = 1.0 / np.arange(1, alphabet + 1) ** 1.5
            syms = rng.choice(alphabet, size=n, p=weights / weights.sum())
            codec = HuffmanCodec.from_symbols(syms, alphabet_size=alphabet)
            codecs.append(codec)
            encoded.append(codec.encode(syms, block_size=block))
            symbols.append(syms)
        return codecs, encoded, np.stack(symbols)

    @pytest.mark.parametrize("n, block", [(4096, 64), (4100, 64), (63, 64), (1000, 7)])
    def test_mixed_tables_match_single_decodes(self, rng, n, block):
        # Alphabets from 2 to 600 symbols: table widths from 1 bit upward.
        codecs, encoded, symbols = self._streams(rng, n, block, [2, 600, 9, 64, 3])
        tables = pass_tables(codecs)
        assert len(set(tables.bits.tolist())) > 2
        out = decode_many(tables, encoded)
        assert out.dtype == np.int32 and out.shape == symbols.shape
        assert np.array_equal(out, symbols)
        for row, codec, stream in zip(out, codecs, encoded):
            assert np.array_equal(row, codec.decode(stream))

    def test_one_codec_object_serves_every_stream(self, rng):
        syms = rng.integers(0, 40, size=(6, 900))
        codec = HuffmanCodec.from_symbols(syms.ravel(), alphabet_size=40)
        encoded = [codec.encode(row, block_size=32) for row in syms]
        tables = pass_tables([codec] * 6)
        assert tables.entry.size == 1 << int(tables.bits[0]) and not tables.base.any()
        assert np.array_equal(decode_many(tables, encoded), syms)

    def test_over_limit_batch_decodes_stream_by_stream(self, rng, monkeypatch):
        from repro.sz import bitstream

        codecs, encoded, symbols = self._streams(rng, 3000, 16, [30, 200, 30])
        # Streams 3 and 4 reuse the tables of 1 and 0: each stream decodes
        # under its own table's slice of the pass table, shared or not.
        codecs, encoded = codecs + codecs[1::-1], encoded + encoded[1::-1]
        symbols = np.concatenate([symbols, symbols[1::-1]])
        tables = pass_tables(codecs)
        assert tables.base.tolist()[3:] == tables.base.tolist()[1::-1]
        assert len(set(tables.bits.tolist())) > 1
        monkeypatch.setattr(bitstream, "WINDOW_WORDS_LIMIT", len(encoded[0].payload) + 8)
        assert np.array_equal(decode_many(tables, encoded), symbols)

    def test_rejects_mixed_geometry(self, rng):
        codecs, encoded, _ = self._streams(rng, 500, 16, [8, 8])
        other = codecs[0].encode(rng.integers(0, 2, size=400), block_size=16)
        with pytest.raises(ValueError, match="share n_symbols"):
            decode_many(pass_tables(codecs), [encoded[0], other])

    def test_corrupt_lane_fails_the_pass(self, rng):
        codec = HuffmanCodec(np.array([3, 3, 3, 3, 3], dtype=np.uint8))
        good = [codec.encode(rng.integers(0, 5, size=640), block_size=64) for _ in range(3)]
        bad = good[1].__class__(
            payload=b"\xff" * len(good[1].payload),
            total_bits=good[1].total_bits,
            block_offsets=good[1].block_offsets,
            n_symbols=good[1].n_symbols,
            block_size=good[1].block_size,
        )
        with pytest.raises(ValueError, match="unassigned"):
            decode_many(pass_tables([codec] * 3), [good[0], bad, good[2]])

    def test_table_is_as_wide_as_the_longest_code(self):
        lengths = huffman_code_lengths(np.array([50, 30, 10, 5, 5]), max_len=16)
        tables = decode_tables([(0, lengths)], 16)
        assert tables.bits.tolist() == [int(lengths.max())] and lengths.max() < 16
        assert tables.entry.size == 1 << int(lengths.max())
        assert decode_tables([(0, np.zeros(4, dtype=np.uint8))], 16).bits.tolist() == [1]

    def test_overlong_peek_width_is_rejected(self):
        lengths = np.array([1] + list(range(2, 26)) + [25], dtype=np.uint8)
        codec = HuffmanCodec(lengths, max_len=25)
        encoded = codec.encode(np.array([0, 1, 0]))
        with pytest.raises(ValueError, match="peek width"):
            codec.decode(encoded)
