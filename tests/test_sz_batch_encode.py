"""Batched encode: ``compress_many`` ≡ one ``compress`` per array.

The batch kernels are the only encode path (``compress`` is the batch of
one), so these tests pin that a stream's bytes do not depend on what it was
batched with — over every stream kind — nor on how many threads drained
the batches, and that a bad member raises what ``compress`` raises for it.
Every test runs at one encode thread unless it sets its own count, so no
result depends on the host's CPU count.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.density import Strategy
from repro.core.gsp import gsp_pad
from repro.core.tac import TACCompressor
from repro.sz import compressor as sz_compressor
from repro.sz import lossless, stream
from repro.sz.compressor import SZCompressor
from repro.utils.timer import TimingRecord
from tests.helpers import padded_grid, pin_block_size, smooth_cube, two_level_dataset
from tests.test_sz_batch_decode import fields

CODEC = SZCompressor()


@pytest.fixture(autouse=True)
def threads(monkeypatch):
    """Sets the encode thread count (``ENCODE_THREADS``); 1 by default."""

    def use(count: int) -> None:
        monkeypatch.setattr(sz_compressor, "ENCODE_THREADS", count)

    use(1)
    return use


def assert_same_blobs(codec, arrays, error_bound, mode):
    blobs = codec.compress_many(arrays, error_bound, mode)
    assert len(blobs) == len(arrays)
    for blob, arr in zip(blobs, arrays):
        assert blob == codec.compress(arr, error_bound, mode)
    return blobs


@pytest.fixture()
def passes(monkeypatch):
    """Member counts of every predict/histogram pass the test runs."""
    seen = []
    real = SZCompressor._prepare_symbols

    def spy(self, arrs, *args):
        seen.append(len(arrs))
        return real(self, arrs, *args)

    monkeypatch.setattr(SZCompressor, "_prepare_symbols", spy)
    return seen


class TestEquivalence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["abs", "rel"])
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    @pytest.mark.parametrize("shape", [(300,), (24, 20), (16, 16, 16), (9, 7, 5), (5, 8, 8, 8)])
    def test_same_shape_batch(self, dtype, mode, predictor, shape, passes):
        codec = SZCompressor(predictor=predictor)
        arrays = fields(shape, 5, dtype)
        blobs = codec.compress_many(arrays, 1e-3, mode)
        assert passes == [5]  # they really share a pass
        assert blobs == [codec.compress(arr, 1e-3, mode) for arr in arrays]

    def test_mixed_shapes_dtypes_and_order(self, passes):
        arrays = (
            fields((16, 16, 16), 3, np.float32)
            + fields((9, 7, 5), 2, np.float64, seed=1)
            + fields((16, 16, 16), 2, np.float64, seed=2)
            + fields((4100,), 2, np.float32, seed=3)
            + fields((16, 16, 16), 2, np.float32, seed=4)
            + fields((6, 6), 1, np.float32, seed=5)
        )
        order = np.random.default_rng(0).permutation(len(arrays))
        arrays = [arrays[i] for i in order]
        CODEC.compress_many(arrays, 1e-3, "abs")
        assert sorted(passes) == [1, 2, 2, 2, 5]  # the lone member went alone
        assert_same_blobs(CODEC, arrays, 1e-3, "abs")

    def test_brick_views_of_one_padded_grid(self, passes):
        grid = np.pad(smooth_cube(40), ((0, 8),) * 3, mode="edge")  # 48³
        bricks = [
            grid[x : x + 16, y : y + 16, z : z + 16]
            for x in range(0, 48, 16)
            for y in range(0, 48, 16)
            for z in range(0, 48, 16)
        ]
        assert not bricks[1].flags.c_contiguous
        assert_same_blobs(CODEC, bricks, 1e-3, "abs")
        assert passes[0] == 27

    def test_ragged_edge_bricks(self):
        grid = smooth_cube(40)  # 16-bricks leave 8-wide edges on every axis
        bricks = [
            grid[x : x + 16, y : y + 16, z : z + 16]
            for x in range(0, 40, 16)
            for y in range(0, 40, 16)
            for z in range(0, 40, 16)
        ]
        assert len({b.shape for b in bricks}) == 8
        assert_same_blobs(CODEC, bricks, 1e-4, "abs")

    def test_members_with_and_without_outliers(self):
        calm = [arr - 2.5 for arr in fields((16, 16, 16), 4, np.float32)]
        rough = [arr.copy() for arr in calm[:2]]
        rough[0][3, 4, 5] += 1e4  # residuals far outside the radius
        rough[1][::5, 2, 7] -= 3e3
        arrays = [calm[0], rough[0], calm[1], calm[2], rough[1], calm[3]]
        blobs = assert_same_blobs(CODEC, arrays, 1e-3, "abs")
        n_outliers = [CODEC.compress_with_stats(a, 1e-3, "abs")[1].n_outliers for a in arrays]
        assert [n > 0 for n in n_outliers] == [False, True, False, False, True, False]
        for blob, arr in zip(blobs, arrays):
            assert np.max(np.abs(CODEC.decompress(blob) - arr)) <= 1e-3 * 1.001

    def test_constant_members_get_single_symbol_tables(self):
        arrays = fields((8, 8, 8), 3, np.float64)
        arrays.insert(1, np.full((8, 8, 8), 2.5))
        arrays.append(np.zeros((8, 8, 8)))
        assert_same_blobs(CODEC, arrays, 1e-3, "abs")

    def test_empty_lossless_and_pw_rel_members(self, passes):
        arrays = fields((8, 8, 8), 3, np.float32)
        empties = [np.zeros((0, 4), np.float32)] * 2
        assert_same_blobs(CODEC, arrays[:2] + empties + arrays[2:], 1e-3, "abs")
        # eb = 0 stores every member verbatim; a constant member of a rel
        # call resolves to eb_abs = 0 on its own.
        assert_same_blobs(CODEC, arrays, 0.0, "abs")
        assert_same_blobs(CODEC, [arrays[0], np.ones((8, 8, 8), np.float32), arrays[1]], 1e-3, "rel")
        del passes[:]
        CODEC.compress_many(arrays, 1e-2, "pw_rel")
        assert passes == [3]  # pw_rel members share one pass, in log space
        assert_same_blobs(CODEC, arrays, 1e-2, "pw_rel")

    def test_shapes_dtypes_empty_and_constant_members_in_one_rel_call(self):
        arrays = fields((16, 16, 16), 6, np.float32) + fields((9, 7, 5), 3, np.float64, seed=1)
        arrays.insert(2, np.zeros((0, 3), np.float32))
        arrays.insert(4, np.full((16, 16, 16), 7.0, np.float32))
        assert_same_blobs(CODEC, arrays, 1e-3, "rel")

    @pytest.mark.parametrize("count, want", [(1, [64, 6]), (2, [32, 32, 6])])
    def test_value_budget_splits_batches(self, monkeypatch, passes, threads, count, want):
        threads(count)
        arrays = fields((16, 16, 16), 70, np.float32)
        blobs = CODEC.compress_many(arrays, 1e-3, "abs")
        # 64 × 4096 values fill the budget, which the threads share.
        assert sorted(passes, reverse=True) == want
        assert blobs[::23] == [CODEC.compress(arr, 1e-3, "abs") for arr in arrays[::23]]
        threads(1)
        monkeypatch.setattr(sz_compressor, "BATCH_VALUES", 3 * 4096)
        del passes[:]
        CODEC.compress_many(arrays[:8], 1e-3, "abs")
        assert passes == [3, 3, 2]
        assert_same_blobs(CODEC, arrays[:8], 1e-3, "abs")

    def test_array_larger_than_budget_is_its_own_batch(self, monkeypatch, passes):
        monkeypatch.setattr(sz_compressor, "BATCH_VALUES", 100)
        arrays = fields((8, 8, 8), 3, np.float32)
        CODEC.compress_many(arrays, 1e-3, "abs")
        assert passes == [1, 1, 1]
        assert_same_blobs(CODEC, arrays, 1e-3, "abs")

    def test_batch_of_one_and_empty_call(self):
        assert_same_blobs(CODEC, [smooth_cube(12)], 1e-3, "abs")
        assert CODEC.compress_many([], 1e-3, "abs") == []

    def test_array_likes_are_coerced_like_compress(self):
        arrays = [[[1, 2], [3, 4]], np.arange(4).reshape(2, 2), [[0.5, 1.5], [2.5, 3.5]]]
        assert_same_blobs(CODEC, arrays, 1e-2, "abs")

    def test_custom_block_size_and_raw_payloads(self, monkeypatch):
        pin_block_size(monkeypatch, 100)
        noise = np.random.default_rng(3).standard_normal((4, 16, 16, 16)).astype(np.float32)
        blobs = assert_same_blobs(CODEC, list(noise), 1e-3, "abs")
        for blob in blobs:
            parsed = stream.parse(blob)
            assert parsed.section(stream.SEC_PAYLOAD)[0] == lossless.CODEC_RAW
            assert stream.unpack_meta(parsed.section(stream.SEC_META)[1])["block_size"] == 100

    def test_timings_keys_match_single_compress(self):
        arrays = fields((8, 8, 8), 3, np.float32)
        many = TimingRecord()
        CODEC.compress_many(arrays, 1e-3, "abs", timings=many)
        one = CODEC.compress_with_stats(arrays[0], 1e-3, "abs")[1].timings
        assert set(one.spans) == set(many.spans) == {"predict", "encode", "lossless"}
        lone = TimingRecord()
        CODEC.compress_many(arrays[:1], 1e-3, "abs", timings=lone)
        assert set(lone.spans) == set(one.spans)


class TestBadMembers:
    @pytest.mark.parametrize(
        "spoil",
        [
            lambda arr: arr.__setitem__((1, 2, 3), np.nan),
            lambda arr: arr.__setitem__((0, 0, 0), -np.inf),
        ],
    )
    def test_non_finite_member_raises_what_compress_raises(self, spoil):
        arrays = fields((8, 8, 8), 4, np.float32)
        spoil(arrays[2])
        with pytest.raises(ValueError) as single:
            CODEC.compress(arrays[2], 1e-3, "abs")
        with pytest.raises(ValueError) as batch:
            CODEC.compress_many(arrays, 1e-3, "abs")
        assert str(batch.value) == str(single.value)

    def test_unsupported_ndim_member(self):
        good = [np.ones((2,) * 5) * k for k in range(2)]  # 5-D, batched together
        with pytest.raises(ValueError) as single:
            CODEC.compress(good[0], 1e-3, "abs")
        with pytest.raises(ValueError) as batch:
            CODEC.compress_many(fields((8, 8, 8), 2, np.float64) + good, 1e-3, "abs")
        assert str(batch.value) == str(single.value)
        assert "dimensionalities" in str(single.value)

    def test_lattice_overflow_names_the_member_that_overflows(self):
        arrays = [np.full(8, 1.0), np.full(8, 1e30), np.full(8, 2.0)]
        with pytest.raises(ValueError) as single:
            CODEC.compress(arrays[1], 1e-3, "abs")
        with pytest.raises(ValueError) as batch:
            CODEC.compress_many(arrays, 1e-3, "abs")
        assert str(batch.value) == str(single.value)
        assert "1e+30" in str(single.value)

    @pytest.mark.parametrize("count", [1, 2])
    def test_rejected_member_leaves_aliased_destinations_untouched(self, threads, count):
        threads(count)
        a, b = fields((64, 64, 64), 2, np.float32)
        b[10, 20, 30] = np.nan
        before = a.copy()
        with pytest.raises(ValueError, match="non-finite"):
            CODEC.compress_many([a, b], 1e-2, "abs", recon=[a, b])
        assert np.array_equal(a, before)  # no batch was encoded

    @pytest.mark.parametrize("count", [1, 2])
    def test_lattice_overflow_with_aliased_recon(self, threads, count):
        """The overflow is found by the encode, not the input checks: other
        members' destinations may be written (at 2 threads a later one's
        too), but the error is the serial one and the member that overflows
        keeps its values."""
        threads(count)
        a, b, c = fields((64, 64, 64), 3, np.float32)  # a batch each
        b[3, 4, 5] = 1e30
        before = b.copy()
        with pytest.raises(ValueError) as single:
            CODEC.compress(b, 1e-3, "abs")
        with pytest.raises(ValueError) as batch:
            CODEC.compress_many([a, b, c], 1e-3, "abs", recon=[a, b, c])
        assert str(batch.value) == str(single.value)
        assert np.array_equal(b, before)

    def test_bad_error_bound(self):
        for bad, mode in ((-1.0, "abs"), (float("nan"), "abs"), (1.5, "pw_rel")):
            with pytest.raises(ValueError) as single:
                CODEC.compress(np.ones(4), bad, mode)
            with pytest.raises(ValueError) as batch:
                CODEC.compress_many([np.ones(4), np.zeros(4)], bad, mode)
            assert str(batch.value) == str(single.value)
        # An empty member is rejected like the others, before any is encoded
        # (``single`` holds the pw_rel message of the last round).
        with pytest.raises(ValueError) as batch:
            CODEC.compress_many([np.zeros((0, 4)), np.ones(4)], 1.5, "pw_rel")
        assert str(batch.value) == str(single.value)


def mixed_members() -> list:
    """Shapes, dtypes, an empty, a constant and a zero member, with more
    16³ members than one batch holds at 2 threads."""
    arrays = (
        fields((16, 16, 16), 40, np.float32)
        + fields((9, 7, 5), 3, np.float64, seed=1)
        + fields((64, 64, 64), 2, np.float32, seed=2)
        + fields((4100,), 2, np.float32, seed=3)
    )
    arrays.insert(5, np.zeros((0, 4), np.float32))
    arrays.insert(7, np.full((16, 16, 16), 7.0, np.float32))
    arrays.insert(41, np.zeros((9, 7, 5)))
    return arrays


class TestDrain:
    """The batches of one call are drained by the caller and its helpers."""

    @pytest.mark.parametrize("mode, eb", [("abs", 1e-3), ("rel", 1e-4), ("pw_rel", 1e-2)])
    def test_bytes_and_recon_identical_at_1_2_and_4_threads(self, threads, mode, eb):
        results = {}
        for count in (1, 2, 4):
            threads(count)
            dests = [np.empty_like(arr) for arr in mixed_members()]
            blobs = CODEC.compress_many(mixed_members(), eb, mode, recon=dests)
            results[count] = blobs, dests
        serial, serial_dests = results[1]
        assert serial[::9] == [CODEC.compress(arr, eb, mode) for arr in mixed_members()[::9]]
        for blobs, dests in (results[2], results[4]):
            assert blobs == serial
            for dest, want in zip(dests, serial_dests):
                assert np.array_equal(dest, want, equal_nan=True)

    def test_concurrent_callers_finish_with_identical_bytes(self, threads):
        """The deadlock and lost-update guard: four callers share the
        helpers, with thread switches forced far more often than usual."""
        threads(2)
        arrays = fields((64, 64, 64), 3, np.float32) + fields((16, 16, 16), 70, np.float32)
        want = CODEC.compress_many(arrays, 1e-3, "abs")
        got: dict = {}

        def call(slot: int) -> None:
            got[slot] = CODEC.compress_many(arrays, 1e-3, "abs")

        callers = [threading.Thread(target=call, args=(k,), daemon=True) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers), "a drain deadlocked"
        assert got == {k: want for k in range(4)}

    def test_failing_member_raises_the_serial_error(self, monkeypatch, threads):
        monkeypatch.setattr(sz_compressor, "BATCH_VALUES", 16)
        threads(2)  # 8 values per batch: every member is a batch of its own
        arrays = [np.full(8, 1.0 + k) for k in range(12)]
        arrays[5], arrays[9] = np.full(8, 1e30), np.full(8, 3e30)
        with pytest.raises(ValueError) as single:
            CODEC.compress(arrays[5], 1e-3, "abs")
        for _ in range(3):
            with pytest.raises(ValueError) as batch:
                CODEC.compress_many(arrays, 1e-3, "abs")
            assert str(batch.value) == str(single.value)
        good = arrays[:5] + arrays[6:9]
        assert_same_blobs(CODEC, good, 1e-3, "abs")  # the next call still works

    def test_caller_drains_alone_once_the_helpers_are_shut_down(self, monkeypatch, threads):
        """At interpreter exit (an ``atexit`` hook) the helper pool refuses
        work; the caller then encodes every batch itself."""
        closed = ThreadPoolExecutor(1)
        closed.shutdown()
        monkeypatch.setattr(sz_compressor, "_helpers", lambda: closed)
        arrays = fields((16, 16, 16), 70, np.float32)
        want = CODEC.compress_many(arrays, 1e-3, "abs")
        threads(2)
        assert CODEC.compress_many(arrays, 1e-3, "abs") == want

    def test_timing_keys_survive_the_merge(self, monkeypatch, threads):
        monkeypatch.setattr(sz_compressor, "BATCH_VALUES", 4 * 4096)
        arrays = fields((16, 16, 16), 12, np.float32)
        records = {}
        for count in (1, 2):
            threads(count)
            records[count] = TimingRecord()
            CODEC.compress_many(arrays, 1e-3, "abs", timings=records[count])
        for record in records.values():
            assert set(record.spans) == {"predict", "encode", "lossless"}
            assert all(seconds > 0 for seconds in record.spans.values())


class TestTAC:
    def test_drained_levels_equal_serial_bytes(self, threads):
        dataset = two_level_dataset(n=32, fine_fraction=0.8)
        codec = TACCompressor(brick_size=16)
        serial = codec.compress(dataset, 1e-3).to_bytes()
        threads(2)
        assert codec.compress(dataset, 1e-3).to_bytes() == serial

    def test_bricked_level_is_batched_and_equals_per_brick_calls(self, passes):
        dataset = two_level_dataset(n=32, fine_fraction=0.8)
        comp = TACCompressor(brick_size=16, force_strategy=Strategy.GSP).compress(dataset, 1e-3)
        # The fine level's 2×2×2 bricks are encoded one x-slab at a time:
        # each slab's 2×2 bricks shared one pass.
        assert passes[:2] == [4, 4]
        meta = comp.meta["levels"][0]
        lvl = dataset.levels[0]
        padded = padded_grid(gsp_pad(lvl.masked_data(), lvl.mask, meta["unit_block"]))
        brick = padded[:16, :16, 16:32]
        assert comp.parts["L0/b1"] == CODEC.compress(brick, meta["eb_abs"], "abs")
