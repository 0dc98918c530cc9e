"""Batched lockstep decode: ``decompress_many`` ≡ one ``decompress`` per blob.

The batch path is the only decode path (``decompress`` is the batch of
one), so these tests pin two things: that a stream's reconstruction does
not depend on what it was batched with — bit for bit, dtype for dtype,
over every stream kind — and that a bad member fails alone.
"""

import struct
import threading

import numpy as np
import pytest

from repro.core.plan import DecodeUnit, DecompressionPlan, decode_jobs, execute_plan
from repro.core.tac import SharedTableResolver
from repro.sz import compressor as sz_compressor
from repro.sz import lossless, stream
from repro.sz.compressor import SZCompressor, stream_batches
from repro.utils.timer import TimingRecord
from tests.helpers import inflate_section, reserialize_stream, shared_table_streams, smooth_cube

CODEC = SZCompressor()


def fields(shape, count, dtype, seed=0):
    """``count`` distinct smooth-plus-noise arrays of one shape."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*(np.linspace(0, 3, dim) for dim in shape), indexing="ij")
    base = sum(np.sin(axis + i) for i, axis in enumerate(axes))
    return [
        (base * (1 + k) + 0.05 * rng.standard_normal(shape) + 2.5).astype(dtype)
        for k in range(count)
    ]


def assert_same(batched, blobs):
    assert len(batched) == len(blobs)
    for got, blob in zip(batched, blobs):
        want = CODEC.decompress(blob)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestEquivalence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["abs", "rel", "pw_rel"])
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    @pytest.mark.parametrize("shape", [(300,), (24, 20), (16, 16, 16), (5, 8, 8, 8)])
    def test_same_shape_batch(self, dtype, mode, predictor, shape):
        codec = SZCompressor(predictor=predictor)
        blobs = [
            codec.compress(arr, 1e-3 * (1 + k), mode)
            for k, arr in enumerate(fields(shape, 5, dtype))
        ]
        assert len(stream_batches(blobs)) == 1  # they really share a pass
        assert_same(codec.decompress_many(blobs), blobs)

    def test_mixed_shapes_kinds_and_order(self):
        lorenzo = SZCompressor(predictor="lorenzo")
        arrays = (
            fields((16, 16, 16), 3, np.float32)
            + fields((9, 7, 5), 2, np.float64, seed=1)  # ragged last block
            + fields((16, 16, 16), 2, np.float64, seed=2)
            + fields((4100,), 2, np.float32, seed=3)  # 65 blocks of 64, tail 4
        )
        blobs = [CODEC.compress(arr, 1e-3, "abs") for arr in arrays]
        blobs.insert(2, CODEC.compress(np.zeros((0, 4), np.float32), 1e-3, "abs"))
        blobs.insert(5, CODEC.compress(arrays[0], 0.0, "abs"))  # lossless fallback
        blobs.insert(7, lorenzo.compress(arrays[1], 1e-3, "abs"))
        blobs.append(CODEC.compress(arrays[0], 1e-2, "pw_rel"))
        batches = stream_batches(blobs)
        assert sorted(m.index for b in batches for m in b.members) == list(range(len(blobs)))
        assert any(len(b.members) > 1 for b in batches)
        assert_same(CODEC.decompress_many(blobs), blobs)

    def test_batch_of_one_and_empty_call(self):
        blob = CODEC.compress(smooth_cube(12), 1e-3, "abs")
        assert_same(CODEC.decompress_many([blob]), [blob])
        assert CODEC.decompress_many([]) == []

    def test_results_own_their_memory(self):
        blobs = [CODEC.compress(arr, 1e-3, "abs") for arr in fields((8, 8, 8), 4, np.float64)]
        out = CODEC.decompress_many(blobs)
        assert all(arr.base is None for arr in out)  # no result pins the batch

    def test_value_budget_splits_batches(self, monkeypatch):
        arrays = fields((16, 16, 16), 70, np.float32)
        blobs = [CODEC.compress(arr, 1e-3, "abs") for arr in arrays]
        sizes = [len(b.members) for b in stream_batches(blobs)]
        assert sizes == [64, 6]  # 64 × 4096 values fill the budget
        monkeypatch.setattr(sz_compressor, "BATCH_VALUES", 3 * 4096)
        assert [len(b.members) for b in stream_batches(blobs[:8])] == [3, 3, 2]
        assert_same(CODEC.decompress_many(blobs[:8]), blobs[:8])

    def test_stream_larger_than_budget_is_its_own_batch(self, monkeypatch):
        monkeypatch.setattr(sz_compressor, "BATCH_VALUES", 100)
        blobs = [CODEC.compress(arr, 1e-3, "abs") for arr in fields((8, 8, 8), 3, np.float32)]
        assert [len(b.members) for b in stream_batches(blobs)] == [1, 1, 1]
        assert_same(CODEC.decompress_many(blobs), blobs)

    def test_timings_keys_match_single_decode(self):
        blobs = [CODEC.compress(arr, 1e-3, "abs") for arr in fields((8, 8, 8), 3, np.float32)]
        one, many = TimingRecord(), TimingRecord()
        CODEC.decompress(blobs[0], timings=one)
        CODEC.decompress_many(blobs, timings=many)
        assert set(one.spans) == set(many.spans) == {"decode", "reconstruct"}


class TestSharedTables:
    """Streams of the retired shared-table layout, rewritten at fetch into
    ordinary ones, batch like any other stream."""

    @pytest.fixture()
    def level(self):
        private = [CODEC.compress(arr, 1e-3, "abs") for arr in fields((16, 16, 16), 6, np.float32)]
        table, blobs, _info = shared_table_streams(private)
        resolver = SharedTableResolver({"L0/table": table}, "L0/table")
        return private, [resolver.ordinary(blob) for blob in blobs], blobs

    def test_lanes_share_one_table(self, level):
        private, ordinary, _shared = level
        out = CODEC.decompress_many(ordinary)
        assert_same(out, ordinary)
        assert_same(out, private)  # same symbols, so the same reconstruction

    def test_shared_and_private_tables_in_one_batch(self, level):
        _private, ordinary, _shared = level
        private = [CODEC.compress(arr, 1e-3, "abs") for arr in fields((16, 16, 16), 3, np.float32, 9)]
        mixed = [ordinary[0], private[0], ordinary[1], private[1], private[2], ordinary[2]]
        assert len(stream_batches(mixed)) == 1
        assert_same(CODEC.decompress_many(mixed), mixed)

    def test_unrewritten_stream_fails_that_member_only(self, level):
        _private, ordinary, shared = level
        errors = {}
        out = CODEC.decompress_many([ordinary[0], shared[1], ordinary[2]], errors=errors)
        assert set(errors) == {1} and "missing required section" in str(errors[1])
        assert out[1] is None
        assert np.array_equal(out[2], CODEC.decompress(ordinary[2]))


def _bad_code_lengths(blob):
    window = stream._varints(0, 8193) + bytes([1]) * 8193  # Kraft sum ≫ 1
    return reserialize_stream(blob, {stream.SEC_CODE_LENGTHS: window})


def _bad_offsets(blob):
    raw = stream.parse(blob).section(stream.SEC_BLOCK_OFFSETS)[1]
    return reserialize_stream(blob, {stream.SEC_BLOCK_OFFSETS: raw[:-1]})


def _bad_payload(blob):
    # The victim is an all-zero brick: one symbol, one 1-bit code, so a
    # set payload bit peeks unassigned code space.
    raw = bytearray(inflate_section(stream.parse(blob), stream.SEC_PAYLOAD))
    raw[10] ^= 0x10
    return reserialize_stream(blob, {stream.SEC_PAYLOAD: bytes(raw)})


def _flipped_payload_byte(blob):
    # A lattice brick under a complete code: no unassigned code space, so
    # only its block end offsets catch the flip.  This one desyncs its lane
    # to the block's end (about a third of single-byte flips on these
    # bricks do; the rest re-synchronise and decode wrong silently).
    raw = bytearray(inflate_section(stream.parse(blob), stream.SEC_PAYLOAD))
    raw[len(raw) // 2] ^= 0xFF
    return reserialize_stream(blob, {stream.SEC_PAYLOAD: bytes(raw)})


def _bad_outliers(blob):
    return reserialize_stream(blob, {stream.SEC_OUTLIERS: struct.pack("<q", 7) * 3})


def _zero_block_size(blob):
    meta = stream.unpack_meta(stream.parse(blob).section(stream.SEC_META)[1])
    meta["block_size"] = 0
    return reserialize_stream(blob, {stream.SEC_META: stream.pack_meta(**meta)})


class TestCorruptMemberFailsAlone:
    @pytest.fixture()
    def bricks(self):
        arrays = fields((16, 16, 16), 6, np.float32)
        arrays[3] = np.zeros((16, 16, 16), np.float32)
        arrays[3][0, 0, 0] = 1e6  # one escape-coded anchor → an outlier section
        arrays[4] = np.zeros((16, 16, 16), np.float32)
        return [CODEC.compress(arr, 1e-3, "abs") for arr in arrays]

    @pytest.mark.parametrize(
        "victim, corrupt, match",
        [
            (1, _bad_code_lengths, "Kraft"),
            (2, _bad_offsets, "block offsets section holds"),
            (4, _bad_payload, "unassigned code space"),
            (5, _flipped_payload_byte, "corrupt Huffman stream"),
            (3, _bad_outliers, "items of int64, got 3"),
            (0, _zero_block_size, "block_size"),
            (5, lambda blob: blob[:-3], "overruns"),
        ],
    )
    def test_only_the_victim_raises(self, bricks, victim, corrupt, match):
        good = [CODEC.decompress(blob) for blob in bricks]
        blobs = list(bricks)
        blobs[victim] = corrupt(bricks[victim])
        errors = {}
        out = CODEC.decompress_many(blobs, errors=errors)
        assert set(errors) == {victim}
        assert isinstance(errors[victim], ValueError)
        assert match in str(errors[victim])
        assert out[victim] is None
        for index, want in enumerate(good):
            if index != victim:
                assert np.array_equal(out[index], want)
        with pytest.raises(ValueError, match=match):
            CODEC.decompress_many(blobs)
        with pytest.raises(ValueError, match=match):
            CODEC.decompress(blobs[victim])

    def test_two_victims_in_one_batch(self, bricks):
        blobs = list(bricks)
        blobs[1] = _bad_code_lengths(bricks[1])
        blobs[4] = _bad_payload(bricks[4])
        assert len(stream_batches(blobs)) == 1
        errors = {}
        out = CODEC.decompress_many(blobs, errors=errors)
        assert set(errors) == {1, 4}
        assert [arr is None for arr in out] == [False, True, False, False, True, False]


def test_damaged_deflate_code_lengths_fail_their_member_only():
    # A code-length section recorded as DEFLATE whose bytes do not inflate:
    # a ValueError recorded under that member's index, the other 26 members
    # of its 27-brick batch still decode.
    blobs = [CODEC.compress(arr, 1e-3, "abs") for arr in fields((16, 16, 16), 27, np.float32)]
    assert len(stream_batches(blobs)) == 1
    victim = 13
    parsed = stream.parse(blobs[victim])
    sections = [(tag, *section) for tag, section in parsed.sections.items()]
    sections = [
        (tag, lossless.CODEC_ZLIB, stream._varints(4000, 90) + b"garbage")
        if tag == stream.SEC_CODE_LENGTHS else (tag, codec, payload)
        for tag, codec, payload in sections
    ]
    blobs[victim] = stream.serialize(parsed.header, sections)
    errors = {}
    out = CODEC.decompress_many(blobs, errors=errors)
    assert set(errors) == {victim} and isinstance(errors[victim], ValueError)
    assert "DEFLATE" in str(errors[victim])
    assert out[victim] is None
    for index, blob in enumerate(blobs):
        if index != victim:
            assert np.array_equal(out[index], CODEC.decompress(blob))


class TestPlanExecution:
    """``execute_plan`` batches the units that declare an SZ stream."""

    @pytest.fixture()
    def plan(self):
        arrays = fields((16, 16, 16), 5, np.float32) + fields((6, 6, 6), 2, np.float64)
        parts = {f"p{i}": CODEC.compress(arr, 1e-3, "abs") for i, arr in enumerate(arrays)}
        fetched = []

        def getter(name):
            def fetch():
                fetched.append(name)
                return parts[name]

            return fetch

        units = [
            DecodeUnit(
                name, 0, (name,), None, sz_blob=getter(name), sz_shape=arrays[i].shape
            )
            for i, name in enumerate(parts)
        ]
        return DecompressionPlan(units), parts, fetched

    def test_matches_unit_decode(self, plan):
        plan, parts, fetched = plan
        results = execute_plan(plan)
        assert sorted(fetched) == sorted(parts)  # each blob fetched exactly once
        for unit in plan.units:
            assert np.array_equal(results[unit.key], CODEC.decompress(parts[unit.key]))

    def test_runs_in_plan_order_on_the_callers_thread(self, plan):
        """No pool: closure units and SZ batches run one after another on
        the thread that called ``execute_plan``, in plan order."""
        plan, _parts, fetched = plan
        seen = []

        def closure(key):
            def decode():
                seen.append((key, threading.get_ident()))
                return key

            return DecodeUnit(key, 0, (key,), decode)

        units = [closure("a"), *plan.units[:5], closure("b"), *plan.units[5:]]
        results = execute_plan(DecompressionPlan(units))
        assert seen == [("a", threading.get_ident()), ("b", threading.get_ident())]
        assert fetched == [f"p{i}" for i in range(7)]
        assert list(results)[:1] == ["a"] and len(results) == 9

    def test_fetch_and_decode_failures_stay_per_unit(self, plan):
        plan, parts, _fetched = plan
        parts["p1"] = _bad_code_lengths(parts["p1"])
        del parts["p3"]
        errors = {}
        results = execute_plan(plan, errors=errors)
        assert set(errors) == {"p1", "p3"}
        assert isinstance(errors["p3"], KeyError)
        assert set(results) == {"p0", "p2", "p4", "p5", "p6"}
        with pytest.raises((KeyError, ValueError)):
            execute_plan(plan)

    def test_jobs_fetch_on_run_and_split_by_budget(self, plan):
        plan, parts, fetched = plan
        bricks = [unit for unit in plan.units if unit.sz_shape == (16, 16, 16)]
        small = [unit for unit in plan.units if unit.sz_shape == (6, 6, 6)]
        loose = DecodeUnit("p0", 0, ("p0",), None, sz_blob=bricks[0].sz_blob)
        per_job = sz_compressor.BATCH_VALUES // 16**3
        units = (bricks * per_job)[: 2 * per_job + 2] + small + [loose]
        jobs = decode_jobs(units)
        assert [len(members) for members, _run in jobs] == [per_job, per_job, 2, 2, 1]
        assert fetched == []  # building the work items reads nothing
        members, run = jobs[2]
        assert set(run()) == {unit.key for unit in members}
        assert len(fetched) == 2  # a job fetches its own members, nobody else's

    def test_patched_budget_splits_the_jobs(self, plan, monkeypatch):
        """``decode_jobs`` reads ``BATCH_VALUES`` when called, not when
        ``repro.core.plan`` was imported: a patched budget splits the jobs."""
        plan, _parts, _fetched = plan
        bricks = [unit for unit in plan.units if unit.sz_shape == (16, 16, 16)]
        assert len(bricks) >= 3
        assert [len(members) for members, _run in decode_jobs(bricks)] == [len(bricks)]
        monkeypatch.setattr(sz_compressor, "BATCH_VALUES", 2 * 16**3)
        sizes = [len(members) for members, _run in decode_jobs(bricks)]
        assert sizes == [2] * (len(bricks) // 2) + [1] * (len(bricks) % 2)

    def test_item_of_one_stream_uses_the_per_stream_entry_point(self, plan, monkeypatch):
        """Instrumentation that wraps ``SZCompressor.decompress`` (tacbench's
        span) keeps seeing streams that have no batch-mates."""
        plan, parts, _fetched = plan
        seen = []
        real = SZCompressor.decompress

        def spy(self, blob, *args, **kwargs):
            seen.append(blob)
            return real(self, blob, *args, **kwargs)

        monkeypatch.setattr(SZCompressor, "decompress", spy)
        lone = DecodeUnit("p5", 0, ("p5",), None, sz_blob=lambda: parts["p5"])
        results = execute_plan(DecompressionPlan(plan.units[:5] + [lone]))
        assert seen == [parts["p5"]]  # the five bricks went as one batch
        assert len(results) == 6

    def test_failure_that_is_not_stream_damage_is_not_retried(self, plan, monkeypatch):
        plan, parts, _fetched = plan
        calls = []

        def out_of_memory(members, timings):
            calls.append(len(members))
            raise MemoryError("batch working set")

        monkeypatch.setattr(sz_compressor, "_decode_members", out_of_memory)
        with pytest.raises(MemoryError):
            CODEC.decompress_many(list(parts.values()), errors={})
        assert calls == [5]  # no member-by-member retry to swallow it
        errors = {}
        assert execute_plan(plan, errors=errors) == {}
        assert set(errors) == set(parts)  # degraded: every member reports why
        assert all(isinstance(exc, MemoryError) for exc in errors.values())

    def test_attribution_retry_is_untimed(self, plan):
        _plan, parts, _fetched = plan
        blobs = [parts[f"p{i}"] for i in range(5)]
        blobs[1] = _bad_code_lengths(blobs[1])
        spans = []

        class Recorder(TimingRecord):
            def add(self, name, seconds):
                spans.append(name)

        errors = {}
        CODEC.decompress_many(blobs, timings=Recorder(), errors=errors)
        assert set(errors) == {1}
        assert spans == ["decode"]  # the batched pass, not it plus five retries
