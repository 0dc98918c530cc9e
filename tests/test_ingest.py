"""Ingest pipeline tests: streamed parity, temporal delta, session contract.

The load-bearing invariants:

* ``compress_iter`` is a *presentation* change, not a format change — part
  bytes, part order, and final metadata match ``compress`` exactly, for
  every strategy/bricking configuration (property-tested);
* the streamed writer's peak memory is bounded by a couple of level
  chunks, never the whole entry (measured on a synthetic chunk stream
  whose total dwarfs any one chunk);
* temporal delta coding is **closed-loop**: every reconstructed timestep
  honors the chain keyframe's absolute bound with no error accumulation,
  and ROI reads of a delta chain are bit-identical to slicing the full
  reconstruction;
* :class:`IngestSession` is the one path to a sharded archive — codec
  options cannot leak between jobs by reference, and failures abort the
  session cleanly.
"""

from __future__ import annotations

import asyncio
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.amr.io import save_dataset
from repro.core.container import (
    CompressedDataset,
    LevelChunk,
    StreamingCompression,
    resolve_global_eb,
)
from repro.core.tac import TACCompressor
from repro.engine import register
from repro.engine.archive import LazyBatchArchive, ShardedArchiveWriter
from repro.engine.registry import config_schema, validate_codec_options
from repro.ingest import (
    IngestConfig,
    IngestError,
    IngestSession,
    hierarchy_signature,
    read_timestep_level,
    read_timestep_region,
    temporal_chain,
)
from repro.serve.reader import ArchiveReader
from repro.sz import compressor as sz_compressor
from tests.helpers import assert_error_bounded, two_level_dataset

EB = 1e-3


def scaled(ds: AMRDataset, factor: float) -> AMRDataset:
    """The same hierarchy with data scaled by ``factor`` (one delta chain)."""
    return AMRDataset(
        levels=[
            AMRLevel(data=lvl.data * np.float32(factor), mask=lvl.mask, level=lvl.level)
            for lvl in ds.levels
        ],
        name=ds.name,
        field=ds.field,
        ratio=ds.ratio,
        box_size=ds.box_size,
    )


def timestep_series(steps: int, *, n: int = 16, seed: int = 0) -> list[AMRDataset]:
    """A smooth series over one hierarchy: step k scales by 1 + 0.05 k."""
    base = two_level_dataset(n=n, fine_fraction=0.3, seed=seed)
    return [scaled(base, 1.0 + 0.05 * k) for k in range(steps)]


def archive_entries(head_path) -> dict[str, tuple[dict, dict]]:
    """``key -> (parts bytes in wire order, meta)`` for every entry."""
    out = {}
    with LazyBatchArchive.open(head_path) as archive:
        for row in archive.manifest():
            entry = archive.entry(row["key"])
            out[row["key"]] = (
                {name: bytes(entry.parts[name]) for name in entry.parts},
                entry.meta,
            )
    return out


# ----------------------------------------------------------------------
# compress vs compress_iter parity
# ----------------------------------------------------------------------
class TestCompressIterParity:
    @settings(max_examples=6, deadline=None)
    @given(
        brick=st.sampled_from([None, 8]),
        seed=st.integers(min_value=0, max_value=3),
        threads=st.sampled_from([1, 2]),
    )
    def test_chunked_output_is_byte_identical(self, brick, seed, threads):
        ds = two_level_dataset(n=16, fine_fraction=0.3, seed=seed)
        options = {} if brick is None else {"brick_size": brick}
        eager = TACCompressor(**options).compress(ds, EB)
        with mock.patch.object(sz_compressor, "ENCODE_THREADS", threads):
            streamed = TACCompressor(**options).compress_iter(ds, EB).collect()
        assert list(streamed.parts) == list(eager.parts)
        for name in eager.parts:
            assert streamed.parts[name] == eager.parts[name], name
        assert streamed.meta == eager.meta
        assert streamed.original_bytes == eager.original_bytes
        assert streamed.n_values == eager.n_values

    def test_chunks_arrive_finest_first_one_level_each(self):
        ds = two_level_dataset(n=16, fine_fraction=0.3, seed=1)
        levels = [c.level for c in TACCompressor().compress_iter(ds, EB)]
        assert levels == [0, 1]

    def test_session_entries_do_not_depend_on_encode_threads(self, tmp_path, monkeypatch):
        series = timestep_series(3)
        heads = {}
        for threads in (1, 2):
            monkeypatch.setattr(sz_compressor, "ENCODE_THREADS", threads)
            head = tmp_path / f"t{threads}.rpbt"
            cfg = IngestConfig(error_bound=EB, keyframe_interval=2)
            with IngestSession(head, cfg) as session:
                session.extend(series)
            heads[threads] = archive_entries(head)
        assert heads[1].keys() == heads[2].keys()
        for key in heads[1]:
            s_parts, s_meta = heads[1][key]
            p_parts, p_meta = heads[2][key]
            assert list(s_parts) == list(p_parts)
            assert s_parts == p_parts
            assert s_meta == p_meta

    def test_opaque_codec_entries_match_compress(self, tmp_path):
        """A codec without ``compress_iter`` reaches the same writer as one
        opaque chunk — parts and metadata are what ``compress`` returned,
        delta stamps included."""
        from repro.engine import get_codec

        series = timestep_series(2)
        head = tmp_path / "opaque.rpbt"
        with IngestSession(head, codec="1d", error_bound=EB, keyframe_interval=2) as session:
            keys = session.extend(series)
        entries = archive_entries(head)
        reference = get_codec("1d").compress(series[0], EB)
        parts, meta = entries[keys[0]]
        assert parts == reference.parts
        assert meta == {**reference.meta, "temporal": {"mode": "keyframe", "step": 0}}
        assert entries[keys[1]][1]["temporal"]["mode"] == "delta"

    def test_async_pipeline_matches_sync(self, tmp_path):
        # Longer than the pool's buffer (2 * workers), so submits block.
        series = timestep_series(6)
        heads = {}
        for label, overrides in (
            ("sync", {}),
            ("async", {"workers": 2}),
        ):
            head = tmp_path / f"{label}.rpbt"
            cfg = IngestConfig(error_bound=EB, keyframe_interval=2, **overrides)
            with IngestSession(head, cfg) as session:
                session.extend(series)
            heads[label] = archive_entries(head)
        assert heads["sync"] == heads["async"]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_workers_start_the_pool_and_bound_its_buffer(self, tmp_path, monkeypatch, workers):
        """``workers=1`` encodes on the caller's thread; ``w > 1`` starts a
        pool of ``w`` and keeps at most ``2 * w`` entries in flight."""
        bounds = []
        real_drain = IngestSession._drain

        def spy_drain(self, max_pending):
            bounds.append(max_pending)
            real_drain(self, max_pending)

        monkeypatch.setattr(IngestSession, "_drain", spy_drain)
        with IngestSession(tmp_path / "w.rpbt", error_bound=EB, workers=workers) as session:
            assert (session._pool is None) == (workers == 1)
            session.extend(timestep_series(2))
        # Each pooled submit drains down to the bound; close drains to 0.
        assert bounds == ([] if workers == 1 else [2 * workers] * 2) + [0]


# ----------------------------------------------------------------------
# streamed-writer memory bound
# ----------------------------------------------------------------------
class TestStreamingWriterMemory:
    def test_peak_is_chunks_not_entry(self, tmp_path):
        """Writing an 8-chunk/8 MiB synthetic entry must not buffer it.

        The chunk generator materializes one ~1 MiB payload at a time;
        ``add_entry_stream`` writes each chunk before pulling the next,
        so the peak should sit near a couple of chunks — far below the
        entry total.  Synthetic chunks make the bound deterministic
        (codec working-set noise would otherwise dominate).
        """
        chunk_bytes = 1 << 20
        n_chunks = 8

        def chunks():
            for idx in range(n_chunks):
                payload = idx.to_bytes(1, "little") * chunk_bytes
                yield LevelChunk(
                    level=idx, meta={"level": idx}, parts={f"L{idx}/data": payload}
                )

        writer = ShardedArchiveWriter(tmp_path / "mem.rpbt")
        stream = StreamingCompression(
            method="fake",
            dataset_name="mem",
            original_bytes=n_chunks * chunk_bytes,
            n_values=n_chunks * chunk_bytes,
            chunks=chunks(),
            base_meta={"shapes": []},
        )
        tracemalloc.start()
        try:
            writer.add_entry_stream("mem", stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            writer.close()
        total = n_chunks * chunk_bytes
        assert peak < 3 * chunk_bytes, f"peak {peak} ~ entry total {total}"


class TestDeltaStepMemory:
    """A delta step holds one level set and one SZ batch, and the running
    reconstruction is the session's own."""

    @staticmethod
    def _traced_peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_delta_step_peaks_within_one_level_set_of_the_codec(self, tmp_path, monkeypatch):
        """On one encode thread (deterministic), a delta step's session peak
        exceeds the codec's own peak on the same snapshot by at most one
        level set, plus slack for the session's bookkeeping."""
        monkeypatch.setattr(sz_compressor, "ENCODE_THREADS", 1)
        series = timestep_series(2, n=64)
        codec = TACCompressor()

        def drain():
            for _chunk in codec.compress_iter(series[1], EB):
                pass

        drain()  # caches and lazy imports filled
        codec_peak = self._traced_peak(drain)
        cfg = IngestConfig(error_bound=EB, keyframe_interval=3)
        with IngestSession(tmp_path / "mem.rpbt", cfg) as session:
            session.submit(series[0])
            session_peak = self._traced_peak(lambda: session.submit(series[1]))
        level_set = sum(lvl.data.nbytes for lvl in series[1].levels)
        assert session.report.n_deltas == 1
        assert session_peak - codec_peak <= level_set + (64 << 10)

    @pytest.mark.parametrize("codec", ["tac", "1d"])
    @pytest.mark.parametrize("overrides", [{}, {"workers": 2}])
    def test_submit_never_writes_or_keeps_the_callers_arrays(self, tmp_path, codec, overrides):
        """Read-only snapshots go through (nothing writes them), and the
        running reconstruction shares no memory with any of them — the
        in-place sum writes session-owned arrays only."""
        series = timestep_series(6)  # more than 2 * workers: the buffer fills
        for snapshot in series:
            for lvl in snapshot.levels:
                lvl.data.flags.writeable = False
                lvl.mask.flags.writeable = False
        cfg = IngestConfig(error_bound=EB, keyframe_interval=5, codec=codec, **overrides)
        with IngestSession(tmp_path / f"{codec}.rpbt", cfg) as session:
            session.extend(series)
            session._drain(max_pending=0)
            (chain,) = session._chains.values()
            assert len(chain.rec) == series[0].n_levels
            for values in chain.rec:
                assert values.flags.writeable and values.flags.owndata
                for snapshot in series:
                    for lvl in snapshot.levels:
                        assert not np.shares_memory(values, lvl.data)
        assert session.report.n_deltas == 4
        for k, snapshot in enumerate(series):
            want = timestep_series(6)[k]
            for lvl, ref in zip(snapshot.levels, want.levels):
                assert np.array_equal(lvl.data, ref.data) and np.array_equal(lvl.mask, ref.mask)

    @pytest.mark.parametrize("codec", ["tac", "1d"])
    def test_sync_and_pipelined_sessions_write_the_same_bytes(self, tmp_path, codec):
        """Encoder reconstruction (tac) or whole-entry decode (1d): the chain
        folds the same values either way, so the bytes do not depend on the
        mode."""
        series = timestep_series(5)
        entries = {}
        for label, overrides in (("sync", {}), ("async", {"workers": 2})):
            head = tmp_path / f"{codec}-{label}.rpbt"
            cfg = IngestConfig(error_bound=EB, keyframe_interval=3, codec=codec, **overrides)
            with IngestSession(head, cfg) as session:
                session.extend(series)
            entries[label] = archive_entries(head)
        modes = [row["temporal"]["mode"] for row in session.report.entries]
        assert modes == ["keyframe", "delta", "delta", "keyframe", "delta"]
        assert entries["sync"] == entries["async"]


# ----------------------------------------------------------------------
# temporal delta coding
# ----------------------------------------------------------------------
class TestTemporalDelta:
    @pytest.fixture(scope="class")
    def delta_archive(self, tmp_path_factory):
        series = timestep_series(5)
        head = tmp_path_factory.mktemp("delta") / "series.rpbt"
        cfg = IngestConfig(error_bound=EB, mode="rel", keyframe_interval=3)
        with IngestSession(head, cfg) as session:
            keys = session.extend(series)
        return head, keys, series, session.report

    def test_keyframe_cadence_and_metadata(self, delta_archive):
        head, keys, _series, report = delta_archive
        modes = [row["temporal"]["mode"] for row in report.entries]
        assert modes == ["keyframe", "delta", "delta", "keyframe", "delta"]
        assert report.n_keyframes == 2 and report.n_deltas == 3
        entries = archive_entries(head)
        for i, key in enumerate(keys):
            _parts, meta = entries[key]
            temporal = meta["temporal"]
            assert temporal["step"] == i
            if temporal["mode"] == "delta":
                assert temporal["base"] == keys[i - 1]
                assert temporal["keyframe"] == keys[3 if i > 3 else 0]
                assert all(
                    lm.get("temporal") == "delta" for lm in meta["levels"]
                )
            else:
                assert all("temporal" not in lm for lm in meta["levels"])

    def test_closed_loop_bound_every_step(self, delta_archive):
        head, keys, series, _report = delta_archive
        kf_for = [0, 0, 0, 3, 3]
        with ArchiveReader(head) as reader:
            for i, key in enumerate(keys):
                eb_abs = resolve_global_eb(series[kf_for[i]], EB, "rel")
                for level_idx in range(len(series[i].levels)):
                    lvl, _stats = read_timestep_level(reader, key, level_idx)
                    want = series[i].levels[level_idx]
                    mask = want.mask
                    assert_error_bounded(
                        want.data[mask], lvl.data[mask], eb_abs
                    )

    def test_no_reconstruction_for_a_step_before_a_forced_keyframe(
        self, tmp_path, monkeypatch
    ):
        """The running reconstruction exists for the next residual only: a
        step whose successor must be a keyframe asks the encoder for none
        and the chain stops holding one."""
        asked = []
        real = TACCompressor.compress_iter

        def spy(self, dataset, *args, want_recon=False, **kwargs):
            asked.append(want_recon)
            return real(self, dataset, *args, want_recon=want_recon, **kwargs)

        monkeypatch.setattr(TACCompressor, "compress_iter", spy)
        held = []
        cfg = IngestConfig(error_bound=EB, keyframe_interval=2)
        with IngestSession(tmp_path / "kf2.rpbt", cfg) as session:
            for snapshot in timestep_series(4):
                session.submit(snapshot)
                (chain,) = session._chains.values()
                held.append(chain.rec is not None)
        modes = [row["temporal"]["mode"] for row in session.report.entries]
        assert modes == ["keyframe", "delta", "keyframe", "delta"]
        assert asked == [True, False, True, False]
        assert held == asked

    def test_temporal_chain_walk(self, delta_archive):
        head, keys, _series, _report = delta_archive
        with ArchiveReader(head) as reader:
            assert temporal_chain(reader, keys[2]) == keys[:3]
            assert temporal_chain(reader, keys[0]) == [keys[0]]
            assert temporal_chain(reader, keys[4]) == keys[3:]

    def test_deltas_compress_better_than_keyframes(self, tmp_path):
        series = timestep_series(5)
        sizes = {}
        for interval in (1, 5):
            head = tmp_path / f"kf{interval}.rpbt"
            cfg = IngestConfig(error_bound=EB, keyframe_interval=interval)
            with IngestSession(head, cfg) as session:
                session.extend(series)
            report = session.report
            sizes[interval] = sum(
                row["compressed_bytes"] for row in report.manifest()
            )
        assert sizes[5] < sizes[1]

    def test_hierarchy_change_forces_keyframe(self, tmp_path):
        a = two_level_dataset(n=16, fine_fraction=0.3, seed=0)
        b = two_level_dataset(n=16, fine_fraction=0.3, seed=7)  # new masks
        assert hierarchy_signature(a) != hierarchy_signature(b)
        series = [a, scaled(a, 1.05), b, scaled(b, 1.05)]
        head = tmp_path / "guard.rpbt"
        cfg = IngestConfig(error_bound=EB, keyframe_interval=10)
        with IngestSession(head, cfg) as session:
            session.extend(series)
        modes = [row["temporal"]["mode"] for row in session.report.entries]
        assert modes == ["keyframe", "delta", "keyframe", "delta"]

    def test_interval_one_writes_no_temporal_metadata(self, tmp_path):
        head = tmp_path / "plain.rpbt"
        with IngestSession(head, IngestConfig(error_bound=EB)) as session:
            session.submit(two_level_dataset(n=16, seed=0))
        ((_parts, meta),) = archive_entries(head).values()
        assert "temporal" not in meta
        assert all("temporal" not in lm for lm in meta["levels"])


# ----------------------------------------------------------------------
# delta-aware reads
# ----------------------------------------------------------------------
class TestDeltaReads:
    def test_region_read_matches_full_reconstruction(self, tmp_path):
        series = timestep_series(3)
        head = tmp_path / "roi.rpbt"
        cfg = IngestConfig(error_bound=EB, keyframe_interval=3)
        with IngestSession(head, cfg) as session:
            keys = session.extend(series)
        roi = (slice(2, 10), slice(0, 8), slice(4, 12))
        with ArchiveReader(head) as reader:
            for key in keys:
                full, _ = read_timestep_level(reader, key, 0)
                region, stats = read_timestep_region(reader, key, 0, roi)
                np.testing.assert_array_equal(region, full.data[roi])
                assert len(stats) == len(temporal_chain(reader, key))


# ----------------------------------------------------------------------
# session contract
# ----------------------------------------------------------------------
class TestSessionContract:
    def test_default_keys_and_report(self, tmp_path):
        head = tmp_path / "out.rpbt"
        with IngestSession(head, IngestConfig(error_bound=EB)) as session:
            keys = session.extend(timestep_series(2))
        assert keys == ["toy2/test_field/t0000", "toy2/test_field/t0001"]
        report = session.report
        assert report.n_entries == 2
        assert report.head_path == head
        assert report.ratio() > 1.0
        assert all(row["wall_seconds"] > 0 for row in report.entries)

    def test_path_submission_uses_stem_key(self, tmp_path):
        ds = two_level_dataset(n=16, seed=0)
        src = tmp_path / "snap_0001.npz"
        save_dataset(ds, src)
        head = tmp_path / "out.rpbt"
        with IngestSession(head, IngestConfig(error_bound=EB)) as session:
            key = session.submit(src)
        assert key == "snap_0001"
        assert "snap_0001" in archive_entries(head)

    def test_duplicate_key_aborts_with_ingest_error(self, tmp_path):
        head = tmp_path / "dup.rpbt"
        session = IngestSession(head, IngestConfig(error_bound=EB))
        session.submit(two_level_dataset(n=16, seed=0), key="same")
        with pytest.raises(IngestError, match="'same'") as excinfo:
            session.submit(two_level_dataset(n=16, seed=1), key="same")
        assert excinfo.value.key == "same"
        assert excinfo.value.index == 1
        assert not head.exists()  # aborted: files removed
        with pytest.raises(ValueError, match="closed"):
            session.submit(two_level_dataset(n=16, seed=2))

    def test_failing_entry_names_key_and_index(self, tmp_path):
        head = tmp_path / "fail.rpbt"
        session = IngestSession(head, IngestConfig(error_bound=EB))
        session.submit(two_level_dataset(n=16, seed=0))
        with pytest.raises(IngestError, match=r"'missing' \(#1\)"):
            session.submit(tmp_path / "missing.npz", key="missing")
        assert not head.exists()

    def test_context_manager_aborts_on_exception(self, tmp_path):
        head = tmp_path / "ctx.rpbt"
        with pytest.raises(RuntimeError, match="producer died"):
            with IngestSession(head, IngestConfig(error_bound=EB)) as session:
                session.submit(two_level_dataset(n=16, seed=0))
                raise RuntimeError("producer died")
        assert not head.exists()
        assert not list(tmp_path.glob("*.rpsh"))

    def test_abort_is_idempotent(self, tmp_path):
        session = IngestSession(tmp_path / "a.rpbt", IngestConfig(error_bound=EB))
        session.abort()
        session.abort()
        with pytest.raises(ValueError, match="closed"):
            session.close()

    def test_config_and_overrides_are_exclusive(self, tmp_path):
        with pytest.raises(TypeError, match="not both"):
            IngestSession(
                tmp_path / "x.rpbt", IngestConfig(), keyframe_interval=2
            )

    def test_extend_async_backpressures_producer(self, tmp_path):
        series = timestep_series(6)  # more than 2 * workers: submits block

        async def produce():
            for snapshot in series:
                await asyncio.sleep(0)
                yield snapshot

        async def main():
            head = tmp_path / "async.rpbt"
            cfg = IngestConfig(error_bound=EB, keyframe_interval=2, workers=2)
            with IngestSession(head, cfg) as session:
                keys = await session.extend_async(produce())
            return head, keys

        head, keys = asyncio.run(main())
        assert len(keys) == 6
        assert set(archive_entries(head)) == set(keys)


# ----------------------------------------------------------------------
# codec-options safety
# ----------------------------------------------------------------------
class _MutatingCodec:
    """Fake codec whose compress() mutates its (nested) options in place —
    the shared-by-reference leak vector the session's deep copy guards."""

    method_name = "mut"

    def __init__(self, knobs=()):
        self.knobs = list(knobs) if not isinstance(knobs, list) else knobs
        self.knobs_at_build = tuple(self.knobs)

    def compress(self, dataset, error_bound, mode="rel", **kwargs):
        self.knobs.append("tainted")  # mutates the caller's list if shared
        return CompressedDataset(
            method="mut",
            dataset_name=dataset.name,
            parts={"blob": b"\0" * 64},
            meta={"levels": []},
            original_bytes=sum(lvl.data.nbytes for lvl in dataset.levels),
            n_values=sum(lvl.data.size for lvl in dataset.levels),
        )

    def decompress(self, comp, structure=None, **kwargs):  # pragma: no cover
        raise NotImplementedError


class TestCodecOptionsSafety:
    def test_session_entries_do_not_share_option_objects(self, tmp_path, scratch_registry):
        register("mut-codec", _MutatingCodec, description="test only")
        shared = {"knobs": ["a", "b"]}
        ds = two_level_dataset(n=16, seed=0)
        with IngestSession(
            tmp_path / "m.rpbt", codec="mut-codec", codec_options=shared
        ) as session:
            for i in range(3):
                session.submit(ds, key=f"j{i}")
        assert session.report.n_entries == 3
        # The caller's dict came through unmutated, and so did the
        # session's own copy: every entry's codec got a fresh one.
        assert shared == {"knobs": ["a", "b"]}
        assert session.config.codec_options == shared

    def test_ingest_config_rejects_unknown_options(self):
        with pytest.raises(ValueError, match="bogus"):
            IngestConfig(codec_options={"bogus": 1})

    def test_validate_returns_deep_copy(self):
        options = {"brick_size": 8}
        out = validate_codec_options("tac", options)
        assert out == options and out is not options

    def test_tac_schema_is_enumerable(self):
        schema = config_schema("tac")
        assert schema is not None
        assert "brick_size" in schema and schema["brick_size"]["default"] == 64

    def test_retired_writer_options_fail_at_construction(self):
        """The shared-table writer is gone: its option is an unknown key
        here, not a failure inside a worker."""
        with pytest.raises(ValueError, match="shared_tables"):
            IngestConfig(codec_options={"shared_tables": True})


class TestSessionInitFailure:
    def test_pool_construction_failure_aborts_writer(self, tmp_path, monkeypatch):
        """RL002: IngestSession.__init__ creates the sharded writer before
        the worker pool; a pool failure must abort the writer or its
        head/shard state leaks with no owner."""
        import concurrent.futures as cf

        aborted = []
        real_abort = ShardedArchiveWriter.abort

        def spy_abort(self):
            aborted.append(True)
            return real_abort(self)

        monkeypatch.setattr(ShardedArchiveWriter, "abort", spy_abort)

        class BoomPool:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("no threads available")

        monkeypatch.setattr(cf, "ThreadPoolExecutor", BoomPool)
        with pytest.raises(RuntimeError, match="no threads available"):
            IngestSession(tmp_path / "batch.rpbt", workers=2)
        assert aborted, "writer was not aborted when __init__ failed"
