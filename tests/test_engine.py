"""Engine, registry, and batch-archive unit tests.

The concurrency contracts under test:

* serial (``max_workers=1``) and parallel (``max_workers=4``) runs are
  **bit-identical**, including TAC's within-job level parallelism;
* one failing job surfaces its exception in its own ``JobResult`` and the
  rest of the batch completes;
* timing records aggregate across jobs (sum of per-job spans).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.container import CompressedDataset, resolve_global_eb
from repro.core.tac import TACCompressor
from repro.engine import (
    BatchArchive,
    CompressionEngine,
    CompressionJob,
    codec_for_method,
    codec_names,
    get_codec,
    get_spec,
    register,
    unregister,
)
from repro.amr.io import save_dataset
from repro.utils.timer import TimingRecord
from tests.helpers import assert_error_bounded, two_level_dataset

EB = 1e-3


@pytest.fixture(scope="module")
def batch_jobs():
    """Four two-level fields × two codecs = 8 independent jobs."""
    datasets = [two_level_dataset(n=16, fine_fraction=0.3, seed=s) for s in range(4)]
    return [
        CompressionJob(ds, codec=codec, error_bound=EB, label=f"f{i}/{codec}")
        for i, ds in enumerate(datasets)
        for codec in ("tac", "1d")
    ]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_names_and_aliases(self):
        assert {"tac", "tac-hybrid", "1d", "zmesh", "3d"} <= set(codec_names())
        # The experiments' historical spellings resolve to the same codecs.
        assert type(get_codec("baseline_1d")) is type(get_codec("1d"))
        assert type(get_codec("baseline_3d")) is type(get_codec("3d"))

    def test_get_codec_returns_fresh_instances(self):
        assert get_codec("tac") is not get_codec("tac")

    def test_factory_options_forwarded(self):
        codec = get_codec("tac", unit_block=8)
        assert codec.config.unit_block == 8

    def test_brick_size_flows_through_job_codec_options(self):
        """Engine plumbing for the GSP brick knob: a job's codec_options
        reach the TAC factory, and the resulting archive entry carries the
        brick layout accordingly — an edge at least the level's is the one
        stream the retired ``brick_size=None`` spelling used to select, and
        that spelling fails its own job, naming the replacement."""
        from repro.core.density import Strategy
        from tests.helpers import golden_gsp_dataset

        ds = golden_gsp_dataset()

        def job(label, brick_size):
            return CompressionJob(
                ds, codec="tac", error_bound=1e-3, mode="abs", label=label,
                codec_options={"brick_size": brick_size, "force_strategy": Strategy.GSP},
            )

        batch = CompressionEngine(max_workers=2).run(
            [job("bricked", 4), job("one-stream", 16), job("legacy", None)]
        )
        bricked, one_stream, legacy = batch
        assert bricked.compressed.meta["levels"][0]["bricks"]["size"] == 4
        assert any(name.startswith("L0/b") for name in bricked.compressed.parts)
        assert one_stream.compressed.meta["levels"][0]["bricks"]["n"] == 1
        assert "L0/b0" in one_stream.compressed.parts
        assert legacy.compressed is None and "at least the level's edge" in str(legacy.error)

    def test_method_resolution_prefers_plain_tac(self):
        codec = codec_for_method("tac")
        assert isinstance(codec, TACCompressor)
        assert not codec.config.adaptive_baseline

    def test_unknown_names_raise_with_listing(self):
        with pytest.raises(KeyError, match="registered"):
            get_codec("nope")
        with pytest.raises(KeyError, match="known methods"):
            codec_for_method("nope")

    def test_duplicate_registration_rejected_then_replaceable(self):
        with pytest.raises(ValueError, match="already registered"):
            register("tac", TACCompressor)

    def test_register_decorator_and_unregister(self):
        @register("fake-codec", method_name="fake", description="test only")
        class FakeCodec:
            method_name = "fake"

        try:
            assert isinstance(get_codec("fake-codec"), FakeCodec)
            assert get_spec("fake-codec").description == "test only"
        finally:
            unregister("fake-codec")
        with pytest.raises(KeyError):
            get_codec("fake-codec")


# ----------------------------------------------------------------------
# engine determinism
# ----------------------------------------------------------------------
class TestEngineDeterminism:
    def test_parallel_bit_identical_to_serial(self, batch_jobs):
        serial = CompressionEngine(max_workers=1).run(batch_jobs)
        parallel = CompressionEngine(max_workers=4).run(batch_jobs)
        assert [r.label for r in serial] == [r.label for r in parallel]
        for a, b in zip(serial, parallel):
            assert a.ok and b.ok
            assert a.compressed.to_bytes() == b.compressed.to_bytes()

    def test_level_parallel_tac_bit_identical(self, batch_jobs):
        serial = CompressionEngine(max_workers=1).run(batch_jobs)
        nested = CompressionEngine(max_workers=4, level_workers=4).run(batch_jobs)
        for a, b in zip(serial, nested):
            assert a.compressed.to_bytes() == b.compressed.to_bytes()

    def test_process_executor_bit_identical(self, batch_jobs):
        serial = CompressionEngine(max_workers=1).run(batch_jobs[:2])
        procs = CompressionEngine(max_workers=2, executor="process").run(batch_jobs[:2])
        for a, b in zip(serial, procs):
            assert a.compressed.to_bytes() == b.compressed.to_bytes()

    def test_results_keep_submission_order(self, batch_jobs):
        batch = CompressionEngine(max_workers=4).run(batch_jobs)
        assert [r.index for r in batch] == list(range(len(batch_jobs)))
        assert [r.label for r in batch] == [j.label for j in batch_jobs]

    def test_path_inputs_load_in_workers_bit_identical(self, tmp_path):
        ds = two_level_dataset(n=16, fine_fraction=0.3, seed=1)
        path = tmp_path / "toy.npz"
        save_dataset(ds, path)
        direct = CompressionEngine().run(
            [CompressionJob(ds, codec="tac", error_bound=EB)]
        )
        via_path = CompressionEngine(max_workers=2).run(
            [CompressionJob(path, codec="tac", error_bound=EB)]
        )
        assert via_path.results[0].label == "toy/tac"
        assert (
            direct.results[0].compressed.to_bytes()
            == via_path.results[0].compressed.to_bytes()
        )

    def test_duplicate_labels_get_unique_suffixes(self):
        ds = two_level_dataset(n=8)
        jobs = [CompressionJob(ds, codec="1d", error_bound=EB) for _ in range(3)]
        batch = CompressionEngine().run(jobs)
        labels = [r.label for r in batch]
        assert len(set(labels)) == 3
        assert labels[0] == jobs[0].resolved_label()


# ----------------------------------------------------------------------
# failure isolation
# ----------------------------------------------------------------------
class TestFailureIsolation:
    def test_one_bad_job_does_not_poison_the_batch(self):
        good = two_level_dataset(n=8)
        jobs = [
            CompressionJob(good, codec="1d", error_bound=EB, label="ok-1"),
            # zMesh rejects per-level bounds -> deterministic ValueError.
            CompressionJob(
                good, codec="zmesh", error_bound=EB,
                per_level_scale=[2.0, 1.0], label="bad",
            ),
            CompressionJob(good, codec="1d", error_bound=EB, label="ok-2"),
        ]
        for workers in (1, 4):
            batch = CompressionEngine(max_workers=workers).run(jobs)
            assert [r.ok for r in batch] == [True, False, True]
            failed = batch.results[1]
            assert isinstance(failed.error, ValueError)
            assert "per-level" in str(failed.error)
            assert failed.compressed is None
            assert {r.label for r in batch.ok} == {"ok-1", "ok-2"}

    def test_missing_path_input_fails_only_its_job(self, tmp_path):
        jobs = [
            CompressionJob(two_level_dataset(n=8), codec="1d", error_bound=EB),
            CompressionJob(tmp_path / "nope.npz", codec="1d", error_bound=EB),
        ]
        batch = CompressionEngine(max_workers=2).run(jobs)
        assert [r.ok for r in batch] == [True, False]
        assert isinstance(batch.results[1].error, FileNotFoundError)

    def test_raise_errors_chains_the_cause(self):
        jobs = [
            CompressionJob(
                two_level_dataset(n=8), codec="zmesh",
                error_bound=EB, per_level_scale=[2.0, 1.0],
            )
        ]
        with pytest.raises(RuntimeError, match="failed") as excinfo:
            CompressionEngine().run(jobs, raise_errors=True)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_to_archive_refuses_partial_batches(self):
        jobs = [
            CompressionJob(two_level_dataset(n=8), codec="1d", error_bound=EB),
            CompressionJob(
                two_level_dataset(n=8), codec="zmesh",
                error_bound=EB, per_level_scale=[2.0, 1.0],
            ),
        ]
        batch = CompressionEngine().run(jobs)
        with pytest.raises(RuntimeError):
            batch.to_archive()

    def test_invalid_engine_parameters(self):
        with pytest.raises(ValueError):
            CompressionEngine(max_workers=0)
        with pytest.raises(ValueError):
            CompressionEngine(executor="fork-bomb")
        with pytest.raises(ValueError):
            CompressionEngine(level_workers=-1)


# ----------------------------------------------------------------------
# timing aggregation
# ----------------------------------------------------------------------
class TestTimingAggregation:
    def test_batch_timings_sum_per_job_spans(self, batch_jobs):
        batch = CompressionEngine(max_workers=2).run(batch_jobs)
        merged = batch.timings()
        assert isinstance(merged, TimingRecord)
        assert merged.get("compress") > 0.0
        for span, total in merged.spans.items():
            by_hand = sum(r.timings.get(span) for r in batch.ok)
            assert total == pytest.approx(by_hand)

    def test_wall_and_per_job_seconds_recorded(self, batch_jobs):
        batch = CompressionEngine(max_workers=2).run(batch_jobs)
        assert batch.wall_seconds > 0.0
        assert all(r.wall_seconds > 0.0 for r in batch.ok)

    def test_summary_rows_cover_success_and_failure(self):
        jobs = [
            CompressionJob(two_level_dataset(n=8), codec="1d", error_bound=EB),
            CompressionJob(
                two_level_dataset(n=8), codec="zmesh",
                error_bound=EB, per_level_scale=[2.0, 1.0],
            ),
        ]
        rows = CompressionEngine().run(jobs).summary_rows()
        assert rows[0]["error"] is None and rows[0]["ratio"] > 0
        assert rows[1]["error"] is not None and rows[1]["ratio"] is None


# ----------------------------------------------------------------------
# batch archive
# ----------------------------------------------------------------------
class TestBatchArchive:
    def test_roundtrip_and_registry_decompression(self, batch_jobs):
        batch = CompressionEngine(max_workers=2).run(batch_jobs)
        archive = batch.to_archive(purpose="test")
        blob = archive.to_bytes()
        loaded = BatchArchive.from_bytes(blob)
        assert loaded.keys() == sorted(archive.keys())
        assert loaded.meta == {"purpose": "test"}
        assert loaded.to_bytes() == blob  # byte-stable re-serialization

        job = batch_jobs[0]
        restored = loaded.decompress(job.label)
        original = job.dataset
        eb_abs = EB * resolve_global_eb(original, 1.0, "rel")
        for orig, back in zip(original.levels, restored.levels):
            assert np.array_equal(orig.mask, back.mask)
            assert_error_bounded(orig.values(), back.values(), eb_abs)

    def test_duplicate_and_missing_keys(self):
        archive = BatchArchive()
        comp = CompressedDataset(method="tac", dataset_name="x")
        archive.add("a", comp)
        with pytest.raises(ValueError, match="duplicate"):
            archive.add("a", comp)
        with pytest.raises(KeyError, match="no entry"):
            archive.get("b")

    def test_rejects_foreign_blobs(self):
        with pytest.raises(ValueError, match="not a BatchArchive"):
            BatchArchive.from_bytes(b"junkjunkjunk")

    def test_save_load_and_accounting(self, tmp_path, batch_jobs):
        archive = CompressionEngine().run(batch_jobs[:2]).to_archive()
        path = tmp_path / "batch.rpbt"
        n = archive.save(path)
        assert path.stat().st_size == n
        loaded = BatchArchive.load(path)
        assert loaded.total_compressed_bytes() == archive.total_compressed_bytes()
        assert loaded.ratio() == pytest.approx(archive.ratio())
        assert len(loaded.manifest()) == 2
