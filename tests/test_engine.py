"""Registry, batch-archive, and many-entry session unit tests.

The concurrency contracts under test (the session is the one way from
many datasets to one archive):

* serial (``workers=1``) and pipelined (``workers=4``) sessions write
  **bit-identical** entries, including TAC's within-entry level
  parallelism;
* a failing entry aborts the session with its cause chained.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.container import CompressedDataset, resolve_global_eb
from repro.core.tac import TACCompressor
from repro.engine import (
    LazyBatchArchive,
    ShardedArchiveWriter,
    codec_for_method,
    codec_names,
    get_codec,
    get_spec,
    register,
)
from repro.amr.io import save_dataset
from repro.ingest import IngestConfig, IngestError, IngestSession
from repro.sz import compressor as sz_compressor
from tests.helpers import assert_error_bounded, two_level_dataset, write_archive
from tests.test_ingest import archive_entries

EB = 1e-3


#: TAC encodes level-wise (``compress_iter``); ``1d`` has no
#: ``compress_iter`` and goes through ``StreamingCompression.from_dataset``.
CODECS = pytest.mark.parametrize("codec", ["tac", "1d"])


@pytest.fixture(scope="module")
def batch_jobs():
    """Four two-level fields = 4 independent ``(label, dataset)`` jobs."""
    return [
        (f"f{seed}", two_level_dataset(n=16, fine_fraction=0.3, seed=seed)) for seed in range(4)
    ]


def run_session(head, jobs, codec="tac", **config) -> IngestSession:
    """Every job through one ``codec`` session; returns it closed (report set)."""
    with IngestSession(head, IngestConfig(codec=codec, error_bound=EB, **config)) as session:
        for label, dataset in jobs:
            session.submit(dataset, key=label)
    return session


def build_entries(jobs, codec="tac") -> dict:
    """``{label: comp}`` — every job through ``codec``, no session."""
    return {label: get_codec(codec).compress(dataset, EB) for label, dataset in jobs}


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

    def test_brick_size_flows_through_session_codec_options(self, tmp_path):
        """Plumbing for the GSP brick knob: a session's codec_options
        reach the TAC factory, and the resulting archive entry carries the
        brick layout accordingly — an edge at least the level's is the one
        stream the retired ``brick_size=None`` spelling used to select, and
        that spelling fails the session, naming the replacement."""
        from repro.core.density import Strategy
        from tests.helpers import golden_gsp_dataset

        ds = golden_gsp_dataset()

        def entry(brick_size):
            head = tmp_path / f"b{brick_size}" / "bricks.rpbt"
            head.parent.mkdir()
            options = {"brick_size": brick_size, "force_strategy": Strategy.GSP}
            with IngestSession(head, error_bound=1e-3, mode="abs", codec_options=options) as s:
                key = s.submit(ds)
            return archive_entries(head)[key]

        parts, meta = entry(4)
        assert meta["levels"][0]["bricks"]["size"] == 4
        assert any(name.startswith("L0/b") for name in parts)
        parts, meta = entry(16)
        assert meta["levels"][0]["bricks"]["n"] == 1
        assert "L0/b0" in parts
        with pytest.raises(IngestError, match="at least the level's edge"):
            entry(None)

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

    def test_register_decorator(self, scratch_registry):
        @register("fake-codec", method_name="fake", description="test only")
        class FakeCodec:
            method_name = "fake"

        assert isinstance(get_codec("fake-codec"), FakeCodec)
        assert get_spec("fake-codec").description == "test only"
        with pytest.raises(ValueError, match="already registered"):
            register("fake", FakeCodec, aliases=("fake-codec",))
        assert "fake" not in codec_names(include_aliases=True)


# ----------------------------------------------------------------------
# session determinism (the contracts the engine used to carry)
# ----------------------------------------------------------------------
class TestEngineDeterminism:
    @CODECS
    def test_parallel_bit_identical_to_serial(self, batch_jobs, tmp_path, codec):
        serial = run_session(tmp_path / "serial.rpbt", batch_jobs, codec)
        parallel = run_session(
            tmp_path / "parallel.rpbt", batch_jobs, codec, workers=4
        )
        assert archive_entries(serial.report.head_path) == archive_entries(
            parallel.report.head_path
        )
        # ... and both are what the codec writes on its own.
        reference = build_entries(batch_jobs, codec)
        for key, (parts, _meta) in archive_entries(serial.report.head_path).items():
            assert parts == reference[key].parts

    @CODECS
    def test_nested_encode_drains_bit_identical(self, batch_jobs, tmp_path, monkeypatch, codec):
        """Four session workers, each draining its SZ batches on 4 threads
        through the shared helpers: no deadlock, serial bytes."""
        serial = run_session(tmp_path / "serial.rpbt", batch_jobs, codec)
        monkeypatch.setattr(sz_compressor, "ENCODE_THREADS", 4)
        nested = run_session(tmp_path / "nested.rpbt", batch_jobs, codec, workers=4)
        assert archive_entries(serial.report.head_path) == archive_entries(
            nested.report.head_path
        )

    @CODECS
    def test_results_keep_submission_order(self, batch_jobs, tmp_path, codec):
        session = run_session(tmp_path / "order.rpbt", batch_jobs, codec, workers=4)
        rows = session.report.entries
        assert [row["index"] for row in rows] == list(range(len(batch_jobs)))
        assert [row["key"] for row in rows] == [label for label, _ds in batch_jobs]

    def test_path_inputs_load_in_workers_bit_identical(self, tmp_path):
        ds = two_level_dataset(n=16, fine_fraction=0.3, seed=1)
        path = tmp_path / "toy.npz"
        save_dataset(ds, path)
        with IngestSession(
            tmp_path / "both.rpbt", error_bound=EB, workers=2
        ) as session:
            keys = [session.submit(ds, key="direct"), session.submit(path)]
        assert keys == ["direct", "toy"]
        entries = archive_entries(session.report.head_path)
        assert entries["direct"] == entries["toy"]

    def test_duplicate_labels_get_unique_suffixes(self):
        """The suffixing lives where ``repro batch`` makes its labels
        (``tests/test_cli.py`` drives the command line)."""
        from repro.cli import _unique_labels

        assert _unique_labels(["a", "b", "a", "a"]) == ["a", "b", "a#1", "a#2"]


# ----------------------------------------------------------------------
# failure (aborts the session; nothing is isolated, nothing is left)
# ----------------------------------------------------------------------
class TestFailureIsolation:
    def test_raise_errors_chains_the_cause(self, tmp_path):
        # A retired brick spelling fails inside the codec factory ->
        # deterministic ValueError.
        with pytest.raises(IngestError, match="failed") as excinfo:
            with IngestSession(
                tmp_path / "bad.rpbt", codec_options={"brick_size": None}
            ) as session:
                session.submit(two_level_dataset(n=8))
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "brick_size" in str(excinfo.value.__cause__)
        assert not list(tmp_path.iterdir())

    def test_invalid_engine_parameters(self):
        with pytest.raises(ValueError):
            IngestConfig(workers=0)
        with pytest.raises(TypeError):
            IngestConfig(max_inflight=4)  # workers sizes the buffer: 2 per worker
        with pytest.raises(TypeError):
            IngestConfig(level_workers=2)  # the level pool is gone


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
class TestTimingAggregation:
    @CODECS
    def test_wall_and_per_job_seconds_recorded(self, batch_jobs, tmp_path, codec):
        session = run_session(tmp_path / "wall.rpbt", batch_jobs, codec, workers=2)
        assert session.report.wall_seconds > 0.0
        assert all(row["wall_seconds"] > 0.0 for row in session.report.entries)


# ----------------------------------------------------------------------
# batch archive (the one writer, read back lazily)
# ----------------------------------------------------------------------
class TestBatchArchive:
    def test_roundtrip_and_registry_decompression(self, batch_jobs, tmp_path):
        entries = build_entries(batch_jobs)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
        head = write_archive(tmp_path / "a" / "batch.rpbt", entries, meta={"purpose": "test"})
        again = write_archive(tmp_path / "b" / "batch.rpbt", entries, meta={"purpose": "test"})
        assert head.read_bytes() == again.read_bytes()  # deterministic head
        with LazyBatchArchive.open(head) as loaded:
            assert loaded.keys() == sorted(entries)
            assert loaded.meta == {"purpose": "test"}
            label, original = batch_jobs[0]
            restored = loaded.decompress(label)
        eb_abs = EB * resolve_global_eb(original, 1.0, "rel")
        for orig, back in zip(original.levels, restored.levels):
            assert np.array_equal(orig.mask, back.mask)
            assert_error_bounded(orig.values(), back.values(), eb_abs)

    def test_duplicate_and_missing_keys(self, tmp_path):
        comp = CompressedDataset(method="tac", dataset_name="x")
        with ShardedArchiveWriter(tmp_path / "dup.rpbt") as writer:
            writer.add_entry("a", comp)
            with pytest.raises(ValueError, match="duplicate"):
                writer.add_entry("a", comp)
        with LazyBatchArchive.open(tmp_path / "dup.rpbt") as archive:
            with pytest.raises(KeyError, match="no entry"):
                archive.entry("b")

    def test_rejects_foreign_blobs(self):
        with pytest.raises(ValueError, match="not a batch archive"):
            LazyBatchArchive.open(b"junkjunkjunk")

    def test_manifest_accounting(self, tmp_path, batch_jobs):
        entries = build_entries(batch_jobs[:2])
        head = write_archive(tmp_path / "batch.rpbt", entries)
        with LazyBatchArchive.open(head) as loaded:
            manifest = loaded.manifest()
        assert len(manifest) == 2
        assert sum(row["compressed_bytes"] for row in manifest) == sum(
            comp.compressed_bytes() for comp in entries.values()
        )
        assert sum(row["original_bytes"] for row in manifest) == sum(
            comp.original_bytes for comp in entries.values()
        )
