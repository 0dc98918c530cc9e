"""Multi-field steps through ``IngestSession.submit_step``.

The fields of one Nyx step share an AMR structure: the step stores each
level's mask once (in its first entry, sorted field order) and every
other entry names that holder in ``meta["structure"]``.  These tests pin
the write side (masks once, per-field bounds, nothing written on a bad
step, sync ≡ pipelined) and every read path that follows the reference.
"""

import numpy as np
import pytest

from repro.amr.reconstruct import max_level_errors
from repro.cli import main
from repro.core.container import MASK_PREFIX, ContainerIOError
from repro.engine import LazyBatchArchive, ShardedArchiveWriter, get_codec
from repro.engine.archive import STRUCTURE_META_KEY, with_structure
from repro.ingest import IngestError, IngestSession
from repro.serve import ArchiveReader
from repro.sim.datasets import make_dataset
from repro.sim.nyx import NYX_FIELDS
from tests.test_ingest import archive_entries, scaled

EB = 1e-3
ROI = (slice(3, 21), slice(0, 9), slice(5, 30))


def level_ebs(entry) -> list[float]:
    return [level["eb_abs"] for level in entry.meta["levels"]]


@pytest.fixture(scope="module")
def snapshot_fields():
    return {f: make_dataset("Run1_Z10", scale=8, field=f) for f in NYX_FIELDS}


@pytest.fixture(scope="module")
def step_archive(snapshot_fields, tmp_path_factory):
    """One six-field step: ``(head path, keys by field, report)``."""
    head = tmp_path_factory.mktemp("step") / "step.rpbt"
    with IngestSession(head, error_bound=EB) as session:
        keys = session.submit_step(snapshot_fields)
    return head, dict(zip(sorted(snapshot_fields), keys)), session.report


class TestSnapshotRoundTrip:
    def test_all_fields_roundtrip_bounded(self, snapshot_fields, step_archive):
        """Full, level and ROI reads of every field through the lazy
        archive: per-cell bound, ROI ≡ slice of the full decode."""
        head, keys, _report = step_archive
        with LazyBatchArchive.open(head) as archive:
            for name, ds in snapshot_fields.items():
                key = keys[name]
                entry = with_structure(archive.entry(key), key, archive.entry)
                full = archive.decompress(key)
                for err, eb in zip(max_level_errors(ds, full), level_ebs(entry)):
                    assert err <= eb * 1.001 + 1e-9, name
                for idx, lvl in enumerate(full.levels):
                    part = get_codec("tac").decompress_level(entry, idx)
                    assert np.array_equal(part.data, lvl.data)
                    assert np.array_equal(part.mask, ds.levels[idx].mask)
                roi = get_codec("tac").decompress_region(entry, 0, ROI)
                assert np.array_equal(roi, full.levels[0].data[ROI])

    def test_masks_stored_once(self, snapshot_fields, step_archive):
        head, keys, _report = step_archive
        entries = archive_entries(head)
        mask_parts = [
            (key, name) for key, (parts, _meta) in entries.items()
            for name in parts if name.startswith(MASK_PREFIX)
        ]
        holder = keys[min(keys)]
        n_levels = snapshot_fields[NYX_FIELDS[0]].n_levels
        assert len(mask_parts) == n_levels  # not n_levels * n_fields
        assert {key for key, _name in mask_parts} == {holder}
        for key, (_parts, meta) in entries.items():
            assert meta.get(STRUCTURE_META_KEY) == (None if key == holder else holder)

    def test_smaller_than_independent_blobs(self, snapshot_fields, step_archive, tmp_path):
        head, keys, report = step_archive
        with IngestSession(tmp_path / "each.rpbt", error_bound=EB) as session:
            for name in sorted(snapshot_fields):
                session.submit(snapshot_fields[name])
        parts, _meta = archive_entries(head)[keys[min(keys)]]
        mask_bytes = sum(len(p) for n, p in parts.items() if n.startswith(MASK_PREFIX))
        saved = session.report.write.total_bytes() - report.write.total_bytes()
        assert saved >= (len(snapshot_fields) - 1) * mask_bytes > 0

    def test_selective_decompression(self, step_archive):
        head, keys, _report = step_archive
        key, holder_key = keys["temperature"], keys[min(keys)]
        with LazyBatchArchive.open(head) as archive:
            view = with_structure(archive.entry(key), key, archive.entry)
            assert len(view.parts) == len(view.parts.own) + 2
            get_codec("tac").decompress(view)
            assert {"L0/layout", "L1/b0"} <= view.parts.own.accessed()
            # Of the holder — a whole entry — only the masks were fetched.
            assert view.parts.holder.accessed() == {"mask/L0", "mask/L1"}
            sizes = view.parts.holder.sizes()
            assert view.parts.holder.bytes_read == sizes["mask/L0"] + sizes["mask/L1"]
            # A level read touches one level of each.
            view = with_structure(archive.entry(key), key, archive.entry)
            get_codec("tac").decompress_level(view, 1)
            assert all(name.startswith("L1/") for name in view.parts.own.accessed())
            assert view.parts.holder.accessed() == {"mask/L1"}
            assert view.parts.accessed() < set(view.parts)
            assert view.meta[STRUCTURE_META_KEY] == holder_key

    def test_unknown_field_selection_rejected(self, step_archive):
        head, _keys, _report = step_archive
        with LazyBatchArchive.open(head) as archive:
            with pytest.raises(KeyError, match="no entry"):
                archive.decompress("Run1_Z10/pressure/t0000")

    def test_container_serialization(self, snapshot_fields, step_archive):
        """Materialized (eager) entries keep the reference, and the one
        resolver follows it over plain part dicts too."""
        head, keys, _report = step_archive
        with LazyBatchArchive.open(head) as archive:
            eager = {k: archive.entry(k).materialize() for k in archive.keys()}
        key = keys["velocity_x"]
        assert eager[key].meta[STRUCTURE_META_KEY] == keys[min(keys)]
        view = with_structure(eager[key], key, eager.__getitem__)
        tac = get_codec("tac")
        restored = tac.decompress(view)
        assert restored.total_points() == snapshot_fields["velocity_x"].total_points()
        # The eager entry itself is unchanged: it still wants the masks handed in.
        with pytest.raises(ValueError, match="structure"):
            tac.decompress(eager[key])
        explicit = tac.decompress(eager[key], structure=snapshot_fields["velocity_x"])
        assert np.array_equal(explicit.levels[1].data, restored.levels[1].data)

    def test_cli_reads_a_maskless_field(self, snapshot_fields, step_archive, tmp_path, capsys):
        from repro.amr.io import load_dataset

        head, keys, _report = step_archive
        key = keys["dark_matter_density"]
        assert main(["decompress", str(head), "--key", key, "-o", str(tmp_path / "f.npz")]) == 0
        full = load_dataset(tmp_path / "f.npz")
        for a, b in zip(snapshot_fields["dark_matter_density"].levels, full.levels):
            assert np.array_equal(a.mask, b.mask)
        assert main([
            "decompress", str(head), "--key", key, "--level", "0",
            "--region", "3:21,0:9,5:30", "-o", str(tmp_path / "roi.npz"),
        ]) == 0
        assert "parts read" in capsys.readouterr().out
        roi = np.load(tmp_path / "roi.npz")["data"]
        assert np.array_equal(roi, full.levels[0].data[ROI])


class TestServedSteps:
    def test_reader_matches_lazy_archive(self, step_archive):
        head, keys, _report = step_archive
        with LazyBatchArchive.open(head) as archive, ArchiveReader(head) as reader:
            for key in keys.values():
                full = archive.decompress(key)
                for idx, lvl in enumerate(full.levels):
                    served, _stats = reader.read_level(key, idx)
                    assert np.array_equal(served.data, lvl.data)
                    assert np.array_equal(served.mask, lvl.mask)
                roi, _stats = reader.read_region(key, 0, ROI)
                assert np.array_equal(roi, full.levels[0].data[ROI])
                assert np.array_equal(
                    reader.decompress(key).levels[0].data, full.levels[0].data
                )

    def test_warm_reads_hold_one_cached_mask_per_level(self, snapshot_fields, step_archive):
        head, keys, _report = step_archive
        n_levels = snapshot_fields[NYX_FIELDS[0]].n_levels
        with ArchiveReader(head) as reader:
            for _ in range(2):
                for key in keys.values():
                    for idx in range(n_levels):
                        _lvl, stats = reader.read_level(key, idx)
            assert stats.cache_misses == 0 and stats.bytes_fetched == 0
            masks = [k for k in reader.cache._entries if k[2].startswith(MASK_PREFIX)]
            assert sorted(masks) == [
                ((keys[min(keys)],), idx, f"{MASK_PREFIX}L{idx}") for idx in range(n_levels)
            ]


class TestSnapshotOptions:
    def test_relative_bound_resolves_per_field(self, snapshot_fields, tmp_path):
        head = tmp_path / "eb.rpbt"
        with IngestSession(head, error_bound=EB) as session:
            keys = dict(zip(sorted(snapshot_fields), session.submit_step(snapshot_fields)))
        with LazyBatchArchive.open(head) as archive:
            for name in ("temperature", "baryon_density"):
                field_eb = level_ebs(archive.entry(keys[name]))[0]
                dataset = snapshot_fields[name]
                vals = np.concatenate([lvl.values() for lvl in dataset.levels])
                assert field_eb == pytest.approx(EB * (vals.max() - vals.min()), rel=1e-5)
                for err in max_level_errors(dataset, archive.decompress(keys[name])):
                    assert err <= field_eb * 1.001 + 1e-9

    def test_parallel_workers_match_serial(self, snapshot_fields, tmp_path):
        with IngestSession(tmp_path / "sync.rpbt", error_bound=EB) as session:
            session.submit_step(snapshot_fields)
        with IngestSession(
            tmp_path / "pipe.rpbt", error_bound=EB, workers=3
        ) as session:
            session.submit_step(snapshot_fields)
        assert (tmp_path / "sync.shard-0000.rpsh").read_bytes() == (
            tmp_path / "pipe.shard-0000.rpsh"
        ).read_bytes()
        assert archive_entries(tmp_path / "sync.rpbt") == archive_entries(tmp_path / "pipe.rpbt")

    def test_structure_mismatch_rejected(self, snapshot_fields, tmp_path):
        bad = dict(snapshot_fields)
        bad["other"] = make_dataset("Run1_Z5", scale=8)  # different masks
        with pytest.raises(IngestError, match="'other' does not share the structure"):
            with IngestSession(tmp_path / "x.rpbt", workers=2) as session:
                session.submit_step(bad)
        assert not list(tmp_path.iterdir())

    def test_empty_snapshot_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="at least one"):
            with IngestSession(tmp_path / "x.rpbt") as session:
                session.submit_step({})
        assert not list(tmp_path.iterdir())

    def test_custom_config_propagates(self, snapshot_fields, tmp_path):
        head = tmp_path / "cfg.rpbt"
        with IngestSession(head, codec_options={"unit_block": 8}) as session:
            session.submit_step(snapshot_fields)
        seen = 0
        for _parts, meta in archive_entries(head).values():
            for lvl in meta["levels"]:
                if "unit_block" in lvl:
                    assert lvl["unit_block"] == 8
                    seen += 1
        assert seen

    def test_codec_without_a_mask_switch_is_rejected(
        self, snapshot_fields, tmp_path, scratch_registry
    ):
        from tests.test_ingest import _MutatingCodec
        from repro.engine import register

        register("mut-codec", _MutatingCodec, description="test only")
        with pytest.raises(IngestError, match="store_masks"):
            with IngestSession(tmp_path / "x.rpbt", codec="mut-codec") as session:
                session.submit_step(snapshot_fields)
        assert not list(tmp_path.iterdir())


class TestStepsInASeries:
    def test_steps_inside_a_keyframe_interval(self, snapshot_fields, tmp_path):
        """Three two-field steps at ``keyframe_interval=3``: each field
        runs its own keyframe → delta → delta chain, each step's masks
        live in that step's first entry, and every step reads back bounded."""
        fields = {f: snapshot_fields[f] for f in ("temperature", "velocity_x")}
        series = [
            {f: scaled(ds, 1.0 + 0.05 * k) for f, ds in fields.items()} for k in range(3)
        ]
        head = tmp_path / "series.rpbt"
        with IngestSession(head, error_bound=EB, keyframe_interval=3) as session:
            keys = [session.submit_step(step) for step in series]
        entries = archive_entries(head)
        for k, (temp_key, vel_key) in enumerate(keys):
            assert entries[temp_key][1]["temporal"]["mode"] == ("keyframe" if k == 0 else "delta")
            assert entries[vel_key][1]["temporal"]["mode"] == entries[temp_key][1]["temporal"]["mode"]
            assert STRUCTURE_META_KEY not in entries[temp_key][1]
            assert entries[vel_key][1][STRUCTURE_META_KEY] == temp_key
            assert not any(n.startswith(MASK_PREFIX) for n in entries[vel_key][0])
        with ArchiveReader(head) as reader:
            bounds = [lvl["eb_abs"] for lvl in reader.entry_meta(keys[0][1])["levels"]]
            for k, step in enumerate(series):
                for idx, original in enumerate(step["velocity_x"].levels):
                    lvl, _stats = reader.read_level(keys[k][1], idx)
                    assert np.array_equal(lvl.mask, original.mask)
                    err = np.abs(lvl.data[lvl.mask] - original.data[original.mask]).max()
                    assert err <= bounds[idx] * 1.001 + 1e-9


class TestDanglingReference:
    @pytest.fixture
    def orphaned(self, step_archive, tmp_path):
        """The step's temperature entry alone in a new archive."""
        head, keys, _report = step_archive
        out = tmp_path / "orphan.rpbt"
        with LazyBatchArchive.open(head) as archive, ShardedArchiveWriter(out) as writer:
            writer.add_entry(keys["temperature"], archive.entry(keys["temperature"]))
        return out, keys["temperature"], keys[min(keys)]

    def test_missing_holder_names_both_keys(self, orphaned):
        out, key, holder = orphaned
        with LazyBatchArchive.open(out) as archive:
            with pytest.raises(ContainerIOError) as excinfo:
                archive.decompress(key)
            assert key in str(excinfo.value) and holder in str(excinfo.value)
        with ArchiveReader(out) as reader:
            for degraded in (False, True):
                with pytest.raises(ContainerIOError, match="does not hold"):
                    reader.read_level(key, 0, degraded=degraded)

    def test_holder_without_masks_is_dangling_too(self, snapshot_fields, step_archive, tmp_path):
        head, keys, _report = step_archive
        out = tmp_path / "maskless.rpbt"
        bare = get_codec("tac", store_masks=False).compress(snapshot_fields["temperature"], EB)
        with LazyBatchArchive.open(head) as archive, ShardedArchiveWriter(out) as writer:
            writer.add_entry(keys["temperature"], archive.entry(keys["temperature"]))
            writer.add_entry(keys[min(keys)], bare)
        with LazyBatchArchive.open(out) as archive:
            with pytest.raises(ContainerIOError, match="stores none"):
                archive.decompress(keys["temperature"])
