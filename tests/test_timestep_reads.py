"""A key reads as its timestep on every path.

An ingest session with ``keyframe_interval > 1`` stores each delta step as
a closed-loop residual.  Every public read of such a key — the read
service's ``read_level`` / ``read_region`` / ``submit`` / ``decompress``,
``LazyBatchArchive.decompress`` and ``repro decompress --key`` whole, with
``--level`` and with ``--region`` — must return the step: within the
keyframe's absolute bound of the original, and equal to the independent
per-entry oracle (``tests/helpers.py::oracle_timestep_read``), not the
residual the entry stores.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.amr.io import load_dataset
from repro.cli import main
from repro.core.container import CompressedDataset, resolve_global_eb
from repro.engine import LazyBatchArchive, codec_for_method, register
from repro.engine.archive import temporal_chain
from repro.ingest import IngestConfig, IngestSession
from repro.serve import ArchiveReader
from repro.sim import make_timestep_series
from tests.helpers import assert_error_bounded, oracle_timestep_read

EB, MODE = 1e-4, "rel"
STEPS = 3
ROI = ((3, 21), (0, 9), (5, 30))
ROI_SPEC = "3:21,0:9,5:30"


@pytest.fixture(scope="module")
def series_archive(tmp_path_factory):
    """A 3-step ``keyframe_interval=3`` series: one keyframe, two deltas."""
    head = tmp_path_factory.mktemp("timestep") / "series.rpbt"
    series = list(make_timestep_series("Run1_Z10", steps=STEPS, scale=16))
    cfg = IngestConfig(error_bound=EB, mode=MODE, keyframe_interval=STEPS)
    with IngestSession(head, cfg) as session:
        keys = session.extend(series)
    modes = [row["temporal"]["mode"] for row in session.report.entries]
    assert modes == ["keyframe", "delta", "delta"]
    return head, keys, series, resolve_global_eb(series[0], EB, MODE)


def check_step(got: np.ndarray, want: np.ndarray, original, eb_abs: float, box=None):
    """``got`` equals the oracle bit for bit and is within ``eb_abs`` of
    the original level (``box`` of it) at its stored cells."""
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    data, mask = original.data, original.mask
    if box is not None:
        slices = tuple(slice(lo, hi) for lo, hi in box)
        data, mask = data[slices], mask[slices]
    assert mask.any()
    assert_error_bounded(data[mask], got[mask], eb_abs)


def test_the_last_key_is_a_three_entry_chain(series_archive):
    head, keys, _series, _eb = series_archive
    with LazyBatchArchive.open(head) as archive:
        assert temporal_chain(keys[-1], lambda k: archive.entry(k).meta) == keys
        assert temporal_chain(keys[0], lambda k: archive.entry(k).meta) == keys[:1]


def test_loops_in_a_chain_are_refused():
    metas = {
        "a": {"temporal": {"mode": "delta", "base": "b"}},
        "b": {"temporal": {"mode": "delta", "base": "a"}},
    }
    with pytest.raises(ValueError, match="loops"):
        temporal_chain("a", metas.__getitem__)


def test_read_service_returns_the_step(series_archive):
    head, keys, series, eb_abs = series_archive
    key, original = keys[-1], series[-1]
    with LazyBatchArchive.open(head) as archive, ArchiveReader(head) as reader:
        restored = reader.decompress(key)
        for idx, level in enumerate(original.levels):
            want = oracle_timestep_read(archive, key, idx)
            lvl, stats = reader.read_level(key, idx)
            check_step(lvl.data, want, level, eb_abs)
            assert np.array_equal(lvl.mask, level.mask)
            assert stats.key == key and stats.chain == tuple(keys)
            check_step(restored.levels[idx].data, want, level, eb_abs)
            data, stats = reader.submit(key, idx).result()
            check_step(data.data, want, level, eb_abs)
        want_roi = oracle_timestep_read(archive, key, 0, ROI)
        roi, stats = reader.read_region(key, 0, ROI)
        check_step(roi, want_roi, original.levels[0], eb_abs, ROI)
        assert stats.chain == tuple(keys) and stats.bytes_served == roi.nbytes
        data, _stats = reader.submit(key, 0, ROI).result()
        check_step(data, want_roi, original.levels[0], eb_abs, ROI)
        # An ROI read is the same slice of the whole restore, bit for bit.
        slices = tuple(slice(lo, hi) for lo, hi in ROI)
        assert roi.tobytes() == restored.levels[0].data[slices].tobytes()
        ((data, _stats),) = reader.read_many([(key, 0, ROI)])
        assert data.tobytes() == roi.tobytes()


def test_lazy_archive_returns_the_step(series_archive):
    head, keys, series, eb_abs = series_archive
    with LazyBatchArchive.open(head) as archive:
        for key, original in zip(keys, series):
            restored = archive.decompress(key)
            assert restored.name == original.name and restored.field == original.field
            for idx, level in enumerate(original.levels):
                want = oracle_timestep_read(archive, key, idx)
                check_step(restored.levels[idx].data, want, level, eb_abs)


def test_cli_decompress_returns_the_step(series_archive, tmp_path, capsys):
    head, keys, series, eb_abs = series_archive
    key, original = keys[-1], series[-1]
    with LazyBatchArchive.open(head) as archive:
        want = [oracle_timestep_read(archive, key, idx) for idx in range(original.n_levels)]
        want_roi = oracle_timestep_read(archive, key, 0, ROI)

    whole = tmp_path / "whole.npz"
    assert main(["decompress", str(head), "--key", key, "-o", str(whole)]) == 0
    restored = load_dataset(whole)
    for idx, level in enumerate(original.levels):
        check_step(restored.levels[idx].data, want[idx], level, eb_abs)

    levels = tmp_path / "levels.npz"
    argv = ["decompress", str(head), "--key", key, "--level", "0", "--level", "1"]
    assert main([*argv, "-o", str(levels)]) == 0
    assert f"chain {' + '.join(keys)}" in capsys.readouterr().out
    with np.load(levels) as arrays:
        for idx, level in enumerate(original.levels):
            check_step(arrays[f"data_{idx}"], want[idx], level, eb_abs)

    roi = tmp_path / "roi.npz"
    argv = ["decompress", str(head), "--key", key, "--level", "0", "--region", ROI_SPEC]
    assert main([*argv, "-o", str(roi)]) == 0
    with np.load(roi) as arrays:
        check_step(arrays["data"], want_roi, original.levels[0], eb_abs, ROI)


def test_cli_serve_over_a_delta_archive(series_archive, capsys):
    head, _keys, _series, _eb = series_archive
    assert main(["serve", str(head), "--requests", "8", "--rois", "2"]) == 0
    assert "served 8 requests" in capsys.readouterr().out


class _WholeOnlyCodec:
    """A ``Codec``-only codec (no partial reads): per-level DEFLATE of the
    stored values, masks in the blob."""

    method_name = "whole_only"

    def compress(self, dataset, error_bound, mode="rel", **kwargs) -> CompressedDataset:
        parts = {}
        for lvl in dataset.levels:
            parts[f"L{lvl.level}/values"] = zlib.compress(lvl.values().tobytes())
            parts[f"L{lvl.level}/mask"] = zlib.compress(np.packbits(lvl.mask).tobytes())
        return CompressedDataset(
            method=self.method_name,
            dataset_name=dataset.name,
            parts=parts,
            meta={"shapes": [list(lvl.shape) for lvl in dataset.levels],
                  "dtype": str(dataset.dtype()), "name": dataset.name},
            original_bytes=dataset.original_bytes(),
            n_values=dataset.total_points(),
        )

    def decompress(self, comp, structure=None, **kwargs) -> AMRDataset:
        levels = []
        for idx, shape in enumerate(comp.meta["shapes"]):
            shape = tuple(shape)
            bits = np.frombuffer(zlib.decompress(comp.parts[f"L{idx}/mask"]), np.uint8)
            mask = np.unpackbits(bits)[: int(np.prod(shape))].astype(bool).reshape(shape)
            data = np.zeros(shape, np.dtype(comp.meta["dtype"]))
            data[mask] = np.frombuffer(
                zlib.decompress(comp.parts[f"L{idx}/values"]), data.dtype
            )
            levels.append(AMRLevel(data=data, mask=mask, level=idx))
        return AMRDataset(levels=levels, name=comp.meta["name"])


def test_a_codec_only_chain_restores_its_steps(tmp_path, scratch_registry):
    register("whole-only", _WholeOnlyCodec, description="test only")
    series = list(make_timestep_series("Run1_Z10", steps=STEPS, scale=16))
    head = tmp_path / "whole.rpbt"
    cfg = IngestConfig(error_bound=EB, codec="whole-only", keyframe_interval=STEPS)
    with IngestSession(head, cfg) as session:
        keys = session.extend(series)
    modes = [row["temporal"]["mode"] for row in session.report.entries]
    assert modes == ["keyframe", "delta", "delta"]
    with LazyBatchArchive.open(head) as archive:
        codec = codec_for_method("whole_only")
        stored = [codec.decompress(archive.entry(key)) for key in keys]
        for step, (key, original) in enumerate(zip(keys, series)):
            restored = archive.decompress(key)
            for idx, level in enumerate(original.levels):
                want = stored[0].levels[idx].data
                for delta in stored[1 : step + 1]:
                    want = want + delta.levels[idx].data
                assert restored.levels[idx].data.tobytes() == want.tobytes()
                # Lossless residuals: the step up to float rounding of the sum.
                assert_error_bounded(level.data[level.mask],
                                     restored.levels[idx].data[level.mask], 0.0)
