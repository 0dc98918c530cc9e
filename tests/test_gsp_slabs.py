"""GSP/ZF levels are padded and encoded one brick slab at a time.

The writer never builds a level's padded grid: ``gsp_pad`` / ``zero_fill``
compute the padding on the unit-block grid, and
``TACCompressor._encode_bricks`` writes, encodes and drops one x-slab of
bricks after the other, copying each slab's stored cells into the level's
values.  The oracle is the writer as it was: the whole grid
(``tests.preprocess_oracles.gsp_pad_grid`` / ``zero_fill_grid``), every
brick of it in one ``compress_many`` (``encode_padded_grid``).  Blobs and
the encoder's reconstruction must equal it bit for bit, and the working set
must stay below a level.
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.container import CompressedDataset
from repro.core.density import Strategy
from repro.core.gsp import GSPResult
from repro.core.tac import TACCompressor
from repro.sz import compressor as sz_compressor
from repro.utils.timer import TimingRecord
from tests.helpers import random_mask, smooth_cube
from tests.preprocess_oracles import encode_padded_grid, gsp_pad_grid, zero_fill_grid

JUNK = (np.nan, np.inf, -np.inf, 1e30)


def junk_dataset(n: int, dtype, seed: int = 0) -> AMRDataset:
    """Two levels: a ~70 % dense fine level refined in 2³ coarse-cell
    clusters (so whole unit blocks are empty and get ghosts) over the
    coarse rest; NaN, ±Inf and 1e30 in every cell outside the masks."""
    rng = np.random.default_rng(seed)
    refined = random_mask((n // 2,) * 3, 0.7, seed=seed, block=2)
    fine_mask = refined.repeat(2, 0).repeat(2, 1).repeat(2, 2)
    levels = []
    for index, (mask, m) in enumerate(((fine_mask, n), (~refined, n // 2))):
        data = smooth_cube(m, seed=seed + index, dtype=dtype) + dtype(3)
        data[~mask] = np.asarray(JUNK, dtype=dtype)[rng.integers(0, len(JUNK), (~mask).sum())]
        levels.append(AMRLevel(data=data, mask=mask, level=index))
    return AMRDataset(levels=levels, name="junk", field="f")


def oracle_level(codec: TACCompressor, lvl: AMRLevel, meta: dict):
    """``(blobs, stored-cell values)`` of a GSP/ZF level through its whole
    padded grid."""
    cfg = codec.config
    if meta["strategy"] == Strategy.GSP.value:
        grid = gsp_pad_grid(
            lvl.data, lvl.mask, meta["unit_block"],
            pad_layers=cfg.pad_layers, avg_layers=cfg.avg_layers,
        )
    else:
        grid = zero_fill_grid(lvl.data, lvl.mask, meta["unit_block"])
    return encode_padded_grid(codec.codec, grid.padded, lvl.mask, meta["eb_abs"], cfg.brick_size)


class TestSameBytesAsTheWholeGrid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("unit_block", [None, 6], ids=["aligned", "unit6"])
    @pytest.mark.parametrize(
        "strategy,pad_layers",
        [("gsp", None), ("gsp", 2), ("gsp", 4), ("zf", None), ("auto", None), ("auto", 2)],
    )
    @pytest.mark.parametrize("brick,n", [(16, 40), (64, 76)])
    def test_blobs_and_rec(self, brick, n, strategy, pad_layers, unit_block, dtype):
        """Level edges 40 and 76 are multiples of neither the brick nor a
        6-cell unit block; a 6-cell block does not divide a 16-cell slab,
        so slabs start and end inside blocks."""
        codec = TACCompressor(
            force_strategy=None if strategy == "auto" else Strategy(strategy),
            pad_layers=pad_layers,
            unit_block=unit_block,
            brick_size=brick,
        )
        dataset = junk_dataset(n, dtype)
        plain = list(codec.compress_iter(dataset, 1e-3))
        stream = codec.compress_iter(dataset, 1e-3, want_recon=True)
        chunks = list(stream)
        comp = CompressedDataset(
            method=stream.method,
            dataset_name=stream.dataset_name,
            parts={name: blob for chunk in chunks for name, blob in chunk.parts.items()},
            meta=stream.meta,
        )
        padded_levels = 0
        for chunk, reference, lvl in zip(chunks, plain, dataset.levels):
            assert list(chunk.parts.items()) == list(reference.parts.items())
            decoded = codec.decompress_level(comp, chunk.level, structure=dataset)
            assert chunk.rec.dtype == dtype and chunk.rec.shape == (lvl.n_points(),)
            assert chunk.rec.tobytes() == decoded.data[decoded.mask].tobytes()
            if chunk.meta["strategy"] not in (Strategy.GSP.value, Strategy.ZF.value):
                continue
            padded_levels += 1
            blobs, rec = oracle_level(codec, lvl, chunk.meta)
            names = [f"L{lvl.level}/b{i}" for i in range(len(blobs))]
            assert [chunk.parts[name] for name in names] == blobs
            assert chunk.rec.tobytes() == rec.tobytes()
        assert padded_levels >= 1

    def test_ghosts_are_written(self):
        """The fixture's fine level really has ghost-padded blocks (and a
        ghost-free grid would encode differently)."""
        dataset = junk_dataset(40, np.float32)
        lvl = dataset.levels[0]
        grid = gsp_pad_grid(lvl.data, lvl.mask, 4)
        assert grid.n_padded_blocks > 0
        assert not np.array_equal(grid.padded, zero_fill_grid(lvl.data, lvl.mask, 4).padded)


class TestWorkingSet:
    """A GSP write holds one slab's worth of cells, not a level's."""

    @pytest.mark.parametrize("want_recon", [False, True], ids=["plain", "recon"])
    def test_no_level_sized_array(self, want_recon, monkeypatch):
        monkeypatch.setattr(sz_compressor, "ENCODE_THREADS", 1)
        monkeypatch.setattr(sz_compressor, "BATCH_VALUES", 4096)
        dataset = junk_dataset(96, np.float64)
        fine = dataset.levels[0]
        level_bytes = fine.data.nbytes  # 7.1 MB; a slab is a twelfth of it
        stored_bytes = fine.n_points() * 8 if want_recon else 0
        codec = TACCompressor(force_strategy=Strategy.GSP, brick_size=8)
        peaks = {}
        real = TACCompressor._compress_level

        def traced(self, lvl, *args):
            tracemalloc.start()
            try:
                meta, rec = real(self, lvl, *args)
                peaks[lvl.level] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return meta, rec

        monkeypatch.setattr(TACCompressor, "_compress_level", traced)
        chunks = list(codec.compress_iter(dataset, 1e-2, mode="abs", want_recon=want_recon))
        parts_bytes = sum(len(blob) for blob in chunks[0].parts.values())
        assert (chunks[0].rec is not None) == want_recon
        # Beyond the parts it returns and, with want_recon, the stored
        # values, the fine level's write holds well under half a level.
        assert peaks[0] - parts_bytes - stored_bytes < level_bytes / 2


class TestPreprocessTiming:
    def test_every_slab_is_timed_as_preprocess(self, monkeypatch):
        """Each slab's masked copy and ghost write is pre-process time, in
        a compress's ``"preprocess"`` span and in ``preprocess_only``
        (Fig. 13) alike."""
        pause = 0.02
        calls = []
        real = GSPResult.slab

        def slow(self, lo, hi):
            calls.append(lo)
            time.sleep(pause)
            return real(self, lo, hi)

        monkeypatch.setattr(GSPResult, "slab", slow)
        dataset = junk_dataset(40, np.float32)
        codec = TACCompressor(force_strategy=Strategy.GSP, brick_size=16)
        _result, seconds = codec.preprocess_only(dataset.levels[0], Strategy.GSP)
        assert calls == [0, 16, 32] and seconds >= 3 * pause
        calls.clear()
        record = TimingRecord()
        codec.compress(dataset, 1e-3, timings=record)
        assert calls == [0, 16, 32, 0, 16]  # the fine level, then the coarse
        assert record.get("preprocess") >= 5 * pause
