"""Junk outside a level's mask never reaches a blob.

A level's ``data`` is meaningful only where its mask is set.  Every codec
reads the cells it stores and nothing else: a level holding NaN, ±Inf and
1e30 in every non-stored cell writes the same bytes as the same level
zeroed there, and decodes to zeros there.  The TAC strategies rely on it —
they read the level's raw data and zero only the blocks they keep.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.density import Strategy
from repro.core.tac import TACCompressor
from repro.engine import get_codec
from repro.ingest import IngestConfig, IngestSession
from repro.ingest.delta import read_timestep_level
from repro.serve import ArchiveReader
from repro.sim.datasets import make_dataset
from tests.test_ingest import archive_entries

JUNK = (np.nan, np.inf, -np.inf, 1e30)
EB = 1e-3


def with_junk(dataset: AMRDataset, seed: int = 0) -> AMRDataset:
    """``dataset`` with NaN, ±Inf and 1e30 in every non-stored cell."""
    rng = np.random.default_rng(seed)
    levels = []
    for lvl in dataset.levels:
        data = lvl.data.copy()
        picks = rng.integers(0, len(JUNK), int(np.count_nonzero(~lvl.mask)))
        data[~lvl.mask] = np.asarray(JUNK, dtype=data.dtype)[picks]
        levels.append(AMRLevel(data=data, mask=lvl.mask, level=lvl.level))
    return replace(dataset, levels=levels)


@pytest.fixture(scope="module")
def t2() -> AMRDataset:
    """Run2_T2: a sparse (OpST) finest level over a dense (GSP) one."""
    return make_dataset("Run2_T2", scale=8)


CODECS = {
    "tac-auto": TACCompressor,
    **{
        f"tac-{strategy.value}": (lambda s=strategy: TACCompressor(force_strategy=s))
        for strategy in (Strategy.OPST, Strategy.NAST, Strategy.AKDTREE, Strategy.GSP, Strategy.ZF)
    },
    "1d": lambda: get_codec("1d"),
    "zmesh": lambda: get_codec("zmesh"),
    "3d": lambda: get_codec("3d"),
}


def assert_zero_outside(levels):
    for lvl in levels:
        assert not lvl.data[~lvl.mask].any()


@pytest.mark.parametrize("name", sorted(CODECS))
def test_blob_ignores_cells_outside_the_mask(t2, name):
    codec = CODECS[name]()
    if name == "tac-auto":
        strategies = [lm["strategy"] for lm in codec.compress(t2, EB).meta["levels"]]
        assert strategies == ["opst", "gsp"]
    clean = codec.compress(t2, EB).to_bytes()
    junk = with_junk(t2)
    assert codec.compress(junk, EB).to_bytes() == clean
    assert_zero_outside(codec.decompress(codec.compress(junk, EB)).levels)


def test_ingest_chain_ignores_cells_outside_the_mask(t2, tmp_path):
    """A keyframe + delta chain: the residuals of junk levels carry the
    junk, and still write the clean archive's bytes."""
    series = [
        replace(
            t2,
            levels=[
                AMRLevel(data=lvl.data * np.float32(1 + 0.05 * k), mask=lvl.mask, level=lvl.level)
                for lvl in t2.levels
            ],
        )
        for k in range(3)
    ]
    archives = {}
    junk = [with_junk(ds, seed) for seed, ds in enumerate(series)]
    for label, steps in (("clean", series), ("junk", junk)):
        head = tmp_path / f"{label}.rpbt"
        with IngestSession(head, IngestConfig(error_bound=EB, keyframe_interval=3)) as session:
            session.extend(steps)
        modes = [row["temporal"]["mode"] for row in session.report.entries]
        assert modes == ["keyframe", "delta", "delta"]
        archives[label] = archive_entries(head)
        with ArchiveReader(head) as reader:
            last = reader.keys()[-1]
            assert_zero_outside(
                read_timestep_level(reader, last, level)[0] for level in range(t2.n_levels)
            )
    assert archives["junk"] == archives["clean"]
