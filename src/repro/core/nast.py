"""NaST — the naive sparse-tensor pre-process (paper §3.1, Fig. 5).

Partition the level into unit blocks, drop the empty ones, and stack every
surviving block into a single 4D array for the compressor.  Simple and
effective at removing empty space, but the small block size leaves a large
fraction of the data on block boundaries where a prediction-based
compressor has little context — the motivation for OpST.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockExtraction, collect_blocks


def nast_extract(data: np.ndarray, mask: np.ndarray, block_size: int) -> BlockExtraction:
    """Remove empty unit blocks; stack the rest into one 4D group.

    Parameters
    ----------
    data:
        Level values (3D); whatever it holds outside ``mask``, each
        gathered block is zeroed there.
    mask:
        Validity mask of the level.
    block_size:
        Unit block edge length in cells.
    """
    blocks = collect_blocks(data, mask, block_size)
    extraction = blocks.extraction()
    origins_blocks = np.argwhere(blocks.occ)
    if origins_blocks.size == 0:
        return extraction
    origins = (origins_blocks * blocks.block_size).astype(np.int32)
    shape = (blocks.block_size,) * 3
    extraction.groups[shape] = blocks.gather(origins, shape)
    extraction.coords[shape] = origins
    extraction.perms[shape] = np.zeros(origins.shape[0], dtype=np.uint8)
    return extraction
