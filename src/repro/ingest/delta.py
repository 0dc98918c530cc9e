"""Temporal delta coding for snapshot series (closed-loop residuals).

TAC compresses one snapshot; a simulation emits a *sequence*, and on
smooth evolution consecutive snapshots differ by a small, spatially
correlated residual that compresses far better than either endpoint.
The ingest session exploits that per (name, field) chain:

* **Keyframes** are ordinary compressed snapshots.  One is written every
  ``keyframe_interval`` steps, whenever the AMR hierarchy changes
  (:func:`hierarchy_signature` guard), and at chain start.
* **Delta steps** store the residual ``cur_t − rec_{t−1}`` where ``rec``
  is the running *reconstruction* (what a reader will decode), not the
  raw previous snapshot.  Because the codec guarantees
  ``|dec(x) − x| ≤ eb`` per step, closing the loop keeps every
  reconstructed timestep within the keyframe's absolute bound —
  ``rec_t = rec_{t−1} + dec(res_t)`` and ``res_t = cur_t − rec_{t−1}``,
  so ``|rec_t − cur_t| = |dec(res_t) − res_t| ≤ eb`` with **no error
  accumulation** along the chain.  On the write side ``dec(res_t)`` is
  not a decode: the session takes the encoder's own reconstruction
  (``compress_iter(want_recon=True)`` — the SZ predictor works from it,
  and the level is assembled by the reader's code), which equals the
  reader's decode bit for bit, so the loop is closed on exactly the
  values a reader will sum (``tests/test_encoder_rec.py``).
* Residuals are encoded under the absolute bound resolved at the chain's
  keyframe (``mode="abs"``), so a ``rel`` bound keeps meaning "relative
  to the data's range", not the residual's.

Memory: a chain holds its running reconstruction as each level's
stored-cell values (:func:`stored_values`) — zero is implied everywhere
else, where a reader's levels are zero too — so a delta step holds less
than one level set of its own.  The residual is made one level at a time,
when the codec reads the level's ``data`` (:func:`residual_dataset`), and
nothing keeps it once the level is encoded.  The encoder hands each
level's reconstruction out as its stored-cell values
(``LevelChunk.rec``): a GSP/ZF level encodes its padded grid one brick
slab at a time and copies each slab's stored cells into a preallocated
array, so neither a level-sized grid nor a second copy of the values is
made.  A delta step adds them into the chain's values in place
(:func:`accumulate`) as its chunk streams by; a keyframe keeps them as
they are.  The values are session-owned — filled from an encoder
reconstruction or gathered from a decode, never the caller's arrays — so
the in-place sum writes nothing anyone else holds.

On the wire a delta entry is a normal container entry whose metadata
carries ``meta["temporal"] = {"mode": "delta", "base": <prev key>,
"keyframe": <keyframe key>, "step": t}`` (keyframes record ``{"mode":
"keyframe", "step": t}``), and each of its level metas is tagged
``"temporal": "delta"``.  Every read of a key returns its timestep: the
archive resolves the chain (:func:`repro.engine.archive.temporal_chain`)
and sums it base first — :meth:`LazyBatchArchive.decompress
<repro.engine.archive.LazyBatchArchive.decompress>` entry by entry, the
read service (:class:`~repro.serve.reader.ArchiveReader`) as one request:
the box is planned once, from the latest entry, each decoded unit (brick,
group, stream) is summed base first across the chain and cached under the
chain, and the box is assembled once.  The sum is elementwise and an
assembly only copies values, so the assembly of the sum is the sum of the
assemblies, and an ROI read of the sum equals the sum of ROI reads —
region reads stay bit-identical to slicing a full reconstruction.  A codec
whose assembly computes (the 3D baseline averages children into coarse
levels) sums assembled boxes instead, as its writer folded them.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.container import pack_mask


def hierarchy_signature(dataset: AMRDataset) -> tuple:
    """A cheap fingerprint of the AMR structure (shapes + mask CRCs).

    Two snapshots with equal signatures share level shapes and ownership
    masks, which is the precondition for subtracting them level-wise; a
    signature change forces the delta coder back to a keyframe.
    """
    return tuple(
        (tuple(lvl.shape), zlib.crc32(pack_mask(lvl.mask))) for lvl in dataset.levels
    )


class _ResidualLevel(AMRLevel):
    """``cur − rec`` of one level, ``rec`` given as its stored-cell values
    (zero elsewhere), computed each time :attr:`data` is read and kept by
    nobody but the reader: a codec that reads a level once holds its
    residual only while it gathers from it.  Outside the mask the residual
    is ``cur − 0``, i.e. ``cur`` itself, bit for bit."""

    def __init__(self, cur: AMRLevel, rec: np.ndarray):
        if rec.shape != (cur.n_points(),):
            raise ValueError(
                f"hierarchy mismatch at level {cur.level}: {cur.n_points()} stored "
                f"cells vs {rec.size} reconstructed values"
            )
        self._cur, self._rec = cur, rec
        self.mask, self.level = cur.mask, cur.level

    @property
    def data(self) -> np.ndarray:
        data = self._cur.data.astype(self.dtype)  # a copy, widened as the sum would
        data[self.mask] -= self._rec
        return data

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.mask.shape

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self._cur.dtype, self._rec.dtype)


def residual_dataset(cur: AMRDataset, rec: list[np.ndarray]) -> AMRDataset:
    """``cur − rec`` level by level, ``rec`` holding each level's running
    reconstruction as its stored-cell values (:func:`stored_values`; the
    hierarchy guard keeps the masks equal along a chain).

    The residual lives on the shared masks, a valid tree-based dataset;
    whatever its cells outside them hold, no codec reads them.  Each
    level's values are computed when its ``data`` is read, every time it
    is read, so nothing holds a residual level set: read a level's
    ``data`` once, and before ``rec`` changes.
    """
    if len(rec) != cur.n_levels:
        raise ValueError(f"hierarchy mismatch: {cur.n_levels} levels vs {len(rec)}")
    return AMRDataset(
        levels=[_ResidualLevel(c, r) for c, r in zip(cur.levels, rec)],
        name=cur.name,
        field=cur.field,
        ratio=cur.ratio,
        box_size=cur.box_size,
    )


def stored_values(level: AMRLevel) -> np.ndarray:
    """A reconstructed level as a chain keeps it: its stored-cell values
    (a new array; zero is implied everywhere else)."""
    return level.data[level.mask]


def accumulate(rec: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``rec + values``, both a level's stored-cell values (``values`` the
    decoded residual's) — one closed-loop reconstruction step of one level,
    summed base first as a reader sums the two levels — in place in
    ``rec``, which is returned.  A residual of a wider dtype widens the sum
    into a new array instead, as the reader's sum does."""
    if np.result_type(rec.dtype, values.dtype) != rec.dtype:
        return rec + values
    rec += values
    return rec


def read_timestep_region(reader, key: str, level: int, region, **kwargs):
    """``reader.read_region(key, level, region, **kwargs)``, kept for the
    benchmark workloads that call it."""
    return reader.read_region(key, level, region, **kwargs)
