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

On the wire a delta entry is a normal container entry whose metadata
carries ``meta["temporal"] = {"mode": "delta", "base": <prev key>,
"keyframe": <keyframe key>, "step": t}`` (keyframes record ``{"mode":
"keyframe", "step": t}``), and each of its level metas is tagged
``"temporal": "delta"``.  Readers that ignore the tag decode the raw
residual; :func:`read_timestep_region` / :func:`read_timestep_level`
resolve the chain through :meth:`ArchiveReader.entry_meta` and sum
base-first.  The sum is elementwise, so an ROI read of the sum equals
the sum of ROI reads — region reads stay bit-identical to slicing a
full reconstruction.
"""

from __future__ import annotations

import zlib

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


def residual_dataset(cur: AMRDataset, rec: AMRDataset) -> AMRDataset:
    """``cur − rec`` level by level (same hierarchy required).

    The residual lives on the shared masks, a valid tree-based dataset;
    whatever its cells outside them hold, no codec reads them.
    """
    levels = []
    for c, r in zip(cur.levels, rec.levels):
        if c.shape != r.shape:
            raise ValueError(
                f"hierarchy mismatch at level {c.level}: {c.shape} vs {r.shape}"
            )
        levels.append(AMRLevel(data=c.data - r.data, mask=c.mask, level=c.level))
    return AMRDataset(
        levels=levels,
        name=cur.name,
        field=cur.field,
        ratio=cur.ratio,
        box_size=cur.box_size,
    )


def accumulate(rec: AMRDataset, decoded_residual: AMRDataset) -> AMRDataset:
    """``rec + decoded_residual`` — one closed-loop reconstruction step."""
    levels = [
        AMRLevel(data=r.data + d.data, mask=r.mask, level=r.level)
        for r, d in zip(rec.levels, decoded_residual.levels)
    ]
    return AMRDataset(
        levels=levels,
        name=rec.name,
        field=rec.field,
        ratio=rec.ratio,
        box_size=rec.box_size,
    )


def temporal_chain(reader, key: str) -> list[str]:
    """Entry keys from the keyframe to ``key`` inclusive, base-first.

    ``reader`` is anything with an ``entry_meta(key) -> dict`` (the read
    service's :class:`~repro.serve.reader.ArchiveReader`, or a lazy
    archive wrapped accordingly).  Entries without a ``temporal`` record,
    and keyframes, are their own chain of one.
    """
    chain = [key]
    seen = {key}
    temporal = reader.entry_meta(key).get("temporal")
    while temporal and temporal.get("mode") == "delta":
        base = temporal["base"]
        if base in seen:
            raise ValueError(f"temporal chain of {key!r} loops at {base!r}")
        chain.append(base)
        seen.add(base)
        temporal = reader.entry_meta(base).get("temporal")
    chain.reverse()
    return chain


def read_timestep_level(reader, key: str, level: int, **kwargs):
    """Reconstruct one level of (possibly delta-coded) entry ``key``.

    Returns ``(level, stats_list)`` — an :class:`AMRLevel` like
    :meth:`ArchiveReader.read_level`, plus one
    :class:`~repro.serve.reader.RequestStats` per chain entry read.
    Summation runs base-first in the stored dtype, matching the
    write-side closed loop bit for bit.  The mask comes from ``key``'s
    own entry (the hierarchy guard keeps it constant along a chain).
    """
    out = None
    stats = []
    for entry_key in temporal_chain(reader, key):
        lvl, st = reader.read_level(entry_key, level, **kwargs)
        stats.append(st)
        out = lvl if out is None else AMRLevel(
            data=out.data + lvl.data, mask=lvl.mask, level=lvl.level
        )
    return out, stats


def read_timestep_region(reader, key: str, level: int, region, **kwargs):
    """Reconstruct one ROI of (possibly delta-coded) entry ``key``.

    Bit-identical to ``read_timestep_level(...)[0][region]`` — the chain
    sum is elementwise, so it commutes with slicing — while reading only
    the payloads each chain entry needs for the ROI.
    """
    out = None
    stats = []
    for entry_key in temporal_chain(reader, key):
        data, st = reader.read_region(entry_key, level, region, **kwargs)
        stats.append(st)
        out = data if out is None else out + data
    return out, stats
