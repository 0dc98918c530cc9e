"""Plan/execute split for the decompression read path.

TAC's level-wise decomposition makes the *read* side as decomposable as
the write side: every SZ payload in a blob (one brick of a GSP grid, one
group of stacked sub-blocks, one level's 1D stream) decodes
independently.  Every read — a whole dataset, some levels, one level, a
box of one level, straight from a codec or through the read service —
is the same three steps, and a codec supplies exactly two of them:

* the codec **plans**: :meth:`~PlanExecutorMixin.build_decode_plan`
  enumerates :class:`DecodeUnit`\\ s — pure, independent decode closures
  tagged with the parts they read and the level they serve — *already
  pruned to the requested box*: bricks by index arithmetic, monolithic
  streams not at all.  Planning reads metadata only, never a payload:
  block-strategy groups are pruned by the level's layout record, itself a
  unit, so their plan has a second stage
  (:attr:`DecompressionPlan.refine`) that runs once the layout is decoded.
  A level's stored mask is one more unit;
* an executor **runs** the plan: :func:`execute_plan` decodes its work
  items in order on the caller's thread; units that are exactly one SZ
  stream are fetched and decoded in lockstep batches
  (:func:`decode_jobs`), so a level of hundreds of small bricks costs a
  few decode passes, not hundreds.  The read service substitutes its
  cache + prefetch pipeline for this step and nothing else — units are
  pure and results merge by unit key, so its concurrent decode is
  bit-identical to the serial one;
* the codec **assembles**: :meth:`~PlanExecutorMixin.assemble` stitches
  the unit results into exactly ``data[box]`` (and its mask), touching
  only the window the box covers.

:class:`PlanExecutorMixin` derives ``decompress`` / ``decompress_levels``
/ ``decompress_level`` / ``decompress_region`` from that hook pair — a
level read is the box that covers the level — and no codec overrides any
of the four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.container import MASK_PREFIX, inflate_mask, unpack_mask_box
from repro.sz import compressor as sz_compressor
from repro.sz.compressor import SZCompressor
from repro.utils.timer import TimingRecord, timed


@dataclass(frozen=True)
class DecodeUnit:
    """One independent decode task inside a blob.

    Attributes
    ----------
    key:
        Unique identifier inside the plan (conventionally the payload
        part's name, e.g. ``"L0/g2"`` or ``"L1/b7"``).
    level:
        AMR level this unit serves (used to filter plans to level
        subsets); ``-1`` marks a unit every level depends on (a merged
        3D grid, zMesh's interleaved stream).
    part_names:
        Blob parts this unit reads — introspectable I/O cost before any
        payload is touched.
    decode:
        Pure closure performing the decode; must not share mutable state
        with other units (that is what makes the read service's
        concurrent decode bit-identical to serial).  ``None`` for an
        SZ-stream unit, which declares ``sz_blob`` instead.
    box:
        Half-open ``((x0, x1), (y0, y1), (z0, z1))`` region of the unit's
        level that this unit covers, in level-grid cells, or ``None``
        when the unit serves the whole level (monolithic streams, layout
        records, masks).  A unit with a box is the only kind a degraded
        read may replace by fill values; a box-less one is load-bearing.
    sz_blob:
        Set when the unit's result is exactly one SZ stream's array: a
        getter for the stream's bytes, in the one stream format the decoder
        reads (a codec adapts a retired layout inside the getter).
        :func:`execute_plan` decodes such units in lockstep batches
        (:meth:`repro.sz.compressor.SZCompressor.decompress_many`), and
        they are the value units a delta-chain read sums across its
        entries (every other unit is structure: masks, layouts).
    sz_shape:
        The stream's decoded shape when the blob's metadata tells it (a
        brick, a padded grid), else ``None``.  Only a scheduling hint:
        streams declaring the same shape are fetched and decoded by the
        same work item, up to the batch budget; one without is its own.
    """

    key: str
    level: int
    part_names: tuple[str, ...]
    decode: Callable[[], object] | None
    box: tuple[tuple[int, int], ...] | None = None
    sz_blob: Callable[[], bytes] | None = None
    sz_shape: tuple[int, ...] | None = None


@dataclass
class DecompressionPlan:
    """An ordered set of independent decode units for (part of) a blob.

    ``refine``, when set, makes the plan two-stage: which further units the
    box needs depends on a decoded record among ``units`` (a group level's
    layout decides which groups meet the box), so an executor runs
    ``units``, then the units ``refine(results)`` returns.
    """

    units: list[DecodeUnit]
    refine: Callable[[dict], list[DecodeUnit]] | None = None

    def __len__(self) -> int:
        return len(self.units)

    def levels(self) -> list[int]:
        """Sorted levels covered by this plan."""
        return sorted({u.level for u in self.units})

    def part_names(self) -> list[str]:
        """Every blob part the plan will read, in unit order."""
        return [name for unit in self.units for name in unit.part_names]


#: Decoding reads every parameter from the stream, so one default-configured
#: compressor serves the SZ-stream units of every codec.
_SZ_DECODER = SZCompressor()


def _closure_job(key: str, decode: Callable[[], object], errors: dict | None) -> dict:
    try:
        return {key: decode()}
    except Exception as exc:
        if errors is None:
            raise
        errors[key] = exc
        return {}


def _stream_job(units: list[DecodeUnit], errors: dict | None) -> dict:
    """Fetch and decode SZ-stream ``units`` together.

    The blobs are fetched here, when the item runs, so only this item's
    compressed bytes are resident.  Fetch overlaps decode only in the read
    service's pipeline, whose I/O pool stages later items' windows while
    this one decodes.  A fetch failure stays that unit's alone, and a
    failing batch attributes the failure to the stream that caused it.

    An item of one stream goes through ``decompress``, the batch-of-one
    entry point — same kernel; it is the call per-stream instrumentation
    (``timings=``, tacbench's ``sz.decompress`` span) hooks, so streams
    too large to have batch-mates stay attributed.
    """
    if len(units) == 1:
        (unit,) = units
        assert unit.sz_blob is not None
        return _closure_job(unit.key, lambda: _SZ_DECODER.decompress(unit.sz_blob()), errors)
    fetched: list[DecodeUnit] = []
    blobs: list[bytes] = []
    for unit in units:
        assert unit.sz_blob is not None
        try:
            blobs.append(unit.sz_blob())
        except Exception as exc:
            if errors is None:
                raise
            errors[unit.key] = exc
        else:
            fetched.append(unit)
    failed: dict[int, Exception] = {}
    try:
        arrays = _SZ_DECODER.decompress_many(blobs, errors=None if errors is None else failed)
    except Exception as exc:
        # Not stream damage (that is attributed per stream): the whole
        # item failed, and every member reports why.
        if errors is None:
            raise
        errors.update({unit.key: exc for unit in fetched})
        return {}
    if errors is not None:
        errors.update({fetched[index].key: exc for index, exc in failed.items()})
    return {
        unit.key: values for unit, values in zip(fetched, arrays) if values is not None
    }


def decode_jobs(
    units: Sequence[DecodeUnit], errors: dict | None = None
) -> list[tuple[list[DecodeUnit], Callable[[], dict]]]:
    """Independent work items covering ``units``: ``(members, run)`` pairs.

    ``run()`` returns ``{key: decoded}`` for its members; with ``errors``
    given, a member whose fetch or decode raises is recorded there and
    left out instead.  A closure unit is one item.  SZ-stream units that
    declare the same ``sz_shape`` share an item up to
    :data:`~repro.sz.compressor.BATCH_VALUES` decoded values — the batch,
    not the brick, is the read service's unit of decode work.
    """
    budget = sz_compressor.BATCH_VALUES  # read per call: tests patch it
    jobs: list[tuple[list[DecodeUnit], Callable[[], dict]]] = []
    open_items: dict[tuple[int, ...], list[DecodeUnit]] = {}
    for unit in units:
        if unit.decode is not None:
            jobs.append(([unit], partial(_closure_job, unit.key, unit.decode, errors)))
            continue
        shape = unit.sz_shape
        if shape is None:
            jobs.append(([unit], partial(_stream_job, [unit], errors)))
            continue
        members = open_items.get(shape)
        if members is None or (len(members) + 1) * math.prod(shape) > budget:
            members = open_items[shape] = []
            jobs.append((members, partial(_stream_job, members, errors)))
        members.append(unit)
    return jobs


def execute_plan(
    plan: DecompressionPlan, errors: dict[str, Exception] | None = None
) -> dict[str, object]:
    """Run every unit and return ``{unit.key: decoded}``.

    The work items of :func:`decode_jobs` — units with a ``decode``
    closure and *batches* of SZ-stream units — run in order on the
    caller's thread.  A thread pool here bought nothing: every item is
    already one lockstep NumPy pass, and on two cores two workers were
    never 1.1× faster than one on any read measured, and mostly slower.

    ``errors`` is the degraded-read seam: when given, a unit whose fetch or
    decode raises is recorded there (``unit.key → exception``) and omitted
    from the results instead of aborting the whole plan.  When ``None``
    (the default) the first failure propagates, as ever.
    """
    results: dict[str, object] = {}
    for _members, run in decode_jobs(plan.units, errors):
        results.update(run())
    return results


def _resolve_bound(value, dim: int, default: int, axis: int) -> int:
    """One explicit ``(lo, hi)``-pair bound → concrete index in ``[0, dim]``.

    ``None`` means the axis default (0 / ``dim``); negative values follow
    Python indexing (``-1`` is the last cell); anything that would land
    outside the level is rejected loudly — explicit pairs, unlike
    ``slice`` objects, carry no clamping convention, so a bound past the
    extent is a caller bug, not a request for "everything there is".
    """
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"region axis {axis} bound must be an int or None, got {value!r}"
        )
    resolved = int(value)
    if resolved < 0:
        resolved += dim
    if not 0 <= resolved <= dim:
        raise ValueError(
            f"region axis {axis} bound {value} is out of range for extent {dim} "
            f"(resolved to {resolved}; valid bounds are -{dim}..{dim})"
        )
    return resolved


def normalize_region(region, shape) -> tuple[tuple[int, int], ...]:
    """Resolve a 3-axis ROI spec against a level shape.

    ``region`` is a sequence of three entries, each a ``slice`` (step 1)
    or an ``(lo, hi)`` pair.  Negative indices follow Python indexing on
    both forms; ``None`` bounds mean the full extent.  Slices keep
    Python's clamping semantics (``slice(0, 10**9)`` reads to the end);
    explicit pairs are validated strictly — an out-of-range bound raises
    instead of silently clamping.  Returns concrete half-open
    ``(lo, hi)`` bounds per axis and rejects empty boxes — an empty ROI
    is almost always a caller bug.
    """
    if len(region) != 3:
        raise ValueError(f"a region needs 3 axis specs, got {len(region)}")
    box = []
    for axis, (spec, dim) in enumerate(zip(region, shape)):
        if isinstance(spec, slice):
            if spec.step not in (None, 1):
                raise ValueError("region slices must have step 1")
            lo, hi, _ = spec.indices(dim)
        else:
            lo_raw, hi_raw = spec
            lo = _resolve_bound(lo_raw, dim, 0, axis)
            hi = _resolve_bound(hi_raw, dim, dim, axis)
        if hi <= lo:
            raise ValueError(
                f"empty region on axis {axis} (extent {dim}): {spec!r} "
                f"resolved to [{lo}, {hi})"
            )
        box.append((int(lo), int(hi)))
    return tuple(box)


def region_slices(box: tuple[tuple[int, int], ...], origin=(0, 0, 0)) -> tuple[slice, ...]:
    """Concrete bounds → slice tuple, for indexing an array whose first
    cell is the level's cell ``origin`` (default: a full-level array)."""
    return tuple(slice(lo - off, hi - off) for (lo, hi), off in zip(box, origin))


def level_box(shape) -> tuple[tuple[int, int], ...]:
    """The box that covers a whole level of ``shape``."""
    return tuple((0, int(dim)) for dim in shape)


def mask_units(comp, idx: int) -> list[DecodeUnit]:
    """Level ``idx``'s stored mask as a plan unit: box-less, so it is
    load-bearing like a layout record.  Its result is the mask's *packed*
    bits — an eighth of the mask, which is what a caching reader then
    holds — for :func:`level_mask` to unpack a box of.  Empty when the blob
    stores no masks (the caller's ``structure`` supplies them then)."""
    name = f"{MASK_PREFIX}L{idx}"
    if name not in comp.parts:
        return []
    shape = tuple(comp.meta["shapes"][idx])
    return [
        DecodeUnit(
            key=name,
            level=idx,
            part_names=(name,),
            decode=lambda: inflate_mask(comp.parts[name], shape),
        )
    ]


def level_mask(comp, results: dict, structure, idx: int, box) -> np.ndarray:
    """``box`` of level ``idx``'s mask: the blob's (unpacked from a
    :func:`mask_units` result), else ``structure``'s."""
    packed = results.get(f"{MASK_PREFIX}L{idx}")
    if packed is not None:
        return unpack_mask_box(packed, tuple(comp.meta["shapes"][idx]), box)
    if structure is None:
        raise ValueError(
            "masks were not stored in the blob; pass the original dataset "
            "as `structure` to supply the AMR layout"
        )
    return structure.levels[idx].mask[region_slices(box)]


class PlanExecutorMixin:
    """The whole decompression API, derived from a codec's hook pair.

    A codec implements :meth:`build_decode_plan` (metadata → the units a
    box of some levels needs) and :meth:`assemble` (unit results → that
    box of one level) and inherits ``decompress`` / ``decompress_levels``
    / ``decompress_level`` / ``decompress_region``; all four run the same
    plan → execute → assemble sequence, so a partial read is bit-identical
    to slicing a full one — only the set of decoded units shrinks.
    """

    #: Whether a delta chain of this codec's blobs may be summed per decoded
    #: value unit and assembled once (the read service's chain reads).  True
    #: only when :meth:`assemble` copies unit values into the box and zeroes
    #: the rest, so the assembly of the units' sum is the sum of the
    #: assemblies bit for bit.  An assembly that computes (the 3D baseline
    #: averages children into coarse levels) keeps it false, and its chains
    #: sum assembled levels, as its writer's closed loop folds them.  A
    #: property of the format, not an option.
    sums_per_unit = False

    # -- hooks -------------------------------------------------------------
    def build_decode_plan(
        self, comp, levels: Sequence[int] | None = None, box=None
    ) -> DecompressionPlan:
        """Units needed to assemble ``box`` of ``levels`` (default: all),
        from the blob's metadata alone.

        ``box`` — half-open level-grid bounds, meaningful for a single
        level — prunes the plan to the units covering it; ``None`` is the
        whole level.
        """
        raise NotImplementedError

    def assemble(self, comp, level: int, results: dict, structure, box) -> AMRLevel:
        """``data[box]`` and ``mask[box]`` of one level from unit results.

        Units missing from ``results`` (a degraded read's casualties)
        leave their cells zero.  ``structure`` supplies the masks a blob
        does not store.  ``results`` belongs to the read: a codec may keep
        what several levels' assemblies share in it.
        """
        raise NotImplementedError

    def codec_for(self, comp):
        """The codec whose hooks read ``comp`` — ``self``, unless the blob
        records that another codec wrote it (TAC's §4.4 delegation)."""
        return self

    # -- derived API -------------------------------------------------------
    def _read(
        self, comp, levels, region, structure, timings: TimingRecord | None = None
    ) -> list[AMRLevel]:
        codec = self.codec_for(comp)
        shapes = [tuple(shape) for shape in comp.meta["shapes"]]
        indices = check_level_indices(levels, len(shapes))
        box = None if region is None else normalize_region(region, shapes[indices[0]])
        plan = codec.build_decode_plan(comp, levels=indices, box=box)
        with timed(timings, "decompress"):
            results = execute_plan(plan)
            if plan.refine is not None:
                results.update(execute_plan(DecompressionPlan(plan.refine(results))))
        with timed(timings, "postprocess"):
            return [
                codec.assemble(comp, idx, results, structure, box or level_box(shapes[idx]))
                for idx in indices
            ]

    def decompress(
        self,
        comp,
        structure: AMRDataset | None = None,
        timings: TimingRecord | None = None,
    ) -> AMRDataset:
        """Rebuild the dataset: every level's units in one plan execution,
        assembled in level order.  Masks come from the blob or
        ``structure``."""
        meta = comp.meta
        levels = self._read(comp, range(len(meta["shapes"])), None, structure, timings)
        return AMRDataset(
            levels=levels,
            name=meta["name"],
            field=meta["field"],
            ratio=meta["ratio"],
            box_size=meta["box_size"],
        )

    def decompress_levels(
        self, comp, levels: Sequence[int], structure=None
    ) -> list[AMRLevel]:
        """Decode and assemble only ``levels`` (order preserved)."""
        return self._read(comp, levels, None, structure)

    def decompress_level(self, comp, level: int, structure=None) -> AMRLevel:
        """Decode and assemble one level."""
        return self.decompress_levels(comp, [level], structure)[0]

    def decompress_region(self, comp, level: int, region, structure=None) -> np.ndarray:
        """One level's data restricted to ``region`` (masked-out cells zero).

        Identical to ``decompress(comp).levels[level].data[region]``, but
        only the units the box needs are fetched and decoded: the bricks
        it touches, the groups with a block inside it; a monolithic
        stream decodes whole and is sliced.
        """
        return self._read(comp, [level], region, structure)[0].data


def check_level_indices(levels: Sequence[int], n_levels: int) -> list[int]:
    """Validate a level subset against the blob's level count."""
    indices = [int(idx) for idx in levels]
    if not indices:
        raise ValueError("need at least one level index")
    bad = [idx for idx in indices if not 0 <= idx < n_levels]
    if bad:
        raise ValueError(f"level indices {bad} out of range for {n_levels} level(s)")
    return indices
