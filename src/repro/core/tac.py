"""TAC — the paper's hybrid level-wise 3D AMR compressor (Fig. 3).

For each AMR level the density filter picks a pre-process strategy
(OpST / AKDTree / GSP, §3.4), the strategy turns the level's irregular
occupancy into dense 3D/4D arrays, and the SZ substrate compresses each
array under that level's absolute error bound.  Level-wise operation is
what enables the paper's per-level error-bound tuning (§4.5, exposed here
as ``per_level_scale``; see :mod:`repro.core.adaptive_eb` for suggested
values).

With ``adaptive_baseline=True`` the §4.4 dataset-scope rule is applied:
when the finest level is denser than ``DEFAULT_T2``, the whole dataset is handed to
the 3D baseline (up-sample + merge), which wins in exactly that regime.

The output is a :class:`repro.core.container.CompressedDataset` whose parts
include per-level payloads, layout metadata, and (by default) the validity
masks — all counted in the compressed size.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.adaptive_eb import _resolve_scales
from repro.core.akdtree import akdtree_extract
from repro.core.blocks import gather_blocks, scatter_blocks
from repro.core.container import (
    MASK_PREFIX,
    CompressedDataset,
    LevelChunk,
    StreamingCompression,
    pack_mask,
    resolve_global_eb,
)
from repro.core.density import Strategy, select_strategy, use_3d_baseline
from repro.core.gsp import (
    DEFAULT_BRICK_SIZE,
    GSPResult,
    brick_boxes,
    bricks_touching,
    gsp_pad,
    zero_fill,
)
from repro.core.layout import (
    block_extents,
    blocks_in_region,
    deserialize_layout,
    layout_shapes,
    serialize_layout,
)
from repro.core.nast import nast_extract
from repro.core.opst import opst_extract
from repro.core.plan import (
    DecodeUnit,
    DecompressionPlan,
    PlanExecutorMixin,
    level_box,
    level_mask,
    mask_units,
    region_slices,
)
from repro.sz import stream
from repro.sz.compressor import SZCompressor, SZConfig
from repro.utils.timer import TimingRecord, timed
from repro.utils.validation import check_positive_int

#: Unit-block bounds for the adaptive default (paper: 16³ blocks on 512³
#: grids, i.e. ~1/32 of the level edge; we keep blocks >= 4 so boundary
#: fractions stay sane on scaled-down grids).
_MIN_BLOCK = 4
_MAX_BLOCK = 16


def default_unit_block(n: int) -> int:
    """Adaptive unit-block edge for a level of size ``n`` (~n/16, clamped)."""
    return int(np.clip(n // 16, _MIN_BLOCK, _MAX_BLOCK))


@dataclass(frozen=True)
class TACConfig:
    """TAC pipeline parameters.

    Attributes
    ----------
    unit_block:
        Unit-block edge in cells; ``None`` chooses per level via
        :func:`default_unit_block`.
    adaptive_baseline:
        Apply the §4.4 rule (3D baseline when the finest level is dense).
    force_strategy:
        Override the density filter — its thresholds are the paper's
        fixed :data:`~repro.core.density.DEFAULT_T1` /
        :data:`~repro.core.density.DEFAULT_T2` (§3.4) — with one strategy
        for every level (used by the Fig. 7/11/12 strategy studies).
    pad_layers / avg_layers:
        GSP slab thickness / neighbour averaging depth (Alg. 3's x and y).
    brick_size:
        Edge (cells) of the independently-compressed bricks a GSP/ZF
        padded grid is chunked into (strategy format 2: one container
        part + one decode unit per brick, so ROI reads decode only the
        bricks they touch).  The writer makes the grid one brick-thick
        x-slab at a time, so the edge also sets the write's working set.
        An edge at least the padded grid's gives one stream.  Blobs stored
        before the brick format existed (format 1, one ``L<idx>/grid``
        part) are read as one brick of it.
    store_masks:
        Include packed validity masks in the output parts.
    sz:
        Configuration of the underlying SZ codec.
    """

    unit_block: int | None = None
    adaptive_baseline: bool = False
    force_strategy: Strategy | None = None
    pad_layers: int | None = None
    avg_layers: int = 2
    brick_size: int = DEFAULT_BRICK_SIZE
    store_masks: bool = True
    sz: SZConfig = field(default_factory=SZConfig)

    def __post_init__(self):
        if self.unit_block is not None:
            check_positive_int(self.unit_block, name="unit_block")
        if self.brick_size is None:
            raise ValueError(
                "brick_size=None (the single-stream format-1 writer) is retired; "
                "a brick_size at least the level's edge gives one stream per level"
            )
        check_positive_int(self.brick_size, name="brick_size")


class TACCompressor(PlanExecutorMixin):
    """The TAC hybrid compressor (public entry point of this package)."""

    method_name = "tac"
    #: Bricks and groups are copied into the box, nothing computed.
    sums_per_unit = True

    def __init__(self, config: TACConfig | None = None, **kwargs):
        if config is not None and kwargs:
            raise TypeError("pass either a config object or keyword overrides, not both")
        self.config = config if config is not None else TACConfig(**kwargs)
        self.codec = SZCompressor(self.config.sz)

    # ------------------------------------------------------------------
    # compression
    # ------------------------------------------------------------------
    def compress(
        self,
        dataset: AMRDataset,
        error_bound: float,
        mode: str = "rel",
        per_level_scale=None,
        timings: TimingRecord | None = None,
    ) -> CompressedDataset:
        """Compress a dataset level by level under ``error_bound``:
        :meth:`compress_iter` collected into one eager dataset.

        ``mode="rel"`` resolves the bound against the dataset's global value
        range (shared with all baselines); ``per_level_scale`` multiplies
        the resolved absolute bound per level (finest first).
        """
        timings = timings if timings is not None else TimingRecord()
        out = self.compress_iter(
            dataset, error_bound, mode, per_level_scale, timings=timings
        ).collect()
        out.timings = timings
        return out

    def compress_iter(
        self,
        dataset: AMRDataset,
        error_bound: float,
        mode: str = "rel",
        per_level_scale=None,
        timings: TimingRecord | None = None,
        want_recon: bool = False,
    ) -> StreamingCompression:
        """Compress level by level, yielding each level's parts as produced.

        Returns a :class:`repro.core.container.StreamingCompression`: the
        entry header fields are available immediately, iterating yields one
        :class:`LevelChunk` per level (finest first), and ``.meta`` becomes
        available once the stream is exhausted.  A container writer
        consuming the chunks therefore holds at most one level's parts in
        memory and its output is byte-identical to
        ``compress(...).to_bytes()``.

        A level's SZ streams are encoded by
        :meth:`~repro.sz.compressor.SZCompressor.compress_many` — one call
        per level of a block strategy, one per brick slab of a GSP/ZF level
        — whose batches the caller's thread and the codec's helper threads
        share; the levels themselves are compressed one after another.

        ``want_recon=True`` sets each chunk's ``rec`` to the stored-cell
        values (``level.data[level.mask]``) a reader will decode from its
        parts, bit for bit — taken from the reconstruction the SZ encoder
        computed anyway (its predictor is closed-loop), so nothing is
        decoded: a GSP/ZF level copies them out of each brick slab, a block
        strategy's level is assembled by the code the reader runs.  A
        level's ``data`` is read once, by its strategy.

        The §4.4 baseline delegation has no level-wise decomposition; that
        regime compresses eagerly and yields the whole entry as one chunk
        (without a ``rec``).
        """
        timings = timings if timings is not None else TimingRecord()
        cfg = self.config
        if cfg.adaptive_baseline and use_3d_baseline(dataset.finest_density()):
            if per_level_scale is not None:
                raise ValueError(
                    "the 3D-baseline fallback cannot honour per-level error "
                    "bounds; disable adaptive_baseline to force level-wise TAC"
                )
            from repro.baselines.uniform3d import Uniform3DCompressor

            delegate = Uniform3DCompressor(sz=cfg.sz, store_masks=cfg.store_masks)
            out = delegate.compress(dataset, error_bound, mode, timings=timings)
            out.method = self.method_name
            out.meta["delegated"] = "baseline_3d"
            return StreamingCompression.from_dataset(out)
        base_eb = resolve_global_eb(dataset, error_bound, mode)
        scales = _resolve_scales(per_level_scale, dataset.n_levels)
        # Each level's stored cells, counted once for this compress.
        counts = [lvl.n_points() for lvl in dataset.levels]
        base_meta = {
            "name": dataset.name,
            "field": dataset.field,
            "ratio": dataset.ratio,
            "box_size": dataset.box_size,
            "shapes": [list(lvl.shape) for lvl in dataset.levels],
        }

        def produce():
            for lvl in dataset.levels:
                parts: dict[str, bytes] = {}
                meta, rec = self._compress_level(
                    lvl, base_eb * scales[lvl.level], counts[lvl.level], parts, timings, want_recon
                )
                if cfg.store_masks:
                    parts[f"{MASK_PREFIX}L{lvl.level}"] = pack_mask(lvl.mask)
                yield LevelChunk(level=lvl.level, meta=meta, parts=parts, rec=rec)
                del rec  # the consumer has it: not pinned while the next level encodes

        return StreamingCompression(
            method=self.method_name,
            dataset_name=dataset.name,
            original_bytes=sum(counts) * dataset.dtype().itemsize,
            n_values=sum(counts),
            chunks=produce(),
            base_meta=base_meta,
        )

    def _compress_level(
        self,
        lvl: AMRLevel,
        eb_abs: float,
        n_points: int,
        parts: dict[str, bytes],
        timings: TimingRecord,
        want_recon: bool,
    ) -> tuple[dict, np.ndarray | None]:
        """Fill ``parts`` with the level's payloads; returns its metadata
        and, with ``want_recon``, the stored-cell values those payloads
        decode to.  ``n_points`` is the level's stored-cell count."""
        cfg = self.config
        density = n_points / lvl.mask.size if n_points else 0.0  # = lvl.density()
        meta: dict = {
            "level": lvl.level,
            "density": density,
            "eb_abs": eb_abs,
            "n_points": n_points,
        }
        if n_points == 0:
            meta["strategy"] = "empty"
            return meta, _stored(_encoder_rec(lvl, meta, {})) if want_recon else None
        strategy = cfg.force_strategy or select_strategy(density)
        block = cfg.unit_block or default_unit_block(lvl.n)
        meta["strategy"] = strategy.value
        meta["unit_block"] = block
        result = self._preprocess(lvl, strategy, block, timings)
        if strategy in (Strategy.GSP, Strategy.ZF):
            return meta, self._encode_bricks(result, meta, parts, timings, want_recon)
        parts[f"L{lvl.level}/layout"] = serialize_layout(result)
        # The decoded layout record a reader's assembly works from.
        layout = {f"L{lvl.level}/layout": result}
        streams = {
            f"L{lvl.level}/g{group_idx}": result.groups[shape]
            for group_idx, shape in enumerate(layout_shapes(result))
        }
        meta["n_blocks"] = result.n_blocks()
        meta["n_groups"] = len(result.groups)
        arrays = list(streams.values())
        with timed(timings, "compress"):
            # The gathered blocks are this call's own, so each is its own
            # destination: the reconstruction replaces the input in place
            # and no level-sized buffer is added.
            blobs = self.codec.compress_many(
                arrays, eb_abs, mode="abs", recon=arrays if want_recon else None
            )
        parts.update(zip(streams, blobs))
        if not want_recon:
            return meta, None
        return meta, _stored(_encoder_rec(lvl, meta, {**layout, **streams}))

    def _encode_bricks(
        self,
        padded: GSPResult,
        meta: dict,
        parts: dict[str, bytes],
        timings: TimingRecord,
        want_recon: bool,
    ) -> np.ndarray | None:
        """Strategy format 2: the padded grid of a GSP/ZF level chunked into
        independently compressed bricks — one part per brick, its geometry
        in the level meta — so an ROI read decodes only the bricks it
        touches.  Returns, with ``want_recon``, the level's stored-cell
        values a reader decodes from those parts.

        The grid is never whole.  It is made one x-slab of bricks at a time,
        a brick edge thick, so a slab is a contiguous C-order range of the
        grid, and the stored cells it holds a contiguous run of the level's.
        The masked values and the ghosts are written into a new slab (timed
        as ``"preprocess"``), its bricks — views of it — are encoded by one
        ``compress_many`` with the reconstruction written in place, and the
        slab's stored cells are copied into the level's values at the
        slab's offset.  Then the slab goes.
        """
        level = meta["level"]
        size = self.config.brick_size
        shape = padded.padded_shape
        grid = [-(-dim // size) for dim in shape]
        meta["padded_shape"] = list(shape)
        meta["strategy_format"] = 2
        meta["bricks"] = {"size": size, "grid": grid, "n": math.prod(grid)}
        mask = padded.mask
        ox, oy, oz = mask.shape
        rec = np.empty(meta["n_points"], dtype=padded.data.dtype) if want_recon else None
        stored = 0
        for lo in range(0, shape[0], size):
            with timed(timings, "preprocess"):
                slab = padded.slab(lo, lo + size)
            bricks = [slab[region_slices(box)] for box in brick_boxes(slab.shape, size)]
            first = lo // size * grid[1] * grid[2]
            with timed(timings, "compress"):
                blobs = self.codec.compress_many(
                    bricks, meta["eb_abs"], mode="abs", recon=bricks if want_recon else None
                )
            parts.update((f"L{level}/b{first + i}", blob) for i, blob in enumerate(blobs))
            if want_recon and lo < ox:
                values = slab[: ox - lo, :oy, :oz][mask[lo : lo + size]]
                rec[stored : stored + values.size] = values
                stored += values.size
            del slab, bricks  # before the next slab is made
        return rec

    def _preprocess(self, lvl: AMRLevel, strategy: Strategy, block: int, timings: TimingRecord):
        """The strategy's artifact for one level — the block-grid padding
        of GSP/ZF, whose slabs :meth:`_encode_bricks` writes, the shape
        groups of OpST/AKDTree/NaST — timed as ``"preprocess"``.

        Each strategy reads the level's ``data`` as it is and zeroes what
        it keeps outside the mask: a block strategy the blocks it gathers,
        GSP/ZF each slab they write.  No level-sized masked copy is made.
        """
        cfg = self.config
        data = lvl.data
        with timed(timings, "preprocess"):
            if strategy is Strategy.GSP:
                return gsp_pad(
                    data, lvl.mask, block, pad_layers=cfg.pad_layers, avg_layers=cfg.avg_layers
                )
            if strategy is Strategy.ZF:
                return zero_fill(data, lvl.mask, block)
            extract = {
                Strategy.OPST: opst_extract,
                Strategy.AKDTREE: akdtree_extract,
                Strategy.NAST: nast_extract,
            }[strategy]
            return extract(data, lvl.mask, block)

    # ------------------------------------------------------------------
    # decompression: the plan/assemble hook pair (see repro.core.plan)
    # ------------------------------------------------------------------
    def codec_for(self, comp: CompressedDataset):
        """The §4.4 fallback's reader when the blob was delegated to it."""
        if comp.meta.get("delegated") != "baseline_3d":
            return self
        from repro.baselines.uniform3d import Uniform3DCompressor

        return Uniform3DCompressor(sz=self.config.sz, store_masks=self.config.store_masks)

    def build_decode_plan(
        self, comp: CompressedDataset, levels=None, box=None
    ) -> DecompressionPlan:
        """Independent decode units for ``box`` of ``levels`` of a TAC blob.

        One unit per brick of a GSP/ZF grid the box touches (index
        arithmetic), one per block-strategy group, one per layout record
        and stored mask — all from the metadata alone.  A brick's unit is
        built once per blob, the first time a plan touches it, and kept
        on the blob (:func:`_plan_memo`), so a warm re-read plans by
        lookup.  Which groups have a block inside a box only the level's
        layout tells, so with a box the group units are the plan's second
        stage (``refine``), planned once the layout unit has decoded.
        """
        wanted = None if levels is None else set(levels)
        units: list[DecodeUnit] = []
        staged = []
        for level_meta in map(_bricked, comp.meta["levels"]):
            idx = level_meta["level"]
            if wanted is not None and idx not in wanted:
                continue
            units.extend(mask_units(comp, idx))
            strategy = level_meta["strategy"]
            if strategy == "empty":
                continue
            if strategy not in (Strategy.GSP.value, Strategy.ZF.value):
                resolver = _resolver(comp, level_meta)
                layout_name = f"L{idx}/layout"
                units.append(
                    DecodeUnit(
                        key=layout_name,
                        level=idx,
                        part_names=(layout_name,),
                        decode=lambda name=layout_name: deserialize_layout(comp.parts[name]),
                    )
                )
                if box is None:
                    units.extend(
                        _stream_unit(comp.parts, idx, f"L{idx}/g{g}", resolver)
                        for g in range(level_meta["n_groups"])
                    )
                else:
                    staged.append(partial(self._group_units, comp, idx, resolver, box))
            else:
                units.extend(_brick_units(comp, idx, level_meta, box))
        if not staged:
            return DecompressionPlan(units)
        return DecompressionPlan(units, lambda results: [u for s in staged for u in s(results)])

    def _group_units(self, comp, idx: int, resolver, box, results: dict) -> list[DecodeUnit]:
        """The group streams of level ``idx`` with a block inside ``box``,
        given the level's decoded layout in ``results``."""
        extraction = results[f"L{idx}/layout"]
        units = [
            _stream_unit(comp.parts, idx, f"L{idx}/g{group_idx}", resolver)
            for group_idx, shape in enumerate(layout_shapes(extraction))
            if blocks_in_region(extraction, shape, box).size
        ]
        if not units:
            # All zeros — in the dtype a full decode gives them, which only
            # a stream header records (peeked, never decoded).
            first = f"L{idx}/g0"
            units.append(
                DecodeUnit(
                    key=f"L{idx}/dtype",
                    level=idx,
                    part_names=(first,),
                    decode=lambda: stream.peek_header(comp.parts[first]).dtype,
                )
            )
        return units

    def _level_meta(self, comp: CompressedDataset, idx: int) -> dict:
        for level_meta in comp.meta["levels"]:
            if level_meta["level"] == idx:
                return _bricked(level_meta)
        raise ValueError(f"blob holds no metadata for level {idx}")

    def assemble(self, comp, level: int, results: dict, structure, box) -> AMRLevel:
        """Unit results → ``box`` of one reconstructed level.

        Only the window the box covers is ever allocated: the bounding box
        of the bricks, or of the blocks, that meet it — and a box that is
        its whole window is returned in that buffer.
        """
        return _assemble_box(
            self._level_meta(comp, level),
            results,
            box,
            lambda: level_mask(comp, results, structure, level, box),
            _entry_dtype(comp),
        )

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def preprocess_only(self, lvl: AMRLevel, strategy: Strategy, block: int | None = None):
        """Run just a strategy's pre-process on one level (Fig. 13 timing).

        Returns ``(result, seconds)`` where ``result`` is the strategy's
        extraction/padding artifact.
        """
        block = block or self.config.unit_block or default_unit_block(lvl.n)
        record = TimingRecord()
        result = self._preprocess(lvl, strategy, block, record)
        if strategy in (Strategy.GSP, Strategy.ZF):
            # The padded grid is written slab by slab as the bricks encode:
            # every slab is part of the pre-process.
            size = self.config.brick_size
            with timed(record, "preprocess"):
                for lo in range(0, result.padded_shape[0], size):
                    result.slab(lo, lo + size)
        return result, record.get("preprocess")


def _assemble_box(
    level_meta: dict, results: dict, box, mask_of_box, dtype: np.dtype | None = None
) -> AMRLevel:
    """``box`` of the level ``level_meta`` describes, from its decoded
    streams in ``results``, zero outside the mask ``mask_of_box()``.

    The one assembly of a TAC level — the reader's, and the encoder's when
    it hands out its own reconstruction of an empty or block-strategy level
    (``results`` then holds the arrays the SZ encoder reconstructed in
    place; a GSP/ZF level's encoder copies the stored cells out of each
    slab it encodes instead, :meth:`TACCompressor._encode_bricks`).  The
    mask is applied where the non-zero cells are, in the order that keeps
    the peak low:

    * a block strategy (OpST/AKDTree/NaST) unpacks the box's mask first and
      masks each sub-block before scattering it — only cells inside blocks
      can be non-zero, so the rest of the window is never touched again;
    * GSP/ZF (dense by selection) stitch → crop → mask: ``mask_of_box()``
      is called only once the stitched window has been copied and dropped,
      so the mask is never unpacked next to it.  ``dtype`` is the level's
      (the entry head's), which a box whose every brick was lost takes.

    ``results`` may be shared (a caching reader freezes its arrays): every
    array masked here is a new one.
    """
    level = level_meta["level"]
    strategy = level_meta["strategy"]
    if strategy not in (Strategy.GSP.value, Strategy.ZF.value):
        mask = mask_of_box()
        if strategy == "empty":
            data = np.zeros(tuple(hi - lo for lo, hi in box), dtype=np.float32)
        else:
            data = _stitch_groups(level, results, box, mask)
        return AMRLevel(data=data, mask=mask, level=level)
    return _masked_level(level, _stitch_bricks(level_meta, results, box, dtype), mask_of_box)


def _masked_level(level: int, window: np.ndarray, mask_of_box) -> AMRLevel:
    """Crop → mask, the end of a GSP/ZF level's assembly: ``window`` (the
    box's part of an array this call may write) as a level of its own,
    zero outside the mask ``mask_of_box()``.

    A window cut out of a larger array is copied, which lets that array go
    before the mask is fetched when nothing else holds it (the reader's
    stitched bounding window); the cells outside the mask are zeroed in
    place.
    """
    data = np.ascontiguousarray(window)
    del window
    mask = mask_of_box()
    np.copyto(data, 0, where=~mask)
    return AMRLevel(data=data, mask=mask, level=level)


def _entry_dtype(comp) -> np.dtype:
    """The dtype of an entry's stored values, from the one record of it the
    entry head carries: ``original_bytes = n_values × itemsize``.  A head
    that counts no values tells none, and gets an empty level's float32."""
    if not comp.n_values:
        return np.dtype(np.float32)
    return np.dtype(f"f{comp.original_bytes // comp.n_values}")


def _stored(level: AMRLevel) -> np.ndarray:
    """A level's stored-cell values, the form ``LevelChunk.rec`` takes."""
    return level.data[level.mask]


def _encoder_rec(lvl: AMRLevel, level_meta: dict, results: dict) -> AMRLevel:
    """The level a reader decodes from the parts just written for ``lvl``
    (an empty or block-strategy level): ``results`` maps each stream's part
    name to the array the SZ encoder reconstructed in place — where a
    reader's decode units put the decoded ones — and the layout name to the
    extraction itself."""
    return _assemble_box(level_meta, results, level_box(lvl.shape), lambda: lvl.mask)


class SharedTableResolver:
    """Reads a level of the retired shared-table layout at fetch time.

    Such a level stores its Huffman code lengths once, in an ``RPHT`` part
    (``L<idx>/table``), and each stream carries a ``SEC_TABLE_REF`` section
    naming it.  :meth:`ordinary` turns a fetched stream into the one format
    the SZ decoder reads: the reference, checked against the table's id and
    alphabet, becomes a ``SEC_CODE_LENGTHS`` section holding the table's
    code lengths, and the stream is written again (version 2).  The table
    part is fetched, parsed and packed at most once — the result is
    memoized under a lock, so concurrent decode workers share one fetch.
    """

    def __init__(self, parts, part_name: str):
        self._parts, self.part_name = parts, part_name
        self._lock = threading.Lock()
        self._table: dict | None = None

    def ordinary(self, blob: bytes) -> bytes:
        """``blob`` with its table reference replaced by the code lengths
        (empty and lossless-fallback streams carry none and pass through)."""
        parsed = stream.parse(blob)
        if stream.SEC_TABLE_REF not in parsed.sections:
            return blob
        ref = stream.unpack_table_ref(parsed.sections[stream.SEC_TABLE_REF][1])
        with self._lock:
            if self._table is None:
                if self.part_name not in self._parts:
                    raise ValueError(f"blob holds no shared-table part {self.part_name!r}")
                table = stream.unpack_shared_table(self._parts[self.part_name])
                table["section"] = stream.pack_code_lengths(table["code_lengths"])
                self._table = table
            table = self._table
        if (ref["table_id"], ref["alphabet"]) != (table["table_id"], table["alphabet"]):
            raise ValueError(
                f"stream references shared table id={ref['table_id']:#010x} "
                f"alphabet={ref['alphabet']} but part {self.part_name!r} holds "
                f"id={table['table_id']:#010x} alphabet={table['alphabet']}"
            )
        sections = [
            (stream.SEC_CODE_LENGTHS, *table["section"])
            if tag == stream.SEC_TABLE_REF
            else (tag, codec, payload)
            for tag, (codec, payload) in parsed.sections.items()
        ]
        return stream.serialize(parsed.header, sections)


def _plan_memo(comp) -> dict:
    """The plan pieces a TAC blob's metadata fixes, built on first touch
    and kept on the blob: ``(level, brick index) →`` that brick's
    :class:`DecodeUnit`, ``("table", level) →`` the level's
    :class:`SharedTableResolver`.

    Nothing is built when an entry opens; the memo grows by one small unit
    per brick a read touches.  What it holds captures the blob's part
    store, never the blob, so a dropped blob is freed at once (no blob ↔
    unit cycle).  Threads racing on a first touch build equal units and
    one of them is kept, so no lock is needed.
    """
    try:
        return comp._tac_plan_memo
    except AttributeError:
        return vars(comp).setdefault("_tac_plan_memo", {})


def _resolver(comp, level_meta: dict) -> SharedTableResolver | None:
    """The one resolver of a level in the retired shared-table layout per
    blob and level (``None`` for any other level): however many units,
    plans and decode workers share the table part, it is fetched and
    parsed once."""
    info = level_meta.get("shared_table")
    if not info:
        return None
    memo, key = _plan_memo(comp), ("table", level_meta["level"])
    resolver = memo.get(key)
    if resolver is None:
        resolver = memo.setdefault(key, SharedTableResolver(comp.parts, info["part"]))
    return resolver


def _stream_unit(
    parts,
    idx: int,
    name: str,
    resolver: SharedTableResolver | None,
    box=None,
    shape: tuple[int, ...] | None = None,
) -> DecodeUnit:
    """The unit decoding part ``name`` of the part store ``parts``, one SZ
    stream of level ``idx`` (of decoded ``shape``, where the metadata
    tells it).

    A level in the retired shared-table layout appends its
    ``L<idx>/table`` part to every stream's ``part_names``
    (prefetch/ROI accounting dedups the repeat name), and its fetch
    rewrites the stream into an ordinary one.
    """

    def fetch() -> bytes:
        blob = parts[name]
        return blob if resolver is None else resolver.ordinary(blob)

    extra = () if resolver is None else (resolver.part_name,)
    return DecodeUnit(
        key=name, level=idx, part_names=(name, *extra), decode=None, box=box,
        sz_blob=fetch, sz_shape=shape,
    )


def _brick_units(comp, idx: int, level_meta: dict, box) -> list[DecodeUnit]:
    """One unit per brick of a GSP/ZF level that ``box`` touches, each
    built once per blob (:func:`_plan_memo`): a plan is the brick index
    arithmetic and one lookup per brick.

    Each unit's ``box`` is the brick's padded-grid box *clipped to the
    level extents* — what a degraded read fills when the brick is lost.
    A brick wholly inside the block padding covers nothing visible, so
    no box inside the level (the whole level included) selects it.
    """
    memo = _plan_memo(comp)
    shape = tuple(comp.meta["shapes"][idx])
    units = []
    for brick_idx, bbox in _touched_bricks(level_meta, box or level_box(shape)):
        unit = memo.get((idx, brick_idx))
        if unit is None:
            clipped = tuple(
                (min(lo, dim), min(hi, dim)) for (lo, hi), dim in zip(bbox, shape)
            )
            unit = memo.setdefault(
                (idx, brick_idx),
                _stream_unit(
                    comp.parts, idx, _brick_name(level_meta, brick_idx),
                    _resolver(comp, level_meta), clipped, tuple(hi - lo for lo, hi in bbox),
                ),
            )
        units.append(unit)
    return units


def _bricked(level_meta: dict) -> dict:
    """A format-1 GSP/ZF level — one ``L<idx>/grid`` stream of the padded
    grid — as the one-brick format-2 level it is; any other level as is."""
    if "bricks" in level_meta or level_meta["strategy"] not in (
        Strategy.GSP.value, Strategy.ZF.value
    ):
        return level_meta
    edge = max(level_meta["padded_shape"])
    return {**level_meta, "bricks": {"size": edge, "part": "grid"}}


def _brick_name(level_meta: dict, brick_idx: int) -> str:
    """The part holding brick ``brick_idx`` of a (viewed) format-2 level."""
    return f"L{level_meta['level']}/" + level_meta["bricks"].get("part", f"b{brick_idx}")


def _touched_bricks(level_meta: dict, box):
    """``(flat index, padded-grid box)`` of every brick of a GSP/ZF level
    that ``box`` touches."""
    return bricks_touching(
        tuple(level_meta["padded_shape"]), int(level_meta["bricks"]["size"]), box
    )


def _stitch_bricks(level_meta: dict, results: dict, box, dtype: np.dtype) -> np.ndarray:
    """Stitch the decoded bricks ``box`` touches into its brick-aligned
    bounding window and return the window's ``box`` part.

    Along each axis the box meets a run of bricks, whose slices of the
    window are computed once per axis; a brick's slice is the product of
    its three.  Bricks absent from ``results`` (a degraded read's
    casualties) leave zeros, in the decoded bricks' dtype, or in ``dtype``
    when every touched brick was lost; a brick *part* missing from the
    blob already failed loudly inside its decode unit.
    """
    size = int(level_meta["bricks"]["size"])
    padded = level_meta["padded_shape"]
    _, ny, nz = (-(-int(dim) // size) for dim in padded)
    xs, ys, zs = spans = [
        _brick_spans(lo, hi, size, int(dim)) for (lo, hi), dim in zip(box, padded)
    ]
    shape = tuple(axis[-1][1].stop for axis in spans)
    window = None
    for i, in_x in xs:
        for j, in_y in ys:
            for k, in_z in zs:
                decoded = results.get(_brick_name(level_meta, (i * ny + j) * nz + k))
                if decoded is None:
                    continue
                if window is None:
                    window = np.zeros(shape, dtype=decoded.dtype)
                window[in_x, in_y, in_z] = decoded
    if window is None:  # every touched brick lost
        window = np.zeros(shape, dtype=dtype)
    return window[tuple(slice(lo % size, lo % size + hi - lo) for lo, hi in box)]


def _brick_spans(lo: int, hi: int, size: int, dim: int) -> list[tuple[int, slice]]:
    """``(brick coordinate, the brick's slice of the window)`` of every
    brick of edge ``size`` that ``[lo, hi)`` meets along an axis of ``dim``
    padded cells; the window starts at the first of them."""
    first = lo // size
    return [
        (c, slice((c - first) * size, min((c + 1) * size, dim) - first * size))
        for c in range(first, -(-hi // size))
    ]


def _stitch_groups(idx: int, results: dict, box, mask: np.ndarray) -> np.ndarray:
    """Scatter the blocks meeting ``box`` into their bounding window, each
    zeroed outside ``mask`` (``box`` of the level's mask) first, and return
    the window's ``box`` part as an array of its own.

    A block may overhang the box: its mask cells are read at its origin
    with the indices clipped into the box, and the cells outside the box
    that this misreads are cropped with the window.
    """
    extraction = results[f"L{idx}/layout"]
    box_lo = np.array([b[0] for b in box], dtype=np.int64)
    box_hi = np.array([b[1] for b in box], dtype=np.int64)
    lo, hi = box_lo, box_hi
    hits = []
    for group_idx, shape in enumerate(layout_shapes(extraction)):
        selected = blocks_in_region(extraction, shape, box)
        if selected.size:
            origins = extraction.coords[shape][selected].astype(np.int64)
            ends = origins + block_extents(extraction, shape)[selected]
            lo = np.minimum(lo, origins.min(axis=0))
            hi = np.maximum(hi, ends.max(axis=0))
            inside = bool((origins >= box_lo).all() and (ends <= box_hi).all())
            hits.append((shape, selected, origins, inside, results[f"L{idx}/g{group_idx}"]))
    dtype = hits[0][-1].dtype if hits else results[f"L{idx}/dtype"]
    window = np.zeros(tuple(hi - lo), dtype=dtype)
    for shape, selected, origins, inside, stacked in hits:
        perm_ids = extraction.perms[shape][selected]
        valid = gather_blocks(mask, origins - box_lo, shape, perm_ids, clip=not inside)
        blocks = np.where(valid, stacked[selected], dtype.type(0))
        scatter_blocks(window, blocks, origins - lo, perm_ids)
    return np.ascontiguousarray(window[region_slices(box, lo)])
