"""TAC — the paper's hybrid level-wise 3D AMR compressor (Fig. 3).

For each AMR level the density filter picks a pre-process strategy
(OpST / AKDTree / GSP, §3.4), the strategy turns the level's irregular
occupancy into dense 3D/4D arrays, and the SZ substrate compresses each
array under that level's absolute error bound.  Level-wise operation is
what enables the paper's per-level error-bound tuning (§4.5, exposed here
as ``per_level_scale``; see :mod:`repro.core.adaptive_eb` for suggested
values).

With ``adaptive_baseline=True`` the §4.4 dataset-scope rule is applied:
when the finest level is denser than ``t2``, the whole dataset is handed to
the 3D baseline (up-sample + merge), which wins in exactly that regime.

The output is a :class:`repro.core.container.CompressedDataset` whose parts
include per-level payloads, layout metadata, and (by default) the validity
masks — all counted in the compressed size.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.akdtree import akdtree_extract
from repro.core.container import (
    MASK_PREFIX,
    CompressedDataset,
    LevelChunk,
    StreamingCompression,
    pack_mask,
    resolve_global_eb,
    unpack_mask,
)
from repro.core.density import DEFAULT_T1, DEFAULT_T2, Strategy, select_strategy
from repro.core.gsp import (
    DEFAULT_BRICK_SIZE,
    BrickTable,
    brick_boxes,
    bricks_in_box,
    gsp_pad,
    serialize_brick_table,
    zero_fill,
)
from repro.core.layout import (
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
    execute_plan,
    normalize_region,
    region_slices,
)
from repro.sz.compressor import SharedTableResolver, SZCompressor, SZConfig
from repro.sz.huffman import SharedHuffmanTable
from repro.sz.stream import peek_header
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
    t1, t2:
        Density thresholds of the strategy filter (§3.4).
    adaptive_baseline:
        Apply the §4.4 rule (3D baseline when the finest level is dense).
    force_strategy:
        Override the density filter with one strategy for every level
        (used by the Fig. 7/11/12 strategy studies).
    pad_layers / avg_layers:
        GSP slab thickness / neighbour averaging depth (Alg. 3's x and y).
    brick_size:
        Edge (cells) of the independently-compressed bricks a GSP/ZF
        padded grid is chunked into (strategy format 2: one container
        part + one decode unit per brick, so ROI reads decode only the
        bricks they touch).  ``None`` writes the legacy single-stream
        layout (format 1, one ``L<idx>/grid`` part) — what every blob
        stored before the brick format existed; those blobs stay
        readable either way.
    store_masks:
        Include packed validity masks in the output parts.
    shared_tables:
        Encode all of a level's streams under one shared Huffman table
        (histogrammed level-wide, stored once as an ``L<idx>/table`` part)
        instead of one table per stream.  Cuts encode time and table bytes
        on many-stream levels (brick-chunked especially); decode resolves
        each stream's ``SEC_TABLE_REF`` through the level part.  Off by
        default — per-stream blobs are byte-identical to earlier writers.
    sz:
        Configuration of the underlying SZ codec.
    """

    unit_block: int | None = None
    t1: float = DEFAULT_T1
    t2: float = DEFAULT_T2
    adaptive_baseline: bool = False
    force_strategy: Strategy | None = None
    pad_layers: int | None = None
    avg_layers: int = 2
    brick_size: int | None = DEFAULT_BRICK_SIZE
    store_masks: bool = True
    shared_tables: bool = False
    sz: SZConfig = field(default_factory=SZConfig)

    def __post_init__(self):
        if self.unit_block is not None:
            check_positive_int(self.unit_block, name="unit_block")
        if self.brick_size is not None:
            check_positive_int(self.brick_size, name="brick_size")
        if not 0.0 < self.t1 <= self.t2 <= 1.0:
            raise ValueError(f"need 0 < t1 <= t2 <= 1, got t1={self.t1}, t2={self.t2}")


class TACCompressor(PlanExecutorMixin):
    """The TAC hybrid compressor (public entry point of this package)."""

    method_name = "tac"

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
        level_workers: int = 1,
    ) -> CompressedDataset:
        """Compress a dataset level by level under ``error_bound``:
        :meth:`compress_iter` collected into one eager dataset.

        ``mode="rel"`` resolves the bound against the dataset's global value
        range (shared with all baselines); ``per_level_scale`` multiplies
        the resolved absolute bound per level (finest first).
        """
        timings = timings if timings is not None else TimingRecord()
        out = self.compress_iter(
            dataset, error_bound, mode, per_level_scale,
            timings=timings, level_workers=level_workers,
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
        level_workers: int = 1,
    ) -> StreamingCompression:
        """Compress level by level, yielding each level's parts as produced.

        Returns a :class:`repro.core.container.StreamingCompression`: the
        entry header fields are available immediately, iterating yields one
        :class:`LevelChunk` per level (finest first), and ``.meta`` becomes
        available once the stream is exhausted.  A container writer
        consuming the chunks therefore holds at most one level's parts in
        memory and its output is byte-identical to
        ``compress(...).to_bytes()``.

        ``level_workers > 1`` compresses the levels concurrently in a
        thread pool (the paper's level-wise decomposition makes them
        independent, and the hot loops release the GIL inside NumPy/zlib).
        Each level produces its parts and metadata in isolation and the
        chunks are yielded in level order, so the output is bit-identical
        to the serial path — at the cost of the one-level memory bound.

        The §4.4 baseline delegation has no level-wise decomposition; that
        regime compresses eagerly and yields the whole entry as one chunk.
        """
        timings = timings if timings is not None else TimingRecord()
        level_workers = check_positive_int(level_workers, name="level_workers")
        cfg = self.config
        if cfg.adaptive_baseline and dataset.finest_density() >= cfg.t2:
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
        base_meta = {
            "name": dataset.name,
            "field": dataset.field,
            "ratio": dataset.ratio,
            "box_size": dataset.box_size,
            "shapes": [list(lvl.shape) for lvl in dataset.levels],
        }

        def level_task(lvl: AMRLevel) -> tuple[dict, dict, TimingRecord]:
            return self._level_task(lvl, base_eb * scales[lvl.level])

        def chunks(outputs):
            for lvl, (meta, parts, record) in zip(dataset.levels, outputs):
                for span, seconds in record.spans.items():
                    timings.add(span, seconds)
                yield LevelChunk(level=lvl.level, meta=meta, parts=parts)

        def produce():
            if level_workers > 1 and dataset.n_levels > 1:
                with ThreadPoolExecutor(max_workers=level_workers) as pool:
                    yield from chunks(pool.map(level_task, dataset.levels))
            else:
                yield from chunks(map(level_task, dataset.levels))

        return StreamingCompression(
            method=self.method_name,
            dataset_name=dataset.name,
            original_bytes=dataset.original_bytes(),
            n_values=dataset.total_points(),
            chunks=produce(),
            base_meta=base_meta,
        )

    def _level_task(self, lvl: AMRLevel, eb_abs: float) -> tuple[dict, dict, TimingRecord]:
        """One level's complete output: ``(meta, parts, timings)``.

        The single source of per-level part production.
        """
        parts: dict[str, bytes] = {}
        record = TimingRecord()
        meta = self._compress_level(lvl, eb_abs, parts, record)
        if self.config.store_masks:
            parts[f"{MASK_PREFIX}L{lvl.level}"] = pack_mask(lvl.mask)
        return meta, parts, record

    def _compress_level(
        self, lvl: AMRLevel, eb_abs: float, parts: dict[str, bytes], timings: TimingRecord
    ) -> dict:
        cfg = self.config
        density = lvl.density()
        meta: dict = {
            "level": lvl.level,
            "density": density,
            "eb_abs": eb_abs,
            "n_points": lvl.n_points(),
        }
        if lvl.n_points() == 0:
            meta["strategy"] = "empty"
            return meta
        strategy = cfg.force_strategy or select_strategy(density, cfg.t1, cfg.t2)
        block = cfg.unit_block or default_unit_block(lvl.n)
        meta["strategy"] = strategy.value
        meta["unit_block"] = block
        data = lvl.masked_data()

        if strategy in (Strategy.GSP, Strategy.ZF):
            with timed(timings, "preprocess"):
                if strategy is Strategy.GSP:
                    result = gsp_pad(
                        data, lvl.mask, block,
                        pad_layers=cfg.pad_layers, avg_layers=cfg.avg_layers,
                    )
                else:
                    result = zero_fill(data, lvl.mask, block)
            meta["padded_shape"] = list(result.padded.shape)
            orig_shape = data.shape
            del data  # the padded grid supersedes the masked copy
            if cfg.brick_size is None:
                # Legacy single-stream layout (strategy format 1).
                self._encode_streams(
                    [(f"L{lvl.level}/grid", result.padded)], eb_abs, lvl.level,
                    parts, timings, meta,
                )
                return meta
            # Strategy format 2: chunk the padded grid into independently
            # compressed bricks — one part per brick plus the brick table,
            # so an ROI read decodes only the bricks it touches.
            table = BrickTable(
                padded_shape=result.padded.shape,
                orig_shape=orig_shape,
                brick_size=cfg.brick_size,
            )
            parts[f"L{lvl.level}/bricks"] = serialize_brick_table(table)
            self._encode_streams(
                [
                    (f"L{lvl.level}/b{brick_idx}", result.padded[region_slices(box)])
                    for brick_idx, box in enumerate(table.boxes())
                ],
                eb_abs, lvl.level, parts, timings, meta,
            )
            meta["strategy_format"] = 2
            meta["bricks"] = {
                "size": cfg.brick_size,
                "grid": list(table.grid()),
                "n": table.n_bricks(),
            }
            return meta

        extract = {
            Strategy.OPST: opst_extract,
            Strategy.AKDTREE: akdtree_extract,
            Strategy.NAST: nast_extract,
        }[strategy]
        with timed(timings, "preprocess"):
            extraction = extract(data, lvl.mask, block)
        del data  # the extracted groups supersede the masked copy
        parts[f"L{lvl.level}/layout"] = serialize_layout(extraction)
        self._encode_streams(
            [
                (f"L{lvl.level}/g{group_idx}", extraction.groups[shape])
                for group_idx, shape in enumerate(layout_shapes(extraction))
            ],
            eb_abs, lvl.level, parts, timings, meta,
        )
        meta["n_blocks"] = extraction.n_blocks()
        meta["n_groups"] = len(extraction.groups)
        return meta

    def _encode_streams(
        self,
        items: list[tuple[str, np.ndarray]],
        eb_abs: float,
        idx: int,
        parts: dict[str, bytes],
        timings: TimingRecord,
        meta: dict,
    ) -> None:
        """Entropy-code one level's streams into ``parts``.

        Per-stream mode (default) compresses each array independently —
        byte-identical to what earlier writers produced.  Shared-table mode
        histograms every stream first, builds one level-wide code, stores
        it once as ``L<idx>/table``, and encodes each stream against it
        with a ``SEC_TABLE_REF``.  Streams that short-circuit (empty,
        lossless fallback) contribute no counts; if *no* stream needs
        entropy coding the table part is omitted entirely.
        """
        cfg = self.config
        names = [name for name, _arr in items]
        arrays = [arr for _name, arr in items]
        with timed(timings, "compress"):
            if not cfg.shared_tables:
                parts.update(zip(names, self.codec.compress_many(arrays, eb_abs, mode="abs")))
                return
            prepared = self.codec.prepare_many(arrays, eb_abs, mode="abs")
            total = None
            for prep in prepared:
                if prep.counts is not None:
                    total = prep.counts.copy() if total is None else total + prep.counts
            shared = None
            if total is not None:
                shared = SharedHuffmanTable.from_counts(total, max_len=cfg.sz.max_code_len)
                parts[f"L{idx}/table"] = shared.serialize(
                    zlib_level=max(cfg.sz.zlib_level, 1)
                )
                meta["shared_table"] = {
                    "part": f"L{idx}/table",
                    "id": shared.table_id,
                    "alphabet": shared.alphabet,
                }
            parts.update(zip(names, self.codec.encode_prepared_many(prepared, shared=shared)))

    # ------------------------------------------------------------------
    # decompression (plan/execute split)
    # ------------------------------------------------------------------
    def _table_resolver(self, comp, level_meta: dict) -> SharedTableResolver | None:
        """The level's shared-table resolver, if it was written in that mode.

        One resolver per plan/read call: it memoizes the parsed table under
        a lock, so however many units (or decode workers) a level has, the
        ``L<idx>/table`` part is fetched and parsed exactly once.
        """
        info = level_meta.get("shared_table")
        if not info:
            return None
        return SharedTableResolver(comp.parts, info["part"])

    def _delegate(self, comp: CompressedDataset):
        """The §4.4 fallback's reader, if this blob was delegated to it."""
        if comp.meta.get("delegated") != "baseline_3d":
            return None
        from repro.baselines.uniform3d import Uniform3DCompressor

        return Uniform3DCompressor(sz=self.config.sz, store_masks=self.config.store_masks)

    def build_decode_plan(self, comp: CompressedDataset, levels=None) -> DecompressionPlan:
        """Independent decode units for (a level subset of) a TAC blob.

        Planning reads only the blob's metadata: one unit per GSP/ZF grid,
        one per block-strategy group payload, one per layout record.
        """
        delegate = self._delegate(comp)
        if delegate is not None:
            return delegate.build_decode_plan(comp, levels=levels)
        wanted = None if levels is None else set(levels)
        units: list[DecodeUnit] = []
        for level_meta in comp.meta["levels"]:
            idx = level_meta["level"]
            if wanted is not None and idx not in wanted:
                continue
            strategy = level_meta["strategy"]
            if strategy == "empty":
                continue
            resolver = self._table_resolver(comp, level_meta)
            if strategy in (Strategy.GSP.value, Strategy.ZF.value):
                bricks = level_meta.get("bricks")
                if not bricks:
                    # Legacy format 1: the level is one monolithic stream.
                    units.append(self._stream_unit(comp, idx, f"L{idx}/grid", resolver))
                    continue
                # Format 2: one independent unit per brick, tagged with
                # the level-space box it covers.
                units.extend(
                    unit for _bbox, unit in self._brick_units(comp, idx, level_meta)
                )
                continue
            layout_name = f"L{idx}/layout"
            units.append(
                DecodeUnit(
                    key=layout_name,
                    level=idx,
                    part_names=(layout_name,),
                    decode=lambda name=layout_name: deserialize_layout(comp.parts[name]),
                )
            )
            units.extend(
                self._stream_unit(comp, idx, f"L{idx}/g{group_idx}", resolver)
                for group_idx in range(level_meta["n_groups"])
            )
        return DecompressionPlan(units)

    def _stream_unit(
        self,
        comp,
        idx: int,
        name: str,
        resolver: SharedTableResolver | None,
        box=None,
        shape: tuple[int, ...] | None = None,
    ) -> DecodeUnit:
        """The unit decoding part ``name``, one SZ stream of level ``idx``
        (of decoded ``shape``, where the metadata tells it).

        Shared-table levels append the ``L<idx>/table`` part to every
        stream's ``part_names`` (prefetch/ROI accounting dedups the repeat
        name); the units of one plan share one memoized resolver, so the
        table part is fetched once however many streams reference it.
        """
        extra = (resolver.part_name,) if resolver is not None else ()
        return DecodeUnit(
            key=name,
            level=idx,
            part_names=(name,) + extra,
            decode=None,
            box=box,
            sz_blob=lambda: comp.parts[name],
            sz_tables=resolver,
            sz_shape=shape,
        )

    def _brick_units(
        self, comp, idx: int, level_meta: dict, brick_indices=None
    ) -> list[tuple[tuple[tuple[int, int], ...], DecodeUnit]]:
        """``(padded-grid box, DecodeUnit)`` per brick of a format-2 level.

        The single source of brick part naming, decode closures, and unit
        geometry — both the level plan and the ROI fast path consume it,
        so the two read paths cannot drift apart.  Each unit's ``box`` is
        the brick's padded-grid box *clipped to the level extents*: a
        brick wholly inside the block padding covers nothing visible and
        is prunable by any ROI.  ``brick_indices`` restricts the result to
        those flat brick indices (ascending), e.g. the bricks an ROI
        touches per :func:`repro.core.gsp.bricks_in_box`.
        """
        shape = tuple(comp.meta["shapes"][idx])
        boxes = brick_boxes(tuple(level_meta["padded_shape"]), level_meta["bricks"]["size"])
        resolver = self._table_resolver(comp, level_meta)
        if brick_indices is None:
            brick_indices = range(len(boxes))
        out = []
        for brick_idx in brick_indices:
            bbox = boxes[brick_idx]
            clipped = tuple(
                (min(lo, dim), min(hi, dim)) for (lo, hi), dim in zip(bbox, shape)
            )
            unit = self._stream_unit(
                comp,
                idx,
                f"L{idx}/b{brick_idx}",
                resolver,
                clipped,
                tuple(hi - lo for lo, hi in bbox),
            )
            out.append((bbox, unit))
        return out

    def decompress(
        self,
        comp: CompressedDataset,
        structure: AMRDataset | None = None,
        timings: TimingRecord | None = None,
        decode_workers: int = 1,
    ) -> AMRDataset:
        """Rebuild the AMR dataset from a TAC blob.

        ``decode_workers > 1`` decodes the plan's units (levels, and the
        per-group payloads inside block-strategy levels) concurrently;
        assembly stays in level order, so the output is bit-identical to
        the serial path.
        """
        delegate = self._delegate(comp)
        if delegate is not None:
            return delegate.decompress(
                comp, structure=structure, timings=timings, decode_workers=decode_workers
            )
        meta = comp.meta
        plan = self.build_decode_plan(comp)
        with timed(timings, "decompress"):
            results = execute_plan(plan, decode_workers)
        with timed(timings, "postprocess"):
            levels = [
                self._assemble_level(comp, level_meta["level"], results, structure)
                for level_meta in meta["levels"]
            ]
        return AMRDataset(
            levels=levels,
            name=meta["name"],
            field=meta["field"],
            ratio=meta["ratio"],
            box_size=meta["box_size"],
        )

    def decompress_levels(
        self, comp, levels, structure=None, decode_workers: int = 1
    ) -> list[AMRLevel]:
        delegate = self._delegate(comp)
        if delegate is not None:
            return delegate.decompress_levels(comp, levels, structure, decode_workers)
        return super().decompress_levels(comp, levels, structure, decode_workers)

    def _level_meta(self, comp: CompressedDataset, idx: int) -> dict:
        for level_meta in comp.meta["levels"]:
            if level_meta["level"] == idx:
                return level_meta
        raise ValueError(f"blob holds no metadata for level {idx}")

    def _assemble_level(self, comp, idx: int, results: dict, structure) -> AMRLevel:
        """Unit results → one reconstructed level (shared by all read paths)."""
        level_meta = self._level_meta(comp, idx)
        shape = tuple(comp.meta["shapes"][idx])
        mask = self._level_mask(comp, structure, idx, shape)
        strategy = level_meta["strategy"]
        if strategy == "empty":
            data = np.zeros(shape, dtype=np.float32)
        elif strategy in (Strategy.GSP.value, Strategy.ZF.value):
            bricks = level_meta.get("bricks")
            if bricks:
                padded = self._reassemble_bricks(level_meta, idx, results)
            else:
                padded = results[f"L{idx}/grid"]
            cropped = padded[: shape[0], : shape[1], : shape[2]]
            data = np.where(mask, cropped, cropped.dtype.type(0))
        else:
            extraction = results[f"L{idx}/layout"]
            for group_idx, group_shape in enumerate(layout_shapes(extraction)):
                extraction.groups[group_shape] = results[f"L{idx}/g{group_idx}"]
            restored = extraction.crop(extraction.reassemble())
            data = np.where(mask, restored, restored.dtype.type(0))
        return AMRLevel(data=data, mask=mask, level=idx)

    @staticmethod
    def _reassemble_bricks(level_meta: dict, idx: int, results: dict) -> np.ndarray:
        """Stitch decoded bricks back into the (zero-filled) padded grid.

        Tolerates missing brick results — a plan pruned by ROI intersection
        simply leaves the untouched bricks at zero, which the region read
        then never looks at.  A brick *part* missing from the blob still
        fails loudly inside its decode unit.
        """
        bricks = level_meta["bricks"]
        padded_shape = tuple(level_meta["padded_shape"])
        padded = None
        for brick_idx, bbox in enumerate(brick_boxes(padded_shape, bricks["size"])):
            decoded = results.get(f"L{idx}/b{brick_idx}")
            if decoded is None:
                continue
            if padded is None:
                padded = np.zeros(padded_shape, dtype=decoded.dtype)
            padded[region_slices(bbox)] = decoded
        if padded is None:  # every brick pruned (ROI missed the level)
            padded = np.zeros(padded_shape, dtype=np.float32)
        return padded

    def decompress_region(
        self, comp, level: int, region, structure=None, decode_workers: int = 1
    ) -> np.ndarray:
        """One level's ROI, decoding only the payloads that cover it.

        Identical to ``decompress(comp).levels[level].data[region]``.  For
        block strategies (OpST/AKDTree/NaST) only the group streams with a
        block intersecting the ROI are decoded — the layout record alone
        (≪ the payloads) decides which.  Brick-chunked GSP/ZF levels
        (strategy format 2) decode only the bricks the ROI touches, so
        the decoded cell count is the brick-aligned ROI volume; legacy
        single-stream GSP/ZF levels (format 1) decode their one grid and
        slice it.
        """
        delegate = self._delegate(comp)
        if delegate is not None:
            return delegate.decompress_region(comp, level, region, structure, decode_workers)
        level_meta = self._level_meta(comp, level)
        shape = tuple(comp.meta["shapes"][level])
        box = normalize_region(region, shape)
        slices = region_slices(box)
        strategy = level_meta["strategy"]
        if strategy == "empty":
            return np.zeros(tuple(hi - lo for lo, hi in box), dtype=np.float32)
        mask = self._level_mask(comp, structure, level, shape)
        region_mask = mask[slices]
        resolver = self._table_resolver(comp, level_meta)
        if strategy in (Strategy.GSP.value, Strategy.ZF.value):
            if level_meta.get("bricks"):
                return self._decompress_region_bricks(
                    comp, level, level_meta, box, region_mask, decode_workers
                )
            padded = self.codec.decompress(
                comp.parts[f"L{level}/grid"], shared_tables=resolver
            )
            sliced = padded[: shape[0], : shape[1], : shape[2]][slices]
            return np.where(region_mask, sliced, sliced.dtype.type(0))
        extraction = deserialize_layout(comp.parts[f"L{level}/layout"])
        shapes = layout_shapes(extraction)
        selected = {
            group_shape: blocks_in_region(extraction, group_shape, box)
            for group_shape in shapes
        }
        needed = [
            (group_idx, group_shape)
            for group_idx, group_shape in enumerate(shapes)
            if selected[group_shape].size
        ]
        plan = DecompressionPlan(
            [
                self._stream_unit(comp, level, f"L{level}/g{group_idx}", resolver)
                for group_idx, _shape in needed
            ]
        )
        results = execute_plan(plan, decode_workers)
        if needed:
            dtype = results[f"L{level}/g{needed[0][0]}"].dtype
        else:
            # ROI intersects no block: the result is all zeros, but its
            # dtype must still match a full decompress — peek it from the
            # first group's stream header (no payload decode).
            dtype = peek_header(comp.parts[f"L{level}/g0"]).dtype
        out = np.zeros(extraction.padded_shape, dtype=dtype)
        for group_idx, group_shape in needed:
            stacked = results[f"L{level}/g{group_idx}"]
            extraction.scatter_group(group_shape, stacked, out, indices=selected[group_shape])
        sliced = extraction.crop(out)[slices]
        return np.where(region_mask, sliced, sliced.dtype.type(0))

    def _decompress_region_bricks(
        self, comp, level: int, level_meta: dict, box, region_mask: np.ndarray,
        decode_workers: int,
    ) -> np.ndarray:
        """ROI read over a brick-chunked GSP/ZF level (strategy format 2).

        Decodes exactly the bricks whose (clipped) boxes intersect the
        ROI — the same units, keys, and geometry the level plan uses
        (:meth:`_brick_units`); the serialized ``L<idx>/bricks`` table
        part is wire self-description, not a read dependency — and
        assembles them into the ROI's brick-aligned bounding box, so the
        decoded cell count is that bounding box's volume, never the
        level's.
        """
        size = int(level_meta["bricks"]["size"])
        padded_shape = tuple(level_meta["padded_shape"])
        # The ROI lies inside the level extents, so the bricks its box
        # touches are exactly those whose clipped boxes intersect it.
        touched = bricks_in_box(padded_shape, size, box).tolist()
        hit = self._brick_units(comp, level, level_meta, touched)
        results = execute_plan(
            DecompressionPlan([unit for _bbox, unit in hit]), decode_workers
        )
        # Brick-aligned bounding box of the ROI, clipped to the padded grid.
        lo = tuple((b_lo // size) * size for b_lo, _hi in box)
        hi = tuple(
            min(-(-b_hi // size) * size, dim)
            for (_lo, b_hi), dim in zip(box, padded_shape)
        )
        first = results[hit[0][1].key]
        out = np.zeros(tuple(h - l for l, h in zip(lo, hi)), dtype=first.dtype)
        for bbox, unit in hit:
            target = tuple(
                slice(b_lo - off, b_hi - off) for (b_lo, b_hi), off in zip(bbox, lo)
            )
            out[target] = results[unit.key]
        sliced = out[tuple(slice(b_lo - off, b_hi - off) for (b_lo, b_hi), off in zip(box, lo))]
        return np.where(region_mask, sliced, sliced.dtype.type(0))

    @staticmethod
    def _level_mask(comp: CompressedDataset, structure, idx: int, shape) -> np.ndarray:
        key = f"{MASK_PREFIX}L{idx}"
        if key in comp.parts:
            return unpack_mask(comp.parts[key], shape)
        if structure is None:
            raise ValueError(
                "masks were not stored in the blob; pass the original dataset "
                "as `structure` to supply the AMR layout"
            )
        return structure.levels[idx].mask

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def preprocess_only(self, lvl: AMRLevel, strategy: Strategy, block: int | None = None):
        """Run just a strategy's pre-process on one level (Fig. 13 timing).

        Returns ``(result, seconds)`` where ``result`` is the strategy's
        extraction/padding artifact.
        """
        block = block or self.config.unit_block or default_unit_block(lvl.n)
        data = lvl.masked_data()
        record = TimingRecord()
        with timed(record, "preprocess"):
            if strategy is Strategy.GSP:
                result: object = gsp_pad(
                    data, lvl.mask, block,
                    pad_layers=self.config.pad_layers, avg_layers=self.config.avg_layers,
                )
            elif strategy is Strategy.ZF:
                result = zero_fill(data, lvl.mask, block)
            else:
                extract = {
                    Strategy.OPST: opst_extract,
                    Strategy.AKDTREE: akdtree_extract,
                    Strategy.NAST: nast_extract,
                }[strategy]
                result = extract(data, lvl.mask, block)
        return result, record.get("preprocess")


def _resolve_scales(per_level_scale, n_levels: int) -> list[float]:
    if per_level_scale is None:
        return [1.0] * n_levels
    scales = [float(s) for s in per_level_scale]
    if len(scales) != n_levels:
        raise ValueError(f"per_level_scale needs {n_levels} entries, got {len(scales)}")
    if any(s <= 0 for s in scales):
        raise ValueError("per_level_scale entries must be positive")
    return scales
