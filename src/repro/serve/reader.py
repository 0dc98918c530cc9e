"""`ArchiveReader`: a concurrent ROI-serving front-end over lazy archives.

The read-side production layer the ROADMAP asked for: one object that
owns the open archive, the retrying shard opener, the prefetch pipeline,
and the decoded-brick LRU, and serves any number of concurrent
``read_region`` / ``read_level`` requests while amortizing everything
amortizable:

* the archive head is parsed once and each entry's lazy view and codec
  are resolved once;
* every request — a box of a level, or the level itself, which is the box
  that covers it — is the codec's own plan for that box, so only the units
  the box needs are looked up, fetched, decoded and stitched;
* a request reads the timestep stored under its key — the key's
  temporal chain, base first (:func:`~repro.engine.archive.temporal_chain`;
  an entry without deltas is its chain of one): a delta chain is planned
  once, summed per decoded unit and assembled once;
* every request consults the decoded-brick cache *before any part
  fetch* — an overlapping ROI pays I/O and SZ decode only for the bricks
  (and the mask) no earlier request touched;
* misses are fetched through coalesced ranged reads
  (:class:`~repro.serve.prefetch.PrefetchPipeline`) — on the request's
  thread for local files, pipelined ahead of decode on an I/O pool for
  any other source — and the shard opener retries transient failures
  with backoff
  (:func:`~repro.serve.opener.retrying_opener`).

Every request returns its data *and* a :class:`RequestStats` — bytes
fetched vs bytes served, cache hits/misses, latency — and
:meth:`ArchiveReader.stats` aggregates the same across the reader's
lifetime.  Blobs must carry their masks (the default) or name the entry
that does (a multi-field ingest step; that entry's mask units are fetched
and cached under *its* key, once for every field): a serving layer has no
original dataset to pass as ``structure``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.container import MASK_PREFIX, PartIntegrityError
from repro.core.plan import check_level_indices, level_box, normalize_region, region_slices
from repro.engine import LazyBatchArchive, codec_for_method, default_shard_opener
from repro.engine.archive import STRUCTURE_META_KEY, temporal_chain, with_structure
from repro.serve.cache import DecodedBrickCache
from repro.serve.opener import FetchStats, RetryPolicy, retrying_opener
from repro.serve.prefetch import Deadline, DeadlineExceeded, PipelineStats, PrefetchPipeline
from repro.utils.validation import check_positive_int


def _error_kind(exc: BaseException) -> str:
    """Classify a degraded-unit failure for the structured report."""
    if isinstance(exc, PartIntegrityError):
        return "integrity"
    if isinstance(exc, DeadlineExceeded):
        return "timeout"
    return "io"


def _entry_units(state, level: int, box, keys: list[str], stage) -> list:
    """The units named ``keys`` of entry ``state``'s plan for ``box`` of
    ``level``: its first stage, or with ``stage`` (the tip's first-stage
    results) its second, planned from the tip's layout — a chain shares
    one structure."""
    plan = state.codec.build_decode_plan(state.comp, levels=[level], box=box)
    if stage is None:
        units = plan.units
    else:
        units = plan.refine(stage) if plan.refine is not None else []
    by_key = {unit.key: unit for unit in units}
    missing = [key for key in keys if key not in by_key]
    if missing:
        raise ValueError(
            f"chain entry holds no units {missing} of level {level}: the entries "
            "of a chain must share one structure"
        )
    return [by_key[key] for key in keys]


@dataclass
class RequestStats:
    """Accounting for one served request: what every entry of the key's
    temporal chain fetched and decoded, summed, plus the cache hits of the
    chain's summed units."""

    key: str
    #: The entries the request summed, base first (``(key,)`` without deltas).
    chain: tuple
    level: int
    box: tuple | None
    seconds: float
    bytes_fetched: int
    bytes_served: int
    cache_hits: int
    cache_misses: int
    n_parts_fetched: int
    n_fetches: int
    overlapped: bool
    #: Whether this request ran in degraded mode (fill-on-failure).
    degraded: bool = False
    #: One row per unit a chain entry lost in a degraded request: the
    #: entry, the unit, the level-space box that holds fill values instead
    #: of data, why, and the failure class (``integrity`` / ``timeout`` /
    #: ``io``).  Empty on clean requests.
    errors: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "chain": list(self.chain),
            "level": self.level,
            "box": [list(b) for b in self.box] if self.box else None,
            "seconds": round(self.seconds, 6),
            "bytes_fetched": self.bytes_fetched,
            "bytes_served": self.bytes_served,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "n_parts_fetched": self.n_parts_fetched,
            "n_fetches": self.n_fetches,
            "overlapped": self.overlapped,
            "degraded": self.degraded,
            "errors": self.errors,
        }


@dataclass
class _EntryState:
    """Per-entry artifacts resolved once and shared by all requests."""

    comp: object
    codec: object
    #: The entry's own part store (``comp.parts`` may add a holder's masks).
    parts: object


class ArchiveReader:
    """Serve concurrent partial reads from a batch archive.

    Every read of a key returns the timestep stored under it: a
    temporal-delta entry's chain is summed onto its keyframe
    (:mod:`repro.ingest.delta`), never served as the residual it stores.

    Parameters
    ----------
    source:
        Path / bytes / seekable file of a batch archive (any version;
        sharded v3 is the intended production shape).
    shard_opener:
        ``name → byte source`` resolver for v3 payload shards (defaults
        to files next to the head).  It is wrapped with retry/backoff and
        fetch accounting (:func:`~repro.serve.opener.retrying_opener`);
        pass ``retry=RetryPolicy(attempts=1)`` to disable retries.  Local
        files and in-memory blobs are read on the request's own thread;
        any other source's fetch windows go to the pipeline's I/O pool
        (:data:`~repro.serve.prefetch.IO_WORKERS` threads), so a deadline
        can abandon a stalled fetch.
    cache_bytes:
        Decoded-brick LRU budget (0 disables caching).
    request_workers:
        Threads serving :meth:`submit`\\ ed requests concurrently.  Every
        request decodes on its own thread (the caller's, or one of these).
    default_deadline:
        Wall-time budget (seconds) applied to every request that does
        not pass its own ``deadline``; ``None`` means unbounded, and a
        non-positive value is rejected.  An
        expired deadline raises
        :class:`~repro.serve.prefetch.DeadlineExceeded` — or, in
        degraded mode, fills the late bricks.
    degraded:
        Default failure mode for requests: ``True`` turns a corrupt,
        timed-out, or unreachable *brick* into ``fill_value`` cells plus
        a structured :attr:`RequestStats.errors` report instead of
        failing the whole request.  Load-bearing units (layouts, masks)
        still fail loudly — there is nothing partial to serve without
        them.
    fill_value:
        What degraded requests write into failed bricks' boxes.
    """

    def __init__(
        self,
        source,
        *,
        shard_opener=None,
        verify_shards: bool = False,
        retry: RetryPolicy | None = None,
        cache_bytes: int = 256 * 1024 * 1024,
        request_workers: int = 4,
        default_deadline: float | None = None,
        degraded: bool = False,
        fill_value: float = 0.0,
    ):
        if shard_opener is None and isinstance(source, (str, Path)):
            shard_opener = default_shard_opener(Path(source).parent)
        self.fetch_stats = FetchStats()
        self.default_deadline = default_deadline
        self.degraded = bool(degraded)
        self.fill_value = fill_value
        opener = None
        if shard_opener is not None:
            opener = retrying_opener(
                shard_opener, policy=retry or RetryPolicy(), stats=self.fetch_stats
            )
        self._archive = LazyBatchArchive.open(
            source, shard_opener=opener, verify_shards=verify_shards
        )
        try:
            if default_deadline is not None and default_deadline <= 0:
                raise ValueError(f"default_deadline must be positive, got {default_deadline}")
            check_positive_int(request_workers, name="request_workers")
            self.cache = DecodedBrickCache(cache_bytes) if cache_bytes else None
            self._pipeline = PrefetchPipeline()
            self._requests = ThreadPoolExecutor(
                max_workers=request_workers, thread_name_prefix="serve-request"
            )
        except BaseException:
            # Bad cache/worker parameters surface as exceptions *after*
            # the archive (and its shard handles) opened; the caller
            # never sees the reader, so close the archive here.
            self._archive.close()
            raise
        self._entries: dict[str, _EntryState] = {}
        # Re-entrant: resolving an entry's structure holder resolves an entry.
        self._entries_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self._closed = False
        self.n_requests = 0
        self.bytes_fetched = 0
        self.bytes_served = 0
        self.request_seconds = 0.0

    # -- archive surface ---------------------------------------------------
    def keys(self) -> list[str]:
        return self._archive.keys()

    def manifest(self) -> list[dict]:
        return self._archive.manifest()

    def entry_shapes(self, key: str) -> list[tuple[int, ...]]:
        """Per-level grid shapes of one entry (reads metadata only)."""
        state = self._entry(key)
        return [tuple(shape) for shape in state.comp.meta["shapes"]]

    def entry_meta(self, key: str) -> dict:
        """One entry's metadata record (reads metadata only): an
        ingest-written entry's ``meta["temporal"]`` names its base and
        keyframe keys (see :mod:`repro.ingest.delta`), which every read of
        the key resolves.
        """
        return self._entry(key).comp.meta

    # -- internals ---------------------------------------------------------
    def _entry(self, key: str) -> _EntryState:
        with self._entries_lock:
            if self._closed:
                raise RuntimeError("ArchiveReader is closed")
            state = self._entries.get(key)
            if state is None:
                raw = self._archive.entry(key)
                comp = with_structure(raw, key, lambda holder: self._entry(holder).comp)
                codec = codec_for_method(comp.method).codec_for(comp)
                state = _EntryState(comp=comp, codec=codec, parts=raw.parts)
                self._entries[key] = state
            return state

    def _record(self, stats: RequestStats) -> None:
        with self._stats_lock:
            self.n_requests += 1
            self.bytes_fetched += stats.bytes_fetched
            self.bytes_served += stats.bytes_served
            self.request_seconds += stats.seconds

    def _execute_cached(
        self,
        chain: tuple[str, ...],
        state: _EntryState,
        level: int,
        plan_units,
        pstats: PipelineStats,
        deadline: Deadline | None = None,
        allow_partial: bool = False,
    ) -> dict:
        """Results of ``plan_units`` of the entry ``state`` — cached under
        ``(chain, level, unit key)``, its chain of one: cache hits first, the
        misses through the pipeline (accounted in ``pstats``) and into the
        cache.  Raises the first failure degradation cannot paper over: only
        units with a level-space ``box`` (bricks) can be replaced by fill
        values; layouts, masks, grid streams and any other box-less unit are
        load-bearing for the whole level.  Mask units an entry takes from its
        structure holder run as the holder's: its parts, its cache key."""
        holder = state.comp.meta.get(STRUCTURE_META_KEY)
        masks = [u for u in plan_units if u.key.startswith(MASK_PREFIX)] if holder else []
        if masks:
            own = [u for u in plan_units if not u.key.startswith(MASK_PREFIX)]
            modes = (pstats, deadline, allow_partial)
            results = self._execute_cached((holder,), self._entry(holder), level, masks, *modes)
            results.update(self._execute_cached(chain, state, level, own, *modes))
            return results
        preloaded = {}
        if self.cache is not None:
            for unit in plan_units:
                hit = self.cache.get((chain, level, unit.key))
                if hit is not None:
                    preloaded[unit.key] = hit
        results, _ = self._pipeline.execute(
            state.parts,
            plan_units,
            preloaded,
            deadline=deadline,
            allow_partial=allow_partial,
            stats=pstats,
        )
        for unit in plan_units:
            if unit.box is None and unit.key in pstats.unit_errors:
                raise pstats.unit_errors[unit.key]
        if self.cache is not None:
            for unit in plan_units:
                # Failed units of a degraded request are absent from the
                # results — they must never enter the cache (their boxes
                # hold fill values, not data).
                if unit.key not in preloaded and unit.key in results:
                    decoded = results[unit.key]
                    # Only arrays are shared across requests (decoded
                    # bricks, groups, the mask's packed bits), and an
                    # assembly may hand one out as is: freeze them.
                    if isinstance(decoded, np.ndarray):
                        decoded.setflags(write=False)
                        self.cache.put((chain, level, unit.key), decoded)
        return results

    def _chain_results(self, chain, states, level, box, units, stage, pstats, *modes) -> dict:
        """Results of the tip's ``units`` for the sum of the entries
        ``chain``: the tip's structural units (masks, layouts, the dtype
        probe) as its own; each value unit — one SZ stream's array (a brick,
        a group, a 1D or zMesh stream) — under the chain's cache key, and on
        a miss every entry's own unit (cached under its chain of one, so
        other steps of the chain reuse it) summed base first in the stored
        dtype, as the writer's closed loop summed them.  A unit any entry
        lost is left out, so it is lost for the chain, and never cached.

        ``stage`` is ``None`` for the plan's first stage, else the results
        the second stage (``refine``) is planned from: the tip's layout.
        """
        if len(chain) == 1:
            return self._execute_cached(chain, states[0], level, units, pstats[0], *modes)
        structural = [u for u in units if u.sz_blob is None]
        results = self._execute_cached(
            chain[-1:], states[-1], level, structural, pstats[-1], *modes
        )
        misses = []
        for unit in units:
            if unit.sz_blob is None:
                continue
            hit = None if self.cache is None else self.cache.get((chain, level, unit.key))
            if hit is None:
                misses.append(unit)
            else:
                results[unit.key] = hit
                pstats[-1].n_preloaded += 1
        if not misses:
            return results
        keys = [unit.key for unit in misses]
        last = len(chain) - 1
        decoded = [
            self._execute_cached(
                (key,),
                state,
                level,
                misses if i == last else _entry_units(state, level, box, keys, stage),
                stats,
                *modes,
            )
            for i, (key, state, stats) in enumerate(zip(chain, states, pstats))
        ]
        for ukey in keys:
            arrays = [own.get(ukey) for own in decoded]
            if any(array is None for array in arrays):
                continue
            total = arrays[0]
            for array in arrays[1:]:
                if array.shape != total.shape:
                    raise ValueError(
                        f"chain {chain!r} disagrees on unit {ukey!r} of level {level}: "
                        f"shapes {total.shape} and {array.shape}"
                    )
                total = total + array
            if self.cache is not None:
                total.setflags(write=False)
                self.cache.put((chain, level, ukey), total)
            results[ukey] = total
        return results

    def _assemble_chain(self, chain, states, level, box, request_box, pstats, *modes):
        """The tip codec's assembly of ``request_box`` from the chain's
        summed units (:meth:`_chain_results`), and the tip's plan units."""
        tip = states[-1]
        plan = tip.codec.build_decode_plan(tip.comp, levels=[level], box=box)
        units = plan.units
        results = self._chain_results(chain, states, level, box, units, None, pstats, *modes)
        if plan.refine is not None:
            # Second stage (the groups the decoded layout puts in the box):
            # same request, same deadline, same accounting.
            more = plan.refine(results)
            results.update(
                self._chain_results(chain, states, level, box, more, results, pstats, *modes)
            )
            units = units + more
        return tip.codec.assemble(tip.comp, level, results, None, request_box), units

    def _degrade_fill(self, data: np.ndarray, request_box, units, chain, pstats) -> list:
        """Write ``fill_value`` into the box of every unit any chain entry
        lost (``data`` is the level's ``request_box``) and return the
        structured error report: one row per unit an entry lost, naming
        the entry, boxes in level space, clipped to the request."""
        boxes = {u.key: u.box for u in units}
        origin = [lo for lo, _hi in request_box]
        report = []
        for key, stats in zip(chain, pstats):
            for ukey in sorted(stats.unit_errors):
                exc = stats.unit_errors[ukey]
                clipped = tuple(
                    (max(ulo, blo), min(uhi, bhi))
                    for (ulo, uhi), (blo, bhi) in zip(boxes[ukey], request_box)
                )
                data[region_slices(clipped, origin)] = self.fill_value
                report.append(
                    {
                        "entry": key,
                        "unit": ukey,
                        "box": [list(b) for b in clipped],
                        "kind": _error_kind(exc),
                        "error": str(exc),
                    }
                )
        return report

    def _resolve_modes(self, deadline, degraded) -> tuple[Deadline | None, bool]:
        if deadline is None:
            deadline = self.default_deadline
        if degraded is None:
            degraded = self.degraded
        return Deadline.coerce(deadline), bool(degraded)

    # -- serving -----------------------------------------------------------
    def _serve(self, key: str, level: int, region, deadline, degraded):
        """The single read path: one box of one level of the timestep stored
        under ``key`` (``region=None`` covers the level), as ``(AMRLevel
        over the box, RequestStats)``.  The key's temporal chain is summed
        base first in the stored dtype, as the writer's closed loop summed,
        under one deadline: the tip's plan for the box, its units looked up
        under the chain's cache key before any fetch, the misses decoded per
        entry and summed (:meth:`_chain_results`), the tip codec's assembly
        of exactly the box, then fill values over the box of every unit any
        entry lost.  A chain whose codecs do not sum per unit
        (:attr:`~repro.core.plan.PlanExecutorMixin.sums_per_unit`: the 3D
        baseline averages in its assembly) sums its entries' assembled boxes.
        """
        t0 = time.perf_counter()
        modes = self._resolve_modes(deadline, degraded)
        chain = tuple(temporal_chain(key, self.entry_meta))
        states = [self._entry(k) for k in chain]
        tip = states[-1]
        shapes = tip.comp.meta["shapes"]
        (level,) = check_level_indices([level], len(shapes))
        shape = tuple(shapes[level])
        box = None if region is None else normalize_region(region, shape)
        request_box = box or level_box(shape)
        pstats = [PipelineStats() for _ in chain]
        per_unit = getattr(tip.codec, "sums_per_unit", False) and all(
            type(state.codec) is type(tip.codec) for state in states
        )
        if per_unit or len(chain) == 1:
            lvl, units = self._assemble_chain(
                chain, states, level, box, request_box, pstats, *modes
            )
        else:
            lvl, units = None, []
            for entry_key, state, stats in zip(chain, states, pstats):
                entry_lvl, entry_units = self._assemble_chain(
                    (entry_key,), [state], level, box, request_box, [stats], *modes
                )
                units += entry_units
                if lvl is not None:
                    entry_lvl.data = lvl.data + entry_lvl.data
                lvl = entry_lvl
        errors: list = []
        if any(stats.unit_errors for stats in pstats):
            errors = self._degrade_fill(lvl.data, request_box, units, chain, pstats)
        stats = RequestStats(
            key=key,
            chain=chain,
            level=level,
            box=box,
            seconds=time.perf_counter() - t0,
            bytes_fetched=sum(p.bytes_fetched for p in pstats),
            bytes_served=int(lvl.data.nbytes),
            cache_hits=sum(p.n_preloaded for p in pstats),
            cache_misses=sum(p.n_decoded for p in pstats),
            n_parts_fetched=sum(p.n_parts for p in pstats),
            n_fetches=sum(p.n_fetches for p in pstats),
            overlapped=any(p.overlapped() for p in pstats),
            degraded=modes[1],
            errors=errors,
        )
        self._record(stats)
        return lvl, stats

    def read_region(
        self, key: str, level: int, region, *, deadline=None, degraded=None
    ) -> tuple[np.ndarray, RequestStats]:
        """One ROI of one level of the timestep stored under ``key``, plus
        its request accounting.

        Bit-identical to the same slice of :meth:`decompress` — the same
        plan and the same assembly, and the chain sum is elementwise, so it
        commutes with slicing; the decoded-brick cache is consulted per plan
        unit before any part fetch, and only the units the ROI needs are
        planned at all.

        ``deadline`` (seconds) and ``degraded`` override the reader's
        defaults per request; one deadline covers the whole chain.  A
        degraded request never fails on a bad *brick*: the brick's box is
        served as ``fill_value`` (lost in any chain entry, it is lost for
        the step) and reported in ``stats.errors`` — fault-free re-reads of
        the same ROI are bit-identical to the non-degraded path.
        """
        lvl, stats = self._serve(key, level, region, deadline, degraded)
        return lvl.data, stats

    def read_level(self, key: str, level: int, *, deadline=None, degraded=None):
        """One whole reconstructed level of the timestep stored under
        ``key``, plus its request accounting.

        ``deadline``/``degraded`` behave exactly as in
        :meth:`read_region` (the request box is the whole level).
        """
        return self._serve(key, level, None, deadline, degraded)

    def decompress(self, key: str):
        """The whole timestep stored under ``key``, restored on the calling
        thread (:meth:`~repro.engine.archive.LazyBatchArchive.decompress`;
        no brick caching)."""
        return self._archive.decompress(key)

    # -- concurrent front-end ----------------------------------------------
    def submit(self, key: str, level: int, region=None, *, deadline=None, degraded=None):
        """Queue a request; returns a future of ``(data, RequestStats)``.

        ``region=None`` queues a whole-level read.  The request pool
        bounds concurrency, so a burst of submissions queues instead of
        spawning unbounded threads.  Note a ``deadline`` starts ticking
        when the request *runs*, not while it queues.
        """
        if region is None:
            return self._requests.submit(
                self.read_level, key, level, deadline=deadline, degraded=degraded
            )
        return self._requests.submit(
            self.read_region, key, level, region, deadline=deadline, degraded=degraded
        )

    def read_many(self, requests) -> list:
        """Serve ``(key, level, region)`` triples concurrently; results
        come back in request order."""
        futures = [self.submit(*request) for request in requests]
        return [future.result() for future in futures]

    # -- accounting --------------------------------------------------------
    def stats(self) -> dict:
        """Lifetime aggregates: requests, bytes, cache, and fetch layer."""
        with self._stats_lock:
            out = {
                "n_requests": self.n_requests,
                "bytes_fetched": self.bytes_fetched,
                "bytes_served": self.bytes_served,
                "request_seconds": round(self.request_seconds, 6),
            }
        out["cache"] = self.cache.stats() if self.cache is not None else None
        out["fetch"] = self.fetch_stats.snapshot()
        return out

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        with self._entries_lock:
            if self._closed:
                return
            self._closed = True
        self._requests.shutdown(wait=True)
        self._pipeline.close()
        if self.cache is not None:
            self.cache.clear()
        self._archive.close()

    def __enter__(self) -> "ArchiveReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
