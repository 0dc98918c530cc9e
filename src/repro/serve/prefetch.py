"""Prefetching executor: coalesced part fetches feeding brick decode.

``DecompressionPlan.part_names()`` enumerates the I/O set of a plan (of
each stage, when it has two) before any payload is touched, and every
decode unit is pure — so fetch
and decode are independent stages that a serial read needlessly runs in
lockstep (fetch brick, decode brick, fetch next...).  This module runs
them as a pipeline:

1. the request's part spans are grouped into **coalesced fetch windows**
   (:func:`repro.core.container.coalesce_spans` — adjacent parts merge
   into one ranged read);
2. each window is fetched and staged into the entry's
   :class:`~repro.core.container.LazyPartStore`.  Where a window is read
   depends on the store's byte source: a **local** one (an in-memory
   blob, a local file or mapping — ``LazyPartStore.local``) is read on
   the request's own thread, in plan order, because a memory copy costs
   less than handing it to another thread; any other source (object
   storage, anything without a ``local`` flag) is fetched on a dedicated
   I/O pool, so a deadline can abandon a stalled fetch;
3. the units are cut into the plan's work items
   (:func:`repro.core.plan.decode_jobs`) once, before anything lands: a
   closure unit each, SZ streams in lockstep decode batches.  An item
   runs on the request's own thread — one pass per batch, not per brick —
   as soon as the last window holding a part of its members has landed.
   With a pooled source the I/O pool meanwhile fetches the windows of
   later items, overlapping network with CPU.  Which streams decode
   together is therefore a property of the plan, not of the order
   fetches happen to complete in.

Units already satisfied by a decoded-brick cache are skipped entirely
(``preloaded``), and eager in-memory ``parts`` dicts degrade to a plain
serial decode, with no fetch stage.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_right
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial

from repro.core.container import coalesce_spans
from repro.core.plan import DecompressionPlan, decode_jobs, execute_plan

#: Fetch-window gap: parts closer than this many bytes merge into one
#: ranged read.  4 KiB bridges part-index padding without dragging in
#: megabytes of unrequested payload.  Read per request.
COALESCE_GAP = 4096

#: Threads of a pipeline's I/O pool, which fetches the windows of non-local
#: sources; read when the pipeline is built.  The pool is what lets a
#: deadline abandon a stalled remote read (a read on the request thread
#: cannot be interrupted), and fetching windows concurrently keeps a
#: degraded read's losses to the stalled window alone.
IO_WORKERS = 4

#: Requests of one pipeline that may decode at once; the rest wait on
#: their own threads.  There is no decode pool — a batch is one NumPy pass
#: a second thread cannot split — but decode is mostly GIL-bound: 4
#: request threads decoding at once on 2 cores made cold ROIs 1.4× slower.
DECODE_SLOTS = 2


class DeadlineExceeded(TimeoutError):
    """A request's deadline expired before its fetches/decodes finished.

    Raised instead of hanging on a stalled source: the deadline bounds
    every wait and is checked before every fetch window and every work
    item starts, so a read against a dead store fails in bounded time.
    Neither a blocked I/O thread, a local window read nor a running item
    can be interrupted: a request overruns by at most one item of up to
    ``BATCH_VALUES`` decoded values, or one local window read.  Sources
    that can stall are not local, so their fetches keep the bounded pool
    waits.
    """


class Deadline:
    """A monotonic-clock budget shared across a request's stages.

    Created once per request (``Deadline(seconds)``) and consulted as
    the request progresses; ``remaining()`` shrinks toward zero and
    every pipeline wait uses it as its timeout.  ``clock`` is injectable
    for tests.
    """

    def __init__(self, seconds: float, clock=time.monotonic):
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.seconds = float(seconds)
        self._clock = clock
        self._t0 = clock()

    def remaining(self) -> float:
        return self.seconds - (self._clock() - self._t0)

    def expired(self) -> bool:
        return self.remaining() <= 0

    @classmethod
    def coerce(cls, value) -> "Deadline | None":
        """``None`` passes through, numbers become fresh deadlines."""
        if value is None or isinstance(value, cls):
            return value
        return cls(float(value))


@dataclass
class PipelineStats:
    """What one pipelined execution fetched, decoded, and overlapped."""

    n_parts: int = 0
    n_fetches: int = 0
    bytes_fetched: int = 0
    n_decoded: int = 0
    n_preloaded: int = 0
    #: perf_counter timestamps proving overlap: decode of ready units
    #: starts (first_decode_start) before the last pooled window lands
    #: (last_fetch_end) whenever the request spans several windows.
    #: Windows of a local store are read on the request's thread and
    #: leave ``last_fetch_end`` unset.
    first_decode_start: float | None = None
    last_fetch_end: float | None = None
    #: Units that failed under ``allow_partial=True`` (key → exception);
    #: they are absent from the result dict.
    unit_errors: dict = field(default_factory=dict)
    #: Whether the request's deadline expired mid-flight.
    deadline_hit: bool = False
    #: Fetches still outstanding when the request gave up that ``cancel()``
    #: could not stop: reaped on completion instead (exception retrieved,
    #: late-staged payloads discarded).  Incremented from I/O pool
    #: threads, possibly *after* execute() has returned.
    n_stragglers: int = 0

    def overlapped(self) -> bool:
        """Whether any decode started while I/O-pool fetches were still in
        flight.  Always ``False`` for a request whose windows were all read
        on its own thread (a local store): those reads interleave with
        decode but never run beside it."""
        return (
            self.first_decode_start is not None
            and self.last_fetch_end is not None
            and self.first_decode_start < self.last_fetch_end
        )


@dataclass
class _WindowPlan:
    """Fetch windows for a unit set, and which windows each unit needs."""

    windows: list[tuple[int, int]] = field(default_factory=list)
    window_names: list[list[str]] = field(default_factory=list)
    unit_windows: dict[str, set[int]] = field(default_factory=dict)


def _plan_windows(spans: dict, units, max_gap: int, isolate: bool = False) -> _WindowPlan:
    """Coalesce the parts ``units`` read into fetch windows.

    ``isolate`` gives the parts of box-less (load-bearing) units windows of
    their own: a degraded request may lose a window of bricks, and must
    not lose the mask or layout that happens to be stored next to them.
    """
    plan = _WindowPlan()
    name_window: dict[str, int] = {}
    groups = [units]
    if isolate:
        groups = [[u for u in units if u.box is None], [u for u in units if u.box is not None]]
    for group in groups:
        needed = {
            name: spans[name]
            for unit in group
            for name in unit.part_names
            if name in spans and name not in name_window
        }
        if not needed:
            continue
        windows = coalesce_spans(list(needed.values()), max_gap)
        window_los = [lo for lo, _length in windows]
        first = len(plan.windows)
        plan.windows += windows
        plan.window_names += [[] for _ in windows]
        for name, (offset, _length) in needed.items():
            idx = first + bisect_right(window_los, offset) - 1
            plan.window_names[idx].append(name)
            name_window[name] = idx
    for unit in units:
        plan.unit_windows[unit.key] = {
            name_window[name] for name in unit.part_names if name in name_window
        }
    return plan


class PrefetchPipeline:
    """Feed coalesced part fetches to decode on the request's thread.

    Windows of a local store are read on the request's thread between its
    decode items; any other store's windows are fetched on the I/O pool
    (:data:`IO_WORKERS` threads), overlapping the decode, in windows
    coalesced over gaps of up to :data:`COALESCE_GAP` bytes.  One pipeline
    is shared by all of a reader's requests: the I/O pool (its threads
    started on first use) and decode slots are created once and each
    :meth:`execute` call schedules its own windows onto them.  Safe to call
    from multiple request threads — all per-call state is local, and the
    staged hand-off inside :class:`~repro.core.container.LazyPartStore` is
    lock-protected.
    """

    def __init__(self):
        self._io_pool = ThreadPoolExecutor(
            max_workers=IO_WORKERS, thread_name_prefix="serve-io"
        )
        self._decode_slots = threading.BoundedSemaphore(DECODE_SLOTS)
        self._closed = False

    # -- execution ---------------------------------------------------------
    def execute(
        self,
        parts,
        units,
        preloaded: dict | None = None,
        *,
        deadline: "Deadline | float | None" = None,
        allow_partial: bool = False,
        stats: PipelineStats | None = None,
    ) -> tuple[dict, PipelineStats]:
        """Fetch + decode ``units`` and return ``({key: decoded}, stats)``.

        ``parts`` is the entry's part mapping; prefetch only happens for
        lazy stores (``spans``/``prefetch``), eager dicts decode
        directly.  A lazy store whose ``local`` flag is set has its
        windows read here, in plan order, each item running as soon as
        its windows have landed; any other store's windows go to the I/O
        pool.  Staging, CRC checks and failure handling are the same on
        both paths.  ``preloaded`` results (cache hits) skip both stages.

        ``deadline`` bounds the request in wall time: it bounds every
        pooled fetch-window and decode-slot wait and is checked before
        every fetch window and every work item starts, so a stalled source
        raises :class:`DeadlineExceeded` instead of hanging (in-flight I/O
        threads finish in the background; their results are discarded).
        A running item or local window read keeps its results.  Eager
        in-memory part dicts have no fetch stage and are not
        deadline-checked.

        ``allow_partial=True`` turns failures into casualties instead of
        aborts: a unit whose fetch window failed, whose decode raised, or
        whose item had not started in budget is recorded in
        ``stats.unit_errors`` (key →
        exception) and omitted from the results — the caller decides how
        to degrade.  A window fetch that failed with an aggregated
        ``bad_parts`` attribute (CRC failures during prefetch stage the
        *good* parts before raising) only fails the units that actually
        touch a bad part.

        ``stats`` continues an earlier call's accounting (the second stage
        of a two-stage plan is part of the same request).
        """
        if self._closed:
            raise RuntimeError("pipeline is closed")
        deadline = Deadline.coerce(deadline)
        stats = stats if stats is not None else PipelineStats()
        results: dict = {}
        if preloaded:
            results.update(
                {u.key: preloaded[u.key] for u in units if u.key in preloaded}
            )
            stats.n_preloaded += len(results)
        pending = [u for u in units if u.key not in results]
        if not pending:
            return results, stats
        stats.n_decoded += len(pending)
        if not (hasattr(parts, "spans") and hasattr(parts, "prefetch")):
            errors = stats.unit_errors if allow_partial else None
            with self._decode_slots:
                results.update(execute_plan(DecompressionPlan(pending), errors=errors))
            return results, stats

        gap = COALESCE_GAP
        window_plan = _plan_windows(parts.spans(), pending, gap, allow_partial)
        stats.n_parts += sum(len(names) for names in window_plan.window_names)
        time_lock = threading.Lock()

        def fetch(names: list[str], pooled: bool = False) -> None:
            n_reads, nbytes = parts.prefetch(names, max_gap=gap)
            now = time.perf_counter()
            with time_lock:
                stats.n_fetches += n_reads
                stats.bytes_fetched += nbytes
                if pooled and (stats.last_fetch_end is None or now > stats.last_fetch_end):
                    stats.last_fetch_end = now

        # A local store's windows are read here, in plan order: a memory
        # copy or a page-cache read costs less than handing it to a pool
        # thread and waking this one.  Any other source is fetched on the
        # I/O pool, overlapping its latency with this thread's decode.
        to_fetch = [idx for idx, names in enumerate(window_plan.window_names) if names]
        local = getattr(parts, "local", False)
        queued = deque(to_fetch if local else ())
        fetch_futures = {} if local else {
            self._io_pool.submit(fetch, window_plan.window_names[idx], True): idx
            for idx in to_fetch
        }
        in_flight = set(fetch_futures)
        failed = stats.unit_errors
        errors = {} if allow_partial else None
        # The work items are the plan's, fixed before any window lands:
        # closure units one by one, SZ streams in batches.  Each waits for
        # the windows of its own members (none when every part is an eager
        # sibling or the part list is empty) and then runs here as one
        # pass — so how many lockstep passes a request costs, and what they
        # allocate, does not depend on the order fetches complete in.
        items = decode_jobs(pending, errors)
        waiting = [
            {idx for unit in members for idx in window_plan.unit_windows.get(unit.key, ())}
            for members, _run in items
        ]
        by_window: dict[int, list[int]] = {}
        for item, windows in enumerate(waiting):
            for idx in windows:
                by_window.setdefault(idx, []).append(item)
        unstarted = set(range(len(items)))
        ready = deque(item for item, windows in enumerate(waiting) if not windows)

        def run(item: int) -> None:
            """Decode ``item`` on this thread; members that failed while it
            waited (their window was lost) are left out."""
            unstarted.discard(item)
            members, job = items[item]
            alive = [unit for unit in members if unit.key not in failed]
            jobs = [(members, job)] if len(alive) == len(members) else decode_jobs(alive, errors)
            for members, job in jobs:
                if stats.first_decode_start is None:
                    stats.first_decode_start = time.perf_counter()
                results.update(job())
                for unit in members:
                    if errors and unit.key in errors:
                        failed.setdefault(unit.key, errors[unit.key])

        def land(idx: int, outcome) -> None:
            """Window ``idx`` is done: ``outcome()`` re-raises its failure.
            Its items stop waiting on it; in degraded mode a failure first
            becomes a casualty of every unit that reads a lost part."""
            try:
                outcome()
            except Exception as exc:
                if not allow_partial:
                    raise
                # Prefetch staged every good part before raising: a unit
                # touching none of the bad ones has, in effect, landed.
                bad = set(getattr(exc, "bad_parts", None) or ())
                for item in by_window.get(idx, ()):
                    for unit in items[item][0]:
                        if idx in window_plan.unit_windows.get(unit.key, ()) and (
                            not bad or bad & set(unit.part_names)
                        ):
                            failed.setdefault(unit.key, exc)
            for item in by_window.get(idx, ()):
                waiting[item].discard(idx)
                if not waiting[item]:
                    ready.append(item)

        def reap_fetch_straggler(future) -> None:
            # Runs when a fetch the request could not cancel lands (at once,
            # if it already had): retrieve its exception (a worker crash
            # must not vanish into the pool) and drop whatever it staged
            # after the request moved on — nobody will ever read it.
            future.exception()
            parts.discard_staged()
            with time_lock:
                stats.n_stragglers += 1

        def stop_fetching() -> None:
            queued.clear()
            for future in in_flight:
                if not future.cancel():
                    future.add_done_callback(reap_fetch_straggler)

        def deadline_error() -> DeadlineExceeded:
            n_started = len(pending) - sum(len(items[item][0]) for item in unstarted)
            return DeadlineExceeded(
                f"request deadline of {deadline.seconds:.3f}s expired with "
                f"{len(in_flight) + len(queued)} fetch window(s) outstanding and "
                f"{n_started} of {len(pending)} decode(s) started"
            )

        try:
            while ready or queued or in_flight:
                if deadline is not None and deadline.expired():
                    # The budget is gone: what ran keeps its results.
                    stats.deadline_hit = True
                    if not allow_partial:
                        raise deadline_error()
                    for item in unstarted:
                        for unit in items[item][0]:
                            failed.setdefault(unit.key, deadline_error())
                    stop_fetching()
                    break
                budget = None if deadline is None else max(0.0, deadline.remaining())
                if ready:
                    # Other requests may hold every decode slot; a timeout
                    # lands on the deadline check above.
                    if self._decode_slots.acquire(timeout=budget):
                        try:
                            run(ready.popleft())
                        finally:
                            self._decode_slots.release()
                    continue
                if queued:
                    idx = queued.popleft()
                    land(idx, partial(fetch, window_plan.window_names[idx]))
                    continue
                done, in_flight = wait(
                    in_flight, timeout=budget, return_when=FIRST_COMPLETED
                )
                for future in done:
                    land(fetch_futures[future], future.result)
        except Exception:
            # A failed fetch or decode abandons the request: stop its
            # fetches and drop anything staged for it so the entry's store
            # does not accrete payloads no one will read.
            stop_fetching()
            parts.discard_staged()
            raise
        if failed:
            # Degraded request finished with casualties: their staged
            # payloads will never be consumed, so drop them.
            parts.discard_staged()
        return results, stats

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._io_pool.shutdown(wait=True)

    def __enter__(self) -> "PrefetchPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
