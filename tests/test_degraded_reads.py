"""Graceful degradation: deadlines, fill-value reads, recovered shards.

Every scenario drives the real serving stack (``ArchiveReader`` over a
sharded v4 archive) through the deterministic fault harness
(:mod:`repro.faults`), proving the acceptance behaviours end to end:
a stalled shard raises :class:`DeadlineExceeded` in bounded time, a
corrupt brick degrades to fill values with an exact error report, a
fault-free re-read is bit-identical, fill values never enter the
decoded-brick cache, and a shard that failed many reads in a row is read
again as soon as it is back.
"""

import time

import numpy as np
import pytest

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.container import ContainerIOError, PartIntegrityError
from repro.core.density import Strategy
from repro.core.tac import TACCompressor
from repro.engine import default_shard_opener, get_codec
from repro.engine.archive import LazyBatchArchive
from repro.faults import FaultPlan, FaultRule, archive_part_spans, faulty_opener
from repro.serve import (
    ArchiveReader,
    Deadline,
    DeadlineExceeded,
    PrefetchPipeline,
    RetryPolicy,
)
from repro.serve import prefetch
from repro.sz import stream
from tests.helpers import reserialize_stream, smooth_cube, two_level_dataset, write_archive

KEY = "toy/tac"
#: Level 1 of the toy dataset is brick-chunked (8 bricks of 4³); level 0
#: is group-coded, whose units are box-less and therefore undegradable.
BRICK_LEVEL = 1
#: Entries of the other codecs the one serving path must treat alike: a
#: monolithic stream, and a TAC blob the §4.4 rule delegated to the 3D
#: baseline.  ``(key, level, the entry's one payload part)``.
ZMESH = ("toy/zmesh", 1, "toy/zmesh/stream")
DELEGATED = ("toy/hybrid", 0, "toy/hybrid/uniform")
ENTRIES = [
    pytest.param(KEY, BRICK_LEVEL, "*/L1/b0", id="tac-bricks"),
    pytest.param(*ZMESH, id="zmesh"),
    pytest.param(*DELEGATED, id="delegated"),
]


def dense_dataset(n: int = 16) -> AMRDataset:
    return AMRDataset(
        levels=[
            AMRLevel(data=smooth_cube(n, seed=6), mask=np.ones((n,) * 3, dtype=bool), level=0),
            AMRLevel(data=np.zeros((n // 2,) * 3, dtype=np.float32),
                     mask=np.zeros((n // 2,) * 3, dtype=bool), level=1),
        ],
        name="dense",
    )


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    tac = TACCompressor(brick_size=4)
    comp = tac.compress(two_level_dataset(n=16, seed=5), 1e-3, mode="abs")
    zmesh = get_codec("zmesh").compress(two_level_dataset(n=16, seed=5), 1e-3, mode="abs")
    delegated = get_codec("tac-hybrid").compress(dense_dataset(), 1e-3, mode="abs")
    assert delegated.meta["delegated"] == "baseline_3d"
    root = tmp_path_factory.mktemp("degraded")
    entries = {KEY: comp, ZMESH[0]: zmesh, DELEGATED[0]: delegated}
    write_archive(root / "arch.rpbt", entries, shard_size=4096)
    return root


@pytest.fixture(scope="module")
def head(shard_dir):
    return shard_dir / "arch.rpbt"


@pytest.fixture(scope="module")
def spans(head):
    return archive_part_spans(head)


@pytest.fixture(scope="module")
def baseline(head):
    """Fault-free whole-level decode to compare degraded reads against."""
    with ArchiveReader(head, cache_bytes=0) as reader:
        lvl, _stats = reader.read_level(KEY, BRICK_LEVEL)
    return lvl.data.copy()


def chaos_reader(head, spans, rules, **kwargs):
    plan = FaultPlan(rules, seed=0)
    opener = faulty_opener(default_shard_opener(head.parent), plan, spans)
    kwargs.setdefault("retry", RetryPolicy(attempts=1))
    kwargs.setdefault("cache_bytes", 0)
    return ArchiveReader(head, shard_opener=opener, **kwargs), plan


# ---------------------------------------------------------------------------
# the Deadline primitive
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            Deadline(0.0)
        with pytest.raises(ValueError, match="deadline"):
            Deadline(-1.0)

    def test_remaining_tracks_injected_clock(self):
        clock = {"t": 100.0}
        deadline = Deadline(2.0, clock=lambda: clock["t"])
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired()
        clock["t"] = 101.5
        assert deadline.remaining() == pytest.approx(0.5)
        clock["t"] = 102.0
        assert deadline.expired()
        clock["t"] = 103.0
        assert deadline.remaining() == pytest.approx(-1.0)

    def test_coerce(self):
        assert Deadline.coerce(None) is None
        deadline = Deadline(1.0)
        assert Deadline.coerce(deadline) is deadline
        assert isinstance(Deadline.coerce(0.25), Deadline)


# ---------------------------------------------------------------------------
# deadline enforcement through the reader
# ---------------------------------------------------------------------------


class TestDeadlineEnforcement:
    @pytest.mark.parametrize("key, level, part", ENTRIES)
    def test_stalled_window_raises_in_bounded_time(self, head, spans, key, level, part):
        reader, _plan = chaos_reader(
            head, spans, [FaultRule("latency", match=part, delay=1.0, times=2)]
        )
        with reader:
            for read in (
                lambda: reader.read_level(key, level, deadline=0.1),
                lambda: reader.read_region(key, level, ((0, 3),) * 3, deadline=0.1),
            ):
                t0 = time.perf_counter()
                with pytest.raises(DeadlineExceeded, match="deadline"):
                    read()
                # bounded by the deadline, not the 1s stall
                assert time.perf_counter() - t0 < 0.8

    def test_stalled_layout_read_raises_in_bounded_time(self, head, spans):
        # Pruning level 0's groups to a box needs its layout record: the
        # first stage of the plan, fetched under the deadline like any
        # unit — and load-bearing, so degraded mode raises too.
        reader, _plan = chaos_reader(
            head, spans, [FaultRule("latency", match="*/L0/layout", delay=1.0, times=1)]
        )
        with reader:
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExceeded, match="deadline"):
                reader.read_region(KEY, 0, ((0, 3),) * 3, deadline=0.1, degraded=True)
            assert time.perf_counter() - t0 < 0.8

    def test_default_deadline_applies_to_every_request(self, head, spans):
        reader, _plan = chaos_reader(
            head,
            spans,
            [FaultRule("latency", match="*/L1/b0", delay=2.0, times=1)],
            default_deadline=0.15,
        )
        with reader:
            with pytest.raises(DeadlineExceeded):
                reader.read_level(KEY, BRICK_LEVEL)

    def test_warm_read_needs_no_io_slot(self, head, spans, baseline, monkeypatch):
        # Planning reads metadata only, so a request whose units are all
        # cached never queues behind another request's stalled fetch.
        monkeypatch.setattr(prefetch, "IO_WORKERS", 1)
        reader, _plan = chaos_reader(
            head,
            spans,
            [FaultRule("latency", match="*/L1/b0", delay=1.0, times=1)],
            cache_bytes=1 << 20,
        )
        with reader:
            far = ((4, 8),) * 3
            reader.read_region(KEY, BRICK_LEVEL, far)
            stalled = reader.submit(KEY, BRICK_LEVEL, ((0, 4),) * 3)
            time.sleep(0.05)  # the one I/O worker is now inside the stall
            data, stats = reader.read_region(KEY, BRICK_LEVEL, far, deadline=0.2)
            assert stats.cache_misses == 0 and stats.n_fetches == 0
            np.testing.assert_array_equal(data, baseline[4:8, 4:8, 4:8])
            stalled.result()

    def test_no_deadline_waits_out_the_stall(self, head, spans, baseline):
        reader, _plan = chaos_reader(
            head, spans, [FaultRule("latency", match="*/L1/b0", delay=0.3, times=1)]
        )
        with reader:
            lvl, stats = reader.read_level(KEY, BRICK_LEVEL)
        assert stats.errors == []
        np.testing.assert_array_equal(lvl.data, baseline)


# ---------------------------------------------------------------------------
# degraded (fill-on-failure) reads
# ---------------------------------------------------------------------------


class TestDegradedReads:
    def test_corrupt_brick_fills_exact_box_and_reports_it(
        self, head, spans, baseline
    ):
        reader, plan = chaos_reader(
            head,
            spans,
            [FaultRule("bitflip", match="*/L1/b0", offset=2, times=1)],
            fill_value=-1.0,
        )
        with reader:
            lvl, stats = reader.read_level(KEY, BRICK_LEVEL, degraded=True)
            assert stats.degraded
            assert len(stats.errors) == 1
            row = stats.errors[0]
            assert row["unit"] == "L1/b0"
            assert row["kind"] == "integrity"
            box = tuple(tuple(b) for b in row["box"])
            slices = tuple(slice(lo, hi) for lo, hi in box)
            assert np.all(lvl.data[slices] == -1.0)
            outside = lvl.data.copy()
            expected_outside = baseline.copy()
            outside[slices] = 0
            expected_outside[slices] = 0
            np.testing.assert_array_equal(outside, expected_outside)

            # The injected fault was times=1: a re-read fetches clean bytes
            # and must be bit-identical to the fault-free baseline.
            lvl2, stats2 = reader.read_level(KEY, BRICK_LEVEL, degraded=True)
            assert stats2.errors == []
            np.testing.assert_array_equal(lvl2.data, baseline)
        assert plan.n_fired == 1

    def test_degraded_region_read_clips_report_to_request(self, head, spans):
        reader, _plan = chaos_reader(
            head,
            spans,
            [FaultRule("bitflip", match="*/L1/b0", times=1)],
            fill_value=-1.0,
            degraded=True,
        )
        with reader:
            region = (slice(0, 3), slice(0, 3), slice(0, 3))
            data, stats = reader.read_region(KEY, BRICK_LEVEL, region)
            assert stats.degraded and len(stats.errors) == 1
            assert stats.errors[0]["box"] == [[0, 3], [0, 3], [0, 3]]
            assert np.all(data == -1.0)

    def test_unrequested_corruption_is_not_reported(self, head, spans, baseline):
        # The flipped brick lives at the level's origin; an ROI in the far
        # corner never touches it, so the read is clean and exact.
        reader, plan = chaos_reader(
            head,
            spans,
            [FaultRule("bitflip", match="*/L1/b0", times=1)],
            degraded=True,
        )
        with reader:
            region = (slice(4, 8), slice(4, 8), slice(4, 8))
            data, stats = reader.read_region(KEY, BRICK_LEVEL, region)
            assert stats.errors == []
            np.testing.assert_array_equal(data, baseline[4:8, 4:8, 4:8])
        assert plan.n_fired == 0

    def test_stalled_brick_degrades_to_timeout_fill_in_bounded_time(
        self, head, spans
    ):
        reader, _plan = chaos_reader(
            head,
            spans,
            [FaultRule("latency", match="*/L1/b0", delay=2.0, times=1)],
            fill_value=-1.0,
        )
        with reader:
            t0 = time.perf_counter()
            lvl, stats = reader.read_level(
                KEY, BRICK_LEVEL, deadline=0.15, degraded=True
            )
            elapsed = time.perf_counter() - t0
            assert elapsed < 1.5
            assert stats.degraded and stats.errors
            assert {row["kind"] for row in stats.errors} == {"timeout"}

    def test_stalled_brick_window_does_not_take_the_cold_mask_down(self, head, spans):
        # The level's mask is load-bearing and stored next to its bricks;
        # a degraded request fetches it in a window of its own, so a cold
        # ROI whose brick window stalls still gets timeout fill.
        reader, _plan = chaos_reader(
            head,
            spans,
            [FaultRule("latency", match="*/L1/b1", delay=2.0, times=1)],
            fill_value=-1.0,
        )
        with reader:
            t0 = time.perf_counter()
            data, stats = reader.read_region(
                KEY, BRICK_LEVEL, ((0, 8), (0, 3), (0, 8)), deadline=0.15, degraded=True
            )
            assert time.perf_counter() - t0 < 1.5
            assert data.shape == (8, 3, 8)
            assert {row["kind"] for row in stats.errors} == {"timeout"}
            assert "L1/b1" in {row["unit"] for row in stats.errors}

    def test_two_undecodable_bricks_in_one_batch_fill_exactly_their_boxes(
        self, tmp_path, baseline
    ):
        # The damage is inside the SZ streams (code lengths that violate
        # Kraft) and was archived as such, so every CRC passes and the
        # failure surfaces in the lockstep decode of the batch all eight
        # bricks share.  It must land on the two bad bricks alone.
        tac = TACCompressor(brick_size=4)
        comp = tac.compress(two_level_dataset(n=16, seed=5), 1e-3, mode="abs")
        bad = ["L1/b2", "L1/b5"]
        for name in bad:
            comp.parts[name] = reserialize_stream(
                comp.parts[name],
                {stream.SEC_CODE_LENGTHS: stream._varints(0, 8193) + bytes([1]) * 8193},
            )
        write_archive(tmp_path / "bad.rpbt", {KEY: comp}, shard_size=4096)
        with ArchiveReader(tmp_path / "bad.rpbt", cache_bytes=0, fill_value=-1.0) as reader:
            lvl, stats = reader.read_level(KEY, BRICK_LEVEL, degraded=True)
            assert [row["unit"] for row in stats.errors] == bad
            assert {row["kind"] for row in stats.errors} == {"io"}
            assert all("Kraft" in row["error"] for row in stats.errors)
            filled = np.zeros(lvl.data.shape, dtype=bool)
            for row in stats.errors:
                filled[tuple(slice(lo, hi) for lo, hi in row["box"])] = True
            assert filled.sum() == 2 * 4**3
            assert np.all(lvl.data[filled] == -1.0)
            np.testing.assert_array_equal(lvl.data[~filled], baseline[~filled])
            with pytest.raises(ValueError, match="Kraft"):
                reader.read_level(KEY, BRICK_LEVEL)

    @pytest.mark.parametrize("strategy", [Strategy.ZF, Strategy.GSP])
    def test_a_box_whose_every_brick_is_lost_keeps_the_level_dtype(self, tmp_path, strategy):
        # The decoded bricks carry a level's dtype; with none decoded the
        # box takes it from the entry head (original_bytes / n_values).
        n = 32
        dataset = AMRDataset(
            levels=[
                AMRLevel(
                    data=smooth_cube(n, seed=7, dtype=np.float64),
                    mask=np.ones((n,) * 3, dtype=bool),
                    level=0,
                )
            ],
            name="f64",
        )
        comp = TACCompressor(brick_size=16, force_strategy=strategy).compress(
            dataset, 1e-3, mode="abs"
        )
        comp.parts["L0/b0"] = reserialize_stream(
            comp.parts["L0/b0"], {stream.SEC_CODE_LENGTHS: bytes([1]) * 8193}
        )
        write_archive(tmp_path / "f64.rpbt", {KEY: comp})
        with ArchiveReader(tmp_path / "f64.rpbt", cache_bytes=0, degraded=True) as reader:
            healthy, stats = reader.read_region(KEY, 0, ((16, 32),) * 3)
            assert stats.errors == [] and healthy.dtype == np.float64
            lost, stats = reader.read_region(KEY, 0, ((1, 15),) * 3)
            assert [row["unit"] for row in stats.errors] == ["L0/b0"]
            assert lost.dtype == np.float64 and lost.shape == (14,) * 3 and not lost.any()
            part_lost, stats = reader.read_region(KEY, 0, ((8, 24),) * 3)
            assert part_lost.dtype == np.float64 and len(stats.errors) == 1

    @pytest.mark.parametrize(
        "key, level, part",
        [
            # Level 0 is group-coded: its units carry no box, so there is
            # no partial answer — degraded mode must re-raise, not fabricate.
            pytest.param(KEY, 0, "*/L0/g0", id="group"),
            pytest.param(KEY, 0, "*/L0/layout", id="layout"),
            pytest.param(KEY, BRICK_LEVEL, "*/mask/L1", id="mask"),
            pytest.param(*ZMESH, id="zmesh"),
            pytest.param(*DELEGATED, id="delegated"),
        ],
    )
    def test_boxless_unit_failure_still_raises(self, head, spans, key, level, part):
        for read in (
            lambda r: r.read_level(key, level, degraded=True),
            lambda r: r.read_region(key, level, ((0, 3),) * 3, degraded=True),
        ):
            # Persistent damage: a transient flip can be spent on a window
            # that over-reads the part without anyone consuming it.
            reader, _plan = chaos_reader(head, spans, [FaultRule("bitflip", match=part)])
            with reader:
                with pytest.raises(PartIntegrityError):
                    read(reader)

    def test_damaged_holder_mask_fails_every_field_that_references_it(self, tmp_path):
        """The fields of a multi-field step read their masks from the
        step's first entry: its mask part is load-bearing for all of them,
        degraded or not — and the other level's reads are untouched."""
        from repro.ingest import IngestSession

        base = two_level_dataset(n=16, seed=5)
        fields = {
            name: AMRDataset(
                levels=[
                    AMRLevel(data=lvl.data * np.float32(scale), mask=lvl.mask, level=lvl.level)
                    for lvl in base.levels
                ],
                name="toy", field=name,
            )
            for name, scale in (("a", 1.0), ("b", 2.0), ("c", 3.0))
        }
        step = tmp_path / "step.rpbt"
        with IngestSession(
            step, error_bound=1e-3, mode="abs", codec_options={"brick_size": 4}
        ) as session:
            holder, *others = session.submit_step(fields)
        rule = FaultRule("bitflip", match=f"{holder}/mask/L{BRICK_LEVEL}")
        for key in (holder, *others):
            reader, _plan = chaos_reader(step, archive_part_spans(step), [rule])
            with reader:
                for degraded in (False, True):
                    with pytest.raises(PartIntegrityError, match="mask/L1"):
                        reader.read_level(key, BRICK_LEVEL, degraded=degraded)
                    with pytest.raises(PartIntegrityError, match="mask/L1"):
                        reader.read_region(key, BRICK_LEVEL, ((0, 3),) * 3, degraded=degraded)
                lvl, stats = reader.read_level(key, 0, degraded=True)
                assert stats.errors == [] and np.array_equal(lvl.mask, base.levels[0].mask)

    @pytest.mark.parametrize("key, level, part", ENTRIES)
    def test_clean_degraded_read_is_exact(self, head, spans, key, level, part):
        with LazyBatchArchive.open(head) as lazy:
            expected = lazy.decompress(key).levels[level].data
        reader, _plan = chaos_reader(head, spans, [], degraded=True)
        with reader:
            lvl, stats = reader.read_level(key, level)
            roi, roi_stats = reader.read_region(key, level, ((1, 6), (0, 5), (2, 7)))
        np.testing.assert_array_equal(lvl.data, expected)
        np.testing.assert_array_equal(roi, expected[1:6, 0:5, 2:7])
        for st in (stats, roi_stats):
            # Every codec is served — and accounted — by the one path.
            assert st.degraded and st.errors == []
            assert st.bytes_fetched > 0 and st.n_fetches > 0 and st.cache_misses > 0


# ---------------------------------------------------------------------------
# decoded-brick cache purity under degradation
# ---------------------------------------------------------------------------


class TestCachePurityUnderDegradation:
    def test_fill_valued_bricks_never_enter_the_cache(
        self, head, spans, baseline
    ):
        reader, _plan = chaos_reader(
            head,
            spans,
            [FaultRule("bitflip", match="*/L1/b0", times=1)],
            cache_bytes=64 * 1024 * 1024,
            fill_value=-1.0,
        )
        with reader:
            _lvl, stats = reader.read_level(KEY, BRICK_LEVEL, degraded=True)
            assert [row["unit"] for row in stats.errors] == ["L1/b0"]
            # The failed brick must be absent; its healthy siblings cached.
            assert reader.cache.get(((KEY,), BRICK_LEVEL, "L1/b0")) is None
            assert reader.cache.get(((KEY,), BRICK_LEVEL, "L1/b1")) is not None

            # Re-read with the fault budget exhausted: the brick decodes
            # cleanly now, and the result is bit-identical — proof no fill
            # values were served from cache.
            lvl2, stats2 = reader.read_level(KEY, BRICK_LEVEL, degraded=True)
            assert stats2.errors == []
            np.testing.assert_array_equal(lvl2.data, baseline)
            assert reader.cache.get(((KEY,), BRICK_LEVEL, "L1/b0")) is not None


# ---------------------------------------------------------------------------
# pipeline error propagation (no deadlock, no poisoning)
# ---------------------------------------------------------------------------


class TestPipelineErrorPropagation:
    def test_failed_fetch_fails_request_with_original_exception(
        self, head, spans, monkeypatch
    ):
        monkeypatch.setattr(prefetch, "IO_WORKERS", 2)
        plan = FaultPlan([FaultRule("oserror", match="*/L1/b*", times=1)])
        opener = faulty_opener(default_shard_opener(head.parent), plan, spans)
        tac = TACCompressor(brick_size=4)
        with LazyBatchArchive.open(head, shard_opener=opener) as lazy:
            entry = lazy.entry(KEY)
            units = tac.build_decode_plan(entry, levels=[BRICK_LEVEL]).units
            with PrefetchPipeline() as pipeline:
                with pytest.raises(ContainerIOError, match="injected transient fault"):
                    pipeline.execute(entry.parts, units)
                # Same pipeline, same store, fault budget spent: the next
                # request must run clean — no poisoned pools, no stale
                # staging, no deadlock.
                results, stats = pipeline.execute(entry.parts, units)
        assert {unit.key for unit in units} <= set(results)
        assert stats.unit_errors == {}

    def test_partial_mode_records_error_instead_of_raising(self, head, spans, monkeypatch):
        monkeypatch.setattr(prefetch, "IO_WORKERS", 2)
        plan = FaultPlan([FaultRule("oserror", match="*/L1/b0", times=1)])
        opener = faulty_opener(default_shard_opener(head.parent), plan, spans)
        tac = TACCompressor(brick_size=4)
        with LazyBatchArchive.open(head, shard_opener=opener) as lazy:
            entry = lazy.entry(KEY)
            units = tac.build_decode_plan(entry, levels=[BRICK_LEVEL]).units
            with PrefetchPipeline() as pipeline:
                results, stats = pipeline.execute(
                    entry.parts, units, allow_partial=True
                )
        assert stats.unit_errors  # the window's casualties are recorded
        for key, exc in stats.unit_errors.items():
            assert key not in results
            assert "injected transient fault" in str(exc)


# ---------------------------------------------------------------------------
# a shard that comes back
# ---------------------------------------------------------------------------


def test_recovered_local_shard_is_read_at_once(tmp_path):
    """A shard file missing for many reads in a row is read by the very next
    request once it is back: no read fails for a shard that is there."""
    comp = TACCompressor(brick_size=4).compress(two_level_dataset(n=16, seed=5), 1e-3, mode="abs")
    head = write_archive(tmp_path / "arch.rpbt", {KEY: comp})
    (shard,) = tmp_path.glob("arch.shard-*.rpsh")
    with ArchiveReader(head, cache_bytes=0) as clean:
        expected, _stats = clean.read_level(KEY, BRICK_LEVEL)
    no_wait = RetryPolicy(sleep=lambda _delay: None)
    with ArchiveReader(head, retry=no_wait, cache_bytes=0) as reader:
        moved = shard.rename(tmp_path / "away")
        for _ in range(6):
            with pytest.raises(ContainerIOError, match=shard.name):
                reader.read_level(KEY, BRICK_LEVEL)
        moved.rename(shard)
        lvl, stats = reader.read_level(KEY, BRICK_LEVEL)
    assert stats.errors == []
    np.testing.assert_array_equal(lvl.data, expected.data)
    np.testing.assert_array_equal(lvl.mask, expected.mask)


class RemoteShard:
    """A shard source that declares no ``local`` (as an object store would
    not), so its windows are fetched on the I/O pool; every read fails
    while ``down["read"]`` is set."""

    def __init__(self, inner, down: dict):
        self._inner = inner
        self._down = down
        self.label = inner.label

    def read_at(self, offset: int, length: int) -> bytes:
        if self._down["read"]:
            raise OSError(f"{self.label}: connection reset")
        return self._inner.read_at(offset, length)

    def close(self) -> None:
        self._inner.close()


@pytest.mark.parametrize("fails", ["open", "read"])
def test_recovered_remote_shard_is_read_at_once(tmp_path, fails):
    """The pool path keeps no memory of a shard's failures either: a
    non-local shard that failed six opens (or six window reads) in a row
    serves the next request once it answers again."""
    comp = TACCompressor(brick_size=4).compress(two_level_dataset(n=16, seed=5), 1e-3, mode="abs")
    head = write_archive(tmp_path / "arch.rpbt", {KEY: comp})
    (shard,) = tmp_path.glob("arch.shard-*.rpsh")
    with ArchiveReader(head, cache_bytes=0) as clean:
        expected, _stats = clean.read_level(KEY, BRICK_LEVEL)
    down = {"open": False, "read": False}
    inner = default_shard_opener(tmp_path)

    def opener(name):
        if down["open"]:
            raise FileNotFoundError(f"{name}: no such object")
        return RemoteShard(inner(name), down)

    no_wait = RetryPolicy(sleep=lambda _delay: None)
    with ArchiveReader(head, shard_opener=opener, retry=no_wait, cache_bytes=0) as reader:
        down[fails] = True
        for _ in range(6):
            with pytest.raises(ContainerIOError, match=shard.name):
                reader.read_level(KEY, BRICK_LEVEL)
        down[fails] = False
        lvl, stats = reader.read_level(KEY, BRICK_LEVEL)
    assert stats.errors == [] and stats.n_fetches > 0
    np.testing.assert_array_equal(lvl.data, expected.data)
    np.testing.assert_array_equal(lvl.mask, expected.mask)
