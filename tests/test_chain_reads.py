"""Delta-chain reads: one request per chain, summed per decoded unit.

``ArchiveReader.read_chain`` plans a box once, from the chain's latest
entry, sums each decoded value unit (brick, group, 1D or zMesh stream)
base first across the chain, caches the sum under the chain, and
assembles the box once.  The contracts pinned here:

* bit-identity with the per-entry loop it replaced
  (``tests/helpers.py::oracle_timestep_read``) for every codec an ingest
  session chains, both dtypes, region and full-level reads, GSP and OpST
  levels, chains of one to four entries, cold and warm;
* which codecs sum per unit is a property of the codec, not an option;
* the cache: summed units are read-only, a chain of one is an entry's own
  read, and an entry's units serve every chain that holds it;
* a chain is one request: a unit lost in any entry is ``fill_value`` over
  its box, and one deadline covers every entry.
"""

from __future__ import annotations

import inspect
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.container import MASK_PREFIX
from repro.engine import codec_names, default_shard_opener, get_codec
from repro.faults import FaultPlan, FaultRule, archive_part_spans, faulty_opener
from repro.ingest import (
    IngestConfig,
    IngestSession,
    read_timestep_level,
    read_timestep_region,
    temporal_chain,
)
from repro.serve import ArchiveReader, DeadlineExceeded, RetryPolicy
from tests.helpers import oracle_timestep_read, two_level_dataset

EB = 1e-3
STEPS = 4
#: Level 0 of the series is OpST-coded (30 % dense), level 1 GSP-coded in
#: 4³ bricks (70 % dense).
ROI = ((1, 7), (2, 8), (0, 5))
CHAINED_CODECS = ("tac", "1d", "zmesh", "3d")


def series(steps: int = STEPS, dtype=np.float32) -> list[AMRDataset]:
    """One hierarchy whose values drift: step k scales by 1 + 0.05 k and
    adds a small ramp, so every residual is non-trivial."""
    base = two_level_dataset(n=16, fine_fraction=0.3, seed=3, dtype=dtype)
    out = []
    for k in range(steps):
        levels = []
        for lvl in base.levels:
            ramp = np.linspace(0.0, 0.01 * k, lvl.data.size, dtype=dtype).reshape(lvl.shape)
            data = np.where(lvl.mask, lvl.data * dtype(1.0 + 0.05 * k) + ramp, dtype(0))
            levels.append(AMRLevel(data=data.astype(dtype), mask=lvl.mask, level=lvl.level))
        out.append(AMRDataset(levels=levels, name=base.name, field=base.field))
    return out


def write_chain(path, codec: str = "tac", dtype=np.float32, steps: int = STEPS) -> list[str]:
    """A ``steps``-long delta chain (one keyframe) written by ``codec``."""
    options = {"brick_size": 4} if codec == "tac" else {}
    cfg = IngestConfig(
        error_bound=EB, codec=codec, codec_options=options,
        keyframe_interval=steps, shard_size=4096,
    )
    with IngestSession(path, cfg) as session:
        keys = session.extend(series(steps, dtype))
    assert [row["temporal"]["mode"] for row in session.report.entries] == (
        ["keyframe"] + ["delta"] * (steps - 1)
    )
    return keys


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """``(codec, dtype name) -> (head, keys)``, written on first use."""
    root = tmp_path_factory.mktemp("chains")
    made = {}

    def get(codec: str, dtype) -> tuple:
        name = (codec, np.dtype(dtype).name)
        if name not in made:
            head = root / f"{codec}-{name[1]}.rpbt"
            made[name] = head, write_chain(head, codec, dtype)
        return made[name]

    return get


# ----------------------------------------------------------------------
# bit-identity with the per-entry loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("codec", CHAINED_CODECS)
def test_chain_reads_match_the_per_entry_loop(chains, codec, dtype):
    head, keys = chains(codec, dtype)
    with ArchiveReader(head, cache_bytes=0) as oracle, ArchiveReader(head) as reader:
        if codec == "tac":
            strategies = {lm["strategy"] for lm in reader.entry_meta(keys[-1])["levels"]}
            assert strategies == {"opst", "gsp"}
        for length, key in enumerate(keys, start=1):
            assert len(temporal_chain(reader, key)) == length
            for level in (0, 1):
                want_full, _ = oracle_timestep_read(oracle, key, level)
                want_roi, _ = oracle_timestep_read(oracle, key, level, ROI)
                assert want_full.dtype == np.dtype(dtype)
                for _pass in ("cold", "warm"):
                    full, stats = read_timestep_level(reader, key, level)
                    assert len(stats) == length
                    assert full.data.dtype == want_full.dtype
                    assert full.data.tobytes() == want_full.tobytes()
                    roi, stats = read_timestep_region(reader, key, level, ROI)
                    assert len(stats) == length
                    assert roi.dtype == want_roi.dtype
                    assert roi.tobytes() == want_roi.tobytes()


@pytest.fixture(scope="module")
def tac_chain(chains):
    head, keys = chains("tac", np.float32)
    with ArchiveReader(head, cache_bytes=0) as oracle, ArchiveReader(head) as reader:
        yield head, keys, reader, oracle


@settings(max_examples=25, deadline=None)
@given(
    level=st.sampled_from([0, 1]),
    step=st.integers(0, STEPS - 1),
    bounds=st.lists(
        st.tuples(st.integers(0, 15), st.integers(1, 16)), min_size=3, max_size=3
    ),
)
def test_drawn_boxes_match_the_per_entry_loop(tac_chain, level, step, bounds):
    _head, keys, reader, oracle = tac_chain
    extent = 16 >> level
    region = tuple(
        (min(lo, extent - 1), min(max(hi, min(lo, extent - 1) + 1), extent))
        for lo, hi in bounds
    )
    want, _ = oracle_timestep_read(oracle, keys[step], level, region)
    got, _ = read_timestep_region(reader, keys[step], level, region)
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# which codecs sum per unit
# ----------------------------------------------------------------------
def test_summing_per_unit_is_a_property_of_every_registered_codec():
    """Copying assemblies sum per unit; the 3D baseline, whose assembly
    averages children into coarse levels, sums assembled levels.  A class
    attribute, not a constructor option."""
    got = {name: get_codec(name).sums_per_unit for name in codec_names()}
    assert got == {"tac": True, "tac-hybrid": True, "1d": True, "zmesh": True, "3d": False}
    for name in codec_names():
        codec = get_codec(name)
        assert "sums_per_unit" not in vars(codec)
        assert "sums_per_unit" not in inspect.signature(type(codec)).parameters


def test_a_tac_blob_delegated_to_the_3d_baseline_sums_assembled_levels():
    dense = AMRDataset(
        levels=[
            AMRLevel(data=np.ones((8, 8, 8), np.float32), mask=np.ones((8, 8, 8), bool), level=0),
            AMRLevel(data=np.zeros((4,) * 3, np.float32), mask=np.zeros((4,) * 3, bool), level=1),
        ],
        name="dense",
    )
    comp = get_codec("tac-hybrid").compress(dense, 1e-3, mode="abs")
    assert comp.meta["delegated"] == "baseline_3d"
    assert get_codec("tac").codec_for(comp).sums_per_unit is False


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
def test_summed_units_are_cached_read_only(tmp_path):
    head = tmp_path / "chain.rpbt"
    keys = write_chain(head, steps=3)
    with ArchiveReader(head) as reader:
        read_timestep_region(reader, keys[2], 1, ROI)
        read_timestep_level(reader, keys[2], 0)
        cached = dict(reader.cache._entries)
        summed = {key: value for key, (value, _size) in cached.items() if len(key[0]) == 3}
        assert {key[0] for key in summed} == {tuple(keys)}
        assert any(key[2].startswith("L1/b") for key in summed)
        assert any(key[2].startswith("L0/g") for key in summed)
        for value in summed.values():
            assert isinstance(value, np.ndarray) and not value.flags.writeable
        # Structural units (masks, layouts) are the tip's own, never summed.
        assert not any("/layout" in key[2] or key[2].startswith(MASK_PREFIX) for key in summed)


def test_a_chain_of_one_is_the_entrys_own_read(tmp_path):
    head = tmp_path / "chain.rpbt"
    keys = write_chain(head, steps=2)
    with ArchiveReader(head) as reader:
        want, _stats = reader.read_region(keys[0], 1, ROI)
        n_entries = len(reader.cache)
        assert {key[0] for key in reader.cache._entries} == {(keys[0],)}
        got, stats = read_timestep_region(reader, keys[0], 1, ROI)
        assert len(reader.cache) == n_entries
        assert got.tobytes() == want.tobytes()
        (only,) = stats
        assert only.cache_misses == 0 and only.bytes_fetched == 0


def test_an_earlier_step_reuses_the_entry_units_a_later_step_cached(tmp_path):
    head = tmp_path / "chain.rpbt"
    keys = write_chain(head, steps=3)
    with ArchiveReader(head) as reader:
        _data, cold = read_timestep_region(reader, keys[2], 1, ROI)
        assert all(entry.cache_misses > 0 for entry in cold)
        hits = reader.cache.hits
        data, stats = read_timestep_region(reader, keys[1], 1, ROI)
        assert [entry.key for entry in stats] == keys[:2]
        # Only the tip's own mask decodes: the later step's read used its own.
        assert [entry.cache_misses for entry in stats] == [0, 1]
        bricks = cold[0].cache_misses
        assert all(entry.cache_hits >= bricks for entry in stats)
        assert reader.cache.hits - hits >= 2 * bricks
        with ArchiveReader(head, cache_bytes=0) as oracle:
            want, _ = oracle_timestep_read(oracle, keys[1], 1, ROI)
        assert data.tobytes() == want.tobytes()
        # The warm re-read of the same step is its summed units: one hit each.
        _data, warm = read_timestep_region(reader, keys[1], 1, ROI)
        assert [entry.cache_hits for entry in warm[:-1]] == [0]
        assert warm[-1].cache_misses == 0


def test_concurrent_chain_reads_share_one_cache(tac_chain):
    """Eight threads read overlapping boxes of every chain length through
    one cold reader: whichever thread sums a unit first, every read equals
    the per-entry loop."""
    head, keys, _reader, oracle = tac_chain
    boxes = [((0, 6), (1, 8), (0, 5)), ((2, 8), (0, 4), (3, 8)), ((0, 8),) * 3]
    jobs = [(key, level, box) for key in keys for level in (0, 1) for box in boxes]
    want = {job: oracle_timestep_read(oracle, *job)[0].tobytes() for job in jobs}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ArchiveReader(head) as reader, ThreadPoolExecutor(8) as pool:
            futures = [(job, pool.submit(read_timestep_region, reader, *job)) for job in jobs * 3]
            for job, future in futures:
                assert future.result(timeout=60)[0].tobytes() == want[job]
            for value, _size in reader.cache._entries.values():
                assert not value.flags.writeable
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# a chain is one request: degraded reads and deadlines
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chain_head(tmp_path_factory):
    head = tmp_path_factory.mktemp("faulty") / "chain.rpbt"
    keys = write_chain(head, steps=3)
    return head, keys, archive_part_spans(head)


def chaos_reader(head, spans, rules, **kwargs):
    opener = faulty_opener(default_shard_opener(head.parent), FaultPlan(rules, seed=0), spans)
    return ArchiveReader(head, shard_opener=opener, retry=RetryPolicy(attempts=1), **kwargs)


@pytest.mark.parametrize("region", [None, ((0, 6), (1, 8), (0, 3))], ids=["level", "box"])
def test_a_unit_lost_in_one_delta_is_fill_over_its_box(chain_head, region):
    head, keys, spans = chain_head
    with ArchiveReader(head, cache_bytes=0) as clean_reader:
        clean, _ = oracle_timestep_read(clean_reader, keys[2], 1, region)
    rule = FaultRule("bitflip", match=f"{keys[1]}/L1/b0", times=1)
    with chaos_reader(head, spans, [rule], cache_bytes=64 << 20, fill_value=-1.0) as reader:
        if region is None:
            lvl, stats = read_timestep_level(reader, keys[2], 1, degraded=True)
            data, request_box = lvl.data, ((0, 8),) * 3
        else:
            data, stats = read_timestep_region(reader, keys[2], 1, region, degraded=True)
            request_box = region
        assert [entry.errors for entry in (stats[0], stats[2])] == [[], []]
        (row,) = stats[1].errors
        lost = np.zeros(data.shape, dtype=bool)
        origin = [lo for lo, _hi in request_box]
        lost[tuple(slice(lo - o, hi - o) for (lo, hi), o in zip(row["box"], origin))] = True
        assert lost.any()
        assert np.all(data[lost] == -1.0)  # not keyframe + fill + delta
        assert data[~lost].tobytes() == clean[~lost].tobytes()
        assert (row["entry"], row["unit"], row["kind"]) == (keys[1], "L1/b0", "integrity")
        chain = tuple(keys)
        assert reader.cache.get((chain, 1, "L1/b0")) is None
        # The fault fired once: a re-read is exact, and now cached.
        again, stats = (
            read_timestep_level(reader, keys[2], 1, degraded=True)
            if region is None
            else read_timestep_region(reader, keys[2], 1, region, degraded=True)
        )
        again = again.data if region is None else again
        assert all(entry.errors == [] for entry in stats)
        assert again.tobytes() == clean.tobytes()
        assert reader.cache.get((chain, 1, "L1/b0")) is not None


def test_a_chain_shares_one_deadline(chain_head):
    """Each entry's first brick window stalls 0.15 s: under one 0.25 s
    budget the chain cannot finish; a budget per entry would let it."""
    head, keys, spans = chain_head
    rules = [FaultRule("latency", match="*/L1/b0", delay=0.15, times=3)]
    with chaos_reader(head, spans, rules, cache_bytes=0) as reader:
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExceeded, match="deadline"):
            read_timestep_level(reader, keys[2], 1, deadline=0.25)
        assert time.perf_counter() - t0 < 0.6


def test_a_degraded_chain_fills_what_one_deadline_cannot_fetch(chain_head):
    head, keys, spans = chain_head
    rules = [FaultRule("latency", match="*/L1/b0", delay=0.15, times=3)]
    with chaos_reader(head, spans, rules, cache_bytes=0, fill_value=-1.0) as reader:
        t0 = time.perf_counter()
        _lvl, stats = read_timestep_level(reader, keys[2], 1, deadline=0.25, degraded=True)
        assert time.perf_counter() - t0 < 0.6
        rows = [row for entry in stats for row in entry.errors]
        assert rows and {row["kind"] for row in rows} == {"timeout"}
        assert {row["entry"] for row in rows} <= set(keys[1:])
