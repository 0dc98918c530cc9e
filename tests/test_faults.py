"""The deterministic fault-injection harness (`repro.faults`).

Policy tests drive :class:`FaultPlan` directly — glob targeting, call
counters, seeded probability, the audit log.  Mechanism tests check each
fault kind's observable effect through :class:`FaultInjectingSource`.
Composition tests prove the harness exercises the real robustness
layers: a ``times=1`` transient under ``retrying_opener`` is absorbed by
one retry, and a flipped payload bit in a sharded v4 archive surfaces as
:class:`PartIntegrityError` naming the damaged part.
"""

import pytest

from repro.core.container import PartIntegrityError
from repro.core.tac import TACCompressor
from repro.engine import default_shard_opener
from repro.engine.archive import LazyBatchArchive
from repro.faults import (
    FAULT_KINDS,
    FaultInjectingSource,
    FaultPlan,
    FaultRule,
    archive_part_spans,
    faulty_opener,
)
from repro.serve import RetryPolicy, retrying_opener
from tests.helpers import legacy_archive_bytes, two_level_dataset, write_archive


class MemSource:
    """In-memory byte source that counts the reads reaching it."""

    def __init__(self, blob: bytes, label: str = "mem"):
        self.blob = bytes(blob)
        self.label = label
        self.reads = 0
        self.closed = False

    def read_at(self, offset: int, length: int) -> bytes:
        self.reads += 1
        return self.blob[offset : offset + length]

    def close(self) -> None:
        self.closed = True


# ---------------------------------------------------------------------------
# rule and spec validation
# ---------------------------------------------------------------------------


class TestFaultRule:
    def test_known_kinds_construct(self):
        for kind in FAULT_KINDS:
            assert FaultRule(kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule("segfault")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": -0.1},
            {"p": 1.5},
            {"bit": 8},
            {"bit": -1},
            {"times": -1},
            {"after": -2},
            {"delay": -0.5},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultRule("oserror", **kwargs)


class TestFaultPlanParse:
    def test_single_clause_defaults(self):
        plan = FaultPlan.parse("latency")
        assert len(plan.rules) == 1
        assert plan.rules[0] == FaultRule("latency")

    def test_multi_clause_with_typed_options(self):
        plan = FaultPlan.parse(
            "oserror:match=*.rpsh,p=0.25,times=3;bitflip:match=*/L0/b2,offset=7,bit=5",
            seed=42,
        )
        assert plan.seed == 42
        assert plan.rules[0] == FaultRule("oserror", match="*.rpsh", p=0.25, times=3)
        assert plan.rules[1] == FaultRule("bitflip", match="*/L0/b2", offset=7, bit=5)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="no rules"):
            FaultPlan.parse("  ;  ")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="bad fault option"):
            FaultPlan.parse("oserror:frequency=2")

    def test_option_without_value_rejected(self):
        with pytest.raises(ValueError, match="bad fault option"):
            FaultPlan.parse("oserror:times")

    def test_unknown_kind_in_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("segfault:p=1.0")


# ---------------------------------------------------------------------------
# firing policy
# ---------------------------------------------------------------------------


class TestFaultPlanFire:
    def test_times_limits_firing(self):
        plan = FaultPlan([FaultRule("oserror", times=2)])
        fired = [bool(plan.fire("s", 0, 8)) for _ in range(5)]
        assert fired == [True, True, False, False, False]
        assert plan.n_fired == 2

    def test_after_skips_early_matches(self):
        plan = FaultPlan([FaultRule("oserror", after=2, times=1)])
        fired = [bool(plan.fire("s", 0, 8)) for _ in range(4)]
        assert fired == [False, False, True, False]

    def test_zero_probability_never_fires(self):
        plan = FaultPlan([FaultRule("oserror", p=0.0)], seed=1)
        assert not any(plan.fire("s", 0, 8) for _ in range(50))
        assert plan.summary()[0]["matched"] == 50

    def test_seeded_probability_is_replayable(self):
        def pattern(seed):
            plan = FaultPlan([FaultRule("oserror", p=0.3)], seed=seed)
            return [bool(plan.fire("s", 0, 8)) for _ in range(64)]

        first, second = pattern(7), pattern(7)
        assert first == second
        assert any(first) and not all(first)
        assert pattern(8) != first  # a different seed gives a different run

    def test_source_name_glob(self):
        plan = FaultPlan([FaultRule("oserror", match="*.rpsh")])
        assert plan.fire("arch.shard-0000.rpsh", 0, 8)
        assert not plan.fire("arch.rpbt", 0, 8)

    def test_part_targeting_requires_span_intersection(self):
        spans = {"toy/tac/L0/b3": (100, 50)}
        plan = FaultPlan([FaultRule("bitflip", match="*/L0/b3")])
        assert not plan.fire("s", 0, 50, spans)  # read ends before the part
        events = plan.fire("s", 120, 16, spans)  # read inside the part
        assert events and events[0].target == "toy/tac/L0/b3"
        assert events[0].span == (100, 50)
        assert events[0].read == (120, 16)

    def test_events_audit_log_accumulates(self):
        plan = FaultPlan([FaultRule("truncate", times=2)])
        plan.fire("a", 0, 4)
        plan.fire("b", 8, 4)
        kinds = [event.kind for event in plan.fired_events()]
        assert kinds == ["truncate", "truncate"]
        assert plan.fired_events("bitflip") == []
        assert [event.target for event in plan.events] == ["a", "b"]

    def test_summary_counts_matched_and_fired(self):
        plan = FaultPlan([FaultRule("oserror", times=1), FaultRule("latency", match="no-such")])
        for _ in range(3):
            plan.fire("s", 0, 8)
        rows = plan.summary()
        assert rows[0] == {"kind": "oserror", "match": "*", "matched": 3, "fired": 1}
        assert rows[1] == {"kind": "latency", "match": "no-such", "matched": 0, "fired": 0}


# ---------------------------------------------------------------------------
# injection mechanisms
# ---------------------------------------------------------------------------


class TestFaultInjectingSource:
    def test_oserror_raises_before_inner_read(self):
        inner = MemSource(b"payload-bytes")
        src = FaultInjectingSource(inner, FaultPlan([FaultRule("oserror", times=1)]), "s")
        with pytest.raises(OSError, match="injected transient fault"):
            src.read_at(0, 7)
        assert inner.reads == 0  # fault fired before any bytes moved
        assert src.read_at(0, 7) == b"payload"

    def test_latency_sleeps_before_answering(self, monkeypatch):
        slept = []
        monkeypatch.setattr("repro.faults.inject.time.sleep", slept.append)
        inner = MemSource(b"x" * 16)
        plan = FaultPlan([FaultRule("latency", delay=0.25, times=1)])
        src = FaultInjectingSource(inner, plan, "s")
        assert src.read_at(0, 4) == b"xxxx"
        assert slept == [0.25]
        src.read_at(0, 4)
        assert slept == [0.25]  # times=1: only the first read stalls

    def test_truncate_returns_half_the_bytes(self):
        src = FaultInjectingSource(
            MemSource(b"0123456789"), FaultPlan([FaultRule("truncate", times=1)]), "s"
        )
        assert src.read_at(0, 10) == b"01234"
        assert src.read_at(0, 10) == b"0123456789"

    def test_bitflip_at_offset_within_part_span(self):
        blob = bytes(range(64))
        spans = {"e/L0/b0": (16, 8)}
        plan = FaultPlan([FaultRule("bitflip", match="e/L0/b0", offset=3, bit=2)])
        src = FaultInjectingSource(MemSource(blob), plan, "s", spans)
        data = src.read_at(0, 64)
        assert data[19] == blob[19] ^ 0b100  # span offset 16 + rule offset 3
        assert data[:19] == blob[:19] and data[20:] == blob[20:]

    def test_bitflip_default_hits_first_readable_span_byte(self):
        blob = bytes(range(64))
        spans = {"e/L0/b0": (16, 8)}
        plan = FaultPlan([FaultRule("bitflip", match="e/L0/b0")])
        src = FaultInjectingSource(MemSource(blob), plan, "s", spans)
        data = src.read_at(20, 8)  # window starts inside the part
        assert data[0] == blob[20] ^ 1

    def test_bitflip_outside_read_window_is_a_noop(self):
        blob = bytes(range(64))
        spans = {"e/L0/b0": (16, 8)}
        # offset 40 points past the span AND past this read: nothing flips.
        plan = FaultPlan([FaultRule("bitflip", match="e/L0/b0", offset=40)])
        src = FaultInjectingSource(MemSource(blob), plan, "s", spans)
        assert src.read_at(16, 8) == blob[16:24]

    def test_close_propagates(self):
        inner = MemSource(b"")
        FaultInjectingSource(inner, FaultPlan([]), "s").close()
        assert inner.closed

    def test_faulty_opener_shares_one_plan(self):
        plan = FaultPlan([FaultRule("oserror", times=1)])
        opener = faulty_opener(lambda name: MemSource(b"abc", label=name), plan)
        a, b = opener("s0"), opener("s1")
        with pytest.raises(OSError):
            a.read_at(0, 1)
        b.read_at(0, 1)  # the shared times=1 budget is already spent
        assert plan.n_fired == 1


# ---------------------------------------------------------------------------
# composition with the real archive stack
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sharded_archive(tmp_path_factory):
    tac = TACCompressor(brick_size=4)
    comp = tac.compress(two_level_dataset(n=16, seed=3), 1e-3, mode="abs")
    head = tmp_path_factory.mktemp("faults") / "arch.rpbt"
    return write_archive(head, {"toy/tac": comp}, shard_size=4096)


class TestArchiveComposition:
    def test_part_spans_qualified_and_complete(self, sharded_archive):
        spans = archive_part_spans(sharded_archive)
        with LazyBatchArchive.open(sharded_archive) as lazy:
            names = {
                f"toy/tac/{part}" for part in lazy.entry("toy/tac").parts
            }
        qualified = {name for table in spans.values() for name in table}
        assert qualified == names

    def test_monolithic_archive_has_no_spans(self, tmp_path):
        tac = TACCompressor(brick_size=4)
        comp = tac.compress(two_level_dataset(n=16, seed=3), 1e-3, mode="abs")
        mono = tmp_path / "mono.rpbt"
        mono.write_bytes(legacy_archive_bytes({"toy/tac": comp.to_bytes()}, 2))
        assert archive_part_spans(mono) == {}

    def test_transient_fault_absorbed_by_retry(self, sharded_archive):
        plan = FaultPlan([FaultRule("oserror", match="*.rpsh", times=1)])
        opener = retrying_opener(
            faulty_opener(default_shard_opener(sharded_archive.parent), plan),
            policy=RetryPolicy(sleep=lambda seconds: None),
        )
        with LazyBatchArchive.open(sharded_archive, shard_opener=opener) as lazy:
            entry = lazy.entry("toy/tac")
            for name in sorted(entry.parts):
                entry.parts[name]
        assert plan.n_fired == 1
        assert opener.stats.snapshot()["read_retries"] >= 1

    def test_bitflip_surfaces_as_part_integrity_error(self, sharded_archive):
        spans = archive_part_spans(sharded_archive)
        plan = FaultPlan([FaultRule("bitflip", match="*/L1/b0", offset=1)])
        opener = faulty_opener(
            default_shard_opener(sharded_archive.parent), plan, spans
        )
        with LazyBatchArchive.open(sharded_archive, shard_opener=opener) as lazy:
            entry = lazy.entry("toy/tac")
            assert entry.parts.verifies_integrity  # streamed default is v4
            with pytest.raises(PartIntegrityError, match="CRC-32") as excinfo:
                entry.parts["L1/b0"]
        assert excinfo.value.part == "L1/b0"
        assert excinfo.value.level == 1
        assert plan.n_fired >= 1

    def test_truncated_part_read_fails_loudly(self, sharded_archive):
        # Span-targeted, so the tear hits a payload read (head parsing is
        # untouched) and the short read fails the part's CRC check.
        spans = archive_part_spans(sharded_archive)
        plan = FaultPlan([FaultRule("truncate", match="*/L1/b0", times=1)])
        opener = faulty_opener(
            default_shard_opener(sharded_archive.parent), plan, spans
        )
        with LazyBatchArchive.open(sharded_archive, shard_opener=opener) as lazy:
            entry = lazy.entry("toy/tac")
            with pytest.raises(PartIntegrityError):
                entry.parts["L1/b0"]
            assert entry.parts["L1/b0"]  # times=1: the retry-shape read heals
