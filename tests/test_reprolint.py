"""Tests for tools/reprolint: the framework (suppressions, fingerprints,
CLI exit codes) and each rule's fire/clean contract.

The RL001 and RL002 true-positive fixtures are minimized reproductions of
the PR 6 serve-layer bugs (the ``_ShardStore`` close-vs-open race and the
``LazyBatchArchive.open`` leak-on-raise) — the rules exist because those
shipped, so the tests pin that they would have been caught.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from tools.reprolint.cli import main as lint_main
from tools.reprolint.core import parse_suppressions
from tools.reprolint.engine import lint_paths
from tools.reprolint.rules import all_rules


def write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text).lstrip("\n"), encoding="utf-8")
    return path


def run_rules(root: Path, rules: list[str]):
    return lint_paths(root, ["."], rules).findings


def rule_lines(findings, rule: str) -> list[int]:
    return [f.line for f in findings if f.rule == rule]


# ---------------------------------------------------------------------------
# RL001 — guarded-field access
# ---------------------------------------------------------------------------


class TestRL001:
    RACE = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._sources = {}

            def fetch(self, name):
                with self._lock:
                    self._sources[name] = object()

            def close(self):
                for src in self._sources:   # line 15: unlocked read
                    pass
                self._sources = {}          # line 17: unlocked write
        """

    def test_fires_on_pr6_race_shape(self, tmp_path):
        """The _ShardStore close-vs-open race: _sources is written under
        the lock by fetch() but swept without it by close()."""
        write(tmp_path, "store.py", self.RACE)
        findings = run_rules(tmp_path, ["RL001"])
        assert len(findings) == 2
        assert all(f.rule == "RL001" and "_sources" in f.message for f in findings)
        assert {f.context for f in findings} == {"Store.close"}

    def test_clean_when_every_access_is_locked(self, tmp_path):
        write(
            tmp_path,
            "store.py",
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._sources = {}

                def fetch(self, name):
                    with self._lock:
                        self._sources[name] = object()

                def close(self):
                    with self._lock:
                        self._sources = {}
            """,
        )
        assert run_rules(tmp_path, ["RL001"]) == []

    def test_caller_holds_lock_helper_is_clean(self, tmp_path):
        """The _check_open idiom: a private helper reached only from
        lock-held call sites counts as locked itself."""
        write(
            tmp_path,
            "store.py",
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._closed = False

                def _check(self):
                    if self._closed:
                        raise RuntimeError("closed")

                def get(self, name):
                    with self._lock:
                        self._check()
                        return name

                def close(self):
                    with self._lock:
                        self._closed = True
            """,
        )
        assert run_rules(tmp_path, ["RL001"]) == []

    def test_closure_under_lock_counts_as_unlocked(self, tmp_path):
        """A callback defined inside a lock block runs later on some pool
        thread — accesses inside it are not protected by the lock."""
        write(
            tmp_path,
            "store.py",
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self, pool):
                    with self._lock:
                        self._n = self._n + 1

                        def callback(_future):
                            self._n = self._n + 1

                        pool.submit(lambda: None).add_done_callback(callback)
            """,
        )
        findings = run_rules(tmp_path, ["RL001"])
        assert len(findings) == 2  # read + write inside the closure
        assert {f.context for f in findings} == {"Store.bump"}

    def test_init_is_exempt(self, tmp_path):
        write(
            tmp_path,
            "store.py",
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def bump(self):
                    with self._lock:
                        self._n += 1
            """,
        )
        assert run_rules(tmp_path, ["RL001"]) == []

    def test_suppression_comment_silences(self, tmp_path):
        source = self.RACE.replace(
            "for src in self._sources:   # line 15: unlocked read",
            "for src in self._sources:  # reprolint: disable=RL001",
        ).replace(
            "self._sources = {}          # line 17: unlocked write",
            "self._sources = {}  # reprolint: disable=RL001",
        )
        write(tmp_path, "store.py", source)
        assert run_rules(tmp_path, ["RL001"]) == []


# ---------------------------------------------------------------------------
# RL002 — leak-on-raise
# ---------------------------------------------------------------------------


class TestRL002:
    def test_fires_on_pr6_leak_shape(self, tmp_path):
        """The lazy-archive head-parse leak: open a source, then raise on
        a validation failure without closing it."""
        write(
            tmp_path,
            "archive.py",
            """
            def load(opener, name):
                src = opener(name)
                head = src.read_at(0, 4)
                if head != b"RPBT":
                    raise ValueError("bad magic")
                return src
            """,
        )
        findings = run_rules(tmp_path, ["RL002"])
        assert rule_lines(findings, "RL002") == [2]
        assert "'src'" in findings[0].message

    def test_try_except_close_is_clean(self, tmp_path):
        write(
            tmp_path,
            "archive.py",
            """
            def load(opener, name):
                src = opener(name)
                try:
                    if src.read_at(0, 4) != b"RPBT":
                        raise ValueError("bad magic")
                except Exception:
                    src.close()
                    raise
                return src
            """,
        )
        assert run_rules(tmp_path, ["RL002"]) == []

    def test_with_statement_is_clean(self, tmp_path):
        write(
            tmp_path,
            "archive.py",
            """
            def load(name):
                fh = open(name, "rb")
                with fh:
                    if fh.read(4) != b"RPBT":
                        raise ValueError("bad magic")
                    return fh.read()
            """,
        )
        assert run_rules(tmp_path, ["RL002"]) == []

    def test_escape_before_raise_is_clean(self, tmp_path):
        write(
            tmp_path,
            "archive.py",
            """
            def load(opener, name, registry):
                src = opener(name)
                registry.adopt(src)
                if registry.full():
                    raise RuntimeError("registry full")
            """,
        )
        assert run_rules(tmp_path, ["RL002"]) == []

    def test_fires_on_inline_acquisition_handed_to_a_fallible_call(self, tmp_path):
        """The ``LazyCompressedDataset.open`` leak: the source is opened in
        the argument list, so when the parse raises nobody holds it."""
        write(
            tmp_path,
            "container.py",
            """
            class Lazy:
                @classmethod
                def open(cls, path, offset=0):
                    return cls._parse(make_source(path), offset)
            """,
        )
        findings = run_rules(tmp_path, ["RL002"])
        assert rule_lines(findings, "RL002") == [4]
        assert "make_source" in findings[0].message and "cls._parse" in findings[0].message

    def test_inline_acquisition_adopted_by_a_wrapper_or_context_is_clean(self, tmp_path):
        write(
            tmp_path,
            "sources.py",
            """
            from contextlib import ExitStack, closing

            def wrap(path, opener, plan):
                return ThrottledSource(opener(path), plan)

            def chain(base, plan):
                return faulty_opener(default_shard_opener(base), plan)

            def read(path):
                with ExitStack() as stack:
                    fh = stack.enter_context(open(path, "rb"))
                    with closing(make_source(path)) as src:
                        return fh.read(), src.read_at(0, 4)
            """,
        )
        assert run_rules(tmp_path, ["RL002"]) == []

    def test_init_acquisition_with_later_call_fires(self, tmp_path):
        """__init__ is stricter: the caller never sees a partially built
        object, so any fallible later step must be try-wrapped."""
        write(
            tmp_path,
            "reader.py",
            """
            class Reader:
                def __init__(self, path, cache_bytes):
                    self._archive = open(path, "rb")
                    self._cache = make_cache(cache_bytes)
            """,
        )
        findings = run_rules(tmp_path, ["RL002"])
        assert rule_lines(findings, "RL002") == [3]
        assert "__init__" in findings[0].message

    def test_init_acquisition_with_try_guard_is_clean(self, tmp_path):
        write(
            tmp_path,
            "reader.py",
            """
            class Reader:
                def __init__(self, path, cache_bytes):
                    self._archive = open(path, "rb")
                    try:
                        self._cache = make_cache(cache_bytes)
                    except BaseException:
                        self._archive.close()
                        raise
            """,
        )
        assert run_rules(tmp_path, ["RL002"]) == []

    def test_raise_in_sibling_branch_is_clean(self, tmp_path):
        """Path sensitivity: a raise in the else-branch of the if that
        performed the acquisition can never run after it."""
        write(
            tmp_path,
            "writer.py",
            """
            class Writer:
                def __init__(self, sink):
                    if isinstance(sink, str):
                        self._fh = open(sink, "wb")
                    else:
                        raise TypeError("need a path")
                    try:
                        self._fh.write(b"MAGIC")
                    except BaseException:
                        self._fh.close()
                        raise
            """,
        )
        assert run_rules(tmp_path, ["RL002"]) == []

    def test_reraise_in_own_handler_is_clean(self, tmp_path):
        """The breaking_opener shape: a raise inside an except handler of
        the try whose body IS the acquisition means it never succeeded."""
        write(
            tmp_path,
            "breaker.py",
            """
            def open_breaking(opener, name, breaker):
                try:
                    src = opener(name)
                except Exception:
                    breaker.record_failure(name)
                    raise
                breaker.record_success(name)
                return src
            """,
        )
        assert run_rules(tmp_path, ["RL002"]) == []


# ---------------------------------------------------------------------------
# RL003 — format-bump-without-golden
# ---------------------------------------------------------------------------


class TestRL003:
    def _repo(self, tmp_path, version="2", inventory_value="2", fixture=True):
        write(
            tmp_path,
            "src/repro/core/fmt.py",
            f"""
            import struct

            FMT_VERSION = {version}
            _HEAD = struct.Struct("<BQ")
            """,
        )
        fixture_rel = "tests/data/golden_fmt.bin"
        if fixture:
            write(tmp_path, fixture_rel, "")
        inventory = {
            "constants": {
                "src/repro/core/fmt.py::FMT_VERSION": {
                    "value": inventory_value,
                    "fixtures": [fixture_rel],
                },
                "src/repro/core/fmt.py::_HEAD": {
                    "value": "struct.Struct('<BQ')",
                    "fixtures": [fixture_rel],
                },
            }
        }
        write(tmp_path, "tests/data/golden_inventory.json", json.dumps(inventory))
        return tmp_path

    def test_clean_when_inventory_matches(self, tmp_path):
        root = self._repo(tmp_path)
        assert lint_paths(root, ["src"], ["RL003"]).findings == []

    def test_fires_on_version_bump_without_inventory_update(self, tmp_path):
        root = self._repo(tmp_path, version="3", inventory_value="2")
        findings = lint_paths(root, ["src"], ["RL003"]).findings
        assert len(findings) == 1
        assert "changed" in findings[0].message
        assert findings[0].path == "src/repro/core/fmt.py"

    def test_fires_on_uncovered_constant(self, tmp_path):
        root = self._repo(tmp_path)
        write(
            root,
            "src/repro/core/extra.py",
            """
            NEW_MAGIC = b"XXXX"
            """,
        )
        findings = lint_paths(root, ["src"], ["RL003"]).findings
        assert len(findings) == 1
        assert "no row" in findings[0].message

    def test_fires_on_stale_inventory_row(self, tmp_path):
        root = self._repo(tmp_path)
        write(root, "src/repro/core/fmt.py", "import struct\n")
        findings = lint_paths(root, ["src"], ["RL003"]).findings
        assert len(findings) == 2  # both rows went stale
        assert all("stale" in f.message for f in findings)
        assert all(f.path == "tests/data/golden_inventory.json" for f in findings)

    def test_fires_on_missing_fixture_file(self, tmp_path):
        root = self._repo(tmp_path, fixture=False)
        findings = lint_paths(root, ["src"], ["RL003"]).findings
        assert findings and all("missing fixture" in f.message for f in findings)

    def test_fires_when_inventory_absent(self, tmp_path):
        write(tmp_path, "src/repro/core/fmt.py", "FMT_VERSION = 1\n")
        findings = lint_paths(tmp_path, ["src"], ["RL003"]).findings
        assert len(findings) == 1
        assert "missing" in findings[0].message


# ---------------------------------------------------------------------------
# RL004 — unawaited executor future
# ---------------------------------------------------------------------------


class TestRL004:
    def test_fires_on_dropped_submit(self, tmp_path):
        write(
            tmp_path,
            "pool.py",
            """
            def run(pool, jobs):
                for job in jobs:
                    pool.submit(job)
            """,
        )
        findings = run_rules(tmp_path, ["RL004"])
        assert rule_lines(findings, "RL004") == [3]
        assert "discarded" in findings[0].message

    def test_fires_on_cancel_only_future(self, tmp_path):
        """The deadline-path shape: keeping a future just to cancel it
        still swallows the worker's exception."""
        write(
            tmp_path,
            "pool.py",
            """
            def run(pool, job, deadline):
                future = pool.submit(job)
                if deadline.expired():
                    future.cancel()
            """,
        )
        findings = run_rules(tmp_path, ["RL004"])
        assert rule_lines(findings, "RL004") == [2]
        assert "cancel()" in findings[0].message

    def test_result_consumption_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pool.py",
            """
            def run(pool, job):
                future = pool.submit(job)
                return future.result()
            """,
        )
        assert run_rules(tmp_path, ["RL004"]) == []

    def test_escape_to_wait_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pool.py",
            """
            from concurrent.futures import wait

            def run(pool, jobs):
                pending = []
                for job in jobs:
                    future = pool.submit(job)
                    pending.append(future)
                wait(pending)
            """,
        )
        assert run_rules(tmp_path, ["RL004"]) == []

    def test_store_into_mapping_is_clean(self, tmp_path):
        write(
            tmp_path,
            "pool.py",
            """
            def run(pool, jobs, in_flight):
                for key, job in jobs.items():
                    future = pool.submit(job)
                    in_flight[key] = future
            """,
        )
        assert run_rules(tmp_path, ["RL004"]) == []


# ---------------------------------------------------------------------------
# RL005 — nondeterminism in codec paths
# ---------------------------------------------------------------------------


class TestRL005:
    def test_fires_on_wall_clock_in_zone(self, tmp_path):
        write(
            tmp_path,
            "src/repro/core/meta.py",
            """
            import time

            def head_record(method):
                return {"method": method, "created": time.time()}
            """,
        )
        findings = run_rules(tmp_path, ["RL005"])
        assert rule_lines(findings, "RL005") == [4]
        assert "time.time" in findings[0].message

    def test_fires_on_unseeded_rng_in_zone(self, tmp_path):
        write(
            tmp_path,
            "src/repro/sz/dither.py",
            """
            import numpy as np

            def dither(block):
                rng = np.random.default_rng()
                return block + rng.normal(size=block.shape)
            """,
        )
        findings = run_rules(tmp_path, ["RL005"])
        assert rule_lines(findings, "RL005") == [4]

    def test_seeded_rng_and_perf_counter_are_clean(self, tmp_path):
        write(
            tmp_path,
            "src/repro/ingest/stats.py",
            """
            import time

            import numpy as np

            def jitter(seed, n):
                start = time.perf_counter()
                rng = np.random.default_rng(seed)
                return rng.normal(size=n), time.perf_counter() - start
            """,
        )
        assert run_rules(tmp_path, ["RL005"]) == []

    def test_outside_zone_is_clean(self, tmp_path):
        write(
            tmp_path,
            "src/repro/serve/stats.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert run_rules(tmp_path, ["RL005"]) == []


# ---------------------------------------------------------------------------
# RL006 — test-only public API
# ---------------------------------------------------------------------------


class TestRL006:
    LIB = """
    def used():
        return 1

    def only_tested():
        return 2

    def _private():
        return 3

    class Box:
        def size(self):
            def nested():
                return 4
            return nested()

        def only_tested_method(self):
            return 5
    """

    def _repo(self, tmp_path, **extra):
        write(tmp_path, "src/repro/lib.py", self.LIB)
        write(tmp_path, "src/repro/app.py", "from repro.lib import Box, used\n\nused(); Box().size()\n")
        write(
            tmp_path,
            "tests/test_lib.py",
            "from repro.lib import Box, only_tested\n\nonly_tested(); Box().only_tested_method()\n",
        )
        for rel, text in extra.items():
            write(tmp_path, rel, text)
        return tmp_path

    @staticmethod
    def flagged(findings) -> list[str]:
        return sorted(f.context for f in findings if f.rule == "RL006")

    def test_test_only_defs_are_flagged(self, tmp_path):
        findings = run_rules(self._repo(tmp_path), ["RL006"])
        assert self.flagged(findings) == ["Box.only_tested_method", "only_tested"]
        by_name = {f.context: f for f in findings}
        assert by_name["only_tested"].path == "src/repro/lib.py"
        assert by_name["only_tested"].line == 4
        assert "referenced only by tests" in by_name["only_tested"].message

    @pytest.mark.parametrize(
        "rel,text",
        [
            ("src/repro/other.py", "from repro.lib import only_tested\n"),
            ("examples/demo.py", "import repro.lib as lib\n\nlib.only_tested()\n"),
            ("benchmarks/bench_lib.py", "from repro import lib\n\nlib.only_tested()\n"),
            ("tools/report.py", "from repro.lib import only_tested as run\n"),
            ("src/repro/reg.py", "from repro import lib\n\nTABLE = {'x': lib.only_tested}\n"),
        ],
        ids=["src-import", "example-attribute-call", "benchmark", "tool-alias", "registry-dict"],
    )
    def test_a_non_test_reference_clears_it(self, tmp_path, rel, text):
        findings = run_rules(self._repo(tmp_path, **{rel: text}), ["RL006"])
        assert self.flagged(findings) == ["Box.only_tested_method"]

    def test_registry_dict_in_a_package_init_is_a_caller(self, tmp_path):
        init = "from repro import lib\n\nREGISTRY = {'x': lib.only_tested}\n"
        findings = run_rules(self._repo(tmp_path, **{"src/repro/__init__.py": init}), ["RL006"])
        assert self.flagged(findings) == ["Box.only_tested_method"]

    def test_an_init_re_export_is_not_a_caller(self, tmp_path):
        init = (
            "from repro.lib import Box, only_tested\n\n"
            "__all__ = ['Box', 'only_tested', 'only_tested_method']\n"
        )
        findings = run_rules(self._repo(tmp_path, **{"src/repro/__init__.py": init}), ["RL006"])
        assert self.flagged(findings) == ["Box.only_tested_method", "only_tested"]

    def test_narrow_paths_still_read_every_zone(self, tmp_path):
        root = self._repo(
            tmp_path, **{"examples/demo.py": "from repro.lib import only_tested\n"}
        )
        assert self.flagged(lint_paths(root, ["src/repro/lib.py"], ["RL006"]).findings) == [
            "Box.only_tested_method"
        ]
        # Only src/ definitions are audited.
        assert lint_paths(root, ["examples", "tests"], ["RL006"]).findings == []

    def test_inline_suppression_is_honoured(self, tmp_path):
        lib = self.LIB.replace(
            "    def only_tested():",
            "    # reprolint: disable=RL006  (documented seam)\n    def only_tested():",
        ).replace(
            "def only_tested_method(self):",
            "def only_tested_method(self):  # reprolint: disable=RL006  (inverse of size)",
        )
        root = self._repo(tmp_path, **{"src/repro/lib.py": lib})
        assert run_rules(root, ["RL006"]) == []


# ---------------------------------------------------------------------------
# suppressions, fingerprints, CLI
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_trailing_and_standalone_comments(self):
        table = parse_suppressions(
            "x = risky()  # reprolint: disable=RL002\n"
            "# reprolint: disable=RL001,RL004\n"
            "y = other()\n"
        )
        assert table.is_suppressed("RL002", 1)
        assert table.is_suppressed("RL001", 3) and table.is_suppressed("RL004", 3)
        assert not table.is_suppressed("RL001", 1)

    def test_disable_all_and_disable_file(self):
        table = parse_suppressions(
            "a = 1  # reprolint: disable=all\n# reprolint: disable-file=RL005\n"
        )
        assert table.is_suppressed("RL003", 1)
        assert table.is_suppressed("RL005", 999)
        assert not table.is_suppressed("RL001", 999)


class TestFingerprints:
    def test_line_shift_keeps_fingerprint(self, tmp_path):
        src = """
        import time

        def head():
            return time.time()
        """
        write(tmp_path, "src/repro/core/a.py", src)
        before = run_rules(tmp_path, ["RL005"])[0].fingerprint()
        write(tmp_path, "src/repro/core/a.py", "# a new leading comment\n" + textwrap.dedent(src))
        after = run_rules(tmp_path, ["RL005"])[0].fingerprint()
        assert before == after

    def test_duplicate_findings_get_distinct_ordinals(self, tmp_path):
        write(
            tmp_path,
            "src/repro/core/a.py",
            """
            import time

            def head():
                a = time.time()
                b = time.time()
                return a + b
            """,
        )
        findings = run_rules(tmp_path, ["RL005"])
        assert len(findings) == 2
        assert findings[0].ordinal != findings[1].ordinal
        assert findings[0].fingerprint() != findings[1].fingerprint()


class TestCLIExitCodes:
    def _seed_violation(self, root: Path) -> None:
        write(
            root,
            "src/repro/core/bad.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )

    def _argv(self, root: Path, *extra: str) -> list[str]:
        return [
            "--root", str(root),
            "--rules", "RL005",
            "src",
        ] + list(extra)

    def test_zero_on_clean_tree(self, tmp_path, capsys):
        write(tmp_path, "src/repro/core/ok.py", "X = 1\n")
        assert lint_main(self._argv(tmp_path)) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_nonzero_on_seeded_violation(self, tmp_path, capsys):
        self._seed_violation(tmp_path)
        assert lint_main(self._argv(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "RL005" in out and "bad.py" in out and "1 finding(s)" in out

    def test_fixing_the_violation_clears_the_gate(self, tmp_path):
        self._seed_violation(tmp_path)
        assert lint_main(self._argv(tmp_path)) == 1
        write(tmp_path, "src/repro/core/bad.py", "X = 1\n")
        assert lint_main(self._argv(tmp_path)) == 0

    @pytest.mark.parametrize(
        "option", [["--baseline", "bl.json"], ["--no-baseline"], ["--update-baseline"]]
    )
    def test_baseline_options_are_gone(self, tmp_path, option):
        # Nothing is grandfathered: a finding is fixed or suppressed inline.
        self._seed_violation(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            lint_main(self._argv(tmp_path, *option))
        assert excinfo.value.code == 2

    def test_json_report_written(self, tmp_path):
        self._seed_violation(tmp_path)
        report = tmp_path / "report.json"
        assert lint_main(self._argv(tmp_path, "--json", str(report))) == 1
        data = json.loads(report.read_text())
        assert set(data) == {"files", "rules", "findings"}
        assert [f["rule"] for f in data["findings"]] == ["RL005"]

    def test_unknown_rule_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--root", str(tmp_path), "--rules", "RL999", "src"])
        assert excinfo.value.code == 2

    def test_list_rules_names_all_six(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert rule_id in out


class TestRegistry:
    def test_six_rules_registered(self):
        rules = all_rules()
        assert set(rules) == {"RL001", "RL002", "RL003", "RL004", "RL005", "RL006"}
        for rule_id, cls in rules.items():
            assert cls.rule_id == rule_id
            assert cls.name and cls.description

    def test_syntax_error_becomes_rl000_finding(self, tmp_path):
        write(tmp_path, "broken.py", "def broken(:\n")
        findings = run_rules(tmp_path, ["RL005"])
        assert len(findings) == 1
        assert findings[0].rule == "RL000"
        assert "does not parse" in findings[0].message


class TestRepoIsClean:
    def test_repo_lint_has_no_findings(self):
        """The committed tree must lint clean — the same gate CI enforces;
        there is no baseline to grandfather a finding."""
        root = Path(__file__).resolve().parents[1]
        result = lint_paths(root)
        assert result.findings == [], [f.render() for f in result.findings]
