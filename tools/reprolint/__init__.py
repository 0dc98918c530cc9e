"""reprolint: invariant-aware static analysis for this repository.

Ordinary linters check syntax-level hygiene; the invariants that have
actually bitten this codebase are semantic and repo-specific:

* lock-guarded mutable state in the serving layer (the ``_ShardStore``
  close-vs-open race fixed in PR 6) — :mod:`RL001
  <tools.reprolint.rules.rl001_guarded_fields>`;
* owner-must-close resource lifecycles around ``shard_opener`` sources
  (the lazy-archive open leak fixed in PR 6) — :mod:`RL002
  <tools.reprolint.rules.rl002_leak_on_raise>`;
* byte-exact wire formats: every ``*_VERSION`` / magic / struct-format
  bump must land with a golden fixture — :mod:`RL003
  <tools.reprolint.rules.rl003_format_golden>`;
* executor futures whose exceptions vanish — :mod:`RL004
  <tools.reprolint.rules.rl004_unawaited_future>`;
* nondeterminism inside codec paths, which breaks byte-reproducibility —
  :mod:`RL005 <tools.reprolint.rules.rl005_nondeterminism>`;
* public ``src/`` definitions that only tests reach —
  :mod:`RL006 <tools.reprolint.rules.rl006_test_only_api>`.

The framework is a plugin registry (:mod:`tools.reprolint.rules`), a
per-file AST dispatch engine (:mod:`tools.reprolint.engine`), inline
``# reprolint: disable=RULE`` suppressions
(:mod:`tools.reprolint.core`).  ``repro lint`` (or
``python -m tools.reprolint``) runs it; exit status is non-zero exactly
when there are findings — nothing is grandfathered.
"""

from tools.reprolint.core import Finding, ParsedModule
from tools.reprolint.engine import LintResult, lint_paths

__all__ = ["Finding", "ParsedModule", "LintResult", "lint_paths"]
