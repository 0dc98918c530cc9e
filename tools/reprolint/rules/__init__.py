"""Rule registry: every rule module registers itself on import.

A rule is a class with

* ``rule_id`` — ``"RL001"``-style identifier (unique);
* ``name`` / ``description`` — one-line summary + rationale;
* either ``check_module(module) -> Iterable[Finding]`` (per-file rules,
  called once per parsed file) or ``check_repo(ctx) -> Iterable[Finding]``
  (repo-level rules, called once with a :class:`RepoContext`);

decorated with :func:`register`.  The engine instantiates each rule once
per run, so rules may keep per-run state (RL003 caches the fixture
inventory).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from tools.reprolint.core import Finding, ParsedModule

_REGISTRY: dict[str, Type] = {}


def register(cls):
    """Class decorator adding a rule to the registry (import-time)."""
    rule_id = getattr(cls, "rule_id", None)
    if not rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    _REGISTRY[rule_id] = cls
    return cls


@dataclass
class RepoContext:
    """What repo-level rules see: the root plus every linted module."""

    root: Path
    modules: list = field(default_factory=list)  # list[ParsedModule]


class Rule:
    """Base class: default no-op hooks so rules override only one."""

    rule_id = ""
    name = ""
    description = ""

    def check_module(self, module: "ParsedModule") -> Iterable["Finding"]:
        return ()

    def check_repo(self, ctx: RepoContext) -> Iterable["Finding"]:
        return ()


def all_rules() -> dict[str, Type]:
    """The registry, importing the built-in rule modules on first use."""
    # Import here (not at package import) so the registry is populated
    # exactly once and ``tools.reprolint.core`` has no import cycle.
    from tools.reprolint.rules import (  # noqa: F401
        rl001_guarded_fields,
        rl002_leak_on_raise,
        rl003_format_golden,
        rl004_unawaited_future,
        rl005_nondeterminism,
        rl006_test_only_api,
    )

    return dict(_REGISTRY)
