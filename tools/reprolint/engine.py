"""The dispatch engine: collect files, parse once, run every rule.

Per-file rules (``check_module``) run against each parsed module;
repo-level rules (``check_repo``) run once with the full module list.
The engine then:

* drops findings suppressed by ``# reprolint:`` comments in the file the
  finding points at;
* assigns *ordinals* — among findings that share ``(rule, path, context,
  message)``, source order indexes them so their fingerprints stay
  distinct and stable;
* reports files that fail to parse as ``RL000`` findings (a syntax error
  must fail the lint gate, not hide code from it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from tools.reprolint.core import Finding, ParsedModule
from tools.reprolint.rules import RepoContext, all_rules

#: Directories searched when the CLI gets no explicit paths (only the
#: ones that exist are used).  ``tests/`` is deliberately excluded:
#: tests monkeypatch, fake clocks, and intentionally leak.
DEFAULT_PATHS = ("src", "tools", "benchmarks", "examples")

_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".mypy_cache", "build", "dist"}


def collect_files(root: Path, paths: Sequence[str]) -> list[Path]:
    """Python files under ``paths`` (repo-relative or absolute), sorted."""
    out: set[Path] = set()
    for entry in paths:
        base = Path(entry)
        if not base.is_absolute():
            base = root / base
        if base.is_file() and base.suffix == ".py":
            out.add(base.resolve())
            continue
        if not base.is_dir():
            continue
        for path in base.rglob("*.py"):
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            out.add(path.resolve())
    return sorted(out)


@dataclass
class LintResult:
    """Everything one run produced."""

    findings: list[Finding] = field(default_factory=list)
    n_files: int = 0
    rules_run: list[str] = field(default_factory=list)


def _assign_ordinals(findings: list[Finding]) -> list[Finding]:
    groups: dict[tuple, list[Finding]] = {}
    for finding in findings:
        key = (finding.rule, finding.path, finding.context, finding.message)
        groups.setdefault(key, []).append(finding)
    out: list[Finding] = []
    for group in groups.values():
        group.sort(key=lambda f: (f.line, f.col))
        for ordinal, finding in enumerate(group):
            if ordinal:
                finding = Finding(
                    rule=finding.rule,
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    message=finding.message,
                    context=finding.context,
                    ordinal=ordinal,
                )
            out.append(finding)
    out.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return out


def lint_paths(
    root: Path,
    paths: Sequence[str] | None = None,
    rule_ids: Iterable[str] | None = None,
) -> LintResult:
    """Run the selected rules over ``paths`` (default: the repo zones)."""
    root = root.resolve()
    if paths is None:
        paths = [p for p in DEFAULT_PATHS if (root / p).is_dir()]
    files = collect_files(root, paths)

    modules: list[ParsedModule] = []
    raw: list[Finding] = []
    for path in files:
        try:
            modules.append(ParsedModule.parse(path, root))
        except (SyntaxError, ValueError) as exc:
            relpath = path.relative_to(root).as_posix()
            raw.append(
                Finding(
                    rule="RL000",
                    path=relpath,
                    line=getattr(exc, "lineno", None) or 1,
                    col=0,
                    message=f"file does not parse: {exc.__class__.__name__}: {exc}",
                    context="<module>",
                )
            )

    registry = all_rules()
    selected = sorted(rule_ids) if rule_ids is not None else sorted(registry)
    unknown = [r for r in selected if r not in registry]
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")

    by_relpath = {module.relpath: module for module in modules}
    ctx = RepoContext(root=root, modules=modules)
    for rule_id in selected:
        rule = registry[rule_id]()
        for module in modules:
            raw.extend(rule.check_module(module))
        raw.extend(rule.check_repo(ctx))

    kept: list[Finding] = []
    for finding in raw:
        module = by_relpath.get(finding.path)
        if module is not None and module.suppressions.is_suppressed(
            finding.rule, finding.line
        ):
            continue
        kept.append(finding)

    return LintResult(
        findings=_assign_ordinals(kept),
        n_files=len(files),
        rules_run=selected,
    )
