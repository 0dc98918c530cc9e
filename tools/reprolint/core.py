"""Data model shared by every reprolint rule: findings, parsed modules,
and inline suppressions.

A :class:`Finding` is identified by a *fingerprint* that deliberately
excludes line numbers — ``(rule, path, context, message, ordinal)`` — so
a finding keeps its identity in JSON reports across unrelated edits to
the same file.  The
``ordinal`` disambiguates repeated identical findings in one context
(two leak-prone raises in one function) by their source order.

Suppressions are comments::

    x = risky()  # reprolint: disable=RL002
    # reprolint: disable=RL001,RL004   (suppresses the next line)
    # reprolint: disable-file=RL005    (suppresses the whole file)

``disable=all`` suppresses every rule for that line.  A suppression
comment on its own line applies to the next source line; a trailing
comment applies to its own line.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<rules>all|[A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)"
)

#: The wildcard spelling accepted by ``disable=``.
ALL_RULES = "all"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str
    context: str = "<module>"  # dotted qualname of the enclosing scope
    #: Source-order ordinal among identical (rule, path, context, message)
    #: findings; assigned by the engine, 0 for the first occurrence.
    ordinal: int = 0

    def fingerprint(self) -> str:
        """Line-number-free stable identity (the JSON report's key)."""
        raw = "|".join(
            (self.rule, self.path, self.context, self.message, str(self.ordinal))
        )
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message} [{self.context}]"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
            "fingerprint": self.fingerprint(),
        }


@dataclass
class Suppressions:
    """Per-file suppression table parsed from comments."""

    #: line number -> set of rule ids (or {"all"}) disabled on that line.
    by_line: dict[int, set[str]] = field(default_factory=dict)
    #: rule ids (or {"all"}) disabled for the whole file.
    file_wide: set[str] = field(default_factory=set)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if ALL_RULES in self.file_wide or rule in self.file_wide:
            return True
        rules = self.by_line.get(line, ())
        return ALL_RULES in rules or rule in rules


def parse_suppressions(source: str) -> Suppressions:
    """Scan ``source`` for ``# reprolint:`` comments.

    A standalone suppression comment (nothing but whitespace before the
    ``#``) applies to the *next* line; a trailing comment applies to its
    own line.  ``disable-file`` applies everywhere regardless of where it
    appears.
    """
    table = Suppressions()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        rules = {r.strip() for r in match.group("rules").split(",")}
        if match.group("kind") == "disable-file":
            table.file_wide |= rules
            continue
        standalone = text[: match.start()].strip() == ""
        target = lineno + 1 if standalone else lineno
        table.by_line.setdefault(target, set()).update(rules)
        # A trailing suppression also covers the statement it ends: for
        # multi-line statements ast reports the first line, so accept
        # the comment's own line too when it is standalone-ish inside a
        # continuation.  (Keeping it simple: own line + next line for
        # standalone comments would over-suppress; we only map one.)
    return table


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every per-file rule."""

    path: Path  # absolute
    relpath: str  # repo-relative, posix
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @classmethod
    def parse(cls, path: Path, root: Path) -> "ParsedModule":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            relpath=path.relative_to(root).as_posix(),
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )


def walk_scope(func: ast.AST) -> "list[ast.AST]":
    """Nodes in ``func``'s own scope, never descending into nested
    ``def``/``lambda`` bodies (their nodes belong to another scope —
    ``ast.walk`` would leak them into the enclosing function's
    analysis).  The nested def node itself *is* yielded."""
    out: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


def qualname_of(stack: list[ast.AST]) -> str:
    """Dotted context name from a stack of enclosing class/function nodes."""
    names = [
        node.name
        for node in stack
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return ".".join(names) if names else "<module>"


def call_name(node: ast.Call) -> str:
    """Best-effort dotted name of a call's target (``""`` when dynamic)."""
    return dotted_name(node.func)


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for nested Name/Attribute chains, ``""`` otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if parts:
        # Dynamic base (call result, subscript): keep the attribute tail
        # so patterns like ``.open`` can still match.
        return "." + ".".join(reversed(parts))
    return ""
