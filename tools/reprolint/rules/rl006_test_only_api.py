"""RL006 — test-only public API.

A public function or method in ``src/`` that no code outside ``tests/``
refers to is surface nobody ships: it has to be documented, kept
compatible and kept correct for the benefit of a test alone.  Such a
definition should get the caller it duplicates, move into ``tests/`` as
an oracle, or be deleted.

The reference set is every name mentioned in the non-test zones of
:data:`~tools.reprolint.engine.DEFAULT_PATHS` (``src``, ``tools``,
``benchmarks``, ``examples``) — ``Name`` nodes, ``Attribute`` tails and
import aliases.  Those zones are read even when the run was given
narrower paths, so ``repro lint src/`` reaches the same verdict as a
full run.  Two kinds of mention do not count:

* an import in a package ``__init__.py`` (a re-export is not a caller);
* a string in ``__all__`` (strings are never references).

Any other mention counts, in ``__init__`` files too: a registry dict
such as ``experiments.ABLATIONS`` that maps ids to functions is a
caller.  Matching is by bare name, so it is conservative — it never
flags a definition that something calls, though an unrelated definition
or attribute of the same name can hide a finding.

A deliberate seam (a documented extension point, the inverse of a
public call that only tests exercise) is kept with an inline
``# reprolint: disable=RL006  (<reason>)`` on its ``def`` line or the
line above it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from tools.reprolint.core import Finding, ParsedModule
from tools.reprolint.rules import RepoContext, Rule, register

#: Repo-relative prefix of the definitions this rule audits.
AUDITED_ZONE = "src/"


def _references(module: ParsedModule) -> set[str]:
    """Every name ``module`` mentions that counts as a use."""
    names: set[str] = set()
    skip_imports = module.path.name == "__init__.py"
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not skip_imports:
            for alias in node.names:
                names.add(alias.name.rsplit(".", 1)[-1])
    return names


def _public_defs(tree: ast.Module) -> Iterable[tuple[str, ast.AST]]:
    """``(qualname, node)`` of module-level functions and class methods
    whose own name is public (nested functions are not API)."""

    def visit(body: list[ast.stmt], prefix: str):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield f"{prefix}{node.name}", node

    yield from visit(tree.body, "")


@register
class PublicDefOnlyTestsReach(Rule):
    rule_id = "RL006"
    name = "test-only-public-api"
    description = (
        "a public def in src/ must have a reference in src/, tools/, "
        "benchmarks/ or examples/ — one that only tests reach is a finding"
    )

    def check_repo(self, ctx: RepoContext) -> Iterable[Finding]:
        # Imported here: the engine imports the rule registry.
        from tools.reprolint.engine import DEFAULT_PATHS, collect_files

        parsed = {module.path: module for module in ctx.modules}
        referenced: set[str] = set()
        for path in collect_files(ctx.root, DEFAULT_PATHS):
            module = parsed.get(path)
            if module is None:
                try:
                    module = ParsedModule.parse(path, ctx.root)
                except (SyntaxError, ValueError):
                    continue  # only a linted file's parse error is reported
            referenced |= _references(module)

        for module in ctx.modules:
            if not module.relpath.startswith(AUDITED_ZONE):
                continue
            for qualname, node in _public_defs(module.tree):
                if node.name in referenced:
                    continue
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"public '{qualname}' is referenced only by tests; "
                        f"give it a caller, move it into tests/, or delete it"
                    ),
                    context=qualname,
                )
