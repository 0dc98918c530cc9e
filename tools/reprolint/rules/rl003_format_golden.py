"""RL003 — format-bump-without-golden.

The containers in this repo are byte-exact wire formats: ``_MAGIC``,
``*_VERSION``, ``*_FMT`` strings, ``*_META_KEY`` entry-metadata keys
readers dispatch on, and ``struct.Struct`` layouts in
``core/``, ``sz/``, and ``engine/`` define what an archive written today
must look like forever.  Historically every version bump has had to land
with a golden fixture (``tests/data/golden_*``) so decoder drift is
caught; this rule makes that discipline mechanical.

``tests/data/golden_inventory.json`` is the committed inventory: one row
per wire-format constant recording the value the fixtures were built
against and which fixture files pin it.  The rule cross-checks the tree
against the inventory and reports:

* a wire-format constant in a watched zone that has **no inventory row**
  (new format knob with no golden coverage);
* a constant whose current value **differs** from the inventory (format
  bumped without regenerating goldens — the PR must update both);
* an inventory row whose constant **no longer exists** (stale row);
* an inventory row naming a fixture file that is **missing on disk**, or
  naming none at all.

Bumping a format legitimately means: regenerate/extend the fixtures with
``tests/data/make_golden.py``, update the row's ``value``, and keep the
old-version fixture so backward-compat decoding stays pinned.
"""

from __future__ import annotations

import ast
import json
import re
from typing import Iterable

from tools.reprolint.core import Finding, call_name
from tools.reprolint.rules import RepoContext, Rule, register

#: Repo-relative directories whose module-level constants define wire bytes.
WATCHED_ZONES = ("src/repro/core/", "src/repro/sz/", "src/repro/engine/")

#: Repo-relative path of the committed inventory.
INVENTORY_PATH = "tests/data/golden_inventory.json"

#: Constant names that define wire format when assigned at module level.
_NAME_RE = re.compile(
    r"(^_?MAGIC$|_MAGIC$|^VERSION$|_VERSIONS?$|_FMT$|_FORMAT$|_META_KEY$)"
)


def _is_struct_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node).endswith("struct.Struct")


def _render_value(node: ast.AST) -> str:
    """Canonical text for the constant's value (what the inventory pins)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return "<unrenderable>"


@register
class FormatBumpWithoutGolden(Rule):
    rule_id = "RL003"
    name = "format-bump-without-golden"
    description = (
        "wire-format constants (magic/version/struct layouts) must match "
        "the golden-fixture inventory in tests/data/golden_inventory.json"
    )

    def check_repo(self, ctx: RepoContext) -> Iterable[Finding]:
        inventory_file = ctx.root / INVENTORY_PATH
        if not inventory_file.is_file():
            yield Finding(
                rule=self.rule_id,
                path=INVENTORY_PATH,
                line=1,
                col=0,
                message="golden-fixture inventory is missing",
                context="<inventory>",
            )
            return
        try:
            inventory = json.loads(inventory_file.read_text(encoding="utf-8"))
            rows = dict(inventory["constants"])
        except (ValueError, KeyError, TypeError) as exc:
            yield Finding(
                rule=self.rule_id,
                path=INVENTORY_PATH,
                line=1,
                col=0,
                message=f"golden-fixture inventory is unreadable: {exc}",
                context="<inventory>",
            )
            return

        seen: set[str] = set()
        for module in ctx.modules:
            if not module.relpath.startswith(WATCHED_ZONES):
                continue
            for name, node in self._format_constants(module.tree):
                key = f"{module.relpath}::{name}"
                seen.add(key)
                value = _render_value(node.value)
                row = rows.get(key)
                if row is None:
                    yield Finding(
                        rule=self.rule_id,
                        path=module.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"wire-format constant '{name}' has no row in "
                            f"{INVENTORY_PATH}; add one naming the golden "
                            f"fixture(s) that pin it"
                        ),
                        context=name,
                    )
                    continue
                if row.get("value") != value:
                    yield Finding(
                        rule=self.rule_id,
                        path=module.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"wire-format constant '{name}' changed "
                            f"(inventory pins {row.get('value')!r}, code says "
                            f"{value!r}); regenerate the golden fixtures and "
                            f"update the inventory row"
                        ),
                        context=name,
                    )

        for key, row in rows.items():
            if key not in seen:
                yield Finding(
                    rule=self.rule_id,
                    path=INVENTORY_PATH,
                    line=1,
                    col=0,
                    message=(
                        f"stale inventory row '{key}': no such constant in the "
                        f"watched zones"
                    ),
                    context=key,
                )
                continue
            fixtures = row.get("fixtures") or []
            if not fixtures:
                yield Finding(
                    rule=self.rule_id,
                    path=INVENTORY_PATH,
                    line=1,
                    col=0,
                    message=f"inventory row '{key}' names no golden fixtures",
                    context=key,
                )
                continue
            for fixture in fixtures:
                if not (ctx.root / fixture).is_file():
                    yield Finding(
                        rule=self.rule_id,
                        path=INVENTORY_PATH,
                        line=1,
                        col=0,
                        message=(
                            f"inventory row '{key}' names missing fixture "
                            f"'{fixture}'"
                        ),
                        context=key,
                    )

    def _format_constants(
        self, tree: ast.Module
    ) -> Iterable[tuple[str, ast.Assign]]:
        for node in tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if _NAME_RE.search(target.id) or _is_struct_call(node.value):
                yield target.id, node
