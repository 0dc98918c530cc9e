"""RL002 — leak-on-raise.

A value obtained from an opener/``open``-like call is *owned* by the
function that acquired it until ownership transfers (it is returned,
stored, or handed to another object).  Every ``raise`` between
acquisition and transfer must be preceded by a ``close()`` of the value
— otherwise the error path leaks a file handle, mmap, or remote
connection.  This is the ``LazyBatchArchive.open`` head-parse leak shape
fixed in PR 6.

``__init__`` is stricter: an object whose constructor raises is never
seen by the caller, so resources already bound to ``self`` cannot be
closed by anyone.  After an acquisition in ``__init__``, *any* later
statement that performs a call is a potential raise path and must be
covered by a ``try`` that closes (or ``abort()``\\ s) the resource.

Acquisition spellings recognized (the repo's opener seams): the builtin
``open``, any ``*.open(...)`` classmethod/method, ``*_opener(...)`` /
``opener(...)`` callables, ``make_source``, and ``*Writer`` / ``*Source``
constructors.

An acquisition written *inline* as an argument — ``parse(make_source(p))``
— has no name at all: when the receiving call raises, nothing can close
it (the ``LazyCompressedDataset.open`` leak).  That is flagged unless the
receiver is itself an acquisition spelling (a ``*Source`` / ``*Writer`` /
``*_opener`` wrapper adopts what it is given) or a context adopter
(``enter_context``, ``closing``).

Safe shapes (never flagged): ``with <acquire>(...) as x``, a value later
used as a ``with`` context, ``return <acquire>(...)`` directly, and the
try/except-close idiom::

    src = make_source(path)
    try:
        ...
    except Exception:
        src.close()
        raise
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable

from tools.reprolint.core import (
    Finding,
    ParsedModule,
    call_name,
    qualname_of,
    walk_scope,
)
from tools.reprolint.rules import Rule, register

_ACQUIRE_TAIL = re.compile(
    r"(^open$|_opener$|^opener$|^make_source$|Writer$|Source$)"
)
#: Calls on the owned value (or session/self) that release or transfer it.
_RELEASE_METHODS = {"close", "abort", "release", "shutdown", "detach", "__exit__"}
#: Calls that take over an unnamed resource passed inline and close it.
_CONTEXT_ADOPTERS = {"enter_context", "closing"}


def _is_acquire_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    if not name:
        return False
    tail = name.rsplit(".", 1)[-1]
    return bool(_ACQUIRE_TAIL.search(tail))


@dataclass
class _Acquisition:
    var: str  # "x" or "self.y"
    line: int
    col: int
    in_init: bool
    #: Last line of the acquiring statement (nested calls inside the
    #: acquisition expression are not "later" raise points).
    end: int = 0


def _expr_names(node: ast.AST) -> set[str]:
    """Plain names and one-level self attributes mentioned in ``node``."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            names.add(f"self.{sub.attr}")
    return names


class _FunctionAnalysis:
    """Line-ordered events for one function: raises, releases, escapes."""

    def __init__(self, func):
        self.func = func
        self.raises: list[ast.Raise] = []
        self.calls: list[ast.Call] = []
        self.with_contexts: set[str] = set()
        self.releases: dict[str, list[int]] = {}  # var -> release lines
        self.escapes: dict[str, list[int]] = {}  # var -> escape lines
        #: try nodes (within this function) -> vars released in a handler
        #: or finally of that try.
        self.try_cover: list[tuple[ast.Try, set[str]]] = []
        #: (handler span, last line of the owning try's body) — a raise in
        #: a handler can only run if the try body raised, so it is not a
        #: leak path for an acquisition that IS the body's last statement.
        self.handler_spans: list[tuple[int, int, int]] = []
        #: (body span, orelse span) for every if statement — an
        #: acquisition and a raise in *different* branches of the same if
        #: never execute together.
        self.branch_spans: list[tuple[tuple[int, int], tuple[int, int]]] = []
        self._scan()

    def _scan(self) -> None:
        for node in walk_scope(self.func):
            if isinstance(node, ast.Raise):
                self.raises.append(node)
            elif isinstance(node, ast.Call):
                self.calls.append(node)
                self._record_release_or_escape(node)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    self.with_contexts.update(_expr_names(item.context_expr))
            elif isinstance(node, ast.Return) and node.value is not None:
                for name in _expr_names(node.value):
                    self.escapes.setdefault(name, []).append(node.lineno)
            elif isinstance(node, ast.Assign):
                self._record_store_escape(node)
            elif isinstance(node, ast.Try):
                covered: set[str] = set()
                for handler in node.handlers:
                    for sub in handler.body:
                        covered |= self._release_targets(sub)
                    self.handler_spans.append(
                        (handler.lineno, _end(handler), node.body[-1].lineno)
                    )
                for sub in node.finalbody:
                    covered |= self._release_targets(sub)
                self.try_cover.append((node, covered))
            elif isinstance(node, ast.If):
                if node.orelse:
                    self.branch_spans.append(
                        (
                            (node.body[0].lineno, _end(node.body[-1])),
                            (node.orelse[0].lineno, _end(node.orelse[-1])),
                        )
                    )

    def _release_targets(self, stmt: ast.stmt) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _RELEASE_METHODS:
                    out |= _expr_names(node.func.value)
                    # ``self.close()`` / ``self.abort()`` release every
                    # self-bound resource.
                    if (
                        isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"
                    ):
                        out.add("self.*")
        return out

    def _record_release_or_escape(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            owner_names = _expr_names(node.func.value)
            if node.func.attr in _RELEASE_METHODS:
                for name in owner_names:
                    self.releases.setdefault(name, []).append(node.lineno)
                if (
                    isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                ):
                    self.releases.setdefault("self.*", []).append(node.lineno)
                return
        # A value passed as an argument transfers ownership (wrapping
        # sources, registering with a store, appending to a container).
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for name in _expr_names(arg):
                self.escapes.setdefault(name, []).append(node.lineno)

    def _record_store_escape(self, node: ast.Assign) -> None:
        value_names = _expr_names(node.value) if isinstance(node.value, ast.Name) else set()
        if not value_names:
            return
        for target in node.targets:
            # ``self.y = x`` / ``d[k] = x``: ownership moved into a
            # longer-lived structure.
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                for name in value_names:
                    self.escapes.setdefault(name, []).append(node.lineno)


@register
class LeakOnRaise(Rule):
    rule_id = "RL002"
    name = "leak-on-raise"
    description = (
        "a value obtained from an opener/open-like call must be closed on "
        "every raise path before ownership transfer"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        stack: list[ast.AST] = []

        def visit(node: ast.AST):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append(node)
                yield from self._check_function(module, node, qualname_of(stack))
                for child in ast.iter_child_nodes(node):
                    yield from visit(child)
                stack.pop()
                return
            if isinstance(node, ast.ClassDef):
                stack.append(node)
                for child in ast.iter_child_nodes(node):
                    yield from visit(child)
                stack.pop()
                return
            for child in ast.iter_child_nodes(node):
                yield from visit(child)

        yield from visit(module.tree)

    def _check_function(self, module, func, context) -> Iterable[Finding]:
        yield from self._check_inline_acquisitions(module, func, context)
        acquisitions = self._acquisitions(func)
        if not acquisitions:
            return
        analysis = _FunctionAnalysis(func)
        for acq in acquisitions:
            if acq.var in analysis.with_contexts:
                continue  # managed by a with statement
            yield from self._check_acquisition(module, func, context, acq, analysis)

    def _check_inline_acquisitions(self, module, func, context) -> Iterable[Finding]:
        for node in walk_scope(func):
            if not isinstance(node, ast.Call) or _is_acquire_call(node):
                continue
            receiver = call_name(node) or "<call>"
            if receiver.rsplit(".", 1)[-1] in _CONTEXT_ADOPTERS:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if _is_acquire_call(arg):
                    yield Finding(
                        rule=self.rule_id,
                        path=module.relpath,
                        line=arg.lineno,
                        col=arg.col_offset,
                        message=(
                            f"'{call_name(arg)}(...)' is acquired inline as an argument "
                            f"of '{receiver}': if that call raises, the unnamed resource "
                            f"leaks; bind it to a name and close it on failure"
                        ),
                        context=context,
                    )

    def _acquisitions(self, func) -> list[_Acquisition]:
        in_init = func.name == "__init__"
        out: list[_Acquisition] = []
        for node in walk_scope(func):
            if not isinstance(node, ast.Assign) or not _is_acquire_call(node.value):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.append(
                        _Acquisition(
                            target.id, node.lineno, node.col_offset, in_init, _end(node)
                        )
                    )
                elif (
                    in_init
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out.append(
                        _Acquisition(
                            f"self.{target.attr}",
                            node.lineno,
                            node.col_offset,
                            in_init,
                            _end(node),
                        )
                    )
        return out

    def _check_acquisition(
        self, module, func, context, acq: _Acquisition, analysis: _FunctionAnalysis
    ) -> Iterable[Finding]:
        releases = analysis.releases.get(acq.var, [])
        if acq.var.startswith("self."):
            releases = releases + analysis.releases.get("self.*", [])
        escapes = analysis.escapes.get(acq.var, [])

        def covered_by_try(line: int) -> bool:
            for try_node, covered in analysis.try_cover:
                if not (try_node.body[0].lineno <= line <= _end(try_node)):
                    continue
                if acq.var in covered or (
                    acq.var.startswith("self.") and "self.*" in covered
                ):
                    return True
            return False

        def exclusive_branch(line: int) -> bool:
            for (b_lo, b_hi), (o_lo, o_hi) in analysis.branch_spans:
                acq_in_body = b_lo <= acq.line <= b_hi
                acq_in_else = o_lo <= acq.line <= o_hi
                line_in_body = b_lo <= line <= b_hi
                line_in_else = o_lo <= line <= o_hi
                if (acq_in_body and line_in_else) or (acq_in_else and line_in_body):
                    return True
            return False

        def in_handler_of_own_try(line: int) -> bool:
            # A raise inside an except handler runs only when the try
            # body raised; if the acquisition is the body's last
            # statement, it either never completed or the body finished.
            return any(
                lo <= line <= hi and body_last == acq.line
                for lo, hi, body_last in analysis.handler_spans
            )

        def protected(line: int) -> bool:
            if exclusive_branch(line) or in_handler_of_own_try(line):
                return True
            if any(r <= line for r in releases):
                return True
            # Escape = ownership transfer.  In __init__ a *self-bound*
            # resource never escapes (the caller cannot see a partially
            # constructed object), but an escaping local does.
            transferable = not (acq.in_init and acq.var.startswith("self."))
            if transferable and any(e <= line for e in escapes):
                return True
            return covered_by_try(line)

        for raise_node in analysis.raises:
            if raise_node.lineno <= acq.end or protected(raise_node.lineno):
                continue
            yield Finding(
                rule=self.rule_id,
                path=module.relpath,
                line=acq.line,
                col=acq.col,
                message=(
                    f"'{acq.var}' acquired here can leak: the raise at line "
                    f"{raise_node.lineno} is reachable before ownership transfer "
                    f"and no close() covers it"
                ),
                context=context,
            )
            return
        if acq.in_init and acq.var.startswith("self."):
            for call in analysis.calls:
                if call.lineno <= acq.end or protected(call.lineno):
                    continue
                if _is_acquire_call(call):
                    continue  # the acquisition itself / sibling acquisitions
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=acq.line,
                    col=acq.col,
                    message=(
                        f"'{acq.var}' acquired in __init__ can leak: the call at "
                        f"line {call.lineno} may raise before the caller ever sees "
                        f"the object; wrap later init steps in try/except and close"
                    ),
                    context=context,
                )
                return


def _end(node: ast.AST) -> int:
    return getattr(node, "end_lineno", None) or node.lineno
