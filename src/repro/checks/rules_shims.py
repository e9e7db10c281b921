"""RC006 — no deprecated shims: library code never issues a
``DeprecationWarning``.

The facade migration (``repro.analysis.decompose``) retired every old
entry point outright: a renamed or superseded spelling is deleted in the
change that supersedes it, never kept alive as a forwarding *shim*.  A
function counts as a shim when its own body (nested defs excluded)
contains a literal ``warnings.warn``/``warn`` call whose category is
``DeprecationWarning``.  The rule is single-file: every function and
method under ``src/repro`` is checked, whether or not any ``__all__``
names it, so a shim can neither hide behind a re-export chain nor sit
unexported in a module.
"""

from __future__ import annotations

import ast

from .core import Finding, ModuleFile, Rule


def _own_statements(body):
    """Walk statements/expressions without descending into nested
    function or class scopes."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_deprecation_category(node: ast.expr | None) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "DeprecationWarning"
    if isinstance(node, ast.Attribute):
        return node.attr == "DeprecationWarning"
    return False


def _warns_deprecated(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in _own_statements(func.body):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        name = (
            callee.attr if isinstance(callee, ast.Attribute)
            else callee.id if isinstance(callee, ast.Name)
            else None
        )
        if name != "warn":
            continue
        category = None
        for kw in node.keywords:
            if kw.arg == "category":
                category = kw.value
        if category is None and len(node.args) > 1:
            category = node.args[1]
        if _is_deprecation_category(category):
            return True
    return False


class DeprecatedShimRule(Rule):
    rule_id = "RC006"
    title = "no deprecated shims: no function warns DeprecationWarning"
    scope = "src"

    def check(self, module: ModuleFile) -> list[Finding]:
        return [
            self.finding(
                module, node.lineno,
                f"{node.name!r} issues a DeprecationWarning; delete the old "
                "spelling and move its callers to the replacement instead "
                "of keeping a shim",
            )
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _warns_deprecated(node)
        ]
