"""Encapsulation rule: protocol state mutates only through its builders.

:class:`repro.core.model.History` is "conceptually immutable", the
control matrix advances only through the Theorem 2 increment, and the
database installs writes only through its batch door ``apply_batch``
(``apply_commit`` is that door for one transaction) — the invariant
auditor depends on exactly this.  Reaching into another object's
underscore attributes from outside the module that owns them bypasses
every one of those contracts, so this rule forbids it.

Ownership is established syntactically: a module *owns* a private
attribute name if it ever assigns it on ``self`` (or declares it in a
class body or ``__slots__``).  Mutating an owned attribute through any
receiver is fine — that is what builder helpers and ``copy()`` methods
do — but mutating a private attribute the module never declares is a
cross-module reach-in and gets flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from .base import Finding, LintRule, ModuleUnderLint, register

__all__ = ["NoForeignPrivateMutationRule"]


def _owned_private_attrs(tree: ast.Module) -> Set[str]:
    """Private attribute names this module declares as its own."""
    owned: Set[str] = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr.startswith("_")
            ):
                owned.add(target.attr)
        # __slots__ = ("_x", ...) and class-body annotations like `_x: int`
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    if stmt.target.id.startswith("_"):
                        owned.add(stmt.target.id)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            if target.id == "__slots__":
                                for el in ast.walk(stmt.value):
                                    if isinstance(el, ast.Constant) and isinstance(
                                        el.value, str
                                    ):
                                        if el.value.startswith("_"):
                                            owned.add(el.value)
                            elif target.id.startswith("_"):
                                owned.add(target.id)
    return owned


def _mutated_attribute(target: ast.expr) -> ast.Attribute:
    """The Attribute node being written, unwrapping subscripts/slices."""
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node
    raise LookupError


@register
class NoForeignPrivateMutationRule(LintRule):
    """No writes to another module's private state."""

    rule_id = "REP003"
    description = (
        "no direct mutation of History/matrix/database internals outside "
        "their builder modules (write via the owning API instead)"
    )
    scopes = ()  # whole tree: encapsulation holds everywhere

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        owned = _owned_private_attrs(module.tree)
        for node in ast.walk(module.tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                try:
                    attribute = _mutated_attribute(target)
                except LookupError:
                    continue
                receiver = attribute.value
                if not isinstance(receiver, ast.Name):
                    continue
                if receiver.id in ("self", "cls"):
                    continue
                attr = attribute.attr
                if not attr.startswith("_") or attr.startswith("__"):
                    continue
                if attr in owned:
                    continue  # the module declares this attribute itself
                yield self.finding(
                    module,
                    node,
                    f"mutation of {receiver.id}.{attr} reaches into private "
                    "state owned by another module; use the owning object's "
                    "API",
                )
