"""Lint framework: findings, the module wrapper, and the rule registry.

A rule is a subclass of :class:`LintRule` registered with
:func:`register`.  Rules receive a parsed :class:`ModuleUnderLint` and
yield :class:`Finding` objects; the driver (:mod:`repro.analysis.lint`)
handles path walking, scoping and ``# noqa`` suppression.

Scoping: each rule lists path fragments (``scopes``) it applies to.  A
file under the package tree (``src/repro/...``) is checked only by rules
whose scope matches; a file *outside* the package tree (e.g. a test
fixture) is checked by every rule, so a single fixture can demonstrate
any rule regardless of where it lives.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "ModuleUnderLint",
    "LintRule",
    "RULES",
    "register",
]

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9 ,]+))?", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One rule violation, pinned to a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


class ModuleUnderLint:
    """A parsed source file plus the pre-computed ``# noqa`` map."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        #: line number -> suppressed rule ids ("*" suppresses everything)
        self.noqa: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _NOQA_RE.search(line)
            if match is None:
                continue
            codes = match.group("codes")
            if codes is None:
                self.noqa[lineno] = {"*"}
            else:
                self.noqa[lineno] = {
                    code.strip().upper() for code in codes.split(",") if code.strip()
                }

    @property
    def posix_path(self) -> str:
        return self.path.replace("\\", "/")

    def suppressed(self, rule_id: str, line: int) -> bool:
        codes = self.noqa.get(line)
        return codes is not None and ("*" in codes or rule_id in codes)


class LintRule:
    """Base class: subclass, set the class attributes, implement check()."""

    #: stable id, e.g. ``REP001`` (used in reports and ``# noqa``)
    rule_id: str = ""
    #: one-line description shown by ``--list-rules``
    description: str = ""
    #: path fragments inside the package tree the rule applies to;
    #: empty = the whole tree.  Files outside the tree always match.
    scopes: Tuple[str, ...] = ()

    def applies_to(self, posix_path: str) -> bool:
        if "repro/" not in posix_path:
            return True  # outside the package tree: all rules apply
        if not self.scopes:
            return True
        return any(scope in posix_path for scope in self.scopes)

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(
        self, module: ModuleUnderLint, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: the global rule registry, in registration order
RULES: List[LintRule] = []


def register(rule_class: Type[LintRule]) -> Type[LintRule]:
    """Instantiate and register a rule class (decorator)."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} lacks a rule_id")
    if any(rule.rule_id == rule_class.rule_id for rule in RULES):
        raise ValueError(f"duplicate rule id {rule_class.rule_id}")
    RULES.append(rule_class())
    return rule_class
