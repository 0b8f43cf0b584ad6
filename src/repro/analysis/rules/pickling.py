"""Pickling rule: live simulation state must not cross process bounds.

The sharded and replay executors are built on a narrow serialization
contract: what ships to a pool worker is a :class:`SimulationConfig`
(frozen, declarative), a :class:`TimelineHandle` (a *name* for a
shared-memory arena, no payload), and what ships back is a
:class:`MetricsCollector` plus scalars.  A live
:class:`BroadcastSimulation` — its :class:`Simulator` event queue, its
:class:`LiveTimeline` and :class:`BroadcastServer`, fault runtime — is
none of those things: pickling one either fails outright (generator-based
processes don't pickle) or, worse, silently forks divergent copies of
state whose whole point is to be authoritative and singular.

The rule flags calls that cross a serialization boundary —
``pool.submit(...)`` / ``pool.map(...)`` / ``pickle.dumps(...)`` and
friends — when an argument names live simulation state, either by repo
naming convention (``sim``, ``simulation``, ``simulator``, ``server``,
``state``) or by constructing/naming one of the stateful classes
directly.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .base import Finding, LintRule, ModuleUnderLint, register

__all__ = ["NoSimStatePicklingRule"]

#: argument names that (by repo convention) hold live simulation state
_FORBIDDEN_NAMES = frozenset(
    {"sim", "simulation", "simulator", "server", "state"}
)

#: classes whose instances own live, unpicklable or singular state
_FORBIDDEN_CLASSES = frozenset(
    {
        "BroadcastSimulation",
        "BroadcastServer",
        "Simulator",
        "LiveTimeline",
        "FaultRuntime",
        "CohortExecutor",
    }
)

#: attribute-call names that mark a serialization boundary
_BOUNDARY_METHODS = frozenset(
    {"submit", "map", "starmap", "imap", "imap_unordered",
     "apply_async", "dumps", "dump"}
)


def _leaf_name(node: ast.AST) -> Optional[str]:
    """The trailing identifier of a simple name or attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _offending_name(arg: ast.AST) -> Optional[str]:
    """The first live-state identifier inside ``arg``, if any.

    Walks the whole argument expression so state smuggled inside a
    tuple, list or constructor call (``(config, self.server)``,
    ``BroadcastSimulation(config)``) is still caught.
    """
    for node in ast.walk(arg):
        name = _leaf_name(node)
        if name in _FORBIDDEN_NAMES or name in _FORBIDDEN_CLASSES:
            return name
    return None


@register
class NoSimStatePicklingRule(LintRule):
    """No live simulation state across pickle/process boundaries."""

    rule_id = "REP009"
    description = (
        "no live simulation state (BroadcastSimulation, Simulator, "
        "server, LiveTimeline) across pickle/process boundaries; only "
        "configs, MetricsCollector and arena handles may cross"
    )
    scopes = ()  # the whole tree: every boundary call is in scope

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _BOUNDARY_METHODS
            ):
                continue
            offender = None
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                offender = _offending_name(arg)
                if offender is not None:
                    break
            if offender is None:
                continue
            yield self.finding(
                module,
                node,
                f"'{offender}' names live simulation state crossing a "
                f"serialization boundary ('{func.attr}'); ship the "
                "config, a MetricsCollector, or a TimelineHandle instead",
            )
