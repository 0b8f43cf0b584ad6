"""Determinism rules: no wall-clock time, no unseeded randomness.

Seeded runs must be bit-for-bit reproducible (ROADMAP's standing
requirement; the benchmark suite asserts shapes on deterministic runs).
Two things silently break that:

* **wall-clock reads** — simulated time is the only clock the runtime
  layers may consult, and the harness around them times itself through
  ``repro.obs.PhaseProfiler`` only, so a second timing harness cannot
  grow inside the package unnoticed;
* **module-level RNG state** (``random.random()``, ``np.random.*``) —
  every random draw must come from a :class:`random.Random` (or seeded
  numpy generator) instance whose seed descends from
  ``SimulationConfig.seed``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .base import Finding, LintRule, ModuleUnderLint, register

__all__ = ["NoWallClockRule", "NoUnseededRandomRule", "NoSideChannelOutputRule"]

_WALLCLOCK_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "clock",
}
_WALLCLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}
_DATETIME_OWNERS = {"datetime", "date"}

#: the one blessed attribute of the ``random`` module: the seedable class
_SEEDED_RANDOM_ATTRS = {"Random", "SystemRandom"}
#: numpy.random attributes that produce (seedable) generator objects
_SEEDED_NP_RANDOM_ATTRS = {"Generator", "default_rng", "SeedSequence", "PCG64"}


def _terminal_name(node: ast.AST) -> str:
    """The right-most identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


@register
class NoWallClockRule(LintRule):
    """No wall-clock reads anywhere under ``src/repro``.

    ``repro/obs/profiler.py`` is the one suppressed site (``# noqa:
    REP001`` with its reason); everything else that wants seconds goes
    through :class:`~repro.obs.profiler.PhaseProfiler`.
    """

    rule_id = "REP001"
    description = (
        "no wall-clock time (time.time, datetime.now, ...) anywhere under "
        "src/repro: simulated bit-time is the only clock of the runtime "
        "layers, and harness timing goes through repro.obs.PhaseProfiler"
    )
    scopes = ()

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                owner = _terminal_name(node.value)
                if owner == "time" and node.attr in _WALLCLOCK_TIME_ATTRS:
                    yield self.finding(
                        module,
                        node,
                        f"wall-clock call time.{node.attr} breaks simulation "
                        "determinism; use the simulator clock",
                    )
                elif (
                    owner in _DATETIME_OWNERS
                    and node.attr in _WALLCLOCK_DATETIME_ATTRS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"wall-clock call {owner}.{node.attr} breaks "
                        "simulation determinism; use the simulator clock",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _WALLCLOCK_TIME_ATTRS:
                        yield self.finding(
                            module,
                            node,
                            f"importing {alias.name} from time invites "
                            "wall-clock reads; use the simulator clock",
                        )


@register
class NoUnseededRandomRule(LintRule):
    """All randomness must flow through seeded generator instances.

    Tree-wide: outside the simulation layers a module-level draw does not
    break a run's bit-identity outright, but results tables, certifier
    verdicts and generated schedules all feed asserted artifacts.
    """

    rule_id = "REP002"
    description = (
        "no module-level RNG (random.random(), np.random.*) anywhere under "
        "src/repro: draw from a random.Random seeded via SimulationConfig.seed"
    )
    scopes = ()

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "random"
                    and not node.attr.startswith("_")
                    and node.attr not in _SEEDED_RANDOM_ATTRS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"random.{node.attr} uses the shared module-level RNG; "
                        "use a random.Random instance seeded from the config",
                    )
                elif (
                    isinstance(node.value, ast.Attribute)
                    and node.value.attr == "random"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id in ("np", "numpy")
                    and node.attr not in _SEEDED_NP_RANDOM_ATTRS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{node.value.value.id}.random.{node.attr} uses numpy's "
                        "global RNG; use numpy.random.default_rng(seed)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in _SEEDED_RANDOM_ATTRS:
                        yield self.finding(
                            module,
                            node,
                            f"importing {alias.name} from random pulls in the "
                            "shared module-level RNG; import random.Random and "
                            "seed it from the config",
                        )


@register
class NoSideChannelOutputRule(LintRule):
    """No ``print()`` in the simulation kernel or the server.

    A run reports through ``repro.obs`` — spans via the ``Tracer`` handle,
    tallies via ``MetricsCollector`` — and a stray debugging ``print()``
    corrupts the CLI output that tests and the benchmark parse.  (The
    other side channel, the wall clock, is REP001's, tree-wide.)
    """

    rule_id = "REP010"
    description = (
        "no print() inside repro/sim or repro/server: emit a span or a "
        "metric via repro.obs instead"
    )
    scopes = ("repro/sim/", "repro/server/")

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    module,
                    node,
                    "print() in the simulation/server layer is a side "
                    "channel around repro.obs; emit a span or a metric "
                    "instead",
                )
