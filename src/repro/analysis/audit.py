"""The trace invariant auditor: build contexts, run the registry.

Entry points:

* :func:`audit_simulation` — audit a finished
  :class:`repro.sim.simulation.SimulationResult` whose run recorded a
  trace (``collect_trace=True`` or ``SimulationConfig(audit=True)``);
* :func:`audit_history` — audit a bare :class:`repro.core.model.History`
  with the history-level invariants only;
* :func:`audit_context` — run selected invariants over a hand-built
  :class:`repro.analysis.invariants.AuditContext` (how the regression
  tests inject deliberately corrupted traces).

This module deliberately never imports :mod:`repro.sim` at runtime — the
simulation result, trace recorder and config are consumed duck-typed — so
the simulator can call the auditor without an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from ..core.model import History
from .diagnostics import AuditReport, Diagnostic
from .invariants import (
    HISTORY_INVARIANTS,
    INVARIANTS,
    AuditContext,
    invariant_ids,
)

if TYPE_CHECKING:
    from ..sim.simulation import SimulationResult

__all__ = [
    "AuditContext",
    "audit_context",
    "audit_history",
    "audit_simulation",
    "context_from_simulation",
]


def _select(invariants: Optional[Sequence[str]]) -> Tuple[str, ...]:
    if invariants is None:
        return invariant_ids()
    unknown = [i for i in invariants if i not in INVARIANTS]
    if unknown:
        raise ValueError(
            f"unknown invariant id(s) {unknown!r}; registered: "
            f"{list(invariant_ids())}"
        )
    return tuple(invariants)


def audit_context(
    ctx: AuditContext,
    *,
    invariants: Optional[Sequence[str]] = None,
    config_hash: Optional[str] = None,
) -> AuditReport:
    """Run the selected (default: all) invariants over a context."""
    checked = _select(invariants)
    diagnostics: List[Diagnostic] = []
    for invariant_id in checked:
        diagnostics.extend(INVARIANTS[invariant_id](ctx))
    return AuditReport(
        checked=checked,
        diagnostics=tuple(diagnostics),
        config_hash=config_hash,
    )


def context_from_simulation(result: "SimulationResult") -> AuditContext:
    """Build an audit context from a finished simulation run.

    The run must have recorded a trace; enable it with
    ``SimulationConfig(audit=True)`` or ``run_simulation(...,
    collect_trace=True)``.
    """
    trace = result.trace
    if trace is None:
        raise ValueError(
            "simulation recorded no trace; run with SimulationConfig(audit=True) "
            "or run_simulation(..., collect_trace=True)"
        )
    config = result.config
    database = result.server.database
    return AuditContext(
        num_objects=database.num_objects,
        timestamp_bits=config.timestamp_bits,
        max_cycles=config.max_cycles,
        broadcasts=tuple(getattr(trace, "cycles", ())),
        commit_log=database.commit_log,
        client_commits=tuple(trace.client_commits),
        history=trace.build_history(database),
        cache_enabled=config.cache_currency_bound is not None,
    )


def audit_simulation(
    result: "SimulationResult",
    *,
    invariants: Optional[Sequence[str]] = None,
) -> AuditReport:
    """Audit a finished simulation run (all invariants by default)."""
    fingerprint = getattr(result.config, "fingerprint", None)
    return audit_context(
        context_from_simulation(result),
        invariants=invariants,
        config_hash=fingerprint() if callable(fingerprint) else None,
    )


def audit_history(
    history: History,
    *,
    invariants: Optional[Sequence[str]] = None,
) -> AuditReport:
    """Audit a bare history with the history-level invariants.

    Accepts exactly the histories :func:`repro.core.certify.certify_history`
    certifies: the soundness invariant runs APPROX and replays every
    extracted certificate.
    """
    ctx = AuditContext(history=history)
    return audit_context(
        ctx,
        invariants=HISTORY_INVARIANTS if invariants is None else invariants,
    )
