"""Structured diagnostics emitted by the invariant auditor.

Every violation is a :class:`Diagnostic`: the invariant id, the broadcast
cycle it localises to (when one does), the offending objects and
transactions, a human-readable message, and — where the invariant can
produce one — a *minimized witness*: the smallest structure (a single
matrix cell, a serialization-graph cycle, a projected sub-history) that
still exhibits the violation, so a failure is actionable without re-running
the simulation.

An :class:`AuditReport` bundles the diagnostics of one audit together with
the list of invariants that were actually checked, so "no violations"
is distinguishable from "nothing ran".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Diagnostic", "AuditReport"]


@dataclass(frozen=True)
class Diagnostic:
    """One invariant violation, localised and witnessed."""

    #: id of the violated invariant (a key of ``INVARIANTS``)
    invariant: str
    #: one-line description of what went wrong
    message: str
    #: broadcast cycle the violation localises to, when meaningful
    cycle: Optional[int] = None
    #: object ids implicated in the violation
    objects: Tuple[int, ...] = ()
    #: transaction ids implicated in the violation
    transactions: Tuple[str, ...] = ()
    #: minimized witness (e.g. offending cell values, a graph cycle, a
    #: projected sub-history in paper notation)
    witness: Optional[str] = None

    def format(self) -> str:
        parts = [f"[{self.invariant}]", self.message]
        if self.cycle is not None:
            parts.append(f"(cycle {self.cycle})")
        if self.objects:
            parts.append("objects=" + ",".join(str(o) for o in self.objects))
        if self.transactions:
            parts.append("txns=" + ",".join(self.transactions))
        text = " ".join(parts)
        if self.witness:
            text += f"\n    witness: {self.witness}"
        return text

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (for ``scenario run --output``)."""
        return {
            "invariant": self.invariant,
            "message": self.message,
            "cycle": self.cycle,
            "objects": list(self.objects),
            "transactions": list(self.transactions),
            "witness": self.witness,
        }


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit: which invariants ran, what they found."""

    #: invariant ids that were evaluated, in execution order
    checked: Tuple[str, ...]
    #: all violations found, in detection order
    diagnostics: Tuple[Diagnostic, ...]
    #: short config-hash fingerprint of the run being audited, when known
    config_hash: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def violations_of(self, invariant_id: str) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.invariant == invariant_id)

    def format(self) -> str:
        lines: List[str] = []
        if self.config_hash is not None:
            lines.append(f"config hash: {self.config_hash}")
        lines.append(
            f"audited {len(self.checked)} invariants: " + ", ".join(self.checked)
        )
        if self.ok:
            lines.append("OK — no invariant violations")
        else:
            lines.append(f"FAIL — {len(self.diagnostics)} violation(s):")
            for diag in self.diagnostics:
                lines.append("  " + diag.format().replace("\n", "\n  "))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (for ``scenario run --output``)."""
        return {
            "ok": self.ok,
            "checked": list(self.checked),
            "config_hash": self.config_hash,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
