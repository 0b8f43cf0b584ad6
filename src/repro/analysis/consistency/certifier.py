"""The offline consistency certifier: verdicts-with-witnesses per level.

Two entry points:

* :func:`certify` — check a history (bare or sessioned) against one or
  more isolation levels, producing a :class:`ConsistencyReport` whose FAIL
  verdicts render through :mod:`repro.analysis.diagnostics`.
* :func:`certify_update_consistency` — the paper's actual correctness
  claim for the broadcast protocols (Sec. 4, "update consistency"): the
  committed update sub-history is serializable, and so is its extension by
  each committed read-only transaction *individually*.  Global
  serializability of the full history is strictly stronger and is **not**
  promised by F-Matrix/R-Matrix (two readers may observe incomparable
  serialization orders); Datacycle's single-snapshot-point semantics do
  promise it, which the small-scope model checker
  (:mod:`repro.analysis.consistency.explore`) verifies exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ...core.approx import approx_report
from ...core.model import History
from ...core.readsfrom import live_set
from ..diagnostics import Diagnostic
from .checkers import LEVELS, Verdict, check_level, check_serializability
from .histories import TransactionalHistory

__all__ = [
    "ConsistencyReport",
    "UpdateConsistencyReport",
    "certify",
    "certify_update_consistency",
    "verdict_diagnostic",
]

HistoryLike = Union[History, TransactionalHistory]


def _as_transactional(history: HistoryLike) -> TransactionalHistory:
    if isinstance(history, TransactionalHistory):
        return history
    return TransactionalHistory(history)


def verdict_diagnostic(verdict: Verdict) -> Optional[Diagnostic]:
    """Render a FAIL verdict as an auditor :class:`Diagnostic`."""
    if verdict.ok or verdict.witness is None:
        return None
    witness = verdict.witness
    return Diagnostic(
        invariant=f"consistency/{verdict.level}",
        message=witness.description,
        transactions=witness.transactions,
        witness="\n".join(
            ([" -> ".join(witness.cycle)] if witness.cycle else [])
            + [edge.format() for edge in witness.edges]
        )
        or None,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Verdicts for one history across the requested levels."""

    verdicts: Tuple[Verdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def verdict(self, level: str) -> Verdict:
        for v in self.verdicts:
            if v.level == level:
                return v
        raise KeyError(level)

    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        out: List[Diagnostic] = []
        for v in self.verdicts:
            diag = verdict_diagnostic(v)
            if diag is not None:
                out.append(diag)
        return tuple(out)

    def format(self) -> str:
        lines: List[str] = []
        for v in self.verdicts:
            lines.append(f"{v.level}: {'PASS' if v.ok else 'FAIL'}")
            if v.witness is not None:
                lines.append("  " + v.witness.format().replace("\n", "\n  "))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {"ok": self.ok, "verdicts": [v.to_dict() for v in self.verdicts]}


def certify(
    history: HistoryLike, levels: Sequence[str] = LEVELS
) -> ConsistencyReport:
    """Check ``history`` against each requested isolation level.

    ``levels`` defaults to all six supported levels, weakest to strongest;
    unknown level names raise :class:`ValueError` before any checker runs.
    """
    th = _as_transactional(history)
    for level in levels:
        if level not in LEVELS:
            raise ValueError(
                f"unknown consistency level {level!r}; expected one of {LEVELS}"
            )
    return ConsistencyReport(tuple(check_level(th, level) for level in levels))


# ----------------------------------------------------------------------
# the paper's correctness claim for broadcast runs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UpdateConsistencyReport:
    """Update consistency of a broadcast run, checked reader by reader.

    ``update_verdict`` certifies the committed update sub-history
    serializable; ``reader_verdicts`` certifies, per committed read-only
    transaction ``t``, the projection onto ``LIVE_H(t) ∪ {t}`` — the
    updates whose effects ``t`` actually perceives — serializable.  The
    LIVE-set scope and the absence of session order are both deliberate:
    update consistency promises each reader a state produced by *some*
    affects-closed subset of the updates, not a prefix of the commit
    order, which is exactly the guarantee Theorem 3 formalises (and the
    small-scope model checker demonstrates that F-Matrix accepts
    executions where ``H_update ∪ {t}`` over *all* updates is not
    serializable).
    """

    update_verdict: Verdict
    reader_verdicts: Tuple[Tuple[str, Verdict], ...]

    @property
    def ok(self) -> bool:
        return self.update_verdict.ok and all(
            v.ok for _tid, v in self.reader_verdicts
        )

    def failures(self) -> Tuple[Tuple[str, Verdict], ...]:
        bad = []
        if not self.update_verdict.ok:
            bad.append(("<updates>", self.update_verdict))
        bad.extend((tid, v) for tid, v in self.reader_verdicts if not v.ok)
        return tuple(bad)

    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        out: List[Diagnostic] = []
        for scope, verdict in self.failures():
            diag = verdict_diagnostic(verdict)
            if diag is not None:
                out.append(
                    Diagnostic(
                        invariant="consistency/update-serializable",
                        message=f"scope {scope}: {diag.message}",
                        transactions=diag.transactions,
                        witness=diag.witness,
                    )
                )
        return tuple(out)

    def format(self) -> str:
        lines = [
            "updates: " + ("PASS" if self.update_verdict.ok else "FAIL"),
            f"readers: {len(self.reader_verdicts)} checked, "
            f"{sum(0 if v.ok else 1 for _t, v in self.reader_verdicts)} failed",
        ]
        for scope, verdict in self.failures():
            if verdict.witness is not None:
                lines.append(f"  {scope}:")
                lines.append("    " + verdict.witness.format().replace("\n", "\n    "))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "updates": self.update_verdict.to_dict(),
            "readers": {tid: v.to_dict() for tid, v in self.reader_verdicts},
        }


def certify_update_consistency(history: HistoryLike) -> UpdateConsistencyReport:
    """Certify a broadcast run update-consistent (Sec. 4 / Theorem 3).

    The update sub-history must be serializable, and each committed
    read-only transaction must embed into *some* serialization of the
    updates it perceives (its LIVE set).  What APPROX accepts is legal
    (Theorem 6), so one report settles what it can — the update order (the
    log itself when serial), each accepted reader, with no LIVE-sized order
    written out — and the exact polygraph test runs only on what it
    rejects, keeping "APPROX-conservative" apart from "inconsistent".
    """
    committed = _as_transactional(history).history
    report = approx_report(committed)
    order = report.update_serialization_order
    update_verdict = (
        Verdict("serializability", True, order=order)
        if order is not None
        else check_serializability(TransactionalHistory(committed.update_subhistory()))
    )
    reader_verdicts: List[Tuple[str, Verdict]] = []
    for reader in committed.read_only_transactions():
        verdict = Verdict("serializability", True)
        if not report.reader_verdicts.get(reader, False):
            scope = live_set(committed, reader) | {reader}
            sub = TransactionalHistory(committed.projection(scope))
            verdict = check_serializability(sub)
        reader_verdicts.append((reader, verdict))
    return UpdateConsistencyReport(update_verdict, tuple(reader_verdicts))
