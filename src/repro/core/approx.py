"""APPROX: the paper's polynomial-time legality test (Section 3.1).

A history ``H`` is accepted iff

1. ``H_update`` is conflict serializable, and
2. for every read-only transaction ``t_R`` in ``H``, the serialization
   graph ``S_H(t_R)`` over ``LIVE_H(t_R)`` is acyclic.

APPROX accepts a *proper subset* of the legal (update-consistent) histories
(Theorem 6) and runs in polynomial time (Theorem 7).  The property-based
tests assert the inclusion against :mod:`repro.core.legality` on random
small histories.

:func:`approx_report` is the one place both conditions are decided (the
auditor, the certificates and the update-consistency certifier read its
report), from the history alone: no control matrix, validator or server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from .model import History, OpKind, T0
from .serialgraph import conflict_graph, reader_serialization_graph

__all__ = ["ApproxReport", "approx_accepts", "approx_report"]


@dataclass(frozen=True)
class ApproxReport:
    """Detailed outcome of running APPROX on a history."""

    accepted: bool
    update_serialization_order: Optional[Tuple[str, ...]]
    reader_verdicts: Dict[str, bool] = field(default_factory=dict)
    #: a cycle in H_update's conflict graph, when condition 1 fails
    update_cycle: Optional[Tuple[str, ...]] = None
    #: per-reader cycle in S_H(t_R), when condition 2 fails for that reader
    reader_cycles: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: the update transactions do not interleave (a sequential server's log):
    #: the order above is the log itself, found by no search
    serial_updates: bool = False

    @property
    def rejected_readers(self) -> Tuple[str, ...]:
        return tuple(t for t, ok in sorted(self.reader_verdicts.items()) if not ok)


def _rejected_readers(committed: History, order: Tuple[str, ...]) -> Set[str]:
    """Condition 2 for every reader at once, with no graph.

    Given condition 1, every arc of ``S_H(t_R)`` between update
    transactions agrees with the serialization ``order``, so a cycle must
    pass through ``t_R``; its only outgoing arcs are Z arcs (its read of
    ``ob`` precedes a write of ``ob``) and every LIVE member reaches it
    through X arcs.  Hence ``S_H(t_R)`` is acyclic iff no member of
    ``LIVE_H(t_R)`` writes an object after ``t_R``'s read of it: Theorem
    1's read condition over the history instead of over ``C``.  LIVE is one
    int bitset per transaction over positions in ``order``, where
    reads-from sources precede their readers; scanning backwards,
    ``later[ob]`` holds who writes ``ob`` after the current position.
    """
    bit = {tid: 1 << i for i, tid in enumerate(order)}
    sources = committed.read_sources
    live: Dict[str, int] = {}
    for tid in order + committed.read_only_transactions():
        mask = bit.get(tid, 0)
        for writer in sources.get(tid, ()):
            if writer != T0:  # the initial state is not a LIVE member
                mask |= live[writer]
        live[tid] = mask
    later: Dict[Optional[str], int] = {}
    rejected: Set[str] = set()
    for op in reversed(committed.operations):
        if op.kind is OpKind.WRITE:
            later[op.obj] = later.get(op.obj, 0) | bit[op.txn]
        elif op.kind is OpKind.READ and op.txn not in bit:
            if live[op.txn] & later.get(op.obj, 0):
                rejected.add(op.txn)
    return rejected


def approx_report(history: History) -> ApproxReport:
    """Run APPROX, returning per-condition diagnostics.

    Only committed transactions are considered (a scheduler decides
    legality over the committed projection); aborted transactions neither
    constrain the update sub-history nor count as readers.
    """
    committed = history.committed_projection()
    update = committed.update_subhistory()
    serial = update.is_serial()
    if serial:  # serial by inspection: the log is its own serialization
        order = committed.update_transactions()
    else:
        graph = conflict_graph(update)
        topological = graph.topological_order()
        if topological is None:
            cycle = graph.find_cycle()
            return ApproxReport(
                accepted=False,
                update_serialization_order=None,
                update_cycle=tuple(cycle) if cycle else None,
            )
        order = tuple(topological)

    rejected = _rejected_readers(committed, order)
    cycles = {  # Definition 9's graph (the tests' oracle) only witnesses a rejection
        tid: tuple(reader_serialization_graph(committed, tid).find_cycle() or ())
        for tid in sorted(rejected)
    }
    return ApproxReport(
        accepted=not rejected,
        update_serialization_order=order,
        reader_verdicts={
            tid: tid not in rejected for tid in committed.read_only_transactions()
        },
        reader_cycles=cycles,
        serial_updates=serial,
    )


def approx_accepts(history: History) -> bool:
    """True iff APPROX accepts ``history`` (Section 3.1)."""
    return approx_report(history).accepted
