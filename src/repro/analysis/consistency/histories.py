"""Histories in the Biswas–Enea abstract format: ``⟨T, so, wr⟩``.

"On the Complexity of Checking Transactional Consistency" (PAPERS.md)
formalises a history as a set of transactions ``T``, a union-of-total-orders
*session order* ``so``, and a *write-read* relation ``wr_x(t1, t2)``
("``t2`` reads ``x`` from ``t1``").  Isolation levels are then properties of
the commit orders ``co ⊇ so ∪ wr`` that exist for the history.

:class:`TransactionalHistory` adapts this repository's positional
:class:`~repro.core.model.History` to that format: the wr relation comes
from the positional reads-from (committed-value semantics), and sessions
are supplied explicitly — a simulator trace's recorded per-client commit
order (:meth:`repro.sim.trace.TraceRecorder.transactional_history`), or
none for a bare history.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ...core.model import History, T0, Transaction

__all__ = [
    "TransactionalHistory",
    "WRPair",
]

#: One write-read fact: (writer, reader, object).  ``writer`` may be ``t0``.
WRPair = Tuple[str, str, str]


class TransactionalHistory:
    """A committed history plus its session order — ``⟨T, so, wr⟩``.

    ``sessions`` is a sequence of transaction-id sequences; each sequence
    contributes the total order of its members to ``so``.  A transaction
    may appear in several sessions (``so`` is a union of orders), but at
    most once per session.  Ids that are absent from the committed
    projection (aborted or unknown) are dropped, which is what lets trace
    adapters pass raw per-client records through unfiltered.
    """

    def __init__(self, history: History, sessions: Sequence[Sequence[str]] = ()):
        self.history = history.committed_projection()
        committed = set(self.history.transactions)
        cleaned: List[Tuple[str, ...]] = []
        for session in sessions:
            kept: List[str] = []
            seen: Set[str] = set()
            for tid in session:
                if tid not in committed:
                    continue
                if tid in seen:
                    raise ValueError(f"transaction {tid!r} repeats within a session")
                seen.add(tid)
                kept.append(tid)
            if len(kept) > 1:
                cleaned.append(tuple(kept))
        self.sessions: Tuple[Tuple[str, ...], ...] = tuple(cleaned)

    # ------------------------------------------------------------------
    @property
    def tids(self) -> Tuple[str, ...]:
        """Committed transaction ids, in order of first appearance."""
        return self.history.transaction_ids

    def transaction(self, tid: str) -> Transaction:
        return self.history.transaction(tid)

    # ------------------------------------------------------------------
    def wr_pairs(self) -> Tuple[WRPair, ...]:
        """All ``wr_x(t1, t2)`` facts; ``t1`` is ``t0`` for initial reads."""
        return tuple(
            (writer, reader, obj)
            for (reader, obj), writer in sorted(self.history.reads_from.items())
        )

    def so_pairs(self) -> FrozenSet[Tuple[str, str]]:
        """Every ordered pair ``(t1, t2)`` with ``t1`` before ``t2`` in a session."""
        pairs: Set[Tuple[str, str]] = set()
        for session in self.sessions:
            for i, earlier in enumerate(session):
                for later in session[i + 1 :]:
                    if earlier != later:
                        pairs.add((earlier, later))
        return frozenset(pairs)

    def so_edges(self) -> Tuple[Tuple[str, str], ...]:
        """Consecutive-in-session pairs (the transitive reduction of so)."""
        edges: List[Tuple[str, str]] = []
        seen: Set[Tuple[str, str]] = set()
        for session in self.sessions:
            for earlier, later in zip(session, session[1:]):
                if (earlier, later) not in seen:
                    seen.add((earlier, later))
                    edges.append((earlier, later))
        return tuple(edges)

    def writers_of(self) -> Dict[str, Tuple[str, ...]]:
        """Object -> committed transactions writing it (``t0`` excluded)."""
        writers: Dict[str, List[str]] = {}
        seen: Set[Tuple[str, str]] = set()
        for op in self.history:
            if op.is_write and (op.obj or "", op.txn) not in seen:
                seen.add((op.obj or "", op.txn))
                writers.setdefault(op.obj or "", []).append(op.txn)
        return {obj: tuple(tids) for obj, tids in writers.items()}

    def read_events(self, tid: str) -> Tuple[Tuple[str, str], ...]:
        """``(obj, writer)`` for ``tid``'s reads, in program order."""
        rf = self.history.reads_from
        return tuple(
            (op.obj or "", rf[(tid, op.obj or "")])
            for op in self.history.operations_of(tid)
            if op.is_read
        )

    def __repr__(self) -> str:
        return (
            f"TransactionalHistory(|T|={len(self.tids)}, "
            f"sessions={len(self.sessions)})"
        )

