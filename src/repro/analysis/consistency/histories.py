"""Histories in the Biswas–Enea abstract format: ``⟨T, so, wr⟩``.

"On the Complexity of Checking Transactional Consistency" (PAPERS.md)
formalises a history as a set of transactions ``T``, a union-of-total-orders
*session order* ``so``, and a *write-read* relation ``wr_x(t1, t2)``
("``t2`` reads ``x`` from ``t1``").  Isolation levels are then properties of
the commit orders ``co ⊇ so ∪ wr`` that exist for the history.

:class:`TransactionalHistory` adapts this repository's positional
:class:`~repro.core.model.History` to that format: the wr relation comes
from the positional reads-from (committed-value semantics), and sessions
are supplied explicitly — derived from transaction-id prefixes and
broadcast cycle numbers for simulator traces, or empty for bare histories.

Commit-cycle annotations may arrive *encoded* under the modulo timestamp
window (:class:`~repro.core.cycles.ModuloCycles`); :func:`decode_commit_cycles`
recovers absolute cycles by anchor-walking the residues, so session orders
derived from cycle numbers stay correct across wrap-around.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ...core.cycles import CycleArithmetic
from ...core.model import History, T0, Transaction

__all__ = [
    "TransactionalHistory",
    "WRPair",
    "decode_commit_cycles",
    "derive_sessions",
]

#: One write-read fact: (writer, reader, object).  ``writer`` may be ``t0``.
WRPair = Tuple[str, str, str]

#: Transaction ids of the form ``cl<N>.<tid>`` belong to client ``cl<N>``.
_CLIENT_TID = re.compile(r"^(cl\d+)\.")


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


def decode_commit_cycles(
    history: History, arithmetic: Optional[CycleArithmetic] = None
) -> Dict[str, int]:
    """Absolute commit cycle per committed transaction, modulo-aware.

    Commit annotations written by the simulator are absolute, but histories
    recorded off the wire carry residues modulo the timestamp window.  With
    a windowed ``arithmetic``, residues are anchor-walked in history order:
    commits are monotone non-decreasing in absolute cycles and consecutive
    commits lie within one window of each other (the paper's ``max_cycles``
    bound), so each residue decodes to the smallest absolute cycle ≥ the
    previous commit with that residue.  Without a window (``None`` or
    :class:`~repro.core.cycles.UnboundedCycles`) annotations pass through
    unchanged.  Transactions without a commit-cycle annotation are omitted.
    """
    window = getattr(arithmetic, "window", None)
    cycles: Dict[str, int] = {}
    previous = 0
    for op in history:
        if not op.is_commit or op.cycle is None:
            continue
        if window is None:
            absolute = op.cycle
        else:
            absolute = previous + ((op.cycle - previous) % window)
        cycles[op.txn] = absolute
        previous = absolute
    return cycles


def derive_sessions(
    history: History, arithmetic: Optional[CycleArithmetic] = None
) -> Tuple[Tuple[str, ...], ...]:
    """Per-client sessions inferred from tid prefixes and cycle numbers.

    Simulator transaction ids of the form ``cl<N>.<tid>`` group by client;
    within a client, program order is recovered from decoded commit cycles
    (ties broken by history position — a client runs its transactions
    sequentially, so commit cycles are non-decreasing along its session).
    Transactions without a client prefix (server-resident ones) form no
    session here: the broadcast protocols do not promise session guarantees
    across the server's interleaved commit order, only per client.
    """
    cycles = decode_commit_cycles(history, arithmetic)
    position = {tid: idx for idx, tid in enumerate(history.transaction_ids)}
    groups: Dict[str, List[str]] = {}
    for tid in history.transaction_ids:
        match = _CLIENT_TID.match(tid)
        if match is not None:
            groups.setdefault(match.group(1), []).append(tid)
    sessions: List[Tuple[str, ...]] = []
    for client in sorted(groups):
        members = groups[client]
        members.sort(key=lambda tid: (cycles.get(tid, 0), position[tid]))
        if len(members) > 1:
            sessions.append(tuple(members))
    return tuple(sessions)
