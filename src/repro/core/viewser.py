"""Exact view-serializability testing (for small histories).

A history is *view serializable* iff some serial order of its committed
transactions yields the same reads-from relation (including reads of the
initial state) and the same final writes.  The decision problem is
NP-complete (Papadimitriou), so this module provides an exact check that is
only intended for the history sizes the theory layer and the test suite
manipulate — a guard refuses absurdly large inputs instead of silently
taking forever.

Two procedures are exposed:

* :func:`is_view_serializable` / :func:`view_serialization_order` — exact
  search over serial orders with memoized pruning;
* :func:`view_equivalent` — check view equivalence of a history against a
  specific serial order, which the search uses and tests exercise directly.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .model import History, T0

__all__ = [
    "final_writes",
    "serial_replay",
    "view_equivalent",
    "is_view_serializable",
    "view_serialization_order",
    "ViewSerializabilityLimitError",
]

#: Refuse exact search beyond this many committed transactions.
MAX_EXACT_TRANSACTIONS = 10


class ViewSerializabilityLimitError(ValueError):
    """Raised when a history is too large for the exact procedure."""


def final_writes(history: History) -> Dict[str, str]:
    """Map ``obj -> transaction`` whose write is last on ``obj``."""
    result: Dict[str, str] = {}
    for op in history:
        if op.is_write:
            result[op.obj or ""] = op.txn
    return result


def serial_replay(
    history: History, order: Sequence[str]
) -> Tuple[Dict[Tuple[str, str], str], Dict[str, str]]:
    """Reads-from and final writes of executing ``order`` serially — the
    transactions of ``history``, each reading before it writes.  Plain
    bookkeeping, no graph: certificate checking relies on that."""
    txns = history.transactions
    last_writer: Dict[str, str] = {}
    reads_from: Dict[Tuple[str, str], str] = {}
    for tid in order:
        txn = txns[tid]
        for obj in txn.read_set:
            reads_from[(tid, obj)] = last_writer.get(obj, T0)
        for obj in txn.write_set:
            last_writer[obj] = tid
    return reads_from, last_writer


def view_equivalent(history: History, order: Sequence[str]) -> bool:
    """Is ``history`` view equivalent to the serial execution ``order``?

    Requires ``order`` to be a permutation of the committed transactions of
    ``history``.  Both the reads-from relation and the final writes must
    coincide.  Reads and writes *within* a transaction keep their program
    order, so per-transaction behaviour is characterised by the read/write
    sets, consistent with the paper's model (all reads precede all writes).
    """
    committed = history.committed_projection()
    tids = set(committed.transaction_ids)
    if set(order) != tids or len(order) != len(tids):
        raise ValueError("order must be a permutation of committed transactions")
    return serial_replay(committed, order) == (
        committed.reads_from,
        final_writes(committed),
    )


def view_serialization_order(history: History) -> Optional[List[str]]:
    """A serial order view-equivalent to ``history``, or ``None``.

    Conflict serializability implies view serializability, so a conflict
    serialization order is tried first (this also makes the check cheap
    for serial histories, e.g. those built by the Appendix B reduction).
    Otherwise: exact search with prefix pruning — a partial order is
    viable only if every read issued so far observed the correct writer.
    """
    committed = history.committed_projection()
    tids: Tuple[str, ...] = committed.transaction_ids
    from .serialgraph import conflict_serialization_order

    csr_order = conflict_serialization_order(committed)
    if csr_order is not None:
        return csr_order
    if len(tids) > MAX_EXACT_TRANSACTIONS:
        raise ViewSerializabilityLimitError(
            f"{len(tids)} committed transactions exceed the exact-search limit "
            f"of {MAX_EXACT_TRANSACTIONS}"
        )
    target_rf = committed.reads_from
    target_final = final_writes(committed)
    txns = committed.transactions

    def extend(
        order: List[str],
        remaining: FrozenSet[str],
        last_writer: Dict[str, str],
    ) -> Optional[List[str]]:
        if not remaining:
            serial_final = dict(last_writer)
            return list(order) if serial_final == target_final else None
        for tid in sorted(remaining):
            txn = txns[tid]
            # every read of `tid` must observe the same writer as in history
            if any(
                target_rf[(tid, obj)] != last_writer.get(obj, T0)
                for obj in txn.read_set
            ):
                continue
            new_writer = dict(last_writer)
            for obj in txn.write_set:
                new_writer[obj] = tid
            order.append(tid)
            found = extend(order, remaining - {tid}, new_writer)
            if found is not None:
                return found
            order.pop()
        return None

    return extend([], frozenset(tids), {})


def is_view_serializable(history: History) -> bool:
    """True iff some serial order is view equivalent to ``history``."""
    return view_serialization_order(history) is not None
