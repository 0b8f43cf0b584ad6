"""Reads-from closure machinery: LIVE sets and affects sets.

Implements Definitions 1–3 of the paper:

* ``READS_FROM`` — exposed on :class:`repro.core.model.History` directly;
* ``LIVE_H(t)`` — the transitive reads-from closure of a transaction
  (:func:`live_set`);
* affects sets of read and write operations (:func:`affects_set`), used by
  the formal-characterization lemmas and exercised by the test suite.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .model import History, Operation, OpKind, T0

__all__ = [
    "live_set",
    "live_sets",
    "last_committed_writer",
    "affects_set",
]


def live_set(history: History, tid: str, *, include_t0: bool = False) -> FrozenSet[str]:
    """``LIVE_H(t)``: transactions ``t`` directly or indirectly reads from.

    The minimal set containing ``t`` and closed under "reads the value of an
    object written by".  ``t0`` (the implicit initialiser) is excluded by
    default since most graph constructions treat it as the database's
    initial state rather than a node.
    """
    by_reader = history.read_sources  # indexed once per history, not per call
    result: Set[str] = {tid}
    queue = deque([tid])
    while queue:
        current = queue.popleft()
        for writer in by_reader.get(current, ()):
            if writer not in result:
                result.add(writer)
                queue.append(writer)
    if not include_t0:
        result.discard(T0)
    return frozenset(result)


def live_sets(history: History, *, include_t0: bool = False) -> Dict[str, FrozenSet[str]]:
    """``LIVE_H(t)`` for every transaction ``t`` in the history."""
    return {
        tid: live_set(history, tid, include_t0=include_t0)
        for tid in history.transaction_ids
    }


def last_committed_writer(history: History, obj: str) -> Tuple[str, Optional[int]]:
    """The last committed transaction that wrote ``obj`` and its commit cycle.

    Returns ``(t0, 0)`` when no committed transaction wrote the object —
    matching the paper's convention that ``t0`` writes everything at cycle 0.
    """
    txns = history.transactions
    last: Tuple[str, Optional[int]] = (T0, 0)
    commit_index: Dict[str, int] = {}
    for idx, op in enumerate(history):
        if op.is_commit:
            commit_index[op.txn] = idx
    best_commit = -1
    for op in history:
        if op.is_write and op.obj == obj:
            txn = txns.get(op.txn)
            if txn is None or not txn.committed:
                continue
            cidx = commit_index[op.txn]
            if cidx > best_commit:
                best_commit = cidx
                last = (op.txn, txn.commit_cycle)
    return last


def _op_index(history: History, op: Operation) -> int:
    for idx, candidate in enumerate(history):
        if candidate is op or candidate == op:
            return idx
    raise ValueError(f"operation {op} not in history")


def affects_set(history: History, op: Operation) -> FrozenSet[Operation]:
    """The affects set ``AS_H(op)`` of a read or write (Definitions 2–3).

    The set of operations that directly or indirectly affected the value
    read/written by ``op``:

    * a read's affects set contains itself, the write it read from, and
      (recursively) everything affecting that write;
    * a write's affects set contains itself, the reads its transaction
      performed before it, and (recursively) everything affecting those.
    """
    if op.kind not in (OpKind.READ, OpKind.WRITE):
        raise ValueError("affects sets are defined for reads and writes only")

    ops = history.operations
    position = {id(o): i for i, o in enumerate(ops)}
    if id(op) not in position:
        # Accept a structurally equal operation not taken from the history.
        idx = _op_index(history, op)
        op = ops[idx]

    rf = history.reads_from

    def writer_op(reader: Operation) -> Optional[Operation]:
        writer = rf.get((reader.txn, reader.obj or ""))
        if writer is None or writer == T0:
            return None
        # the *latest* write by `writer` on the object before the read
        ridx = position[id(reader)]
        found: Optional[Operation] = None
        for i in range(ridx - 1, -1, -1):
            candidate = ops[i]
            if candidate.is_write and candidate.txn == writer and candidate.obj == reader.obj:
                found = candidate
                break
        return found

    def prior_reads(w: Operation) -> List[Operation]:
        widx = position[id(w)]
        return [
            o
            for o in ops[:widx]
            if o.txn == w.txn and o.is_read
        ]

    result: Set[int] = set()
    collected: List[Operation] = []
    stack = [op]
    while stack:
        current = stack.pop()
        if id(current) in result:
            continue
        result.add(id(current))
        collected.append(current)
        if current.is_read:
            w = writer_op(current)
            if w is not None:
                stack.append(w)
        else:  # write
            stack.extend(prior_reads(current))
    return frozenset(collected)
