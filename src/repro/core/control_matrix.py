"""The F-Matrix control matrix ``C`` (Section 3.2.1).

For a database of ``n`` objects with ids ``0..n-1``::

    C(i, j) = max { commit-cycle(t') : t' ∈ LIVE_H(t_j), t' writes ob_i }

where ``t_j`` is the last committed update transaction that wrote ``ob_j``
(``t0``, committing at cycle 0, when none has).  ``C(i, j)`` is thus the
latest cycle at which some transaction *affecting* the current committed
value of ``ob_j`` wrote ``ob_i``.

Two computations are provided:

* :meth:`ControlMatrix.apply_batch` — the incremental maintenance of
  Theorem 2, used by the server once per cycle's commits
  (:meth:`~ControlMatrix.apply_commit` is its one-commit call);
* :func:`matrix_from_history` — the definitional computation from a full
  history, used as the oracle in the Theorem 2 property tests.

**Columns, not a block.**  Sec. 3.2.1 broadcasts *column j* with object
``j``, and Theorem 2 gives every column one commit writes the *same* new
column.  So the live state is ``n`` references to immutable columns: a
commit makes one (:func:`commit_column`) and rebinds the written objects
to it, a cycle freeze shares the references (:class:`ColumnImage`), and a
dense ``n × n`` array exists only where a caller asks for one.
"""

from __future__ import annotations

from typing import Collection, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

from .model import History, T0
from .readsfrom import last_committed_writer, live_set

#: ``checked_batch`` / ``commit_column`` are shared with ``group_matrix``
__all__ = ["ColumnImage", "Commit", "ControlMatrix", "matrix_from_history"]

#: one commit offered to a batch door: ``(txn, read_set, writes)``, where
#: ``writes`` iterates the written ids — a tuple of them (each takes the
#: transaction id as its value; a ``ServerTransactionSpec`` is such a
#: commit) or a dict of id -> value.  A control state reads the ids only.
Commit = Tuple[str, Sequence[int], Collection[int]]


class ColumnImage:
    """Control columns shared by reference: column ``k`` is ``columns[k]``.

    Every column is immutable, so the live state, the frozen image of
    each broadcast cycle and whatever a client retains can all hold the
    *same* arrays: taking an image copies ``len(columns)`` pointers.
    """

    __slots__ = ("columns", "_dense")

    def __init__(self, columns: Iterable[np.ndarray]):
        self.columns: Tuple[np.ndarray, ...] = tuple(columns)
        self._dense: Optional[np.ndarray] = None

    def dense(self) -> np.ndarray:
        """The ``n × len(columns)`` array: stacked on first use, read-only,
        then the same object (:mod:`repro.sim.arena` dedups by identity)."""
        if self._dense is None:
            self._dense = np.stack(self.columns, axis=1)
            self._dense.setflags(write=False)
        return self._dense


def checked_batch(
    ids: FrozenSet[int], last_cycle: int, commit_cycle: int, batch: Sequence[Commit]
) -> Set[int]:
    """The door of every control state, once per batch: the union of the
    batch's write sets, or an exception.

    ``ids`` is the state's valid ids, ``frozenset(range(n))``, and each
    commit's read and write sets are tested against it by two C-level
    ``issuperset`` calls.  An object id outside ``0..n-1`` anywhere in the
    batch raises ``IndexError`` naming it (the lowest negative id, else
    the highest, of the batch's reads, then of its writes), a batch that
    writes before ``last_cycle`` ``ValueError`` (one that writes nothing
    installs nothing and is not held to it) — checked before the caller
    changes anything, so a refused batch leaves no trace.
    """
    written: Set[int] = set()
    for _, rs, ws in batch:
        if not (ids.issuperset(rs) and ids.issuperset(ws)):
            bad = {i for _, reads, _ in batch for i in reads} - ids
            bad = bad or {i for _, _, writes in batch for i in writes} - ids
            worst = min(bad) if min(bad) < 0 else max(bad)
            raise IndexError(f"object id {worst} out of range 0..{len(ids) - 1}")
        written.update(ws)
    if written and commit_cycle < last_cycle:
        raise ValueError(
            f"commit cycles must be non-decreasing ({commit_cycle} < {last_cycle})"
        )
    return written


def commit_column(
    num_objects: int,
    read_columns: Sequence[np.ndarray],
    ws: Iterable[int],
    commit_cycle: int,
) -> np.ndarray:
    """The one column a commit makes (Theorem 2): ``commit_cycle`` at
    ``i ∈ WS``, elsewhere the max over the columns read (0 for none).

    The aliasing rule of the whole design: a column is written only
    before it is published.  It is sealed here, and from then on any
    number of states, images and clients may share it.
    """
    if read_columns:
        column = read_columns[0].copy()
        for other in read_columns[1:]:
            np.maximum(column, other, out=column)
    else:
        column = np.zeros(num_objects, dtype=np.int64)
    for i in ws:
        column[i] = commit_cycle
    column.setflags(write=False)
    return column


class ControlMatrix:
    """Incrementally maintained ``n × n`` control matrix.

    Entries are absolute cycle numbers (int64); reduction to modulo
    timestamps happens at broadcast time (:mod:`repro.broadcast`).  Commits
    must be applied in the update transactions' serialization order, which
    under the server's strict-2PL/BOCC executors coincides with commit
    order (Section 3.2.1 "the simple case").
    """

    def __init__(self, num_objects: int):
        if num_objects <= 0:
            raise ValueError("num_objects must be positive")
        self._n = num_objects
        #: column ``j`` of ``C``, immutable; only ``apply_batch`` rebinds
        #: an entry, and objects last written together share one array
        self.columns = [commit_column(num_objects, (), (), 0)] * num_objects
        self._ids = frozenset(range(num_objects))
        self._last_cycle_applied = 0

    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return self._n

    @property
    def array(self) -> np.ndarray:
        """``C`` as a dense read-only array, stacked on each call."""
        return ColumnImage(self.columns).dense()

    def snapshot(self) -> np.ndarray:
        """An independent, writable dense copy."""
        return np.stack(self.columns, axis=1)

    def entry(self, i: int, j: int) -> int:
        return int(self.columns[j][i])

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` — broadcast alongside object ``j`` (Sec. 3.2.1)."""
        return self.columns[j]

    # ------------------------------------------------------------------
    def apply_commit(
        self,
        commit_cycle: int,
        read_set: Iterable[int],
        write_set: Iterable[int],
    ) -> Collection[int]:
        """Apply one committed update transaction: :meth:`apply_batch` of one."""
        return self.apply_batch(commit_cycle, [("", tuple(read_set), tuple(write_set))])

    def apply_batch(self, commit_cycle: int, batch: Sequence[Commit]) -> Collection[int]:
        """Apply a cycle's committed update transactions, in serialization
        order (Theorem 2 algorithm, per commit):

        * ``C(i, j) = commit_cycle``            for i, j ∈ WS;
        * ``C(i, j) = max_{k ∈ RS} C_old(i, k)`` for i ∉ WS, j ∈ WS
          (0 when RS is empty);
        * unchanged otherwise.

        Order matters — a commit reads the columns the ones before it
        rebound — so the columns are chained commit by commit; the ids
        are checked once for the batch (:func:`checked_batch`).  Returns
        the ids of the columns rebound — none for a batch that wrote
        nothing, which has no effect on the matrix.
        """
        written = checked_batch(self._ids, self._last_cycle_applied, commit_cycle, batch)
        if written:
            self._last_cycle_applied = commit_cycle
            columns, n = self.columns, self._n
            for _, rs, ws in batch:
                if ws:
                    column = commit_column(n, [columns[k] for k in rs], ws, commit_cycle)
                    for j in ws:
                        columns[j] = column
        return written

    # ------------------------------------------------------------------
    def reduce_to_vector(self) -> np.ndarray:
        """``MC(i, db) = max_j C(i, j)``: the one-group reduction.

        This equals the last committed-write cycle per object (Sec. 3.2.2):
        the diagonal dominates each row's maximum because the last writer of
        ``ob_i`` is in its own live set.
        """
        return self.array.max(axis=1)

    def reduce_to_groups(self, groups: Sequence[Sequence[int]]) -> np.ndarray:
        """``MC(i, s) = max_{j ∈ s} C(i, j)`` for each group ``s``."""
        dense = self.array
        cols = []
        seen: Set[int] = set()
        for group in groups:
            members = list(group)
            if not members:
                raise ValueError("groups must be non-empty")
            seen.update(members)
            cols.append(dense[:, members].max(axis=1))
        if seen != set(range(self._n)):
            raise ValueError("groups must partition the object ids")
        return np.stack(cols, axis=1)


def matrix_from_history(history: History, num_objects: int) -> np.ndarray:
    """Definitional ``C`` for a history with integer-named objects.

    Objects must be named ``"0" .. str(num_objects-1)``.  For each column
    ``j``, find the last committed writer ``t_j`` of ``ob_j`` and take, per
    row ``i``, the maximum commit cycle among transactions in
    ``LIVE_H(t_j)`` that write ``ob_i`` (0 when none does).  Commit events
    must carry ``cycle`` annotations.
    """
    c = np.zeros((num_objects, num_objects), dtype=np.int64)
    committed = history.committed_projection()
    txns = committed.transactions
    for j in range(num_objects):
        t_j, _cycle = last_committed_writer(committed, str(j))
        if t_j == T0:
            continue  # column stays 0
        live = live_set(committed, t_j)
        for tid in live:
            txn = txns[tid]
            if txn.commit_cycle is None:
                raise ValueError(f"commit of {tid} lacks a cycle annotation")
            for obj in txn.write_set:
                i = int(obj)
                c[i, j] = max(c[i, j], txn.commit_cycle)
    return c
