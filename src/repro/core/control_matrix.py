"""The F-Matrix control matrix ``C`` (Section 3.2.1).

For a database of ``n`` objects with ids ``0..n-1``::

    C(i, j) = max { commit-cycle(t') : t' ∈ LIVE_H(t_j), t' writes ob_i }

where ``t_j`` is the last committed update transaction that wrote ``ob_j``
(``t0``, committing at cycle 0, when none has).  ``C(i, j)`` is thus the
latest cycle at which some transaction *affecting* the current committed
value of ``ob_j`` wrote ``ob_i``.

Two computations are provided:

* :meth:`ControlMatrix.apply_commit` — the incremental maintenance of
  Theorem 2, numpy-vectorised, used by the server on every commit;
* :func:`matrix_from_history` — the definitional computation from a full
  history, used as the oracle in the Theorem 2 property tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from .model import History, T0
from .readsfrom import last_committed_writer, live_set

__all__ = ["ControlMatrix", "matrix_from_history"]


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
        self._c = np.zeros((num_objects, num_objects), dtype=np.int64)
        self._last_cycle_applied = 0

    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return self._n

    @property
    def array(self) -> np.ndarray:
        """The live matrix (a view — do not mutate)."""
        return self._c

    def snapshot(self) -> np.ndarray:
        """An independent copy, e.g. the frozen per-cycle broadcast image."""
        return self._c.copy()

    def entry(self, i: int, j: int) -> int:
        return int(self._c[i, j])

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` — broadcast alongside object ``j`` (Sec. 3.2.1)."""
        return self._c[:, j].copy()

    # ------------------------------------------------------------------
    def apply_commit(
        self,
        commit_cycle: int,
        read_set: Iterable[int],
        write_set: Iterable[int],
    ) -> None:
        """Apply one committed update transaction (Theorem 2 algorithm).

        * ``C(i, j) = commit_cycle``            for i, j ∈ WS;
        * ``C(i, j) = max_{k ∈ RS} C_old(i, k)`` for i ∉ WS, j ∈ WS
          (0 when RS is empty);
        * unchanged otherwise.
        """
        ws = sorted({w for w in write_set})
        if not ws:
            return  # read-only at the server: no effect on the matrix
        if commit_cycle < self._last_cycle_applied:
            raise ValueError(
                f"commit cycles must be non-decreasing "
                f"({commit_cycle} < {self._last_cycle_applied})"
            )
        self._last_cycle_applied = commit_cycle
        rs = sorted({r for r in read_set})
        for idx in ws + rs:
            if not 0 <= idx < self._n:
                raise IndexError(f"object id {idx} out of range 0..{self._n - 1}")

        if rs:
            new_column = self._c[:, rs].max(axis=1)
        else:
            new_column = np.zeros(self._n, dtype=np.int64)
        new_column[ws] = commit_cycle
        # one contiguous assignment per column beats a fancy-indexed
        # statement below ~20 columns; simulated write sets are ~4, <= 16
        for j in ws:
            self._c[:, j] = new_column

    # ------------------------------------------------------------------
    def reduce_to_vector(self) -> np.ndarray:
        """``MC(i, db) = max_j C(i, j)``: the one-group reduction.

        This equals the last committed-write cycle per object (Sec. 3.2.2):
        the diagonal dominates each row's maximum because the last writer of
        ``ob_i`` is in its own live set.
        """
        return self._c.max(axis=1)

    def reduce_to_groups(self, groups: Sequence[Sequence[int]]) -> np.ndarray:
        """``MC(i, s) = max_{j ∈ s} C(i, j)`` for each group ``s``."""
        cols = []
        seen: Set[int] = set()
        for group in groups:
            members = list(group)
            if not members:
                raise ValueError("groups must be non-empty")
            seen.update(members)
            cols.append(self._c[:, members].max(axis=1))
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
