"""Grouped control information: the F-Matrix ↔ R-Matrix spectrum (Sec. 3.2.2).

Partitioning the database objects into ``g`` groups turns the ``n × n``
control matrix into an ``n × g`` matrix ``MC(i, s) = max_{j ∈ s} C(i, j)``.
Two extremes:

* every group a singleton → F-Matrix (full matrix);
* one group covering the database → a length-``n`` vector whose entry ``i``
  is simply the last cycle in which a committed value was written to
  ``ob_i`` — the state shared by the Datacycle and R-Matrix protocols.

:class:`GroupedControlState` maintains the grouped matrix *incrementally*
(without materialising the full ``C``), which is what a server configured
with groups would actually run; :class:`LastWriteVector` is the one-group
state, the only control structure a Datacycle/R-Matrix server keeps.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence, Tuple

import numpy as np

from .control_matrix import ColumnImage, Commit, checked_batch, commit_column

__all__ = [
    "Partition",
    "LastWriteVector",
    "GroupedControlState",
    "uniform_partition",
]


class Partition:
    """A partition of object ids ``0..n-1`` into ordered groups."""

    def __init__(self, groups: Sequence[Sequence[int]], num_objects: int):
        seen: set = set()
        self.groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(g)) for g in groups
        )
        for group in self.groups:
            if not group:
                raise ValueError("groups must be non-empty")
            for member in group:
                if member in seen:
                    raise ValueError(f"object {member} in more than one group")
                seen.add(member)
        if seen != set(range(num_objects)):
            raise ValueError("groups must partition 0..n-1")
        self.num_objects = num_objects
        #: object id -> group index (a list: scalar indexing is numpy's slow case)
        self._group_of = [0] * num_objects
        for gidx, group in enumerate(self.groups):
            for member in group:
                self._group_of[member] = gidx

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def group_of(self, obj: int) -> int:
        return self._group_of[obj]

    def group_indices(self) -> np.ndarray:
        """Vector mapping object id -> group index."""
        return np.array(self._group_of, dtype=np.int64)


def uniform_partition(num_objects: int, num_groups: int) -> Partition:
    """Contiguous near-equal groups; ``num_groups == n`` gives singletons."""
    if not 1 <= num_groups <= num_objects:
        raise ValueError("need 1 <= num_groups <= num_objects")
    bounds = np.linspace(0, num_objects, num_groups + 1).astype(int)
    groups = [
        list(range(bounds[k], bounds[k + 1]))
        for k in range(num_groups)
        if bounds[k] < bounds[k + 1]
    ]
    return Partition(groups, num_objects)


class LastWriteVector:
    """``MC(i, db)``: last commit cycle writing each object (one group).

    This is the control state of both Datacycle and R-Matrix — their
    protocols differ only in the client-side read condition.
    """

    def __init__(self, num_objects: int):
        self._mc = np.zeros(num_objects, dtype=np.int64)
        self._ids = frozenset(range(num_objects))
        self._last_cycle_applied = 0

    @property
    def array(self) -> np.ndarray:
        return self._mc

    def snapshot(self) -> np.ndarray:
        return self._mc.copy()

    def entry(self, i: int) -> int:
        return int(self._mc[i])

    def apply_commit(
        self, commit_cycle: int, read_set: Iterable[int], write_set: Iterable[int]
    ) -> Collection[int]:
        """:meth:`apply_batch` of one commit."""
        return self.apply_batch(commit_cycle, [("", tuple(read_set), tuple(write_set))])

    def apply_batch(self, commit_cycle: int, batch: Sequence[Commit]) -> Collection[int]:
        """Stamp every entry the batch writes with one store; returns their
        ids (see ``checked_batch``).  Every commit of a batch has the same
        cycle, so order within it does not matter here."""
        written = checked_batch(self._ids, self._last_cycle_applied, commit_cycle, batch)
        if written:
            self._last_cycle_applied = commit_cycle
            self._mc[list(written)] = commit_cycle
        return written


class GroupedControlState:
    """Incrementally maintained ``n × g`` grouped matrix.

    Maintains, for each group ``s``, the column
    ``MC(·, s) = max_{j ∈ s} C(·, j)`` under the Theorem 2 commit rule.  A
    subtlety: the full-matrix rule *overwrites* columns of written objects,
    but a group's column is a max over members, so overwriting is only
    exact when the group is a singleton.  For larger groups the column max
    is monotone (old members' contributions may linger after being
    overwritten in ``C``), which keeps the grouped state *conservative*:
    ``MC(i, s) >= max_{j∈s} C(i, j)``, so every conflict the exact grouped
    matrix reports is still reported and the protocol stays safe (it only
    ever aborts more).  The exact recomputation used in tests lives in
    :meth:`repro.core.control_matrix.ControlMatrix.reduce_to_groups`.
    """

    def __init__(self, partition: Partition):
        self.partition = partition
        n, g = partition.num_objects, partition.num_groups
        #: column ``s`` of ``MC``, immutable; only ``apply_batch`` rebinds
        #: (:mod:`repro.core.control_matrix`, "Columns, not a block")
        self.columns = [commit_column(n, (), (), 0)] * g
        self._exact = g == n
        self._ids = frozenset(range(n))
        self._last_cycle_applied = 0

    @property
    def array(self) -> np.ndarray:
        """``MC`` as a dense read-only array, stacked on each call."""
        return ColumnImage(self.columns).dense()

    def snapshot(self) -> np.ndarray:
        return np.stack(self.columns, axis=1)

    def entry(self, i: int, group: int) -> int:
        return int(self.columns[group][i])

    def apply_commit(
        self, commit_cycle: int, read_set: Iterable[int], write_set: Iterable[int]
    ) -> Collection[int]:
        """:meth:`apply_batch` of one commit."""
        return self.apply_batch(commit_cycle, [("", tuple(read_set), tuple(write_set))])

    def apply_batch(self, commit_cycle: int, batch: Sequence[Commit]) -> Collection[int]:
        """Theorem 2 on group columns, commit by commit in serialization
        order, ids checked once for the batch; returns the ids of the
        groups rebound."""
        part = self.partition
        written = checked_batch(self._ids, self._last_cycle_applied, commit_cycle, batch)
        if not written:
            return written
        self._last_cycle_applied = commit_cycle
        columns, group_of = self.columns, part._group_of
        for _, rs, ws in batch:
            if not ws:
                continue
            # max over the groups containing read objects over-approximates
            # max over read columns of C; exact when groups are singletons.
            # Writes dominate: entries (i ∈ WS, group of j ∈ WS) become the
            # cycle — no entry exceeds it, commit cycles being non-decreasing
            read_groups = {group_of[r] for r in rs}
            reads = [columns[g] for g in read_groups]
            column = commit_column(part.num_objects, reads, ws, commit_cycle)
            for g in {group_of[w] for w in ws}:
                merged = column
                if not (self._exact or g in read_groups):
                    # the group keeps its other members' contributions: a new
                    # array, never ``out=`` one that an image may already share
                    # (a group the commit read is in ``column``, already ≥ it)
                    merged = np.maximum(columns[g], column)
                    merged.setflags(write=False)
                columns[g] = merged
        return {group_of[w] for w in written}
