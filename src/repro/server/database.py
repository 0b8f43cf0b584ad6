"""Versioned object store for the broadcast server.

The paper (Sec. 3.2.1, server functionality) asks the server to keep the
latest committed version of each object — what every broadcast cycle
carries — beside the last written, uncommitted one.  Here a server
transaction commits atomically at its completion instant
(:class:`repro.sim.timeline.LiveTimeline`) and a client update commits
the moment it passes backward validation, so no uncommitted version is
ever held: :class:`Database` keeps the committed version per object, and
that is the version each cycle broadcasts.

Committed versions carry provenance (writer id, commit cycle) so the
simulation trace can rebuild the induced global history.

The database owns "what committed" and leaves the id check to the one
door in front of it.  :meth:`Database.apply_batch` installs a cycle's
commits with ids as given: :meth:`repro.server.BroadcastServer.commit_batch`
(and :meth:`~repro.server.BroadcastServer.commit_update`, its call for
one) reaches it only after the control state's ``checked_batch`` has
refused any id outside ``0..n-1``.

The log is kept in columns, about 35 bytes a Table-1 server commit
where a raw ``(txn, cycle, seq, read_set, writes)`` tuple holding the
committer's own tid and set tuples took 350: the tids packed into
fixed-width bytes (:func:`repro.core.tids.pack_tids`), one flat int
array of each commit's read ids then its written ids, each commit's read
and write counts (which cut that array), one commit cycle per run of
commits sharing it, and a client update's written *values* (a server
write's value is its own tid) in a side map by commit index.  New
commits wait in plain lists — an ``append`` or a ``+=`` per column, no
tuple built per commit — and move into the arrays every :data:`_PACK`
commits.  The log keeps no reference to a committer's spec or sets, and
no per-commit container for the cyclic collector to walk (a client
update's values tuple aside).  The sorted records (:class:`CommitRecord`)
are built only when :attr:`Database.commit_log` is read (a crash, the
trace, the audit); :attr:`Database.last_record`, which every client
update reads, builds the newest one from the lists' tails.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from ..broadcast.program import ObjectVersion
from ..core.control_matrix import Commit
from ..core.model import T0
from ..core.tids import pack_tids, unpack_tids

__all__ = ["Database", "CommitRecord"]

#: commits whose log columns wait in lists before :meth:`Database._pack`
#: moves them into arrays
_PACK = 1024


class CommitRecord(NamedTuple):
    """One committed update transaction, in serialization order."""

    txn: str
    commit_cycle: int
    commit_seq: int
    read_set: Tuple[int, ...]
    writes: Tuple[Tuple[int, object], ...]


class Database:
    """Committed versions of ``n`` integer-identified objects.

    Object ids are ``0..n-1``.  The initial committed version of every
    object is written by the conventional transaction ``t0`` at cycle 0
    with value ``initial_value`` (paper Appendix A's convention).
    """

    def __init__(self, num_objects: int, initial_value: object = 0):
        if num_objects <= 0:
            raise ValueError("num_objects must be positive")
        self._n = num_objects
        self._committed: List[ObjectVersion] = [
            ObjectVersion(obj, initial_value, T0, 0) for obj in range(num_objects)
        ]
        # the log, in serialization order: commit ``i`` (from 0) has
        # ``commit_seq`` ``i + 1``
        #: packed tid chunks, :data:`_PACK` or more commits each
        self._tid_chunks: List[np.ndarray] = []
        #: each packed commit's read ids, then its written ids
        self._ids = array("H" if num_objects <= 1 << 16 else "I")
        #: each packed commit's read count, then its write count
        self._counts = array("I")
        #: commits packed so far
        self._packed = 0
        # the same three columns for the commits since the last pack
        self._tids: List[str] = []
        self._pending_ids: List[int] = []
        self._pending_counts: List[int] = []
        #: the first commit of each run of commits sharing a commit
        #: cycle, and that cycle (cycles never fall: the door refuses it)
        self._cycle_starts = array("I")
        self._cycles = array("q")
        #: a client update's written values, in its dict's key order (the
        #: order its written ids were logged), by commit index
        self._values: Dict[int, Tuple[object, ...]] = {}
        self._last_broadcast_cycle = 0

    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return self._n

    @property
    def commit_log(self) -> Tuple[CommitRecord, ...]:
        """All committed update transactions, in serialization order."""
        tids = unpack_tids(self._tid_chunks)
        tids.extend(self._tids)
        ids = self._ids.tolist()
        ids.extend(self._pending_ids)
        counts = self._counts.tolist()
        counts.extend(self._pending_counts)
        ends = self._cycle_starts.tolist()[1:]
        ends.append(len(tids))
        records: List[CommitRecord] = []
        index = at = 0
        for cycle, end in zip(self._cycles, ends):
            while index < end:
                mid = at + counts[2 * index]
                stop = mid + counts[2 * index + 1]
                records.append(
                    self._record(index, tids[index], cycle, ids[at:mid], ids[mid:stop])
                )
                index, at = index + 1, stop
        return tuple(records)

    @property
    def last_record(self) -> CommitRecord:
        """The newest commit's record, built from the pending lists' tails
        (they hold it: a pack runs before a batch, never after)."""
        tids = self._tids
        if not tids:
            raise IndexError("the commit log is empty")
        ids, counts = self._pending_ids, self._pending_counts
        mid = len(ids) - counts[-1]
        return self._record(
            self._packed + len(tids) - 1,
            tids[-1],
            self._cycles[-1],
            ids[mid - counts[-2] : mid],
            ids[mid:],
        )

    def _record(
        self,
        index: int,
        txn: str,
        commit_cycle: int,
        read_set: Iterable[int],
        written: Sequence[int],
    ) -> CommitRecord:
        """The sorted record of commit ``index``: sets deduplicated, a
        server write's value its writer's tid."""
        values = self._values.get(index)
        pairs: Tuple[Tuple[int, object], ...]
        if values is None:
            pairs = tuple((obj, txn) for obj in sorted(set(written)))
        else:
            pairs = tuple(sorted(zip(written, values)))
        return CommitRecord(
            txn, commit_cycle, index + 1, tuple(sorted(set(read_set))), pairs
        )

    @property
    def last_commit_cycle(self) -> int:
        """The commit cycle of the newest commit (0 before any)."""
        return self._cycles[-1] if self._cycles else 0

    @property
    def last_broadcast_cycle(self) -> int:
        """The highest cycle number the server has broadcast (durable).

        Recorded alongside the commit log because the log alone cannot
        represent *quiescent* cycles — cycles broadcast after the final
        commit.  Recovery that restores the cycle counter from the last
        commit's cycle would re-issue those cycle numbers, so a cycle
        number would name two different broadcasts; restoring from this
        value cannot.
        """
        return self._last_broadcast_cycle

    def record_broadcast_cycle(self, cycle: int) -> None:
        """Durably note that ``cycle`` went on the air."""
        if cycle < self._last_broadcast_cycle:
            raise ValueError(
                f"broadcast cycles advance (got {cycle}, at "
                f"{self._last_broadcast_cycle})"
            )
        self._last_broadcast_cycle = cycle

    def committed(self, obj: int) -> ObjectVersion:
        """The latest committed version of ``obj``."""
        return self._committed[obj]

    def committed_snapshot(self) -> Tuple[ObjectVersion, ...]:
        """All latest committed versions (the broadcast payload)."""
        return tuple(self._committed)

    # ------------------------------------------------------------------
    def apply_batch(self, commit_cycle: int, batch: Sequence[Commit]) -> None:
        """Install a cycle's transactions' writes as the committed versions.

        Must be called in serialization order — the completion order of
        server transactions, with each client update placed where it
        passed backward validation — with ids the caller has checked
        (module docstring).  The log copies each commit's tid, ids and
        written values into its lists (the module docstring's columns),
        so a caller may change its sets afterwards.  One
        :class:`ObjectVersion` per written object is the whole per-write
        cost: each is built as ``_make`` builds it (``tuple.__new__``),
        skipping the generated ``__new__``'s Python-level call.
        """
        if not batch:
            return
        tids = self._tids
        if len(tids) >= _PACK:
            self._pack()
        if not self._cycles or self._cycles[-1] != commit_cycle:
            self._cycle_starts.append(self._packed + len(tids))
            self._cycles.append(commit_cycle)
        committed, values = self._committed, self._values
        ids, counts = self._pending_ids, self._pending_counts
        new = tuple.__new__  # what ObjectVersion._make does, one call less
        for txn, read_set, writes in batch:
            if type(writes) is dict:
                for obj, value in writes.items():
                    committed[obj] = new(ObjectVersion, (obj, value, txn, commit_cycle))
                values[self._packed + len(tids)] = tuple(writes.values())
            else:
                for obj in writes:
                    committed[obj] = new(ObjectVersion, (obj, txn, txn, commit_cycle))
            tids.append(txn)
            counts += len(read_set), len(writes)
            ids += read_set
            ids += writes

    def _pack(self) -> None:
        """Move the pending commits' columns into the arrays."""
        tids, ids, counts = self._tids, self._pending_ids, self._pending_counts
        self._tid_chunks.append(pack_tids(tids))
        # numpy converts a list of ints at about a third of the cost of
        # ``array.extend`` (and refuses one out of the column's range)
        self._ids.frombytes(np.fromiter(ids, self._ids.typecode, len(ids)).tobytes())
        self._counts.frombytes(np.fromiter(counts, "I", len(counts)).tobytes())
        self._packed += len(tids)
        tids.clear()
        ids.clear()
        counts.clear()
