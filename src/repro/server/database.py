"""Versioned object store for the broadcast server.

The paper (Sec. 3.2.1, server functionality) requires the server to keep
*two* versions of each object: the latest committed version — which is
what every broadcast cycle carries — and the last written (uncommitted)
version.  :class:`Database` keeps the committed version per object plus a
single working version slot; concurrent executors additionally buffer
their writes privately until commit (strict two-phase locking makes the
working slot single-writer at any instant).

Committed versions carry provenance (writer id, commit cycle) so the
simulation trace can rebuild the induced global history.

The database owns "what committed" and leaves the id check to the one
door in front of it.  :meth:`Database.apply_batch` installs a cycle's
commits with ids as given (:meth:`Database.apply_commit` is its call for
one): :meth:`repro.server.BroadcastServer.commit_batch` reaches it only
after the control state's ``checked_batch`` has refused any id outside
``0..n-1``, and the executors' programs refuse negative ids (an id past
the end fails on the version list).  :meth:`Database.stage_write` checks
its one id itself.

The log keeps each commit *raw*, as installed — ``(txn, commit_cycle,
commit_seq, read_set, writes)`` holding the committer's own set objects
(a server transaction's spec tuples: no per-commit dict) — and builds
the sorted records (:class:`CommitRecord`) only when
:attr:`Database.commit_log` is read (a crash, the trace, the audit): a
run that never asks builds none.
"""

from __future__ import annotations

from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Sequence,
    Tuple,
)

from ..broadcast.program import ObjectVersion
from ..core.control_matrix import Commit
from ..core.model import T0

__all__ = ["Database", "CommitRecord"]


class CommitRecord(NamedTuple):
    """One committed update transaction, in serialization order."""

    txn: str
    commit_cycle: int
    commit_seq: int
    read_set: Tuple[int, ...]
    writes: Tuple[Tuple[int, object], ...]


#: a log entry as installed: ``(txn, commit_cycle, commit_seq, read_set,
#: writes)``, ``writes`` as :data:`~repro.core.control_matrix.Commit` has it
LogEntry = Tuple[str, int, int, Sequence[int], Collection[int]]


def _as_record(entry: LogEntry) -> CommitRecord:
    """The sorted record of a log entry."""
    txn, commit_cycle, commit_seq, read_set, writes = entry
    pairs: Tuple[Tuple[int, object], ...]
    if type(writes) is dict:
        pairs = tuple(sorted(writes.items()))
    else:  # the ids a transaction wrote its own id to
        pairs = tuple((obj, txn) for obj in sorted(set(writes)))
    return CommitRecord(
        txn, commit_cycle, commit_seq, tuple(sorted(set(read_set))), pairs
    )


class Database:
    """Committed + working versions of ``n`` integer-identified objects.

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
        self._working: Dict[int, Tuple[object, str]] = {}
        #: raw entries, in serialization order; an entry's ``commit_seq``
        #: is its position + 1
        self._log: List[LogEntry] = []
        self._last_broadcast_cycle = 0

    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return self._n

    @property
    def commit_log(self) -> Tuple[CommitRecord, ...]:
        """All committed update transactions, in serialization order."""
        return tuple(map(_as_record, self._log))

    @property
    def last_record(self) -> CommitRecord:
        """The newest commit's record."""
        return _as_record(self._log[-1])

    @property
    def last_commit_cycle(self) -> int:
        """The commit cycle of the newest log entry (0 before any)."""
        return self._log[-1][1] if self._log else 0

    @property
    def last_broadcast_cycle(self) -> int:
        """The highest cycle number the server has broadcast (durable).

        Recorded alongside the commit log because the log alone cannot
        represent *quiescent* cycles — cycles broadcast after the final
        commit.  Recovery that restores the cycle counter from the last
        commit's cycle would re-issue those cycle numbers, which breaks
        :class:`repro.core.cycles.ModuloCycles` anchoring for long-lived
        readers; restoring from this value cannot.
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

    def last_written(self, obj: int) -> Tuple[object, str]:
        """The last written (possibly uncommitted) version of ``obj``.

        Falls back to the committed version when no write is pending.
        """
        if obj in self._working:
            return self._working[obj]
        version = self._committed[obj]
        return (version.value, version.writer)

    # ------------------------------------------------------------------
    def stage_write(self, txn: str, obj: int, value: object) -> None:
        """Record an uncommitted write (the "last written version")."""
        if not 0 <= obj < self._n:
            raise IndexError(f"object {obj} out of range")
        self._working[obj] = (value, txn)

    def discard_writes(self, txn: str, objs: Iterable[int]) -> None:
        """Drop a transaction's staged writes (abort path)."""
        for obj in objs:
            staged = self._working.get(obj)
            if staged is not None and staged[1] == txn:
                del self._working[obj]

    def apply_commit(
        self,
        txn: str,
        commit_cycle: int,
        read_set: Iterable[int],
        writes: Mapping[int, object],
    ) -> CommitRecord:
        """Install one transaction's writes: :meth:`apply_batch` of one,
        on copies of its sets.  Returns the log record."""
        self.apply_batch(commit_cycle, [(txn, tuple(read_set), dict(writes))])
        return self.last_record

    def apply_batch(self, commit_cycle: int, batch: Sequence[Commit]) -> None:
        """Install a cycle's transactions' writes as the committed versions.

        Must be called in serialization order (the executors guarantee
        commit order == serialization order), with ids the caller has
        checked (module docstring).  The log keeps each commit's sets as
        given, so they must be ones nobody changes afterwards.  One
        :class:`ObjectVersion` per written object is the whole per-write
        cost: each is built as ``_make`` builds it (``tuple.__new__``),
        skipping the generated ``__new__``'s Python-level call.
        """
        committed, log = self._committed, self._log
        new = tuple.__new__  # what ObjectVersion._make does, one call less
        for txn, read_set, writes in batch:
            if type(writes) is dict:
                for obj, value in writes.items():
                    committed[obj] = new(ObjectVersion, (obj, value, txn, commit_cycle))
            else:
                for obj in writes:
                    committed[obj] = new(ObjectVersion, (obj, txn, txn, commit_cycle))
            if self._working:
                self.discard_writes(txn, writes)
            log.append((txn, commit_cycle, len(log) + 1, read_set, writes))
