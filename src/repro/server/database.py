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

The log keeps each commit *raw*, as installed — ``(txn, commit_cycle,
commit_seq, read_set, writes)`` holding the committer's own set objects
(a server transaction's spec tuples: no per-commit dict) — and builds
the sorted records (:class:`CommitRecord`) only when
:attr:`Database.commit_log` is read (a crash, the trace, the audit): a
run that never asks builds none.
"""

from __future__ import annotations

from typing import Collection, List, NamedTuple, Sequence, Tuple

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

    # ------------------------------------------------------------------
    def apply_batch(self, commit_cycle: int, batch: Sequence[Commit]) -> None:
        """Install a cycle's transactions' writes as the committed versions.

        Must be called in serialization order — the completion order of
        server transactions, with each client update placed where it
        passed backward validation — with ids the caller has checked
        (module docstring).  The log keeps each commit's sets as
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
            log.append((txn, commit_cycle, len(log) + 1, read_set, writes))
