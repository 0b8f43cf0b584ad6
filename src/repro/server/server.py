"""The broadcast server (Sec. 3.2.1, "Server Functionality").

Responsibilities, exactly as the paper lists them:

1. at the beginning of every cycle, broadcast the latest *committed*
   values of all objects — :meth:`BroadcastServer.begin_cycle` freezes
   them into a :class:`repro.broadcast.BroadcastCycle`;
2. ensure conflict serializability of transactions submitted to it —
   server-resident transactions commit in serialization order through
   one door, :meth:`BroadcastServer.commit_batch`, a cycle's commits at
   a time (the simulation's completion stream provides that order and
   hands over what completed since the server was last observed;
   :meth:`BroadcastServer.commit_update` is the door for one
   transaction), and client-submitted update transactions go through
   backward validation (:meth:`BroadcastServer.submit_client_update`);
3. transmit the control information each cycle — the per-cycle
   :class:`repro.core.validators.ControlSnapshot` carries the full matrix,
   the vector, or the grouped matrix depending on the protocol in force
   (a matrix as its columns, shared with every cycle that saw them).

The server keeps exactly one control structure — the one its protocol
broadcasts; what committed, and when, is the database's to answer (client
updates validate against it).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from ..broadcast.program import BroadcastCycle
from ..core.control_matrix import ColumnImage, Commit, ControlMatrix
from ..core.group_matrix import GroupedControlState, LastWriteVector, Partition
from ..core.validators import PROTOCOL_NAMES, ControlSnapshot
from .database import CommitRecord, Database
from .validation import BackwardValidator, UpdateSubmission, ValidationOutcome

__all__ = ["BroadcastServer"]


class BroadcastServer:
    """Owns the database and control state; produces broadcast cycles."""

    def __init__(
        self,
        num_objects: int,
        protocol: str = "f-matrix",
        *,
        partition: Optional[Partition] = None,
        initial_value: object = 0,
    ):
        if protocol not in PROTOCOL_NAMES:
            raise ValueError(
                f"unknown protocol {protocol!r}; choose from {PROTOCOL_NAMES}"
            )
        self.protocol = protocol
        self.database = Database(num_objects, initial_value)
        self.matrix: Optional[ControlMatrix] = None
        self.vector: Optional[LastWriteVector] = None
        self.grouped: Optional[GroupedControlState] = None
        #: the one of the three above this protocol maintains and broadcasts
        self._control: Union[ControlMatrix, LastWriteVector, GroupedControlState]
        if protocol in ("f-matrix", "f-matrix-no"):
            self._control = self.matrix = ControlMatrix(num_objects)
        elif protocol == "group-matrix":
            if partition is None:
                raise ValueError("group-matrix requires a partition")
            self._control = self.grouped = GroupedControlState(partition)
        else:
            self._control = self.vector = LastWriteVector(num_objects)
        self._validator = BackwardValidator(self.database)
        self.current_cycle = 0
        #: the last frozen (read-only) control image, and whether a commit
        #: stamped or rebound an entry since it was taken
        self._frozen: Union[np.ndarray, ColumnImage, None] = None
        self._stale = True

    # ------------------------------------------------------------------
    @property
    def num_objects(self) -> int:
        return self.database.num_objects

    # ------------------------------------------------------------------
    def begin_cycle(self, cycle: int) -> BroadcastCycle:
        """Freeze committed values + control info for broadcast ``cycle``.

        Commits applied *during* cycle ``k`` are visible from the cycle
        ``k+1`` broadcast onwards — the snapshot is taken at cycle start.
        """
        if cycle <= self.current_cycle:
            raise ValueError(
                f"cycles must advance (got {cycle}, at {self.current_cycle})"
            )
        self.current_cycle = cycle
        self.database.record_broadcast_cycle(cycle)
        return BroadcastCycle(
            cycle=cycle,
            versions=self.database.committed_snapshot(),
            snapshot=self._control_snapshot(cycle),
        )

    def _control_snapshot(self, cycle: int) -> ControlSnapshot:
        """The frozen control image for one broadcast cycle.

        No write since the last freeze: the previous image — immutable,
        the *same object*, its dense array included once stacked — rides
        again, which is also what lets
        :meth:`repro.sim.arena.TimelineArena.from_images` store a quiescent
        stretch once.  Otherwise a vector is copied (``8n`` bytes: it is
        stamped in place) and a matrix is frozen by *sharing*: every live
        column is sealed (``commit_column`` made it read-only), so the
        image is the tuple of current columns and the freeze allocates no
        column.  Nothing ``n × n`` is copied.  Entries are absolute cycles
        under either arithmetic (:mod:`repro.core.cycles`).
        """
        if self._stale:
            if self.vector is not None:
                self._frozen = self.vector.array.copy()
                self._frozen.setflags(write=False)
            else:
                self._frozen = ColumnImage(self._control.columns)
            self._stale = False
        if self.matrix is not None:
            return ControlSnapshot(cycle, matrix=self._frozen)
        if self.grouped is not None:
            return ControlSnapshot(
                cycle, grouped=self._frozen, partition=self.grouped.partition
            )
        return ControlSnapshot(cycle, vector=self._frozen)

    # ------------------------------------------------------------------
    def restore_from(self, revived: "BroadcastServer") -> None:
        """Adopt a revived server's state in place (mid-run crash recovery).

        Crash recovery in the broadcast timeline rebuilds a server from
        the durable state via :func:`repro.server.recovery.recover_server`
        and then swaps the rebuilt state into the live object, so
        everything holding a reference to the original server
        transparently talks to the recovered one.
        """
        if revived.protocol != self.protocol:
            raise ValueError(
                f"cannot restore a {self.protocol!r} server from a "
                f"{revived.protocol!r} one"
            )
        if revived.num_objects != self.num_objects:
            raise ValueError(
                f"cannot restore {self.num_objects} objects from "
                f"{revived.num_objects}"
            )
        # every attribute, so state added to __init__ cannot be forgotten here
        vars(self).update(vars(revived))

    # ------------------------------------------------------------------
    def commit_update(
        self,
        txn: str,
        read_set: Iterable[int],
        writes: Mapping[int, object],
        *,
        cycle: Optional[int] = None,
    ) -> CommitRecord:
        """Commit one update transaction: :meth:`commit_batch` of one, on
        copies of its sets.  ``cycle`` defaults to the server's current
        broadcast cycle.  Returns the log record."""
        commit_cycle = self.current_cycle if cycle is None else cycle
        self.commit_batch(commit_cycle, [(txn, tuple(read_set), dict(writes))])
        return self.database.last_record

    def commit_batch(self, cycle: int, batch: Sequence[Commit]) -> None:
        """Commit a cycle's update transactions, in serialization order.

        One door, each check made once per batch: a cycle before the last
        commit's is refused here (``ValueError``), an object outside
        ``0..n-1`` anywhere in the batch by the control structure's
        ``apply_batch`` (``IndexError``) before it changes anything — and
        only once that has applied every Theorem 2 increment does the
        database install the writes, so the log never holds a record the
        control state did not apply.  The log copies the commits' ids and
        values (see :meth:`Database.apply_batch`).
        """
        last = self.database.last_commit_cycle
        if cycle < last:
            raise ValueError(f"commit cycles must be non-decreasing ({cycle} < {last})")
        if self._control.apply_batch(cycle, batch):
            self._stale = True
        self.database.apply_batch(cycle, batch)

    # ------------------------------------------------------------------
    def submit_client_update(
        self, submission: UpdateSubmission, *, cycle: Optional[int] = None
    ) -> ValidationOutcome:
        """Validate a client update transaction; install writes on success.

        A read id outside ``0..n-1`` is refused before validation looks it
        up; the writes meet :meth:`commit_update`'s door.
        """
        commit_cycle = self.current_cycle if cycle is None else cycle
        n = self.num_objects
        for obj, _cycle in submission.reads:
            if not 0 <= obj < n:
                raise IndexError(f"object id {obj} out of range 0..{n - 1}")
        outcome = self._validator.validate(submission, current_cycle=commit_cycle)
        if outcome.committed:
            self.commit_update(
                submission.txn,
                submission.read_set,
                dict(submission.writes),
                cycle=commit_cycle,
            )
        return outcome
