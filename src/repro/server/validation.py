"""Backward-optimistic validation of client-submitted update transactions.

Per the paper's client functionality (Sec. 3.2.1), an update transaction
running at a client performs its writes locally and, at commit, ships the
server (a) the objects and values written and (b) the objects read with
the broadcast cycles in which they were read.  "The server checks to see
whether the update transaction can be committed and communicates the
result to the client" — the method "is similar to the method proposed in
[15]" (optimistic concurrency control).

The check implemented here is read-currency (backward) validation: a
client update transaction commits iff every value it read is *still* the
latest committed value, i.e. no committed transaction wrote any of its
read objects at or after the cycle in which it was read::

    ∀ (ob_i, cycle) ∈ RS :  last_commit_cycle(ob_i) < cycle

This serializes the transaction at its commit instant (reads are of the
current committed state, writes install immediately after), so the
committed update history stays conflict serializable with serialization
order = commit order — exactly what the control-matrix maintenance needs.
``last_commit_cycle(ob_i)`` is the commit cycle of the latest committed
version, which the :class:`~repro.server.database.Database` keeps under
every protocol, so the validator asks the database and needs no control
structure of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .database import Database

__all__ = ["UpdateSubmission", "ValidationOutcome", "BackwardValidator"]


@dataclass(frozen=True)
class UpdateSubmission:
    """What a client ships up the uplink at commit time."""

    txn: str
    #: (object id, broadcast cycle whose committed value was read)
    reads: Tuple[Tuple[int, int], ...]
    #: object id -> value written
    writes: Tuple[Tuple[int, object], ...]

    @property
    def read_set(self) -> Tuple[int, ...]:
        return tuple(obj for obj, _cycle in self.reads)

    @property
    def write_set(self) -> Tuple[int, ...]:
        return tuple(obj for obj, _value in self.writes)


@dataclass(frozen=True)
class ValidationOutcome:
    """The server's verdict, shipped back down to the client."""

    txn: str
    committed: bool
    #: objects whose currency check failed (empty on success)
    conflicts: Tuple[int, ...] = ()


class BackwardValidator:
    """Validate submissions against the database's committed versions."""

    def __init__(self, database: Database):
        self._database = database

    def validate(self, submission: UpdateSubmission, *, current_cycle: int) -> ValidationOutcome:
        """Check read currency.  Does not install writes (server does).

        A read of ``ob_i`` from cycle ``c`` observed the value committed
        before cycle ``c`` began; it is still current iff no commit wrote
        ``ob_i`` in any cycle ``>= c`` — including the current one, whose
        commits the client cannot have seen.
        """
        conflicts = tuple(
            obj
            for obj, cycle in submission.reads
            if self._database.committed(obj).commit_cycle >= cycle
        )
        return ValidationOutcome(submission.txn, not conflicts, conflicts)
