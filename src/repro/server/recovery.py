"""Server recovery: rebuild the broadcast server from its durable state.

The database's commit log plus the last-broadcast-cycle mark *are* the
server's durable state: committed update transactions in serialization
order (read sets, writes, commit cycles) and the highest cycle number
that went on the air.  Everything else — committed versions, the control
matrix/vector/grouped state — is a deterministic fold over the log
(Theorem 2 is an incremental algorithm, after all).  So recovery is
replay:

    revived = recover_server(crashed.database, config-of-crashed)

The tests crash a server mid-run, revive it, and assert every piece of
state (versions, matrix, vector, current cycle) is bit-identical, and
that clients validating against the revived server's snapshots decide
exactly as against the original.

A bare commit-log sequence is still accepted for offline replay, but it
cannot represent quiescent cycles broadcast after the final commit —
recovering from one defaults the cycle counter to the last commit's
cycle, and a revived server would re-issue the quiescent cycle numbers.
Pass the :class:`repro.server.database.Database`
(or an explicit ``current_cycle``) whenever cycle-accurate recovery
matters; the mid-run crash injection does.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Optional, Sequence, Union

from ..core.group_matrix import Partition
from .database import CommitRecord, Database
from .server import BroadcastServer

__all__ = ["recover_server"]


def recover_server(
    commit_log: Union[Database, Sequence[CommitRecord]],
    num_objects: int,
    protocol: str = "f-matrix",
    *,
    partition: Optional[Partition] = None,
    current_cycle: Optional[int] = None,
    initial_value: object = 0,
) -> BroadcastServer:
    """Rebuild a server by replaying its durable state in order.

    ``commit_log`` is either the crashed server's
    :class:`~repro.server.database.Database` (preferred: carries the
    cycle recorded alongside the log) or a bare sequence of
    :class:`~repro.server.database.CommitRecord`.

    ``current_cycle`` restores the broadcast-cycle counter explicitly.
    When omitted it comes from the database's
    :attr:`~repro.server.database.Database.last_broadcast_cycle`; for a
    bare record sequence it falls back to the last commit's cycle — a
    lossy default that forgets quiescent cycles broadcast after the
    final commit (the next ``begin_cycle`` may then re-issue cycle
    numbers the original server already used).
    """
    if isinstance(commit_log, Database):
        records: Sequence[CommitRecord] = commit_log.commit_log
        if current_cycle is None:
            current_cycle = commit_log.last_broadcast_cycle
    else:
        records = commit_log
    server = BroadcastServer(
        num_objects,
        protocol,
        partition=partition,
        initial_value=initial_value,
    )
    last_cycle = 0
    # one batch per commit cycle, through the door the live server used
    for last_cycle, group in groupby(records, key=attrgetter("commit_cycle")):
        server.commit_batch(
            last_cycle, [(r.txn, r.read_set, dict(r.writes)) for r in group]
        )
    server.current_cycle = current_cycle if current_cycle is not None else last_cycle
    server.database.record_broadcast_cycle(server.current_cycle)
    return server
