"""Cross-validation of simulation runs against the APPROX theory.

A simulation run induces a global history: the server's committed update
transactions (in serialization order, straight from the database's commit
log) interleaved with the committed client read-only transactions.  The
client reads carry provenance — each observed
:class:`repro.broadcast.ObjectVersion` names the transaction whose write
was read — so the history can be reconstructed with the *same* reads-from
relation the run actually produced: each client read is placed
immediately after the commit of the transaction it read from.

Theorem 1 says the F-Matrix protocol commits a read-only transaction iff
its serialization graph is acyclic, and Theorem 9 says R-Matrix accepts
only APPROX schedules, so :meth:`TraceRecorder.verify` must find that the
reconstructed history is accepted by APPROX for every protocol this
library ships.  The integration tests run small simulations under each
protocol and assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..broadcast.program import BroadcastCycle, ObjectVersion
from ..core.approx import ApproxReport, approx_report
from ..core.model import History, Operation, T0
from ..core.model import commit as commit_op
from ..core.model import read as read_op
from ..core.model import write as write_op
from ..server.database import Database

if TYPE_CHECKING:
    from ..analysis.consistency.histories import TransactionalHistory

__all__ = ["ClientCommitRecord", "TraceRecorder"]


@dataclass(frozen=True)
class ClientCommitRecord:
    """One committed client read-only transaction."""

    tid: str
    versions: Tuple[ObjectVersion, ...]
    reads: Tuple[Tuple[int, int], ...]  # (obj, cycle) pairs


class TraceRecorder:
    """Collects client commits; reconstructs and verifies the history."""

    def __init__(self) -> None:
        self.client_commits: List[ClientCommitRecord] = []
        #: per-client program order over *all* committed client transactions
        #: (read-only and update alike), recorded at verdict time — the
        #: exact session order, no cycle-number reconstruction needed
        self.session_commits: List[Tuple[int, str]] = []
        #: per-cycle broadcast images in install order, on audit runs only
        #: (``SimulationConfig(audit=True)``): the timeline's own retained
        #: images, handed over at assembly — each holds the cycle's frozen
        #: versions and control snapshot, which is what the invariant
        #: auditor checks monotonicity/agreement over
        self.cycles: List[BroadcastCycle] = []

    def record_client_commit(
        self,
        tid: str,
        versions: Sequence[ObjectVersion],
        reads: Sequence[Tuple[int, int]],
    ) -> None:
        self.client_commits.append(
            ClientCommitRecord(tid, tuple(versions), tuple(reads))
        )

    def record_session_commit(self, client_id: int, tid: str) -> None:
        """Note that ``client_id`` committed ``tid`` (program order)."""
        self.session_commits.append((client_id, tid))

    # ------------------------------------------------------------------
    def observables(self) -> Dict[str, object]:
        """The recorded run as a JSON-ready structure (record/replay).

        Everything a replay must reproduce bit-for-bit where the
        determinism contract promises it: each committed client
        transaction's id, validated ``(obj, cycle)`` read pairs and
        observed versions (object, writer, commit cycle, value repr),
        plus the per-client session commit order.  Broadcast images are
        deliberately excluded — they are audit-run-only and huge; the
        client-visible records above already pin the run's outcome.
        """
        return {
            "client_commits": [
                {
                    "tid": record.tid,
                    "reads": [[obj, cycle] for obj, cycle in record.reads],
                    "versions": [
                        [v.obj, v.writer, v.commit_cycle, repr(v.value)]
                        for v in record.versions
                    ],
                }
                for record in self.client_commits
            ],
            "session_commits": [
                [client_id, tid] for client_id, tid in self.session_commits
            ],
        }

    # ------------------------------------------------------------------
    def build_history(self, database: Database) -> History:
        """The induced global history, reads placed by provenance.

        Update transactions appear serially in commit order.  Each client
        read of a version written by ``w`` is inserted immediately after
        ``w``'s commit (immediately at the start for ``t0`` versions), so
        the positional reads-from of the result equals the observed one.
        Client commits close the history.
        """
        blocks: List[List[Operation]] = [[]]
        block_of_txn: Dict[str, int] = {T0: 0}
        for record in database.commit_log:
            ops: List[Operation] = []
            for obj in record.read_set:
                ops.append(read_op(record.txn, str(obj)))
            for obj, _value in record.writes:
                ops.append(write_op(record.txn, str(obj)))
            ops.append(commit_op(record.txn, cycle=record.commit_cycle))
            blocks.append(ops)
            block_of_txn[record.txn] = len(blocks) - 1

        inserts: Dict[int, List[Operation]] = {}
        tail: List[Operation] = []
        for client in self.client_commits:
            cycles = dict(client.reads)
            for version in client.versions:
                op = read_op(client.tid, str(version.obj), cycle=cycles.get(version.obj))
                writer_block = block_of_txn.get(version.writer)
                if writer_block is None:
                    raise ValueError(
                        f"{client.tid} read from unknown writer {version.writer!r}"
                    )
                inserts.setdefault(writer_block, []).append(op)
            tail.append(commit_op(client.tid))

        ops_out: List[Operation] = []
        for index, block in enumerate(blocks):
            ops_out.extend(block)
            ops_out.extend(inserts.get(index, ()))
        ops_out.extend(tail)
        return History(ops_out, strict=False)

    # ------------------------------------------------------------------
    def transactional_history(self, database: Database) -> TransactionalHistory:
        """The run as a sessioned ``⟨T, so, wr⟩`` history for the certifier.

        Lossless with respect to committed work: aborted/stale read
        attempts never reach the records (clients record only at commit),
        and doze or crash gaps merely stretch the cycle numbers the reads
        carry, which the certifier tolerates.  Sessions are the per-client
        program orders recorded at verdict time; transactions that are
        absent from the committed history (e.g. an update whose submission
        was lost) are dropped by the adapter.  The server's interleaved
        commit order is deliberately *not* a session: the broadcast
        protocols promise update consistency, not strict serializability
        against the server's serialization order.
        """
        from ..analysis.consistency.histories import TransactionalHistory

        sessions: Dict[int, List[str]] = {}
        for client_id, tid in self.session_commits:
            sessions.setdefault(client_id, []).append(tid)
        return TransactionalHistory(
            self.build_history(database),
            [sessions[client] for client in sorted(sessions)],
        )

    def verify(self, database: Database) -> ApproxReport:
        """Run APPROX on the reconstructed history (should accept)."""
        return approx_report(self.build_history(database))
