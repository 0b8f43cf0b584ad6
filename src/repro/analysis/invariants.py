"""Registry of machine-checkable protocol invariants.

Each invariant is a function from an :class:`AuditContext` to a stream of
:class:`repro.analysis.diagnostics.Diagnostic` violations, registered via
the :func:`invariant` decorator under a stable id.  The auditor
(:mod:`repro.analysis.audit`) builds the context from a recorded
simulation trace (or a bare :class:`repro.core.model.History`) and runs
every applicable invariant.

The shipped invariants and the paper facts they police:

``control-monotonicity``
    The control state's time structure is respected across successive
    broadcast cycles.  Individual ``C(i, j)`` cells may drop when a new
    writer of ``ob_j`` replaces the column with its own live set's maxima
    (Theorem 2), but three facts always hold: the per-object
    last-committed-write timestamp (``max_j C(i, j)``; the vector itself
    for the reduced protocols) never decreases from one cycle to the
    next; no entry names a cycle at or after the one whose snapshot
    carries it (entries are commit cycles of already-committed
    transactions); and in the full matrix every entry of column ``j`` is
    dominated by the diagonal ``C(j, j)`` — members of ``LIVE_H(t_j)``
    committed no later than ``t_j`` itself.  Entries are absolute cycles
    under either timestamp setting, so every check runs on every run.

``control-agreement``
    Per cycle, the broadcast control information agrees with the
    broadcast data slots: the per-object last-committed-write cycle
    derivable from the matrix (``max_j C(i, j)``, attained on the
    diagonal), the vector, or the grouped matrix must equal the commit
    cycle carried by the object's broadcast version (Sec. 3.2.2's
    one-group reduction argument).

``wrap-gap-safety``
    No committed client read-only transaction validated reads spanning
    more than ``max_cycles`` cycles (Sec. 3.2.1's bound,
    ``2**timestamp_bits - 1`` under modulo timestamps): the modulo wire
    is exact only within it, so a commit across a wrap gap means the
    client-side staleness guard failed.  Vacuous for absolute
    timestamps.

``validation-soundness``
    Every client-accepted read-only transaction must be APPROX-consistent
    in the reconstructed global history (Theorems 1 and 9 say each
    protocol accepts only APPROX schedules), by the context's one
    :func:`repro.core.approx.approx_report`.  On a serial update log an
    accepted reader's certificate is canonical and the report's mask test
    is its replay; where an order had to be *found* (interleaved updates)
    the certificates must also survive an independent serial-replay
    verification (:mod:`repro.core.certify`).  A rejection is reported
    with the serialization-graph cycle as witness, minimized by
    projection, and cross-examined against the exact polygraph test
    (:mod:`repro.core.polygraph`) to distinguish a genuine inconsistency
    from APPROX conservatism.

``read-coherence``
    Client-observed versions cohere with the broadcast: reads and
    versions align one to one, every observed version was committed
    before the cycle whose snapshot validated it, its writer exists in
    the server commit log (or is ``t0``), and — when the cycle's image
    was recorded — the version equals what that cycle actually carried
    (catches cache bugs serving phantom versions).

``delta-coherence``
    Delta-encoding the run's matrix snapshots and decoding them back
    reproduces every snapshot exactly (the Sec. 3.2.1 "transmit only
    changes" extension must be lossless).  A gap in the cycle sequence
    (a crash outage's dead air) restarts the stream: the revived
    server's encoder state did not survive, so the first post-gap frame
    is an anchor and the receiver re-synchronises on it.

``update-serializability``
    The committed update sub-history of the reconstructed history is
    conflict serializable (the server commits update transactions
    serially, so a cycle here means the trace/rebuild machinery or the
    server executor is broken), witnessed by the conflict-graph cycle of
    the same report's condition 1.

``commit-log-order``
    The server commit log is internally ordered: strictly increasing
    commit sequence numbers, non-decreasing commit cycles, no duplicate
    transaction ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..broadcast.delta import DeltaDecoder, DeltaEncoder, DesyncError
from ..core.approx import ApproxReport, approx_report
from ..core.certify import (
    certificate_from_report,
    verify_reader_certificate,
    verify_update_certificate,
)
from ..core.model import History, T0
from ..core.polygraph import reader_polygraph
from ..core.serialgraph import conflict_graph
from .diagnostics import Diagnostic

if TYPE_CHECKING:  # no runtime dependency on the simulator or server
    from ..broadcast.program import BroadcastCycle
    from ..server.database import CommitRecord
    from ..sim.trace import ClientCommitRecord

__all__ = [
    "AuditContext",
    "Invariant",
    "INVARIANTS",
    "invariant",
    "invariant_ids",
    "HISTORY_INVARIANTS",
]


@dataclass(frozen=True)
class AuditContext:
    """Everything one audited run exposes to the invariants.

    A context built from a bare history populates only ``history`` (and
    ``num_objects`` when derivable); trace-level invariants detect the
    missing pieces and skip themselves.
    """

    num_objects: int = 0
    #: bits per control entry on the wire (the delta encoder's sizing)
    timestamp_bits: int = 8
    #: the paper's span bound under modulo timestamps; None: unbounded
    max_cycles: Optional[int] = None
    #: per-cycle broadcast images in ascending cycle order (may be empty)
    broadcasts: Tuple["BroadcastCycle", ...] = ()
    #: server commit log in serialization order (may be empty)
    commit_log: Tuple["CommitRecord", ...] = ()
    #: committed client read-only transactions (may be empty)
    client_commits: Tuple["ClientCommitRecord", ...] = ()
    #: reconstructed global history, when available
    history: Optional[History] = None
    #: whether the audited run served reads from a quasi-cache
    cache_enabled: bool = False

    @cached_property
    def approx(self) -> Optional[ApproxReport]:
        """APPROX over ``history``, decided once for every invariant."""
        return None if self.history is None else approx_report(self.history)


Invariant = Callable[[AuditContext], Iterator[Diagnostic]]

#: the global invariant registry: id -> checker
INVARIANTS: Dict[str, Invariant] = {}

#: ids of invariants meaningful for a bare History (no trace required)
HISTORY_INVARIANTS: Tuple[str, ...] = (
    "validation-soundness",
    "update-serializability",
)


def invariant(invariant_id: str) -> Callable[[Invariant], Invariant]:
    """Register a checker under ``invariant_id`` (decorator)."""

    def register(fn: Invariant) -> Invariant:
        if invariant_id in INVARIANTS:
            raise ValueError(f"duplicate invariant id {invariant_id!r}")
        INVARIANTS[invariant_id] = fn
        return fn

    return register


def invariant_ids() -> Tuple[str, ...]:
    """All registered invariant ids, in registration order."""
    return tuple(INVARIANTS)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _control_array(snapshot: object) -> Optional[np.ndarray]:
    """The control payload of a snapshot, whichever shape it carries."""
    for name in ("matrix", "grouped", "vector"):
        array = getattr(snapshot, name, None)
        if array is not None:
            return array
    return None


def _last_write_values(snapshot: object) -> Optional[np.ndarray]:
    """Per-object last-committed-write cycle implied by the control info."""
    array = _control_array(snapshot)
    if array is None or array.ndim == 1:
        return array
    return array.max(axis=1)


def _minimize_cycle_witness(
    history: History, cycle_nodes: Sequence[str]
) -> Optional[str]:
    """Project the history onto a graph cycle's transactions.

    If the projection still exhibits a conflict-graph cycle, its compact
    notation is a minimized, self-contained witness.
    """
    nodes = [n for n in dict.fromkeys(cycle_nodes) if n != T0]
    if not nodes:
        return None
    projected = history.projection(nodes)
    if conflict_graph(projected).is_acyclic():
        return None
    return projected.to_notation()


def _last_write_regressions(
    previous: Tuple[int, np.ndarray],
    broadcast: "BroadcastCycle",
    last_write: np.ndarray,
) -> Iterator[Diagnostic]:
    """Diagnostics for per-object last-write cycles that went backwards."""
    prev_cycle, prev_last_write = previous
    if last_write.shape != prev_last_write.shape:
        return
    dropped = np.nonzero(last_write < prev_last_write)[0]
    if dropped.size:
        obj = int(dropped[0])
        yield Diagnostic(
            invariant="control-monotonicity",
            message=(
                f"last-committed-write timestamp decreased "
                f"between cycles {prev_cycle} and "
                f"{broadcast.cycle} ({dropped.size} object(s) "
                "affected)"
            ),
            cycle=broadcast.cycle,
            objects=tuple(int(o) for o in dropped[:8]),
            witness=(
                f"last write of object {obj}: cycle "
                f"{int(prev_last_write[obj])} per the cycle-"
                f"{prev_cycle} broadcast but cycle "
                f"{int(last_write[obj])} per the cycle-"
                f"{broadcast.cycle} broadcast"
            ),
        )


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------

@invariant("control-monotonicity")
def check_control_monotonicity(ctx: AuditContext) -> Iterator[Diagnostic]:
    """Control-state time structure holds cycle over cycle.

    Cells of ``C`` may legitimately drop when a fresh writer replaces a
    column (Theorem 2), so the monotone quantity is the per-object
    last-write timestamp.  Additionally no entry may lie in the future of
    its snapshot, and matrix columns are dominated by their diagonal.
    """
    previous: Optional[Tuple[int, np.ndarray]] = None
    for broadcast in ctx.broadcasts:
        snapshot = broadcast.snapshot
        entries = _control_array(snapshot)
        if entries is None:
            continue

        ahead = np.argwhere(entries >= broadcast.cycle)
        if ahead.size:
            first = tuple(int(x) for x in ahead[0])
            i = first[0]
            j = first[1] if len(first) > 1 else i
            yield Diagnostic(
                invariant="control-monotonicity",
                message=(
                    f"control entry names cycle {int(entries[tuple(first)])} "
                    f"inside the snapshot frozen at the start of cycle "
                    f"{broadcast.cycle} ({ahead.shape[0]} cell(s) affected); "
                    "entries are commit cycles of already-committed "
                    "transactions"
                ),
                cycle=broadcast.cycle,
                objects=(i, j),
                witness=(
                    f"C({i},{j}) = {int(entries[tuple(first)])} >= snapshot "
                    f"cycle {broadcast.cycle}"
                ),
            )

        if getattr(snapshot, "matrix", None) is not None:
            diag = np.diagonal(entries)
            undominated = np.argwhere(entries > diag[np.newaxis, :])
            if undominated.size:
                i, j = (int(x) for x in undominated[0])
                yield Diagnostic(
                    invariant="control-monotonicity",
                    message=(
                        "matrix column exceeds its diagonal "
                        f"({undominated.shape[0]} cell(s) affected); members "
                        "of LIVE(t_j) committed no later than t_j"
                    ),
                    cycle=broadcast.cycle,
                    objects=(i, j),
                    witness=(
                        f"C({i},{j}) = {int(entries[i, j])} > C({j},{j}) = "
                        f"{int(diag[j])} at cycle {broadcast.cycle}"
                    ),
                )

        last_write = entries.max(axis=1) if entries.ndim == 2 else entries
        if previous is not None:
            yield from _last_write_regressions(previous, broadcast, last_write)
        previous = (broadcast.cycle, last_write)


@invariant("control-agreement")
def check_control_agreement(ctx: AuditContext) -> Iterator[Diagnostic]:
    """Control info agrees with the commit cycles on the broadcast slots."""
    for broadcast in ctx.broadcasts:
        if not broadcast.versions:
            continue
        actual = np.array(
            [v.commit_cycle for v in broadcast.versions], dtype=np.int64
        )
        implied = _last_write_values(broadcast.snapshot)
        if implied is None:
            continue
        if implied.shape != actual.shape:
            yield Diagnostic(
                invariant="control-agreement",
                message=(
                    f"control info covers {implied.shape[0]} objects but the "
                    f"broadcast carries {actual.shape[0]}"
                ),
                cycle=broadcast.cycle,
            )
            continue
        mismatched = np.nonzero(implied != actual)[0]
        if mismatched.size:
            obj = int(mismatched[0])
            yield Diagnostic(
                invariant="control-agreement",
                message=(
                    f"control info disagrees with broadcast slots on "
                    f"{mismatched.size} object(s)"
                ),
                cycle=broadcast.cycle,
                objects=tuple(int(o) for o in mismatched[:8]),
                transactions=(broadcast.versions[obj].writer,),
                witness=(
                    f"object {obj}: control implies last write at cycle "
                    f"{int(implied[obj])} but the broadcast version was "
                    f"committed at cycle {int(actual[obj])} by "
                    f"{broadcast.versions[obj].writer!r}"
                ),
            )
        matrix = getattr(broadcast.snapshot, "matrix", None)
        if matrix is not None:
            diag = np.diagonal(matrix)
            off = np.nonzero(diag != matrix.max(axis=1))[0]
            if off.size:
                obj = int(off[0])
                yield Diagnostic(
                    invariant="control-agreement",
                    message=(
                        "matrix diagonal does not dominate its row "
                        f"({off.size} row(s)); the last writer of an object "
                        "must be in its own live set"
                    ),
                    cycle=broadcast.cycle,
                    objects=tuple(int(o) for o in off[:8]),
                    witness=(
                        f"row {obj}: C({obj},{obj}) = {int(diag[obj])} < "
                        f"max_j C({obj},j) = {int(matrix[obj].max())}"
                    ),
                )


@invariant("wrap-gap-safety")
def check_wrap_gap_safety(ctx: AuditContext) -> Iterator[Diagnostic]:
    """No committed read-only transaction validated across a wrap gap.

    Under modulo timestamps a transaction whose reads span a full window
    (``2**timestamp_bits`` cycles) or more breaks the paper's
    ``max_cycles`` bound, within which alone the modulo wire is exact;
    the client-side staleness guard
    (:class:`repro.client.runtime.ReadOnlyTransactionRuntime`) enforces
    it by aborting instead.  A commit across the gap means that guard was
    bypassed or broken.  Vacuous for absolute timestamps.
    """
    if ctx.max_cycles is None:
        return
    window = ctx.max_cycles + 1
    for record in ctx.client_commits:
        cycles = [cycle for _obj, cycle in record.reads]
        if not cycles:
            continue
        first, last = min(cycles), max(cycles)
        if last - first >= window:
            yield Diagnostic(
                invariant="wrap-gap-safety",
                message=(
                    f"committed read-only transaction validated reads "
                    f"spanning {last - first} cycles, at least the full "
                    f"modulo window of {window}; the modulo wire is "
                    "ambiguous across a wrap gap"
                ),
                cycle=last,
                transactions=(record.tid,),
                witness=(
                    f"{record.tid} read at cycles {first}..{last}; "
                    f"window {window} allows spans up to {window - 1}"
                ),
            )


@invariant("validation-soundness")
def check_validation_soundness(ctx: AuditContext) -> Iterator[Diagnostic]:
    """Accepted clients are APPROX-consistent and certificates replay."""
    history, report = ctx.history, ctx.approx
    if history is None or report is None:
        return
    committed = history.committed_projection()
    if report.update_cycle is not None:
        yield Diagnostic(
            invariant="validation-soundness",
            message="update sub-history is not conflict serializable",
            transactions=report.update_cycle,
            witness=_minimize_cycle_witness(committed, report.update_cycle)
            or " -> ".join(report.update_cycle),
        )
        return
    for reader in report.rejected_readers:
        graph_cycle = report.reader_cycles.get(reader, ())
        poly = reader_polygraph(committed, reader)
        conservative = poly.is_acyclic()
        verdict = (
            "history is still legal (APPROX-conservative rejection)"
            if conservative
            else "polygraph is cyclic too: the history is genuinely inconsistent"
        )
        yield Diagnostic(
            invariant="validation-soundness",
            message=(
                f"client-accepted read-only transaction {reader!r} fails "
                f"APPROX; {verdict}"
            ),
            transactions=(reader,) + tuple(graph_cycle),
            witness=(
                _minimize_cycle_witness(committed, graph_cycle)
                or (" -> ".join(graph_cycle) if graph_cycle else None)
            ),
        )
    if not report.accepted or report.serial_updates:
        # a serial log is its own certificate and each accepted reader's is
        # canonical: nothing was searched for, so nothing is extracted and replayed
        return
    certificate = certificate_from_report(history, report)
    if not verify_update_certificate(history, certificate.update_order):
        yield Diagnostic(
            invariant="validation-soundness",
            message=(
                "serial replay of the update serialization order does not "
                "reproduce the history's reads-from relation"
            ),
            transactions=certificate.update_order,
            witness=" -> ".join(certificate.update_order),
        )
    for reader, order in certificate.reader_orders.items():
        if not verify_reader_certificate(history, reader, order):
            yield Diagnostic(
                invariant="validation-soundness",
                message=(
                    f"reader certificate for {reader!r} fails serial-replay "
                    "verification"
                ),
                transactions=(reader,),
                witness=" -> ".join(order),
            )


@invariant("read-coherence")
def check_read_coherence(ctx: AuditContext) -> Iterator[Diagnostic]:
    """Observed versions cohere with the broadcast and the commit log."""
    known_writers = {record.txn for record in ctx.commit_log}
    known_writers.add(T0)
    by_cycle = {b.cycle: b for b in ctx.broadcasts}
    for client in ctx.client_commits:
        if len(client.versions) != len(client.reads):
            yield Diagnostic(
                invariant="read-coherence",
                message=(
                    f"{client.tid!r} recorded {len(client.versions)} versions "
                    f"but {len(client.reads)} validated reads"
                ),
                transactions=(client.tid,),
            )
            continue
        previous_cycle: Optional[int] = None
        for version, (obj, cycle) in zip(client.versions, client.reads):
            if version.obj != obj:
                yield Diagnostic(
                    invariant="read-coherence",
                    message=(
                        f"{client.tid!r} validated a read of object {obj} but "
                        f"observed a version of object {version.obj}"
                    ),
                    cycle=cycle,
                    objects=(obj, version.obj),
                    transactions=(client.tid,),
                )
                continue
            if ctx.commit_log and version.writer not in known_writers:
                yield Diagnostic(
                    invariant="read-coherence",
                    message=(
                        f"{client.tid!r} read object {obj} from writer "
                        f"{version.writer!r} absent from the commit log"
                    ),
                    cycle=cycle,
                    objects=(obj,),
                    transactions=(client.tid, version.writer),
                )
            if version.commit_cycle >= cycle:
                yield Diagnostic(
                    invariant="read-coherence",
                    message=(
                        f"{client.tid!r} read object {obj} at cycle {cycle} "
                        f"but the version was committed at cycle "
                        f"{version.commit_cycle} (snapshots freeze at cycle "
                        "start: committed cycle must precede the read cycle)"
                    ),
                    cycle=cycle,
                    objects=(obj,),
                    transactions=(client.tid, version.writer),
                    witness=(
                        f"version {version.writer!r}@{version.commit_cycle} "
                        f"observed at cycle {cycle}"
                    ),
                )
            broadcast = by_cycle.get(cycle)
            if broadcast is not None and obj < len(broadcast.versions):
                aired = broadcast.versions[obj]
                if aired is not None and (
                    aired.writer != version.writer
                    or aired.commit_cycle != version.commit_cycle
                ):
                    yield Diagnostic(
                        invariant="read-coherence",
                        message=(
                            f"{client.tid!r} observed a version of object "
                            f"{obj} that cycle {cycle} never broadcast"
                        ),
                        cycle=cycle,
                        objects=(obj,),
                        transactions=(client.tid, version.writer),
                        witness=(
                            f"observed {version.writer!r}@"
                            f"{version.commit_cycle}, aired "
                            f"{aired.writer!r}@{aired.commit_cycle}"
                        ),
                    )
            if not ctx.cache_enabled and previous_cycle is not None:
                if cycle < previous_cycle:
                    yield Diagnostic(
                        invariant="read-coherence",
                        message=(
                            f"{client.tid!r} read cycles go backwards without "
                            "a cache (off-air reads are cycle-monotone)"
                        ),
                        cycle=cycle,
                        objects=(obj,),
                        transactions=(client.tid,),
                        witness=f"cycle {previous_cycle} then {cycle}",
                    )
            previous_cycle = cycle


@invariant("delta-coherence")
def check_delta_coherence(ctx: AuditContext) -> Iterator[Diagnostic]:
    """Delta-encoding the matrix stream is lossless, cycle by cycle."""
    matrices = [
        (b.cycle, b.snapshot.matrix)
        for b in ctx.broadcasts
        if getattr(b.snapshot, "matrix", None) is not None
    ]
    if not matrices:
        return
    n = matrices[0][1].shape[0]
    encoder = DeltaEncoder(n, timestamp_bits=ctx.timestamp_bits)
    decoder = DeltaDecoder(n)
    previous_cycle: Optional[int] = None
    for cycle, matrix in matrices:
        if previous_cycle is not None and cycle > previous_cycle + 1:
            # dead air (server crash outage): the revived server's encoder
            # state did not survive, so the stream restarts with an anchor
            # frame and receivers re-synchronise on it
            encoder = DeltaEncoder(n, timestamp_bits=ctx.timestamp_bits)
            decoder = DeltaDecoder(n)
        previous_cycle = cycle
        frame = encoder.encode(cycle, matrix)
        try:
            decoded = decoder.apply(frame)
        except DesyncError as exc:
            yield Diagnostic(
                invariant="delta-coherence",
                message=f"delta decoder desynchronised: {exc}",
                cycle=cycle,
            )
            return
        if decoded is None or not np.array_equal(decoded, matrix):
            cell = ""
            if decoded is not None:
                wrong = np.argwhere(decoded != matrix)
                if wrong.size:
                    i, j = (int(x) for x in wrong[0])
                    cell = (
                        f"C({i},{j}): decoded {int(decoded[i, j])}, "
                        f"broadcast {int(matrix[i, j])}"
                    )
            yield Diagnostic(
                invariant="delta-coherence",
                message="delta round-trip does not reproduce the snapshot",
                cycle=cycle,
                witness=cell or None,
            )
            return


@invariant("update-serializability")
def check_update_serializability(ctx: AuditContext) -> Iterator[Diagnostic]:
    """The committed update sub-history is conflict serializable."""
    history, report = ctx.history, ctx.approx
    if history is None or report is None or report.update_cycle is None:
        return
    yield Diagnostic(
        invariant="update-serializability",
        message="serialization graph of the update sub-history is cyclic",
        transactions=report.update_cycle,
        witness=_minimize_cycle_witness(history, report.update_cycle)
        or " -> ".join(report.update_cycle),
    )


@invariant("commit-log-order")
def check_commit_log_order(ctx: AuditContext) -> Iterator[Diagnostic]:
    """Commit log: strictly increasing seq, non-decreasing cycles, no dups."""
    seen: Dict[str, int] = {}
    previous_seq: Optional[int] = None
    previous_cycle: Optional[int] = None
    for record in ctx.commit_log:
        if record.txn in seen:
            yield Diagnostic(
                invariant="commit-log-order",
                message=(
                    f"transaction {record.txn!r} committed twice "
                    f"(seq {seen[record.txn]} and {record.commit_seq})"
                ),
                cycle=record.commit_cycle,
                transactions=(record.txn,),
            )
        seen[record.txn] = record.commit_seq
        if previous_seq is not None and record.commit_seq <= previous_seq:
            yield Diagnostic(
                invariant="commit-log-order",
                message=(
                    f"commit sequence numbers not strictly increasing "
                    f"({previous_seq} then {record.commit_seq})"
                ),
                cycle=record.commit_cycle,
                transactions=(record.txn,),
            )
        if previous_cycle is not None and record.commit_cycle < previous_cycle:
            yield Diagnostic(
                invariant="commit-log-order",
                message=(
                    f"commit cycles go backwards ({previous_cycle} then "
                    f"{record.commit_cycle})"
                ),
                cycle=record.commit_cycle,
                transactions=(record.txn,),
                witness=(
                    f"{record.txn!r} committed at cycle {record.commit_cycle} "
                    f"after a cycle-{previous_cycle} commit"
                ),
            )
        previous_seq = record.commit_seq
        previous_cycle = record.commit_cycle
