"""Client-side transaction runtimes (Sec. 3.2.1, "Client Functionality").

The runtimes are *passive* state machines: the caller (a simulation
process, an example script, a test) decides when a read happens and hands
over the :class:`repro.broadcast.BroadcastCycle` the read observes; the
runtime applies the protocol validator and accumulates state.  This keeps
one implementation of the protocol logic shared by the simulator, the
examples and the theory cross-checks.

* :class:`ReadOnlyTransactionRuntime` — validates each read off the air
  (or from cache) and never needs the uplink: commit is a no-op.
* :class:`ClientUpdateTransactionRuntime` — additionally buffers local
  writes and, at commit, produces the
  :class:`repro.server.UpdateSubmission` to ship to the server.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..broadcast.program import BroadcastCycle, ObjectVersion
from ..core.validators import ControlSnapshot, ReadValidator
from ..server.validation import UpdateSubmission

__all__ = [
    "ReadOutcome",
    "TransactionAborted",
    "ReadOnlyTransactionRuntime",
    "ClientUpdateTransactionRuntime",
]


class TransactionAborted(Exception):
    """Raised by strict helpers when a read fails validation."""

    def __init__(self, tid: str, obj: int, cycle: int):
        super().__init__(f"{tid}: read of object {obj} rejected at cycle {cycle}")
        self.tid = tid
        self.obj = obj
        self.cycle = cycle


class ReadOutcome(NamedTuple):
    """Result of delivering one broadcast read to a runtime.

    A named tuple: immutable, and built without the per-field
    ``object.__setattr__`` a frozen dataclass pays on every read.
    """

    ok: bool
    obj: int
    cycle: int
    version: Optional[ObjectVersion] = None
    #: the failure was the client-side staleness guard (a wrap-gap abort),
    #: not the protocol's read condition — fault metrics key off this
    stale: bool = False

    @property
    def value(self) -> object:
        return self.version.value if self.version else None


class ReadOnlyTransactionRuntime:
    """Executes a read-only program object by object.

    The program is the ordered tuple of object ids to read.  A failed
    validation leaves the runtime in an aborted state; :meth:`restart`
    begins a fresh attempt of the same program (the validator's ``R_t``
    is cleared too).
    """

    def __init__(
        self,
        tid: str,
        objects: Sequence[int],
        validator: ReadValidator,
        *,
        staleness_window: Optional[int] = None,
    ):
        if not objects:
            raise ValueError("a transaction must read at least one object")
        if staleness_window is not None and staleness_window < 1:
            raise ValueError("staleness_window must be >= 1")
        self.tid = tid
        self.objects: Tuple[int, ...] = tuple(objects)
        self.validator = validator
        self.attempt = 0
        self.aborted = False
        #: the paper's ``max_cycles`` guard (= window - 1 under modulo
        #: timestamps): an attempt about to span more cycles than that, or
        #: a client rejoining after missing that many, would step outside
        #: the bound that makes the modulo wire exact; :meth:`deliver` then
        #: aborts instead of validating (:meth:`stale`).  ``None`` disables
        #: it.
        self.staleness_window = staleness_window
        #: most recent broadcast cycle delivered to this runtime off the
        #: air; survives :meth:`restart` (the radio's knowledge, not the
        #: transaction attempt's)
        self.last_heard_cycle: Optional[int] = None
        self._index = 0
        self._versions: List[ObjectVersion] = []
        self.validator.begin()

    # ------------------------------------------------------------------
    @property
    def is_done(self) -> bool:
        return self._index >= len(self.objects) and not self.aborted

    @property
    def next_object(self) -> Optional[int]:
        if self.aborted or self._index >= len(self.objects):
            return None
        return self.objects[self._index]

    @property
    def reads(self) -> Tuple[Tuple[int, int], ...]:
        """``R_t``: (object, cycle) pairs validated so far."""
        return tuple(self.validator.reads)

    @property
    def versions(self) -> Tuple[ObjectVersion, ...]:
        """The committed versions observed, in program order."""
        return tuple(self._versions)

    @property
    def values(self) -> Dict[int, object]:
        return {v.obj: v.value for v in self._versions}

    # ------------------------------------------------------------------
    def deliver(self, broadcast: BroadcastCycle) -> ReadOutcome:
        """Perform the pending read against ``broadcast``.

        Validates with the control snapshot; on success records the value
        and advances; on failure marks the transaction aborted.
        """
        obj = self.next_object
        if obj is None:
            raise RuntimeError(f"{self.tid}: no pending read")
        snapshot = broadcast.snapshot
        if self.staleness_window is not None and self.stale(snapshot.cycle):
            self.aborted = True
            return ReadOutcome(False, obj, snapshot.cycle, stale=True)
        if self.validator.validate_read(obj, snapshot):
            version = broadcast.version(obj)
            self._versions.append(version)
            self._index += 1
            return ReadOutcome(True, obj, snapshot.cycle, version)
        self.aborted = True
        return ReadOutcome(False, obj, snapshot.cycle)

    def stale(self, cycle: int) -> bool:
        """The staleness guard for a delivery off broadcast cycle ``cycle``.

        Records ``cycle`` as heard, then says whether the attempt must
        abort instead of validating the read.  :meth:`deliver` runs it
        before its validation; a scheduler that validates a whole slot
        bucket in one sweep runs it per member first and sweeps only the
        members it lets through (the guard reads this runtime's rejoin
        state, which a sweep cannot see).  Without a window nothing is
        ever stale.
        """
        window = self.staleness_window
        if window is None:
            return False
        last = self.last_heard_cycle
        if last is None or cycle > last:
            self.last_heard_cycle = cycle
        records = self.validator.records
        # conservative abort, two triggers: the client dozed through >=
        # window cycles since its last delivery, or the attempt's read
        # span exceeds the window (> max_cycles) — past either bound the
        # modulo wire could no longer be decoded against the retained
        # reads
        return bool(records) and (
            (last is not None and cycle - last >= window)
            or cycle - records[0].cycle > window
        )

    def apply_read_ok(
        self, broadcast: Optional[BroadcastCycle] = None
    ) -> Optional[int]:
        """Record the pending read as delivered, validation already done.

        The client kernel applies every accepted read here — one a slot
        bucket's sweep (:func:`repro.core.validators.validate_read_batch`,
        which also records it into ``R_t``) accepted, or one it ran
        ``validate_read`` on itself: exactly what :meth:`deliver` does
        after ``validate_read`` returned true, without allocating a
        :class:`ReadOutcome` on the hot path.

        ``broadcast`` retains the version read; drivers that never
        inspect :attr:`versions` / :attr:`values` leave it out, and
        advancing the program counter is then the only effect.  Returns
        the next object to read, or ``None`` when the program is
        complete, so hot callers need no second attribute round-trip.
        """
        index = self._index
        objects = self.objects
        if broadcast is not None:
            self._versions.append(broadcast.version(objects[index]))
        index += 1
        self._index = index
        return objects[index] if index < len(objects) else None

    def deliver_or_raise(self, broadcast: BroadcastCycle) -> ObjectVersion:
        outcome = self.deliver(broadcast)
        if not outcome.ok:
            raise TransactionAborted(self.tid, outcome.obj, outcome.cycle)
        assert outcome.version is not None
        return outcome.version

    def commit(self) -> Tuple[Tuple[int, int], ...]:
        """Commit (free for read-only transactions).  Returns ``R_t``."""
        if self.aborted:
            raise TransactionAborted(self.tid, -1, -1)
        if not self.is_done:
            raise RuntimeError(f"{self.tid}: {len(self.objects) - self._index} reads pending")
        return self.reads

    def restart(self) -> None:
        """Begin a fresh attempt of the same program."""
        self.attempt += 1
        self.aborted = False
        self._index = 0
        self._versions = []
        self.validator.begin()


class ClientUpdateTransactionRuntime(ReadOnlyTransactionRuntime):
    """A client update transaction: reads off the air, writes locally.

    Writes are buffered ("performed on a local copy ... no checks are
    made"); :meth:`submission` packages reads-with-cycles and writes for
    the server's backward validation.  Abort discards the local copies.
    """

    def __init__(
        self,
        tid: str,
        objects: Sequence[int],
        validator: ReadValidator,
        *,
        staleness_window: Optional[int] = None,
    ):
        super().__init__(tid, objects, validator, staleness_window=staleness_window)
        self._writes: Dict[int, object] = {}

    @property
    def writes(self) -> Dict[int, object]:
        return dict(self._writes)

    def write(self, obj: int, value: object) -> None:
        if self.aborted:
            raise TransactionAborted(self.tid, obj, -1)
        self._writes[obj] = value

    def submission(self) -> UpdateSubmission:
        """The commit-time uplink message (Sec. 3.2.1 commit handling)."""
        if self.aborted:
            raise TransactionAborted(self.tid, -1, -1)
        if not self.is_done:
            raise RuntimeError(f"{self.tid}: reads pending; cannot submit")
        return UpdateSubmission(
            self.tid,
            reads=self.reads,
            writes=tuple(sorted(self._writes.items())),
        )

    def restart(self) -> None:
        super().restart()
        self._writes = {}
