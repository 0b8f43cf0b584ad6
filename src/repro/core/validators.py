"""Client-side read-validation protocols (Sections 3.2.1–3.2.2, 3.3).

Each validator embodies one protocol's *read condition*.  A read-only
transaction is executed by calling :meth:`begin`, then
:meth:`validate_read` before each read: ``True`` means the read may
proceed (and it is recorded in ``R_t``); ``False`` means the protocol
aborts the transaction (the caller restarts it).  Commit is always
allowed for read-only transactions — per Theorem 1, per-read validation
already guarantees ``S(t_R)`` is acyclic on commit.

Implemented protocols:

* :class:`FMatrixValidator`   — full ``n × n`` matrix (implements APPROX);
* :class:`RMatrixValidator`   — vector with the weakened disjunctive
  condition (accepts only APPROX schedules, Theorem 9);
* :class:`DatacycleValidator` — vector with the strict condition
  (serializability; Herman et al.'s Datacycle);
* :class:`GroupMatrixValidator` — the tunable ``n × g`` middle ground.

Validators see per-cycle *control snapshots* — the control information as
frozen at the beginning of the broadcast cycle the read observes — via
:class:`ControlSnapshot`, and they *retain* each read's control slice
(the object's matrix column, or the vector): exactly what Sec. 3.3 says a
caching client must store.

**Cached (out-of-order) reads.**  Off the air, read cycles are
non-decreasing and the paper's one-directional condition::

    ∀ (ob_i, c_i) ∈ R_t :  C(i, j) < c_i

is exact (Theorem 1).  A quasi-cached read, however, observes a version
from an *earlier* cycle ``c_j`` than previous reads, and the one-way check
cannot see transactions that affected an earlier read ``ob_i`` *and*
overwrote ``ob_j`` after ``c_j`` — those commits postdate the cached
column.  Validators therefore also apply the symmetric *backward*
condition against each earlier read's retained slice::

    ∀ (ob_i, c_i) ∈ R_t with c_i > c_j :  C_{c_i}(j, i) < c_j

i.e. nothing affecting the value of ``ob_i`` as read wrote ``ob_j`` at or
after the cached version's cycle.  For in-order reads the backward
condition is vacuous (every entry of a cycle-``c_i`` column is < ``c_i``
≤ ``c_j``), so plain broadcast behaviour is unchanged.

Timestamp comparison is delegated to a
:class:`repro.core.cycles.CycleArithmetic`, so the same logic runs with
absolute cycle numbers or the paper's 8-bit modulo timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cycles import CycleArithmetic, UnboundedCycles
from .group_matrix import Partition

__all__ = [
    "ControlSnapshot",
    "ReadRecord",
    "ReadValidator",
    "FMatrixValidator",
    "DatacycleValidator",
    "RMatrixValidator",
    "GroupMatrixValidator",
    "PROTOCOL_NAMES",
    "make_validator",
    "validate_read_batch",
    "validate_read_batch_inorder",
]


@dataclass(frozen=True)
class ControlSnapshot:
    """Control information frozen at the beginning of one broadcast cycle.

    Exactly one of ``matrix`` / ``vector`` / ``grouped`` is populated,
    matching the protocol in force.  Entries are *encoded* timestamps (see
    :mod:`repro.core.cycles`); ``cycle`` is the absolute cycle number the
    snapshot belongs to, used as the wrap-around anchor.
    """

    cycle: int
    matrix: Optional[np.ndarray] = None
    vector: Optional[np.ndarray] = None
    grouped: Optional[np.ndarray] = None
    partition: Optional[Partition] = None

    def fmatrix_entry(self, i: int, j: int) -> int:
        assert self.matrix is not None, "snapshot carries no full matrix"
        return int(self.matrix[i, j])

    def vector_entry(self, i: int) -> int:
        assert self.vector is not None, "snapshot carries no vector"
        return int(self.vector[i])

    def grouped_entry(self, i: int, group: int) -> int:
        assert self.grouped is not None, "snapshot carries no grouped matrix"
        return int(self.grouped[i, group])


@dataclass(frozen=True)
class ReadRecord:
    """One validated read in ``R_t``: object, cycle, retained control slice.

    ``slice_`` is the protocol-specific control information that rode with
    the read — the object's matrix column (F-Matrix), the vector
    (Datacycle/R-Matrix), or the object's group column (group-matrix) —
    and is what a caching client keeps alongside the object (Sec. 3.3).
    Slotted because the scalar validation sweeps touch ``obj``/``cycle``
    once per retained read per validation — the hottest attribute reads
    in the whole simulation.
    """

    __slots__ = ("obj", "cycle", "slice_")

    obj: int
    cycle: int
    slice_: np.ndarray

    def __iter__(self) -> Iterator[int]:
        # unpacking compatibility: (obj, cycle) = record
        return iter((self.obj, self.cycle))

    def __reduce__(self):
        # frozen + manual __slots__ (py3.9-compatible) defeats the
        # default pickle path
        return (self.__class__, (self.obj, self.cycle, self.slice_))


#: smallest ``R_t`` for which the fancy-indexed numpy evaluation beats the
#: scalar loop; below it, numpy call overhead dominates the few comparisons
_VECTOR_MIN_READS = 4
#: bucket size below which batch validation falls back to the scalar loop
_BATCH_MIN_CLIENTS = 8
#: R_t-entry total above which batch validation uses the fancy-indexed
#: gather instead of the shared-column scalar sweep
_BATCH_GATHER_MIN_RECORDS = 512


class ReadValidator:
    """Base class: tracks ``R_t`` and defers the condition to subclasses.

    ``R_t``'s (object, cycle) pairs are mirrored into growing numpy
    arrays so subclasses can evaluate the read condition with one
    fancy-indexed comparison (the :class:`UnboundedCycles` fast path,
    where encoded timestamps are absolute cycle numbers and ``<`` is the
    plain integer order).  Modulo arithmetic and cached (out-of-order)
    reads fall back to the scalar loop, which remains the semantics
    oracle.
    """

    #: short protocol identifier used in configs/reports
    name: str = "abstract"

    def __init__(self, arithmetic: Optional[CycleArithmetic] = None):
        self.arithmetic = arithmetic or UnboundedCycles()
        self.records: List[ReadRecord] = []
        self._vectorisable = isinstance(self.arithmetic, UnboundedCycles)
        self._objs = np.zeros(8, dtype=np.int64)
        self._cycles = np.zeros(8, dtype=np.int64)
        self._capacity = 8
        self._count = 0
        self._max_cycle = 0

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start (or restart) a transaction: clear ``R_t``."""
        self.records = []
        self._count = 0
        self._max_cycle = 0

    @property
    def reads(self) -> List[Tuple[int, int]]:
        """``R_t`` as (object, cycle) pairs."""
        return [(r.obj, r.cycle) for r in self.records]

    @property
    def first_read_cycle(self) -> Optional[int]:
        return self.records[0].cycle if self.records else None

    def validate_read(self, obj: int, snapshot: ControlSnapshot) -> bool:
        """Apply the protocol's read condition for reading ``obj`` now.

        On success the read is recorded into ``R_t`` with the snapshot's
        cycle (the client reads the latest committed value as of the
        beginning of that cycle) and its control slice.
        """
        column = self._slice(obj, snapshot)
        if self._condition_holds(obj, snapshot.cycle, column):
            self._record(ReadRecord(obj, snapshot.cycle, column))
            return True
        return False

    # ------------------------------------------------------------------
    def _record(self, record: ReadRecord) -> None:
        """Append to ``R_t``, mirroring (obj, cycle) into the arrays."""
        self.records.append(record)
        count = self._count
        if count == self._capacity:
            grow = np.zeros(self._capacity, dtype=np.int64)
            self._objs = np.concatenate([self._objs, grow])
            self._cycles = np.concatenate([self._cycles, grow])
            self._capacity *= 2
        cycle = record.cycle
        self._objs[count] = record.obj
        self._cycles[count] = cycle
        self._count = count + 1
        if cycle > self._max_cycle:
            self._max_cycle = cycle

    def _fast_path(self, now: int) -> bool:
        """May this validation use the fancy-indexed evaluation?

        Requires absolute (unbounded) timestamps, an ``R_t`` large enough
        for numpy to win, and in-order reads only — ``max cycle <= now``
        means no retained read postdates the snapshot, so the backward
        (cached-read) condition is vacuous and the one-directional
        comparison is the whole read condition.
        """
        return (
            self._vectorisable
            and self._count >= _VECTOR_MIN_READS
            and self._max_cycle <= now
        )

    def _slice(self, obj: int, snapshot: ControlSnapshot) -> np.ndarray:
        """The control column that applies to a read of ``obj``: entry
        ``i`` is the timestamp the read condition holds against ``ob_i``."""
        raise NotImplementedError

    def _condition_holds(self, obj: int, now: int, column: np.ndarray) -> bool:
        """The strict (conjunctive) read condition against ``column``::

            ∀ (ob_i, c_i) ∈ R_t :  column[i] < c_i

        plus, for each retained read that postdates the snapshot (a
        cached, out-of-order read is being validated), the symmetric
        backward condition on that read's own retained slice (module
        docstring).  The protocols differ only in which column applies.
        """
        if self._fast_path(now):
            k = self._count
            return bool(np.all(column[self._objs[:k]] < self._cycles[:k]))
        for record in self.records:
            if not self._less(int(column[record.obj]), record.cycle, now=now):
                return False
            if record.cycle > now:  # cached (out-of-order) read: backward
                if not self._less(int(record.slice_[obj]), now, now=record.cycle):
                    return False
        return True

    def _less(self, entry: int, cycle: int, *, now: int) -> bool:
        """entry < cycle under the configured timestamp arithmetic.

        ``entry`` is wire-format (encoded); ``cycle`` is an absolute cycle
        number the client tracked itself, so it is compared as such —
        encoding it first would re-anchor it against ``now`` and flip the
        comparison whenever it lies outside the modulo window (cached
        out-of-order reads, or a transaction spanning the wrap gap).
        """
        return self.arithmetic.less_encoded_absolute(entry, cycle, reference=now)


class FMatrixValidator(ReadValidator):
    """F-Matrix read condition (Sec. 3.2.1)::

        ∀ (ob_i, cycle) ∈ R_t :  C(i, j) < cycle

    using the matrix at the beginning of the read's cycle — the column
    ``j`` broadcast alongside object ``j`` contains every entry consulted.
    Equivalent to keeping ``S(t_R)`` acyclic (Theorem 1).  For cached
    reads the symmetric backward condition on retained columns applies
    (module docstring).
    """

    name = "f-matrix"

    def _slice(self, obj: int, snapshot: ControlSnapshot) -> np.ndarray:
        assert snapshot.matrix is not None
        return snapshot.matrix[:, obj]


class DatacycleValidator(ReadValidator):
    """Datacycle read condition (Sec. 3.2.2)::

        ∀ (ob_i, cycle) ∈ R_t :  MC(i) < cycle

    i.e. abort as soon as *any* previously read value has been overwritten
    by a committed transaction — this enforces serializability.
    """

    name = "datacycle"

    def _slice(self, obj: int, snapshot: ControlSnapshot) -> np.ndarray:
        assert snapshot.vector is not None
        return snapshot.vector


class RMatrixValidator(ReadValidator):
    """R-Matrix read condition (Sec. 3.2.2)::

        (∀ (ob_i, cycle) ∈ R_t : MC(i) < cycle)  ∨  (MC(j) < c₁)

    where ``c₁`` is the cycle of the transaction's first read.  Either no
    previously read value has been overwritten (the transaction sees the
    database as of its last read), or the value now being read has not
    been overwritten since the transaction began (it sees the database as
    of its first read).  Accepts only APPROX schedules (Theorem 9) and,
    unlike Datacycle, never aborts a transaction that performs no further
    reads.

    The first-read-state disjunct presumes in-order reads; a cached
    (out-of-order) read falls back to the strict conjunctive condition
    with the backward check — conservative, still sound.
    """

    name = "r-matrix"

    def _slice(self, obj: int, snapshot: ControlSnapshot) -> np.ndarray:
        assert snapshot.vector is not None
        return snapshot.vector

    def _condition_holds(self, obj: int, now: int, column: np.ndarray) -> bool:
        if super()._condition_holds(obj, now, column):
            return True
        if self._max_cycle > now:
            return False  # a retained read postdates the snapshot: strict only
        c1 = self.first_read_cycle
        assert c1 is not None  # the strict condition holds vacuously on empty R_t
        return self._less(int(column[obj]), c1, now=now)


class GroupMatrixValidator(ReadValidator):
    """Grouped read condition (Sec. 3.2.2)::

        ∀ (ob_i, cycle) ∈ R_t :  MC(i, s) < cycle   where ob_j ∈ s

    With singleton groups this *is* F-Matrix; with one group it is the
    Datacycle condition evaluated on the vector.  Group sizes trade
    broadcast overhead against false conflicts.
    """

    name = "group-matrix"

    def __init__(
        self,
        partition: Partition,
        arithmetic: Optional[CycleArithmetic] = None,
    ):
        super().__init__(arithmetic)
        self.partition = partition

    def _slice(self, obj: int, snapshot: ControlSnapshot) -> np.ndarray:
        assert snapshot.grouped is not None
        return snapshot.grouped[:, self.partition.group_of(obj)]


#: protocols selectable by name in configs; ``f-matrix-no`` shares the
#: F-Matrix validator and differs only in broadcast sizing (zero-cost
#: control information), which is a simulation-level concern.
PROTOCOL_NAMES = ("f-matrix", "r-matrix", "datacycle", "f-matrix-no", "group-matrix")


def make_validator(
    protocol: str,
    *,
    arithmetic: Optional[CycleArithmetic] = None,
    partition: Optional[Partition] = None,
) -> ReadValidator:
    """Instantiate the validator for a protocol name."""
    if protocol in ("f-matrix", "f-matrix-no"):
        return FMatrixValidator(arithmetic)
    if protocol == "r-matrix":
        return RMatrixValidator(arithmetic)
    if protocol == "datacycle":
        return DatacycleValidator(arithmetic)
    if protocol == "group-matrix":
        if partition is None:
            raise ValueError("group-matrix requires a partition")
        return GroupMatrixValidator(partition, arithmetic)
    raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOL_NAMES}")


# ----------------------------------------------------------------------
# cohort (batch) validation
# ----------------------------------------------------------------------

def validate_read_batch(
    validators: Sequence[ReadValidator],
    obj: int,
    snapshot: ControlSnapshot,
) -> List[bool]:
    """Apply one read condition for many clients with one comparison.

    All ``validators`` belong to clients reading the *same* object from
    the *same* broadcast cycle (the cohort executor buckets clients by
    broadcast slot, and a slot determines both).  Each validator keeps
    its own ``R_t``; this stacks every eligible validator's (object,
    cycle) int64 mirrors into one pair of arrays, gathers the control
    entries with a single fancy-indexed lookup, and reduces the
    comparison per client with ``np.add.reduceat`` — extending the
    per-transaction fast path of :meth:`ReadValidator._fast_path` across
    the whole bucket.

    Per validator the result (and the recorded ``R_t`` on success) is
    exactly what :meth:`ReadValidator.validate_read` would produce:
    validators that are not batchable — modulo timestamps, or a retained
    cached read postdating the snapshot — are evaluated through their
    scalar path, which remains the semantics oracle.  Returns a list of
    booleans aligned with ``validators``.
    """
    n = len(validators)
    results = [False] * n
    if n == 0:
        return results
    now = snapshot.cycle
    proto = validators[0].__class__
    batch: List[int] = []
    total = 0
    for i, validator in enumerate(validators):
        if (
            validator.__class__ is proto
            and validator._vectorisable
            and validator._max_cycle <= now
        ):
            batch.append(i)
            total += validator._count
        elif validator.validate_read(obj, snapshot):
            results[i] = True
    if not batch:
        return results
    if len(batch) < _BATCH_MIN_CLIENTS:
        # tiny buckets: any shared setup cost exceeds the scalar loop's —
        # same outcomes, same recorded R_t
        for i in batch:
            if validators[i].validate_read(obj, snapshot):
                results[i] = True
        return results

    ok_flags = _strict_ok_flags(validators, batch, total, obj, snapshot)

    if proto is RMatrixValidator and not all(ok_flags):
        # the disjunct: the value being read is unchanged since the
        # transaction's first read (in-order is guaranteed for batch
        # members, so the disjunct is admissible)
        assert snapshot.vector is not None
        entry_now = int(snapshot.vector[obj])
        for j, i in enumerate(batch):
            if not ok_flags[j]:
                # strict failed => R_t non-empty => a first read exists
                first_cycle = validators[i].records[0].cycle
                ok_flags[j] = entry_now < first_cycle

    if any(ok_flags):
        # one frozen record serves every successful member: the content
        # (object, cycle, control slice) is bucket-wide identical and
        # ReadRecord is immutable, so sharing the instance is observably
        # the same as constructing one per client
        shared_slice = validators[batch[0]]._slice(obj, snapshot)
        record = ReadRecord(obj, now, shared_slice)
        for j, i in enumerate(batch):
            if ok_flags[j]:
                validators[i]._record(record)
                results[i] = True
    return results


def validate_read_batch_inorder(
    validators: Sequence[ReadValidator],
    obj: int,
    snapshot: ControlSnapshot,
) -> List[bool]:
    """:func:`validate_read_batch` minus the per-member eligibility test.

    Precondition (the caller's to guarantee): every validator shares one
    protocol class, uses absolute (unbounded) timestamps, and retains no
    read postdating the snapshot — which holds for any cache-less client
    population, since every retained read then came off an earlier (or
    this) broadcast cycle.  The cohort executor checks these properties
    once at construction; per bucket the eligibility loop is a third of
    the validation cost, which is why this entry point exists.
    """
    n = len(validators)
    if n < _BATCH_MIN_CLIENTS:
        return [v.validate_read(obj, snapshot) for v in validators]
    now = snapshot.cycle
    total = 0
    for validator in validators:
        total += validator._count
    proto = validators[0].__class__
    batch = range(n)
    ok_flags = _strict_ok_flags(validators, batch, total, obj, snapshot)

    if proto is RMatrixValidator and not all(ok_flags):
        # first-read-state disjunct, as in validate_read_batch
        assert snapshot.vector is not None
        entry_now = int(snapshot.vector[obj])
        for j in batch:
            if not ok_flags[j]:
                ok_flags[j] = entry_now < validators[j].records[0].cycle

    if any(ok_flags):
        shared_slice = validators[0]._slice(obj, snapshot)
        record = ReadRecord(obj, now, shared_slice)
        for ok, validator in zip(ok_flags, validators):
            if ok:
                # _record, inlined: at tens of thousands of recorded
                # reads per wall-clock second the call frame itself is
                # measurable (obj/now are loop-invariant here, too)
                validator.records.append(record)
                count = validator._count
                if count == validator._capacity:
                    grow = np.zeros(validator._capacity, dtype=np.int64)
                    validator._objs = np.concatenate([validator._objs, grow])
                    validator._cycles = np.concatenate([validator._cycles, grow])
                    validator._capacity *= 2
                validator._objs[count] = obj
                validator._cycles[count] = now
                validator._count = count + 1
                if now > validator._max_cycle:
                    validator._max_cycle = now
    return ok_flags


def _strict_ok_flags(
    validators: Sequence[ReadValidator],
    batch: Sequence[int],
    total: int,
    obj: int,
    snapshot: ControlSnapshot,
) -> List[bool]:
    """The strict (conjunctive) read condition for each batch member.

    Three tiers by total ``R_t`` size — empty, shared-column scalar
    sweep, fancy-indexed gather — all equivalent to evaluating
    ``_condition_holds`` per member on the fast path.  No recording and
    no R-Matrix disjunct here; the callers apply those.
    """
    if total == 0:
        return [True] * len(batch)
    # the members share one protocol, hence one control column
    shared = validators[batch[0]]._slice(obj, snapshot)
    if total < _BATCH_GATHER_MIN_RECORDS:
        # mid-size buckets: the column as a plain python list, then each
        # R_t entry costs a list index + int compare — beats the
        # fancy-gather pipeline's fixed numpy overhead
        column = shared.tolist()
        ok_flags = []
        append = ok_flags.append
        for i in batch:
            ok = True
            for record in validators[i].records:
                if column[record.obj] >= record.cycle:
                    ok = False
                    break
            append(ok)
        return ok_flags
    # large buckets: stack every member's (object, cycle) mirrors and
    # evaluate the whole bucket with one fancy-indexed comparison
    counts = np.fromiter(
        (validators[i]._count for i in batch),
        dtype=np.int64,
        count=len(batch),
    )
    objs = np.concatenate(
        [validators[i]._objs[: validators[i]._count] for i in batch]
    )
    cycles = np.concatenate(
        [validators[i]._cycles[: validators[i]._count] for i in batch]
    )
    fail = (shared[objs] >= cycles).astype(np.int64)
    offsets = np.zeros(len(batch), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    # reduceat returns the element at an empty segment's offset
    # instead of 0, so reduce over the non-empty segments only;
    # their offsets still partition [0, total) exactly
    nonempty = counts > 0
    seg_fail = np.zeros(len(batch), dtype=np.int64)
    seg_fail[nonempty] = np.add.reduceat(fail, offsets[nonempty])
    return (seg_fail == 0).tolist()
