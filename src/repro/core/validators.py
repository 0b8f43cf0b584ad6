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

Timestamps are absolute cycle numbers under either setting of
``modulo_timestamps``: the paper's 8-bit wire is exact under its
``max_cycles`` bound, which the client's staleness guard enforces
(:mod:`repro.core.cycles`), so every comparison here is one of ints.

**Two loops, no threshold.**  One client is validated by the scalar loop
:meth:`ReadValidator._condition_holds` (the semantics oracle), a cohort
bucket by the sweep :func:`_validate_bucket`; callers choose from what
they observe, never from a size constant (docs/PERFORMANCE.md §2).  The
sweep first tries one bound per member: when the bucket's column peaks
below the member's oldest retained cycle, every ``C(i, j) < c_i`` holds
and its ``R_t`` is not walked — exact, and in the broadcast-bound regime
nearly every read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .control_matrix import ColumnImage
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


class ControlSnapshot:
    """Control information frozen at the beginning of one broadcast cycle.

    Exactly one of ``matrix`` / ``vector`` / ``grouped`` is populated,
    matching the protocol in force.  Entries are absolute commit cycles
    (see :mod:`repro.core.cycles`); ``cycle`` is the cycle the snapshot
    belongs to.

    A matrix is given as a dense array (replayed and hand-built snapshots)
    or as the server's :class:`~repro.core.control_matrix.ColumnImage`,
    whose columns every cycle that saw them shares.  The read condition
    consults one column, :meth:`column` / :meth:`group_column`; the
    ``matrix`` / ``grouped`` attributes are always dense arrays (a shared
    image stacks one on first use), for the consumers of a whole image:
    arena, delta encoder, auditor.  Treat a snapshot as immutable.
    """

    __slots__ = ("cycle", "vector", "partition", "_matrix", "_grouped")

    def __init__(
        self,
        cycle: int,
        matrix: Union[np.ndarray, ColumnImage, None] = None,
        vector: Optional[np.ndarray] = None,
        grouped: Union[np.ndarray, ColumnImage, None] = None,
        partition: Optional[Partition] = None,
    ):
        self.cycle = cycle
        self.vector = vector
        self.partition = partition
        self._matrix = matrix
        self._grouped = grouped

    @property
    def kind(self) -> str:
        """The populated field: ``"matrix"``, ``"vector"`` or ``"grouped"``."""
        if self._matrix is not None:
            return "matrix"
        if self.vector is not None:
            return "vector"
        if self._grouped is not None:
            return "grouped"
        raise ValueError("snapshot carries no control payload")

    @property
    def matrix(self) -> Optional[np.ndarray]:
        return _dense(self._matrix)

    @property
    def grouped(self) -> Optional[np.ndarray]:
        return _dense(self._grouped)

    def column(self, j: int) -> np.ndarray:
        """Column ``j`` of the full matrix — what rides with object ``j``.
        From a shared image the column itself (contiguous, read-only, ``8n``
        bytes that pin nothing else); from a dense array a view of it."""
        return _column(self._matrix, j)

    def group_column(self, group: int) -> np.ndarray:
        """Column ``group`` of the grouped matrix, as :meth:`column`."""
        return _column(self._grouped, group)


def _dense(held: Union[np.ndarray, ColumnImage, None]) -> Optional[np.ndarray]:
    return held.dense() if isinstance(held, ColumnImage) else held


def _column(held: Union[np.ndarray, ColumnImage, None], k: int) -> np.ndarray:
    if isinstance(held, ColumnImage):
        return held.columns[k]
    assert held is not None, "snapshot carries no such matrix"
    return held[:, k]


@dataclass(frozen=True, init=False)
class ReadRecord:
    """One validated read in ``R_t``: object, cycle, retained control slice.

    ``slice_`` is the protocol-specific control information that rode with
    the read — the object's matrix column (F-Matrix), the vector
    (Datacycle/R-Matrix), or the object's group column (group-matrix) —
    and is what a caching client keeps alongside the object (Sec. 3.3).
    Slotted because the validation sweeps touch ``obj``/``cycle`` once
    per retained read per validation — the hottest attribute reads in
    the whole simulation, and CPython (3.11+) specializes reads of slots,
    not of a named tuple's field getters.  Frozen because a bucket's
    members share one instance.
    """

    __slots__ = ("obj", "cycle", "slice_")

    obj: int
    cycle: int
    slice_: np.ndarray

    def __init__(self, obj: int, cycle: int, slice_: np.ndarray) -> None:
        # the slots' own setters: the frozen dataclass ``__init__`` would
        # pay one ``object.__setattr__`` per field
        _set_obj(self, obj)
        _set_cycle(self, cycle)
        _set_slice(self, slice_)

    def __iter__(self) -> Iterator[int]:
        # unpacking compatibility: (obj, cycle) = record
        return iter((self.obj, self.cycle))

    def __reduce__(self):
        # frozen + manual __slots__ (py3.9-compatible) defeats the
        # default pickle path
        return (self.__class__, (self.obj, self.cycle, self.slice_))


_set_obj = ReadRecord.__dict__["obj"].__set__
_set_cycle = ReadRecord.__dict__["cycle"].__set__
_set_slice = ReadRecord.__dict__["slice_"].__set__

#: ``ReadValidator._min_cycle`` of an empty ``R_t``: above every column
_NO_READ = float("inf")


class ReadValidator:
    """Base class: tracks ``R_t``; subclasses name the control column."""

    #: short protocol identifier used in configs/reports
    name: str = "abstract"

    def __init__(self) -> None:
        self.records: List[ReadRecord] = []
        #: latest cycle in ``R_t``; ``<= now`` iff every read was in-order
        self._max_cycle = 0
        #: oldest cycle in ``R_t`` (infinite while it is empty) — not
        #: ``records[0].cycle``: a cached, out-of-order read retained
        #: later can be older than the first read
        self._min_cycle: float = _NO_READ

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Start (or restart) a transaction: clear ``R_t``."""
        self.records = []
        self._max_cycle = 0
        self._min_cycle = _NO_READ

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
        cycle = snapshot.cycle
        if self._condition_holds(obj, cycle, column):
            self.records.append(ReadRecord(obj, cycle, column))
            if cycle > self._max_cycle:
                self._max_cycle = cycle
            if cycle < self._min_cycle:
                self._min_cycle = cycle
            return True
        return False

    # ------------------------------------------------------------------
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
        for record in self.records:
            cycle = record.cycle
            if int(column[record.obj]) >= cycle:
                return False
            if cycle > now:  # cached (out-of-order) read: backward
                if int(record.slice_[obj]) >= now:
                    return False
        return True


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
        return snapshot.column(obj)


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
        return int(column[obj]) < c1


class GroupMatrixValidator(ReadValidator):
    """Grouped read condition (Sec. 3.2.2)::

        ∀ (ob_i, cycle) ∈ R_t :  MC(i, s) < cycle   where ob_j ∈ s

    With singleton groups this *is* F-Matrix; with one group it is the
    Datacycle condition evaluated on the vector.  Group sizes trade
    broadcast overhead against false conflicts.
    """

    name = "group-matrix"

    def __init__(self, partition: Partition):
        super().__init__()
        self.partition = partition

    def _slice(self, obj: int, snapshot: ControlSnapshot) -> np.ndarray:
        return snapshot.group_column(self.partition.group_of(obj))


#: protocols selectable by name in configs; ``f-matrix-no`` shares the
#: F-Matrix validator and differs only in broadcast sizing (zero-cost
#: control information), which is a simulation-level concern.
PROTOCOL_NAMES = ("f-matrix", "r-matrix", "datacycle", "f-matrix-no", "group-matrix")


def make_validator(
    protocol: str,
    *,
    # ignored (validators compare absolute cycles); perfbench's drivers pass it
    arithmetic: object = None,
    partition: Optional[Partition] = None,
) -> ReadValidator:
    """Instantiate the validator for a protocol name."""
    if protocol in ("f-matrix", "f-matrix-no"):
        return FMatrixValidator()
    if protocol == "r-matrix":
        return RMatrixValidator()
    if protocol == "datacycle":
        return DatacycleValidator()
    if protocol == "group-matrix":
        if partition is None:
            raise ValueError("group-matrix requires a partition")
        return GroupMatrixValidator(partition)
    raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOL_NAMES}")


# ----------------------------------------------------------------------
# cohort (batch) validation
# ----------------------------------------------------------------------

def validate_read_batch(
    validators: Sequence[ReadValidator],
    obj: int,
    snapshot: ControlSnapshot,
) -> List[bool]:
    """Apply one read condition for many clients in one sweep.

    All ``validators`` belong to clients reading the *same* object from
    the *same* broadcast cycle (the cohort executor buckets clients by
    broadcast slot, and a slot determines both).  Each validator keeps
    its own ``R_t``; the members that share the first member's protocol
    class and retain no read postdating the snapshot go through
    :func:`_validate_bucket` together.

    Per validator the result (and the recorded ``R_t`` on success) is
    exactly what :meth:`ReadValidator.validate_read` would produce: the
    other members — another class, or a retained cached read postdating
    the snapshot — are evaluated through their scalar
    path, which remains the semantics oracle.  Returns a list of
    booleans aligned with ``validators``.
    """
    results = [False] * len(validators)
    if not validators:
        return results
    now = snapshot.cycle
    proto = validators[0].__class__
    batch: List[int] = []
    for i, validator in enumerate(validators):
        if validator.__class__ is proto and validator._max_cycle <= now:
            batch.append(i)
        elif validator.validate_read(obj, snapshot):
            results[i] = True
    members = [validators[i] for i in batch]
    for i, ok in zip(batch, _validate_bucket(members, obj, snapshot)):
        results[i] = ok
    return results


def validate_read_batch_inorder(
    validators: Sequence[ReadValidator],
    obj: int,
    snapshot: ControlSnapshot,
) -> List[bool]:
    """:func:`validate_read_batch` minus the per-member eligibility test.

    Precondition (the caller's to guarantee): every validator shares one
    protocol class, and retains no read
    postdating the snapshot — which holds for any cache-less client
    population, since every retained read then came off an earlier (or
    this) broadcast cycle.  The cohort executor checks these properties
    once at construction instead of paying the eligibility loop per
    bucket member: on ``reader-fleet`` that loop is about a quarter of
    :func:`validate_read_batch`'s time (docs/PERFORMANCE.md §2).
    """
    return _validate_bucket(validators, obj, snapshot)


def _validate_bucket(
    validators: Sequence[ReadValidator],
    obj: int,
    snapshot: ControlSnapshot,
) -> List[bool]:
    """``validate_read`` for every member of one bucket, in one sweep.

    Precondition: :func:`validate_read_batch_inorder`'s.  One protocol
    means one control column for the bucket.  In-order reads make the
    backward condition vacuous — so the one-directional comparison is
    the whole strict condition — and R-Matrix's first-read-state
    disjunct admissible.

    **The column bound.**  Every entry is at most the column's maximum
    and every ``R_t`` entry at least the member's oldest retained cycle
    (``_min_cycle``), so when the maximum is below that cycle the strict
    condition holds without walking ``R_t``.
    """
    if not validators:
        return []
    now = snapshot.cycle
    shared = validators[0]._slice(obj, snapshot)
    # the column's maximum, once per bucket
    top = int(shared.max())
    # the walk's column as a plain python list, built by the first member
    # the bound does not decide: each R_t entry then costs a list index +
    # int compare, with no numpy call overhead
    column: Optional[List[int]] = None
    disjunct = isinstance(validators[0], RMatrixValidator)
    # one frozen record serves every successful member: the content
    # (object, cycle, control slice) is bucket-wide identical and
    # ReadRecord is immutable, so sharing the instance is observably
    # the same as constructing one per client
    record = ReadRecord(obj, now, shared)
    verdicts = []
    for validator in validators:
        floor = validator._min_cycle
        ok = True
        if floor <= top:
            if column is None:
                column = shared.tolist()
            records = validator.records
            for retained in records:
                if column[retained.obj] >= retained.cycle:
                    # R-Matrix only: the value being read is unchanged
                    # since the transaction's first read (strict failed
                    # => R_t is non-empty => a first read exists)
                    ok = disjunct and column[obj] < records[0].cycle
                    break
        if ok:
            validator.records.append(record)
            validator._max_cycle = now  # in-order: now is the latest cycle
            if floor > now:  # R_t was empty
                validator._min_cycle = now
        verdicts.append(ok)
    return verdicts
