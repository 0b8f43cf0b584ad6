"""Formal model of transactions and histories (paper Appendix A).

A *history* is a totally ordered sequence of operation events — reads,
writes, commits and aborts — produced by a set of transactions.  The model
follows the conventions of the paper:

* every history implicitly contains an initial transaction ``t0`` that
  writes every object accessed by any transaction and reads nothing;
* a transaction reads or writes any given object at most once (helpers
  enforce this where the theory requires it, but the simulator-facing code
  path tolerates repetition);
* a read observes the value produced by the *latest preceding write* on the
  same object in the history (the paper's histories are over committed
  update transactions, so this coincides with committed-value semantics).

The classes here are deliberately small and immutable-ish: the analysis
modules (:mod:`repro.core.readsfrom`, :mod:`repro.core.serialgraph`,
:mod:`repro.core.polygraph`, ...) are pure functions over a
:class:`History`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "T0",
    "OpKind",
    "Operation",
    "read",
    "write",
    "commit",
    "abort",
    "Transaction",
    "History",
    "HistoryError",
    "parse_history",
]

#: Identifier of the conventional initial transaction that writes every
#: object before the history begins (paper Appendix A).
T0 = "t0"


class HistoryError(ValueError):
    """Raised when a history is malformed (e.g. operation after commit)."""


class OpKind(enum.Enum):
    """The four event kinds a history may contain."""

    READ = "r"
    WRITE = "w"
    COMMIT = "c"
    ABORT = "a"


@dataclass(frozen=True)
class Operation:
    """One event in a history.

    ``obj`` is ``None`` exactly for commit/abort events.  ``cycle`` is an
    optional broadcast-cycle annotation used by the broadcast protocols: for
    a read it records the cycle whose committed snapshot was observed, for a
    commit it records the cycle during which the commit happened.
    """

    kind: OpKind
    txn: str
    obj: Optional[str] = None
    cycle: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind in (OpKind.READ, OpKind.WRITE) and self.obj is None:
            raise HistoryError(f"{self.kind.value} operation requires an object")
        if self.kind in (OpKind.COMMIT, OpKind.ABORT) and self.obj is not None:
            raise HistoryError(f"{self.kind.value} operation takes no object")

    @property
    def is_read(self) -> bool:
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is OpKind.WRITE

    @property
    def is_commit(self) -> bool:
        return self.kind is OpKind.COMMIT

    @property
    def is_abort(self) -> bool:
        return self.kind is OpKind.ABORT

    def __str__(self) -> str:
        if self.obj is None:
            return f"{self.kind.value}_{self.txn}"
        suffix = f"@{self.cycle}" if self.cycle is not None else ""
        return f"{self.kind.value}_{self.txn}[{self.obj}]{suffix}"


def read(txn: str, obj: str, cycle: Optional[int] = None) -> Operation:
    """Convenience constructor for a read event."""
    return Operation(OpKind.READ, txn, obj, cycle)


def write(txn: str, obj: str, cycle: Optional[int] = None) -> Operation:
    """Convenience constructor for a write event."""
    return Operation(OpKind.WRITE, txn, obj, cycle)


def commit(txn: str, cycle: Optional[int] = None) -> Operation:
    """Convenience constructor for a commit event."""
    return Operation(OpKind.COMMIT, txn, None, cycle)


def abort(txn: str) -> Operation:
    """Convenience constructor for an abort event."""
    return Operation(OpKind.ABORT, txn)


@dataclass(frozen=True)
class Transaction:
    """Static view of one transaction extracted from a history."""

    tid: str
    read_set: FrozenSet[str]
    write_set: FrozenSet[str]
    committed: bool
    aborted: bool
    commit_cycle: Optional[int] = None

    @property
    def is_read_only(self) -> bool:
        """A transaction performing no write operation (paper Sec. 3.1)."""
        return not self.write_set

    @property
    def is_update(self) -> bool:
        """A transaction performing at least one write (H_update member)."""
        return bool(self.write_set)


class History:
    """A totally ordered sequence of operations with analysis helpers.

    Instances are conceptually immutable: build one from a sequence of
    :class:`Operation` (or via :func:`parse_history`), then query it.  All
    derived structures are computed lazily and cached.
    """

    def __init__(self, operations: Iterable[Operation], *, strict: bool = True):
        self._ops: Tuple[Operation, ...] = tuple(operations)
        self._strict = strict
        self._txns: Optional[Dict[str, Transaction]] = None
        self._reads_from: Optional[Dict[Tuple[str, str], str]] = None
        self._read_sources: Optional[Dict[str, Set[str]]] = None
        self._committed: Optional["History"] = None
        if strict:
            self._validate()

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __getitem__(self, index: int) -> Operation:
        return self._ops[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, History) and self._ops == other._ops

    def __hash__(self) -> int:
        return hash(self._ops)

    def __repr__(self) -> str:
        return f"History({' '.join(str(op) for op in self._ops)})"

    @property
    def operations(self) -> Tuple[Operation, ...]:
        return self._ops

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        finished: Set[str] = set()
        seen_reads: Set[Tuple[str, str]] = set()
        seen_writes: Set[Tuple[str, str]] = set()
        for op in self._ops:
            if op.txn == T0:
                raise HistoryError(
                    f"operations of the implicit initial transaction {T0!r} "
                    "must not appear explicitly"
                )
            if op.txn in finished:
                raise HistoryError(f"operation {op} after commit/abort of {op.txn}")
            if op.is_commit or op.is_abort:
                finished.add(op.txn)
            elif op.is_read:
                key = (op.txn, op.obj or "")
                if key in seen_reads:
                    raise HistoryError(f"{op.txn} reads {op.obj} more than once")
                seen_reads.add(key)
            elif op.is_write:
                key = (op.txn, op.obj or "")
                if key in seen_writes:
                    raise HistoryError(f"{op.txn} writes {op.obj} more than once")
                seen_writes.add(key)

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> Dict[str, Transaction]:
        """Mapping transaction id -> :class:`Transaction` (excluding t0)."""
        if self._txns is None:
            reads: Dict[str, Set[str]] = {}
            writes: Dict[str, Set[str]] = {}
            committed: Set[str] = set()
            aborted: Set[str] = set()
            commit_cycles: Dict[str, int] = {}
            order: List[str] = []
            for op in self._ops:
                if op.txn not in reads:
                    reads[op.txn] = set()
                    writes[op.txn] = set()
                    order.append(op.txn)
                if op.is_read:
                    reads[op.txn].add(op.obj or "")
                elif op.is_write:
                    writes[op.txn].add(op.obj or "")
                elif op.is_commit:
                    committed.add(op.txn)
                    if op.cycle is not None:
                        commit_cycles[op.txn] = op.cycle
                elif op.is_abort:
                    aborted.add(op.txn)
            self._txns = {
                tid: Transaction(
                    tid,
                    frozenset(reads[tid]),
                    frozenset(writes[tid]),
                    tid in committed,
                    tid in aborted,
                    commit_cycles.get(tid),
                )
                for tid in order
            }
        return self._txns

    @property
    def objects(self) -> FrozenSet[str]:
        """All objects read or written anywhere in the history."""
        objs: Set[str] = set()
        for op in self._ops:
            if op.obj is not None:
                objs.add(op.obj)
        return frozenset(objs)

    @property
    def transaction_ids(self) -> Tuple[str, ...]:
        return tuple(self.transactions)

    def transaction(self, tid: str) -> Transaction:
        if tid == T0:
            return Transaction(T0, frozenset(), self.objects, True, False, 0)
        return self.transactions[tid]

    def operations_of(self, tid: str) -> Tuple[Operation, ...]:
        return tuple(op for op in self._ops if op.txn == tid)

    # ------------------------------------------------------------------
    # reads-from (Definition 1)
    # ------------------------------------------------------------------
    @property
    def reads_from(self) -> Dict[Tuple[str, str], str]:
        """READS_FROM as a map ``(reader, obj) -> writer``.

        The writer of the latest write on ``obj`` preceding the read, or
        :data:`T0` when no transaction wrote ``obj`` earlier.  Writes by
        transactions that aborted *before* the read are skipped, matching
        committed-value semantics for histories that interleave aborts.
        """
        if self._reads_from is None:
            rf: Dict[Tuple[str, str], str] = {}
            abort_pos: Dict[str, int] = {}
            for idx, op in enumerate(self._ops):
                if op.is_abort:
                    abort_pos[op.txn] = idx
            last_writer: Dict[str, List[Tuple[int, str]]] = {}
            for idx, op in enumerate(self._ops):
                if op.is_write:
                    last_writer.setdefault(op.obj or "", []).append((idx, op.txn))
                elif op.is_read:
                    writer = T0
                    for widx, wtxn in reversed(last_writer.get(op.obj or "", [])):
                        if wtxn == op.txn:
                            continue  # own earlier write: skip (model forbids anyway)
                        if wtxn in abort_pos and abort_pos[wtxn] < idx:
                            continue
                        writer = wtxn
                        break
                    rf[(op.txn, op.obj or "")] = writer
            self._reads_from = rf
        return self._reads_from

    @property
    def read_sources(self) -> Dict[str, Set[str]]:
        """READS_FROM by reader (``t0`` included): LIVE's one-hop step, built once."""
        if self._read_sources is None:
            self._read_sources = {}
            for (reader, _obj), writer in self.reads_from.items():
                self._read_sources.setdefault(reader, set()).add(writer)
        return self._read_sources

    def writer_of(self, reader: str, obj: str) -> str:
        """The transaction whose write ``reader`` observed on ``obj``."""
        return self.reads_from[(reader, obj)]

    # ------------------------------------------------------------------
    # projections
    # ------------------------------------------------------------------
    def committed_projection(self) -> "History":
        """The history restricted to committed transactions (cached)."""
        if self._committed is None:
            committed = {t.tid for t in self.transactions.values() if t.committed}
            kept = self  # nothing to drop: checkers share its derived structures
            if len(committed) < len(self.transactions):
                kept = History(
                    (op for op in self._ops if op.txn in committed), strict=self._strict
                )
            self._committed = kept._committed = kept
        return self._committed

    def update_subhistory(self) -> "History":
        """H_update: operations of transactions performing a write (Sec. 3.1)."""
        updaters = {t.tid for t in self.transactions.values() if t.is_update}
        return History(
            (op for op in self._ops if op.txn in updaters), strict=self._strict
        )

    def projection(self, tids: Iterable[str]) -> "History":
        """The history restricted to the given transaction ids."""
        keep = set(tids)
        return History((op for op in self._ops if op.txn in keep), strict=self._strict)

    def read_only_transactions(self) -> Tuple[str, ...]:
        return tuple(
            t.tid for t in self.transactions.values() if t.is_read_only
        )

    def update_transactions(self) -> Tuple[str, ...]:
        return tuple(t.tid for t in self.transactions.values() if t.is_update)

    # ------------------------------------------------------------------
    # serial histories
    # ------------------------------------------------------------------
    def is_serial(self) -> bool:
        """True iff transactions execute one after another (no interleaving)."""
        seen: Set[str] = set()
        current: Optional[str] = None
        for op in self._ops:
            if op.txn != current:
                if op.txn in seen:
                    return False
                seen.add(op.txn)
                current = op.txn
        return True

    @staticmethod
    def serial(transactions: Sequence[Sequence[Operation]]) -> "History":
        """Build a serial history from per-transaction operation blocks."""
        return History(itertools.chain.from_iterable(transactions))

    # ------------------------------------------------------------------
    def to_notation(self) -> str:
        """The paper-style compact notation, re-parseable by
        :func:`parse_history` (``parse_history(h.to_notation()) == h``)."""
        tokens: List[str] = []
        for op in self._ops:
            tid = op.txn[1:] if op.txn.startswith("t") and op.txn[1:].isdigit() else op.txn
            if op.obj is not None:
                token = f"{op.kind.value}{tid}[{op.obj}]"
            else:
                token = f"{op.kind.value}{tid}"
            if op.cycle is not None:
                token += f"@{op.cycle}"
            tokens.append(token)
        return " ".join(tokens)


def parse_history(text: str) -> History:
    """Parse the paper's compact notation into a :class:`History`.

    Tokens are whitespace separated; ``r1[x]`` / ``w2[y]`` are reads and
    writes, ``c1`` / ``a2`` commits and aborts.  An optional ``@cycle``
    suffix annotates the broadcast cycle, e.g. ``r1[x]@3`` or ``c2@5``.

    >>> h = parse_history("r1[IBM] w2[IBM] c2 r3[IBM] r3[Sun] w4[Sun] c4 r1[Sun]")
    >>> len(h)
    8
    """
    ops: List[Operation] = []
    for token in text.split():
        cycle: Optional[int] = None
        if "@" in token:
            token, cycle_text = token.rsplit("@", 1)
            cycle = int(cycle_text)
        kind_char = token[0]
        rest = token[1:]
        if kind_char in ("r", "w"):
            if "[" not in rest or not rest.endswith("]"):
                raise HistoryError(f"malformed operation token {token!r}")
            tid, obj = rest[:-1].split("[", 1)
            op_kind = OpKind.READ if kind_char == "r" else OpKind.WRITE
            ops.append(Operation(op_kind, f"t{tid}" if tid.isdigit() else tid, obj, cycle))
        elif kind_char in ("c", "a"):
            tid = rest
            op_kind = OpKind.COMMIT if kind_char == "c" else OpKind.ABORT
            ops.append(
                Operation(op_kind, f"t{tid}" if tid.isdigit() else tid, None, cycle)
            )
        else:
            raise HistoryError(f"unknown operation token {token!r}")
    return History(ops)
