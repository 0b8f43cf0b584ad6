"""Small-scope schedule model checker for the broadcast protocols.

Exhaustively enumerates every interleaving of a tiny broadcast
configuration — a handful of update transactions assigned to commit
cycles, and read-only clients whose per-read broadcast cycles range over
all non-decreasing sequences — then *executes* each schedule against the
real protocol validators (:mod:`repro.core.validators`) driven by the real
incremental control matrix (:mod:`repro.core.control_matrix`), rebuilds
the induced history, and certifies it with the consistency checkers.

Two pacing modes per scope:

* ``paced`` — consecutive reads at most one cycle apart: the fault-free
  regime where a client catches every broadcast;
* ``faulty`` — unbounded gaps between reads: a client that dozed through
  cycles, lost broadcasts, or waited out a server crash sees exactly such
  a schedule, so doze/loss faults are subsumed by free gap choice.

What is asserted, per the paper's actual claims:

* **every protocol** (F-Matrix, R-Matrix, Datacycle): each committed
  reader's *perceived* sub-history — its LIVE set plus itself — certifies
  serializable (*update consistency*), and the whole reconstructed
  history passes the existing Theorem 3 criterion
  (:func:`repro.core.legality.legality_report`), tying the new checkers
  to the old machinery on every enumerated execution;
* **Datacycle only**: the full committed history (all readers at once)
  certifies serializable — its strict read condition pins every reader to
  a single snapshot point, giving global serializability.

F-Matrix and R-Matrix deliberately do **not** promise global
serializability — nor even serializability of ``H_update ∪ {reader}``
over *all* updates: a reader may perceive an affects-closed subset of
the updates that is not a prefix of the commit order (e.g. see a later
blind write while missing an earlier independent one).  The exploration
counts those executions (``global_non_serializable``) instead of failing
on them — their existence at the smallest scope is itself a reproduction
of the paper's "update consistency is weaker than serializability"
remark.

Run as a module for the CI smoke target::

    python -m repro.analysis.consistency.explore --scope smallest --output out.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...core.control_matrix import ControlMatrix
from ...core.legality import legality_report
from ...core.model import History, Operation, T0
from ...core.readsfrom import live_set
from ...core.model import commit as commit_op
from ...core.model import read as read_op
from ...core.model import write as write_op
from ...core.validators import ControlSnapshot, make_validator
from ...obs.export import claim_output
from .checkers import Verdict, check_serializability
from .histories import TransactionalHistory

__all__ = [
    "EXPLORED_PROTOCOLS",
    "SCOPES",
    "ExplorationReport",
    "ProtocolStats",
    "Scope",
    "ScopeResult",
    "UpdateTemplate",
    "Violation",
    "explore_scope",
    "main",
]

EXPLORED_PROTOCOLS: Tuple[str, ...] = ("f-matrix", "r-matrix", "datacycle")


@dataclass(frozen=True)
class UpdateTemplate:
    """One update transaction shape: objects read, objects written."""

    reads: Tuple[int, ...]
    writes: Tuple[int, ...]


@dataclass(frozen=True)
class Scope:
    """One exhaustively explored configuration."""

    name: str
    num_objects: int
    num_cycles: int
    updates: Tuple[UpdateTemplate, ...]
    readers: Tuple[Tuple[int, ...], ...]

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self.readers)} readers, {self.num_objects} "
            f"objects, {len(self.updates)} updates, {self.num_cycles} cycles"
        )


#: the two standard scopes; ``smallest`` is the CI smoke configuration
SCOPES: Dict[str, Scope] = {
    "smallest": Scope(
        name="smallest",
        num_objects=2,
        num_cycles=3,
        updates=(
            UpdateTemplate(reads=(), writes=(0,)),
            UpdateTemplate(reads=(0,), writes=(1,)),
        ),
        readers=((0, 1), (1, 0)),
    ),
    "small": Scope(
        name="small",
        num_objects=3,
        num_cycles=3,
        updates=(
            UpdateTemplate(reads=(), writes=(0, 1)),
            UpdateTemplate(reads=(0,), writes=(2,)),
            UpdateTemplate(reads=(2,), writes=(0,)),
        ),
        readers=((0, 1), (1, 2), (2, 0)),
    ),
}


@dataclass(frozen=True)
class Violation:
    """One schedule whose execution failed certification."""

    protocol: str
    mode: str
    schedule: str
    scope: str
    verdict: Verdict

    def format(self) -> str:
        lines = [f"[{self.protocol}/{self.mode}] {self.scope}: {self.schedule}"]
        if self.verdict.witness is not None:
            lines.append("  " + self.verdict.witness.format().replace("\n", "\n  "))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "mode": self.mode,
            "schedule": self.schedule,
            "scope": self.scope,
            "verdict": self.verdict.to_dict(),
        }


@dataclass(frozen=True)
class ProtocolStats:
    """Aggregates for one (protocol, mode) sweep over a scope."""

    protocol: str
    mode: str
    executions: int
    committed_readers: int
    aborted_readers: int
    global_serializable: int
    global_non_serializable: int
    violations: Tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "mode": self.mode,
            "executions": self.executions,
            "committed_readers": self.committed_readers,
            "aborted_readers": self.aborted_readers,
            "global_serializable": self.global_serializable,
            "global_non_serializable": self.global_non_serializable,
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass(frozen=True)
class ScopeResult:
    scope: Scope
    stats: Tuple[ProtocolStats, ...]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.stats)


@dataclass(frozen=True)
class ExplorationReport:
    results: Tuple[ScopeResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def format(self) -> str:
        lines: List[str] = []
        for result in self.results:
            lines.append(result.scope.describe())
            for s in result.stats:
                status = "OK" if s.ok else f"FAIL ({len(s.violations)} violations)"
                lines.append(
                    f"  {s.protocol:>9s}/{s.mode:<6s} {s.executions:5d} schedules  "
                    f"readers {s.committed_readers} committed / "
                    f"{s.aborted_readers} aborted  "
                    f"global-SER {s.global_serializable}/"
                    f"{s.global_serializable + s.global_non_serializable}  {status}"
                )
                for violation in s.violations:
                    lines.append("    " + violation.format().replace("\n", "\n    "))
        lines.append(
            "RESULT: " + ("all executions certify" if self.ok else "VIOLATIONS FOUND")
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "results": [
                {
                    "scope": r.scope.describe(),
                    "stats": [s.to_dict() for s in r.stats],
                }
                for r in self.results
            ],
        }


# ----------------------------------------------------------------------
# schedule enumeration
# ----------------------------------------------------------------------
def _read_schedules(
    num_reads: int, num_cycles: int, max_gap: Optional[int]
) -> List[Tuple[int, ...]]:
    """All non-decreasing read-cycle sequences, optionally gap-bounded."""
    out: List[Tuple[int, ...]] = []
    for combo in itertools.combinations_with_replacement(
        range(1, num_cycles + 1), num_reads
    ):
        if max_gap is not None and any(
            b - a > max_gap for a, b in zip(combo, combo[1:])
        ):
            continue
        out.append(combo)
    return out


def _commit_assignments(scope: Scope) -> List[Tuple[int, ...]]:
    """Every assignment of a commit cycle to each update template."""
    return list(
        itertools.product(range(1, scope.num_cycles + 1), repeat=len(scope.updates))
    )


@dataclass(frozen=True)
class _Prepared:
    """Everything about one commit assignment the readers don't change."""

    assignment: Tuple[int, ...]
    commit_order: Tuple[int, ...]  # template indices, serialization order
    snapshots: Tuple[ControlSnapshot, ...]  # index c-1 = beginning of cycle c
    value_writer: Tuple[Tuple[str, ...], ...]  # [cycle-1][obj] -> writer tid


def _prepare(scope: Scope, assignment: Tuple[int, ...]) -> _Prepared:
    """Run the server side once: matrix snapshots + version provenance.

    A template assigned commit cycle ``c`` commits *during* cycle ``c``,
    so it is visible to snapshots of cycles > ``c`` (the broadcast image
    is frozen at the beginning of each cycle) — matching the simulator's
    freeze-then-broadcast ordering.
    """
    commit_order = tuple(
        sorted(range(len(assignment)), key=lambda idx: (assignment[idx], idx))
    )
    matrix = ControlMatrix(scope.num_objects)
    current: List[str] = [T0] * scope.num_objects
    snapshots: List[ControlSnapshot] = []
    value_writer: List[Tuple[str, ...]] = []
    applied = 0
    order = list(commit_order)
    for cycle in range(1, scope.num_cycles + 1):
        while applied < len(order) and assignment[order[applied]] < cycle:
            idx = order[applied]
            template = scope.updates[idx]
            matrix.apply_commit(
                assignment[idx], template.reads, template.writes
            )
            for obj in template.writes:
                current[obj] = f"u{idx}"
            applied += 1
        frozen = matrix.snapshot()
        snapshots.append(
            ControlSnapshot(
                cycle=cycle,
                matrix=frozen,
                vector=frozen.max(axis=1),
            )
        )
        value_writer.append(tuple(current))
    return _Prepared(assignment, commit_order, tuple(snapshots), tuple(value_writer))


@dataclass(frozen=True)
class _ReaderOutcome:
    committed: bool
    reads: Tuple[Tuple[int, int, str], ...]  # (obj, cycle, writer)


def _run_reader(
    protocol: str,
    objects: Sequence[int],
    cycles: Sequence[int],
    prepared: _Prepared,
) -> _ReaderOutcome:
    """Execute one read-only transaction against the real validator."""
    validator = make_validator(protocol)
    validator.begin()
    reads: List[Tuple[int, int, str]] = []
    for obj, cycle in zip(objects, cycles):
        snapshot = prepared.snapshots[cycle - 1]
        if not validator.validate_read(obj, snapshot):
            return _ReaderOutcome(False, tuple(reads))
        reads.append((obj, cycle, prepared.value_writer[cycle - 1][obj]))
    return _ReaderOutcome(True, tuple(reads))


def _build_history(
    scope: Scope,
    prepared: _Prepared,
    outcomes: Sequence[Tuple[str, _ReaderOutcome]],
) -> History:
    """The induced history: update blocks in commit order, reads by provenance."""
    blocks: List[List[Operation]] = [[]]
    block_of: Dict[str, int] = {T0: 0}
    for idx in prepared.commit_order:
        template = scope.updates[idx]
        tid = f"u{idx}"
        ops: List[Operation] = []
        for obj in template.reads:
            ops.append(read_op(tid, str(obj)))
        for obj in template.writes:
            ops.append(write_op(tid, str(obj)))
        ops.append(commit_op(tid, cycle=prepared.assignment[idx]))
        blocks.append(ops)
        block_of[tid] = len(blocks) - 1

    inserts: Dict[int, List[Operation]] = {}
    tail: List[Operation] = []
    for tid, outcome in outcomes:
        if not outcome.committed:
            continue
        for obj, cycle, writer in outcome.reads:
            inserts.setdefault(block_of[writer], []).append(
                read_op(tid, str(obj), cycle=cycle)
            )
        tail.append(commit_op(tid))

    ops_out: List[Operation] = []
    for index, block in enumerate(blocks):
        ops_out.extend(block)
        ops_out.extend(inserts.get(index, ()))
    ops_out.extend(tail)
    return History(ops_out, strict=False)


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def _sweep(
    scope: Scope, protocol: str, mode: str, max_gap: Optional[int]
) -> ProtocolStats:
    executions = 0
    committed_readers = 0
    aborted_readers = 0
    global_ser = 0
    global_non_ser = 0
    violations: List[Violation] = []
    per_reader_schedules = [
        _read_schedules(len(reads), scope.num_cycles, max_gap)
        for reads in scope.readers
    ]
    reader_cert_cache: Dict[Tuple[Tuple[int, ...], int, Tuple[Tuple[int, int, str], ...]], bool] = {}

    for assignment in _commit_assignments(scope):
        prepared = _prepare(scope, assignment)
        for combo in itertools.product(*per_reader_schedules):
            executions += 1
            outcomes: List[Tuple[str, _ReaderOutcome]] = []
            for ridx, cycles in enumerate(combo):
                outcome = _run_reader(
                    protocol, scope.readers[ridx], cycles, prepared
                )
                outcomes.append((f"r{ridx}", outcome))
                if outcome.committed:
                    committed_readers += 1
                else:
                    aborted_readers += 1

            history = _build_history(scope, prepared, outcomes)
            committed = [tid for tid, oc in outcomes if oc.committed]
            updates = [f"u{idx}" for idx in prepared.commit_order]
            schedule_desc = (
                f"commits={assignment} reads="
                + ";".join(
                    f"{tid}@{cycles}" for (tid, _oc), cycles in zip(outcomes, combo)
                )
            )

            # update consistency: each committed reader's perceived
            # sub-history (LIVE set ∪ itself) must certify serializable
            for ridx, (tid, outcome) in enumerate(outcomes):
                if not outcome.committed:
                    continue
                key = (assignment, ridx, outcome.reads)
                cached = reader_cert_cache.get(key)
                if cached is None:
                    reader_scope = set(live_set(history, tid)) | {tid}
                    verdict = check_serializability(
                        TransactionalHistory(history.projection(reader_scope))
                    )
                    reader_cert_cache[key] = verdict.ok
                    if not verdict.ok:
                        violations.append(
                            Violation(
                                protocol, mode, schedule_desc, scope.name, verdict
                            )
                        )
                elif not cached:
                    pass  # violation already recorded for this provenance

            # cross-engine check: the Theorem 3 criterion (update VSR +
            # per-reader polygraph) must accept every execution
            legality = legality_report(history)
            if not legality.legal:
                violations.append(
                    Violation(
                        protocol,
                        mode,
                        schedule_desc + " [legality_report rejected: "
                        f"update_vsr={legality.update_view_serializable} "
                        f"rejected_readers={legality.rejected_readers}]",
                        scope.name,
                        Verdict("serializability", False),
                    )
                )

            # global serializability: promised by Datacycle, counted elsewhere
            global_verdict = check_serializability(
                TransactionalHistory(history.projection(updates + committed))
            )
            if global_verdict.ok:
                global_ser += 1
            else:
                global_non_ser += 1
                if protocol == "datacycle":
                    violations.append(
                        Violation(
                            protocol, mode, schedule_desc, scope.name, global_verdict
                        )
                    )
    return ProtocolStats(
        protocol,
        mode,
        executions,
        committed_readers,
        aborted_readers,
        global_ser,
        global_non_ser,
        tuple(violations[:20]),
    )


def explore_scope(
    scope: Scope, protocols: Sequence[str] = EXPLORED_PROTOCOLS
) -> ScopeResult:
    """Exhaustively execute and certify one scope, paced and faulty."""
    stats: List[ProtocolStats] = []
    for protocol in protocols:
        stats.append(_sweep(scope, protocol, "paced", max_gap=1))
        stats.append(_sweep(scope, protocol, "faulty", max_gap=None))
    return ScopeResult(scope, tuple(stats))


def explore(scope_names: Sequence[str]) -> ExplorationReport:
    results = []
    for name in scope_names:
        try:
            scope = SCOPES[name]
        except KeyError:
            raise ValueError(
                f"unknown scope {name!r}; choose from {sorted(SCOPES)}"
            ) from None
        results.append(explore_scope(scope))
    return ExplorationReport(tuple(results))


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.consistency.explore",
        description="Exhaustive small-scope certification of the broadcast protocols.",
    )
    parser.add_argument(
        "--scope",
        action="append",
        choices=sorted(SCOPES) + ["all"],
        help="scope(s) to explore (default: smallest); repeatable",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=None, help="write the JSON report here"
    )
    args = parser.parse_args(argv)
    claim_output(parser, "--output", args.output)
    names = args.scope or ["smallest"]
    if "all" in names:
        names = sorted(SCOPES)
    report = explore(names)
    print(report.format())
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.output}")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    sys.exit(main())
