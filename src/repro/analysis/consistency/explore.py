"""Small-scope schedule model checker for the broadcast protocols.

Exhaustively enumerates every interleaving of a tiny broadcast
configuration — a handful of update transactions assigned to commit
cycles, and read-only clients whose per-read broadcast cycles range over
all non-decreasing sequences — then *executes* each schedule on the code
the simulation runs, and certifies the induced history with the
consistency checkers:

* a :class:`repro.server.BroadcastServer` per commit assignment freezes
  each cycle's image (``begin_cycle``) and commits the updates assigned
  to that cycle (``commit_batch``), so every protocol's reads meet the
  control state it broadcasts — the control matrix for F-Matrix, the
  :class:`repro.core.group_matrix.LastWriteVector` for R-Matrix and
  Datacycle;
* each reader is a :class:`repro.client.ReadOnlyTransactionRuntime` with
  the protocol's validator, delivered the image of each scheduled cycle;
* the committed readers go to a :class:`repro.sim.TraceRecorder`, whose
  ``build_history`` over the server's database is the history checked.

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

    python -m repro.analysis.consistency.explore --scope all --output out.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...broadcast.program import BroadcastCycle
from ...client.runtime import ReadOnlyTransactionRuntime
from ...core.legality import legality_report
from ...core.readsfrom import live_set
from ...core.validators import make_validator
from ...obs.export import claim_output
from ...server.server import BroadcastServer
from ...sim.trace import TraceRecorder
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


#: the two standard scopes; the CI smoke sweeps both (``--scope all``)
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


def _images(
    scope: Scope, protocol: str, assignment: Tuple[int, ...]
) -> Tuple[BroadcastServer, Tuple[BroadcastCycle, ...]]:
    """Run the server side once: one broadcast image per cycle.

    Each cycle's image is frozen by ``begin_cycle`` before the templates
    assigned to that cycle commit through ``commit_batch`` (in template
    order), so a commit in cycle ``c`` is visible from the cycle ``c + 1``
    image on — the simulator's freeze-then-broadcast ordering.
    """
    server = BroadcastServer(scope.num_objects, protocol)
    images = []
    for cycle in range(1, scope.num_cycles + 1):
        images.append(server.begin_cycle(cycle))
        server.commit_batch(
            cycle,
            [
                (f"u{idx}", template.reads, template.writes)
                for idx, template in enumerate(scope.updates)
                if assignment[idx] == cycle
            ],
        )
    return server, tuple(images)


def _read(
    protocol: str,
    tid: str,
    objects: Sequence[int],
    images: Sequence[BroadcastCycle],
    cycles: Sequence[int],
) -> Optional[ReadOnlyTransactionRuntime]:
    """One read-only transaction on the client runtime, reading ``objects``
    off the images of ``cycles``: the runtime if it committed, else None."""
    runtime = ReadOnlyTransactionRuntime(tid, objects, make_validator(protocol))
    if all(runtime.deliver(images[cycle - 1]).ok for cycle in cycles):
        return runtime
    return None


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
    # readers already certified, keyed on what the reader saw: its
    # (obj, cycle) reads and the writer of each version read, under one
    # assignment
    certified: Set[Tuple[object, ...]] = set()

    for assignment in _commit_assignments(scope):
        server, images = _images(scope, protocol, assignment)
        updates = [record.txn for record in server.database.commit_log]
        # a reader's run depends on its own schedule only: run each once
        runs = [
            {
                cycles: _read(protocol, f"r{ridx}", objects, images, cycles)
                for cycles in schedules
            }
            for ridx, (objects, schedules) in enumerate(
                zip(scope.readers, per_reader_schedules)
            )
        ]
        for combo in itertools.product(*per_reader_schedules):
            executions += 1
            trace = TraceRecorder()
            for ridx, cycles in enumerate(combo):
                runtime = runs[ridx][cycles]
                if runtime is None:
                    aborted_readers += 1
                else:
                    committed_readers += 1
                    trace.record_client_commit(
                        runtime.tid, runtime.versions, runtime.reads
                    )

            history = trace.build_history(server.database)
            schedule_desc = f"commits={assignment} reads=" + ";".join(
                f"r{ridx}@{cycles}" for ridx, cycles in enumerate(combo)
            )

            # update consistency: each committed reader's perceived
            # sub-history (LIVE set ∪ itself) must certify serializable
            for record in trace.client_commits:
                key = (
                    assignment,
                    record.tid,
                    record.reads,
                    tuple(version.writer for version in record.versions),
                )
                if key in certified:
                    continue  # a violation is recorded once per provenance
                certified.add(key)
                reader_scope = set(live_set(history, record.tid)) | {record.tid}
                verdict = check_serializability(
                    TransactionalHistory(history.projection(reader_scope))
                )
                if not verdict.ok:
                    violations.append(
                        Violation(protocol, mode, schedule_desc, scope.name, verdict)
                    )

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
            committed = [record.tid for record in trace.client_commits]
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
