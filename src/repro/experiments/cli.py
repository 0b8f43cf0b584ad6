"""Command-line runner of the paper's experiments.

Installed as ``repro-experiments``.  Examples::

    repro-experiments list
    repro-experiments table1
    repro-experiments fig2 --transactions 200 --seed 7 --out report/
    repro-experiments all --transactions 200 --out results/
    repro-experiments all --out results/ --workers 4   # parallel grid, same files
    repro-experiments scenario list     # the declarative scenario library
    repro-experiments scenario run --all          # envelope-checked runs
    repro-experiments scenario run hostile-wrap --audit --consistency update
    repro-experiments scenario record commuter-doze --out doze.trace.json
    repro-experiments scenario replay doze.trace.json --executor cohort

A figure or ablation run is :func:`repro.experiments.suite.generate_report`:
``--out DIR`` receives each experiment's JSON archive, CSV and text
table + chart, and ``REPORT.md``; each table is also printed with its
wall-clock seconds.  ``--transactions`` trades statistical tightness for
wall-clock time; the paper's setting is 1000 (and takes minutes per
figure in pure Python).

The figures sweep the paper's own grid; any *other* configuration is a
scenario document, and ``scenario run`` (:mod:`repro.scenarios.cli`) is
the one command that runs one — and, on request, audits, certifies and
traces it.

Exit codes are stable and documented: **0** when every requested check
passed, **1** when any check found a violation, **2** on usage errors
(unknown flags, a flag the chosen experiment never reads, a value the
configuration rejects).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from ..obs.export import claim_output
from .figures import EXPERIMENTS, default_config, table1_overheads
from .report import format_overheads
from .suite import generate_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Re-run the SIGMOD'99 broadcast-CC evaluation.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["table1", "all", "list"],
        help="experiment id (see DESIGN.md's per-experiment index)",
    )
    parser.add_argument(
        "--transactions",
        type=int,
        default=1000,
        help="committed client transactions per data point (default: the "
        "paper's 1000)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan grid points over N processes (results are bit-identical "
        "to a sequential run; speedup is bounded by the core count)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to write the report into: per-experiment JSON, CSV "
        "and table + chart text files, and REPORT.md",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "scenario":
        from ..scenarios.cli import scenario_main

        return scenario_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    # a flag the chosen experiment never reads is a usage error, not a
    # run that exits 0 having silently ignored it
    sweeps = args.experiment in EXPERIMENTS or args.experiment == "all"
    ignored = [
        flag
        for flag, given, read in (
            ("--out", args.out is not None, sweeps),
            ("--workers", args.workers is not None, sweeps),
        )
        if given and not read
    ]
    if ignored:
        parser.exit(
            2, f"error: {', '.join(ignored)} has no effect on '{args.experiment}'\n"
        )
    # every grid point derives from this base config, so building it once
    # up front rejects a bad --transactions here
    try:
        default_config(args.transactions, args.seed)
    except ValueError as exc:  # a flag value SimulationConfig rejects
        parser.exit(2, f"error: {exc}\n")
    if sweeps and args.out is None:
        parser.exit(2, f"error: '{args.experiment}' writes a report: give --out DIR\n")

    if args.experiment == "list":
        print("available experiments:")
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
        print("  table1")
        print("also: 'scenario list|run|record|replay' — the declarative")
        print("scenario library: envelopes, audit, certification, tracing")
        print("and trace record/replay (docs/SCENARIOS.md)")
        return 0

    if args.experiment == "table1":
        print(format_overheads(table1_overheads()))
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    claim_output(parser, "--out", args.out / "REPORT.md")

    def progress(name: str, elapsed: float) -> None:
        print((args.out / f"{name}.txt").read_text())
        print(f"[{name}] {elapsed:.1f}s wall clock\n")

    report = generate_report(
        args.out,
        transactions=args.transactions,
        seed=args.seed,
        experiments=names,
        workers=args.workers,
        progress=progress,
    )
    print(f"wrote {report}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
