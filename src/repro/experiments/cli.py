"""Command-line runner of the paper's experiments.

Installed as ``repro-experiments``.  Examples::

    repro-experiments list
    repro-experiments table1
    repro-experiments fig2 --transactions 200 --seed 7
    repro-experiments all --transactions 200 --csv results/
    repro-experiments all --workers 4   # parallel grid, identical results
    repro-experiments scenario list     # the declarative scenario library
    repro-experiments scenario run --all          # envelope-checked runs
    repro-experiments scenario run hostile-wrap --audit --consistency update
    repro-experiments scenario record commuter-doze --out doze.trace.json
    repro-experiments scenario replay doze.trace.json --executor cohort

``--transactions`` trades statistical tightness for wall-clock time; the
paper's setting is 1000 (and takes minutes per figure in pure Python).

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
from ..obs.profiler import PhaseProfiler
from .figures import EXPERIMENTS, default_config, table1_overheads
from .report import format_csv, format_overheads, format_table

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
        "--csv",
        type=pathlib.Path,
        default=None,
        help="directory to write per-experiment CSV files into",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also draw the curves as an ASCII chart (log-scale y)",
    )
    return parser


def _run_one(
    name: str,
    transactions: int,
    seed: int,
    csv_dir,
    chart: bool = False,
    workers: Optional[int] = None,
) -> None:
    runner = EXPERIMENTS[name]
    profiler = PhaseProfiler()
    with profiler.phase(name):
        result = runner(transactions, seed=seed, workers=workers)
    elapsed = profiler.as_dict()[name]
    print(format_table(result))
    if chart:
        from .plotting import render_chart

        print(render_chart(result, log_y=True))
    print(f"[{name}] {elapsed:.1f}s wall clock\n")
    if csv_dir is not None:  # main() created it before the first grid point
        path = csv_dir / f"{name}.csv"
        path.write_text(format_csv(result))
        print(f"wrote {path}")


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
            ("--csv", args.csv is not None, sweeps),
            ("--chart", args.chart, sweeps),
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
    if args.csv is not None:  # the directory of the first file _run_one writes
        claim_output(parser, "--csv", args.csv / f"{names[0]}.csv")
    if args.experiment == "all":
        print(format_overheads(table1_overheads()))
    for name in names:
        _run_one(
            name,
            args.transactions,
            args.seed,
            args.csv,
            chart=args.chart,
            workers=args.workers,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
