"""The ``repro-trace`` command: traced runs and trace inspection.

Subcommands::

    repro-trace run --out trace.json          # traced smoke run -> Chrome trace
    repro-trace run --spans spans.jsonl       # raw span stream, one per line
    repro-trace summarize trace.json          # per-span-kind table from a file

The default ``run`` configuration is the observability smoke scenario:
a small faulted (doze + mid-run server crash + lossy uplink) 2-shard
replay-mode run under the cohort executor — the same shape the
determinism tests pin — so the produced trace exercises every span
kind: client attempts/transactions/uplinks, broadcast cycles, server
commits, and the crash-recovery window.  The emitted JSON loads
directly in Perfetto / chrome://tracing.

Exit codes: **0** success, **2** usage errors (unknown subcommand, a
``--transactions`` / ``--shards`` value the configuration rejects, a
``summarize`` file that is not a readable Chrome trace).
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import List, Optional

from .export import chrome_trace, claim_output, summarize_spans, summarize_trace_events
from .telemetry import render_telemetry

__all__ = ["main", "build_parser", "smoke_config"]


def smoke_config(
    *,
    transactions: int = 10,
    seed: int = 7,
    shards: int = 2,
    timeline_mode: str = "replay",
):
    """The smoke scenario: small, faulted, sharded, every span kind."""
    from ..sim import DozeInterval, FaultPlan, ServerCrash, SimulationConfig

    base = dict(
        protocol="f-matrix",
        num_objects=40,
        object_size_bits=1024,
        timestamp_bits=4,
        modulo_timestamps=True,
        num_clients=6,
        num_update_clients=2,
        client_update_fraction=0.3,
        num_client_transactions=transactions,
        client_txn_length=4,
        seed=seed,
    )
    cb = SimulationConfig(**base).cycle_bits
    return SimulationConfig(
        shards=shards,
        timeline_mode=timeline_mode,
        tracing=True,
        faults=FaultPlan(
            doze=(DozeInterval(1, 5 * cb, 3 * cb),),
            crashes=(ServerCrash(14.5 * cb, 2.5 * cb),),
            uplink_loss_probability=0.3,
        ),
        **base,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Traced simulation runs and Chrome-trace tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run the traced smoke scenario and export its spans"
    )
    run.add_argument("--transactions", type=int, default=10)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--shards",
        type=int,
        default=2,
        help="reader-population shards (each becomes a Perfetto process lane)",
    )
    run.add_argument(
        "--timeline-mode",
        choices=["recompute", "replay"],
        default="replay",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard worker processes (0 = sequential in-process, the "
        "default: smoke runs are small and determinism matters more "
        "than speed)",
    )
    run.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="TRACE.JSON",
        help="write the Chrome trace-event document here",
    )
    run.add_argument(
        "--spans",
        type=pathlib.Path,
        default=None,
        metavar="SPANS.JSONL",
        help="write the canonical span stream here, one JSON object per line",
    )
    run.add_argument(
        "--summary",
        action="store_true",
        help="print the span summary table and the run's telemetry",
    )

    summarize = sub.add_parser(
        "summarize", help="summarize a previously written Chrome trace"
    )
    summarize.add_argument("trace", type=pathlib.Path, metavar="TRACE.JSON")
    return parser


def _run_smoke(parser: argparse.ArgumentParser, args: argparse.Namespace):
    from ..sim import run_simulation
    from ..sim.shard import run_sharded

    try:
        config = smoke_config(
            transactions=args.transactions,
            seed=args.seed,
            shards=args.shards,
            timeline_mode=args.timeline_mode,
        )
    except ValueError as exc:  # a flag value SimulationConfig rejects
        parser.exit(2, f"error: {exc}\n")
    if config.shards > 1:
        return run_sharded(config, workers=args.workers)
    return run_simulation(config)


def _cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    claim_output(parser, "--out", args.out)
    claim_output(parser, "--spans", args.spans)
    result = _run_smoke(parser, args)
    spans = result.spans or []
    telemetry = result.telemetry()
    # truncate each lane with the same predicate canonical_spans uses, so
    # the artifact's span counts reconcile with the counters it carries
    # (the raw primary stream includes extension-phase timeline spans
    # beyond the merged stop time)
    lanes = [
        [s for s in lane if s.start <= result.sim_time]
        for lane in (result.shard_spans or [spans])
    ]
    document = chrome_trace(
        lanes,
        counters=telemetry["counters"],
        profile=result.profile,
    )
    print(
        f"traced run: {len(spans)} spans across "
        f"{len(result.shard_spans or [spans])} shard lane(s), "
        f"{result.spans_dropped} dropped, "
        f"{result.metrics.commit_count} commits"
    )
    if args.out is not None:
        args.out.write_text(json.dumps(document) + "\n")
        print(f"wrote {args.out}")
    if args.spans is not None:
        from .export import spans_to_jsonl

        args.spans.write_text(spans_to_jsonl(spans) + "\n")
        print(f"wrote {args.spans}")
    if args.summary:
        print()
        print(summarize_spans(spans))
        print()
        print(render_telemetry(telemetry))
    return 0


def _cmd_summarize(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        summary = summarize_trace_events(json.loads(args.trace.read_text()))
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        # a missing or unreadable file, not JSON, or JSON of the wrong shape
        parser.exit(2, f"error: {args.trace}: not a readable Chrome trace ({exc!r})\n")
    print(summary)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(parser, args)
    return _cmd_summarize(parser, args)


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
