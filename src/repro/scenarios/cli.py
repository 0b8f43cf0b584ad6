"""``repro-experiments scenario ...`` — the scenario subcommand.

Four verbs over the scenario library (docs/SCENARIOS.md):

* ``scenario list`` — the shipped scenarios, their seeds and protocols;
* ``scenario run NAME... | --all`` — the one place a configuration is
  run and judged: every run is checked against its envelope, and on
  request audited (``--audit``), certified (``--consistency LEVEL``) and
  traced (``--trace-out`` / ``--spans`` / ``--summary``);
* ``scenario record NAME --out FILE`` — capture a replayable trace;
* ``scenario replay FILE [--executor E]`` — re-drive a trace, assert
  bit-identity with the recording.

Exit codes follow the repo-wide contract: **0** every requested check
passed, **1** an envelope missed, an invariant or consistency check
found a violation, or a replay diverged, **2** usage errors (one
``error:`` line, before anything runs) and an ``OSError`` the run
raised, such as a full ``/dev/shm`` refusing a timeline segment (one
``error:`` line, no traceback).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..obs.export import chrome_trace, claim_output, spans_to_jsonl, summarize_spans
from ..obs.profiler import PhaseProfiler
from ..obs.telemetry import render_telemetry
from ..sim.config import EXECUTORS, SimulationConfig
from .envelope import scenario_metrics
from .loader import builtin_scenarios, get_scenario
from .recording import RecordedTrace, record_scenario, replay_trace
from .schema import Scenario, ScenarioError

if TYPE_CHECKING:
    from ..sim.simulation import SimulationResult

__all__ = ["build_scenario_parser", "scenario_main"]

def build_scenario_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments scenario",
        description="Run, record and replay declarative scenarios "
        "(docs/SCENARIOS.md).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("list", help="show the shipped scenario library")

    run = sub.add_parser(
        "run", help="run scenarios and check their metric envelopes"
    )
    run.add_argument(
        "names",
        nargs="*",
        help="library scenario names or paths to scenario files",
    )
    run.add_argument(
        "--all", action="store_true", help="run every library scenario"
    )
    run.add_argument(
        "--protocol",
        default=None,
        help="force one protocol instead of the scenario's list",
    )
    run.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="override the scenario's client executor ('process' is the "
        "reference implementation)",
    )
    run.add_argument(
        "--no-envelope",
        action="store_true",
        help="report metrics but never fail on envelope misses",
    )
    run.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="write a JSON summary of every run and every verdict",
    )
    run.add_argument(
        "--audit",
        action="store_true",
        help="check every registered protocol invariant against each run "
        "(a scenario whose config says 'audit: true' is audited anyway)",
    )
    run.add_argument(
        "--consistency",
        action="append",
        default=[],
        metavar="LEVEL",
        help="certify each run's history at this isolation level "
        "(repeatable); 'update' checks the paper's update-consistency "
        "guarantee, 'all' runs every level checker",
    )
    run.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="TRACE.JSON",
        help="trace the run (exactly one) and write its Chrome "
        "trace-event document here",
    )
    run.add_argument(
        "--spans",
        type=pathlib.Path,
        default=None,
        metavar="SPANS.JSONL",
        help="trace the run and write the canonical span stream here, one "
        "JSON object per line",
    )
    run.add_argument(
        "--summary",
        action="store_true",
        help="trace the run and print its span summary table and telemetry",
    )

    record = sub.add_parser(
        "record", help="run one scenario and save a replayable trace"
    )
    record.add_argument("name", help="library scenario name or file path")
    record.add_argument(
        "--out", type=pathlib.Path, required=True, help="trace file to write"
    )
    record.add_argument(
        "--protocol", default=None, help="protocol (default: scenario's first)"
    )
    record.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="executor to record under (default: the scenario's — cohort "
        "unless it names one; 'process' records the reference)",
    )

    replay = sub.add_parser(
        "replay", help="re-drive a recorded trace and assert bit-identity"
    )
    replay.add_argument("trace", type=pathlib.Path, help="recorded trace file")
    replay.add_argument(
        "--executor",
        choices=EXECUTORS,
        default=None,
        help="executor to replay through (default: the recorded one); "
        "picking another executor is the cross-engine identity check",
    )
    return parser


def _cmd_list() -> int:
    library = builtin_scenarios()
    if not library:
        print("scenario library is empty")
        return 0
    print(f"{len(library)} library scenario(s):")
    for name in sorted(library):
        scenario = library[name]
        envelope = (
            f"{len(scenario.envelope.bounds)} envelope bound(s)"
            if scenario.envelope is not None
            else "no envelope"
        )
        print(
            f"  {name}  seed={scenario.seed}  "
            f"protocols={','.join(scenario.protocols)}  {envelope}"
        )
        if scenario.description:
            print(f"      {scenario.description}")
    return 0


def _consistency_checks(requested: List[str]) -> Tuple[List[str], bool]:
    """``--consistency`` entries as (levels in request order, each once;
    whether ``update`` was asked)."""
    from ..analysis.consistency import LEVELS

    levels: List[str] = []
    update = False
    for entry in requested:
        if entry == "update":
            update = True
        elif entry == "all":
            levels.extend(lv for lv in LEVELS if lv not in levels)
        elif entry not in LEVELS:
            raise ValueError(
                f"unknown consistency level {entry!r}; known levels: "
                f"{', '.join(LEVELS)}, update, all"
            )
        elif entry not in levels:
            levels.append(entry)
    return levels, update


def _export_trace(result: "SimulationResult", args: argparse.Namespace) -> None:
    spans = result.spans or []
    lanes = result.shard_spans or [spans]
    print(
        f"  traced run: {len(spans)} spans across {len(lanes)} shard lane(s), "
        f"{result.spans_dropped} dropped, {result.metrics.commit_count} commits"
    )
    if args.spans is not None:
        args.spans.write_text(spans_to_jsonl(spans) + "\n")
        print(f"wrote {args.spans}")
    if args.trace_out is None and not args.summary:
        return
    telemetry = result.telemetry()
    if args.trace_out is not None:
        # truncate each lane with the predicate canonical_spans uses, so
        # the artifact's span counts reconcile with the counters it
        # carries (the raw primary stream includes extension-phase
        # timeline spans beyond the merged stop time)
        document = chrome_trace(
            [[s for s in lane if s.start <= result.sim_time] for lane in lanes],
            counters=telemetry["counters"],
            profile=result.profile,
        )
        args.trace_out.write_text(json.dumps(document) + "\n")
        print(f"wrote {args.trace_out}")
    if args.summary:
        print()
        print(summarize_spans(spans))
        print()
        print(render_telemetry(telemetry))


def _cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from ..sim.simulation import run_simulation

    if args.all and args.names:
        raise ValueError("give scenario names or --all, not both")
    if not args.all and not args.names:
        raise ValueError("give at least one scenario name (or --all)")
    if args.all:
        scenarios = [s for _, s in sorted(builtin_scenarios().items())]
    else:
        scenarios = [get_scenario(name) for name in args.names]
    levels, update = _consistency_checks(args.consistency)
    certified = bool(levels or update)
    traced = bool(args.trace_out or args.spans or args.summary)

    overrides: Dict[str, object] = {}
    if args.executor is not None:
        overrides["client_executor"] = args.executor
    if traced:
        overrides["tracing"] = True
    # every configuration is built before the first run: a usage error
    # costs no simulation.  Audit and certification read a global trace,
    # which a run whose readers_apart is set does not keep (the config's
    # audit refusal says why): asked for by name that is a usage error;
    # under --all the run keeps its envelope check and is listed as
    # unchecked.
    plans: List[Tuple[Scenario, SimulationConfig, Optional[str]]] = []
    for scenario in scenarios:
        for protocol in [args.protocol] if args.protocol else scenario.protocols:
            config = scenario.config_for(protocol, **overrides)
            untraceable = None
            if args.audit or certified:
                try:
                    audited = config.replace(audit=True)
                except ValueError as exc:
                    if not args.all:
                        raise ValueError(
                            f"{scenario.name}/{protocol}: not traceable: {exc}"
                        ) from exc
                    untraceable = str(exc)
                else:
                    config = audited if args.audit else config
            plans.append((scenario, config, untraceable))
    if traced and len(plans) != 1:
        raise ValueError(
            f"--trace-out / --spans / --summary export one run's trace; "
            f"{len(plans)} runs were selected"
        )
    claim_output(parser, "--output", args.output)
    claim_output(parser, "--trace-out", args.trace_out)
    claim_output(parser, "--spans", args.spans)

    runs: List[Dict[str, object]] = []
    unchecked: List[Dict[str, str]] = []
    failed = 0
    for scenario, config, untraceable in plans:
        certify_run = certified and untraceable is None
        profiler = PhaseProfiler()
        with profiler.phase("run"):
            result = run_simulation(config, collect_trace=certify_run)
        elapsed = profiler.as_dict()["run"]
        metrics = scenario_metrics(result)
        entry: Dict[str, object] = {
            "scenario": scenario.name,
            "protocol": config.protocol,
            "seed": scenario.seed,
            "config_fingerprint": config.fingerprint(),
            "executor": config.client_executor,
            "shards": config.shards,
            "timeline_mode": config.timeline_mode,
            "metrics": metrics,
            "wall_seconds": elapsed,
        }
        if result.timeline_stats is not None:
            entry["timeline_stats"] = result.timeline_stats
        line = (
            f"[{scenario.name}/{config.protocol}] "
            f"commits={metrics['commits']:g} "
            f"response={metrics['response_time_mean']:.0f} "
            f"restarts={metrics['restart_ratio_mean']:.3f} "
            f"({elapsed:.1f}s)"
        )
        # every verdict has .ok and .to_dict(); the envelope's goes on the
        # run's line, the others' own renderings under it
        verdicts: Dict[str, Any] = {}
        if scenario.envelope is not None and not args.no_envelope:
            report = verdicts["envelope"] = scenario.envelope.check(result)
            if report.ok:
                line += f"  envelope ok ({len(report.checks)} bounds)"
            else:
                line += "  ENVELOPE MISS"
                for miss in report.misses:
                    line += f"\n    {miss.describe()}"
        print(line)
        if result.audit_report is not None:
            verdicts["audit"] = result.audit_report
        if certify_run:
            from ..analysis.consistency import certify, certify_update_consistency

            assert result.trace is not None and result.server is not None
            history = result.trace.transactional_history(result.server.database)
            if levels:
                verdicts["consistency"] = certify(history, levels)
            if update:
                verdicts["update_consistency"] = certify_update_consistency(history)
        for key, report in verdicts.items():
            entry[key] = report.to_dict()
            if key != "envelope":
                print(f"  {key.replace('_', ' ')}:")
                print("    " + report.format().replace("\n", "\n    "))
        if untraceable is not None:
            print(f"  not traceable: {untraceable}")
            unchecked.append(
                {
                    "scenario": scenario.name,
                    "protocol": config.protocol,
                    "reason": untraceable,
                }
            )
        if result.spans is not None:
            entry["spans"] = len(result.spans)
            entry["spans_dropped"] = result.spans_dropped
            _export_trace(result, args)
        if not all(report.ok for report in verdicts.values()):
            failed += 1
        runs.append(entry)
    if args.output is not None:
        document = {"ok": failed == 0, "runs": runs, "unchecked": unchecked}
        args.output.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {args.output}")
    if failed:
        print(f"{failed} of {len(runs)} run(s) failed a check")
        return 1
    return 0


def _cmd_record(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    scenario = get_scenario(args.name)
    claim_output(parser, "--out", args.out)
    profiler = PhaseProfiler()
    with profiler.phase("record"):
        _result, trace = record_scenario(
            scenario, protocol=args.protocol, executor=args.executor
        )
        trace.save(args.out)
    elapsed = profiler.as_dict()["record"]
    print(
        f"recorded {scenario.name} under {trace.recorded_executor} "
        f"({elapsed:.1f}s): digest {trace.digest[:12]}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trace = RecordedTrace.load(args.trace)
    profiler = PhaseProfiler()
    with profiler.phase("replay"):
        _result, report = replay_trace(trace, executor=args.executor)
    elapsed = profiler.as_dict()["replay"]
    print(report.describe())
    print(f"({elapsed:.1f}s)")
    return 0 if report.ok else 1


def scenario_main(argv: Optional[List[str]] = None) -> int:
    parser = build_scenario_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "list":
            return _cmd_list()
        if args.verb == "run":
            return _cmd_run(parser, args)
        if args.verb == "record":
            return _cmd_record(parser, args)
        return _cmd_replay(args)
    except (ScenarioError, ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2  # pragma: no cover - exit() raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(scenario_main())
