"""``repro-experiments scenario ...`` — the scenario subcommand.

Four verbs over the scenario library (docs/SCENARIOS.md):

* ``scenario list`` — the shipped scenarios, their seeds and protocols;
* ``scenario run NAME... | --all`` — run scenarios, check envelopes;
* ``scenario record NAME --out FILE`` — capture a replayable trace;
* ``scenario replay FILE [--executor E]`` — re-drive a trace, assert
  bit-identity with the recording.

Exit codes follow the repo-wide contract: **0** all checks passed,
**1** an envelope missed or a replay diverged, **2** usage errors.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional

from ..obs.export import claim_output
from ..obs.profiler import PhaseProfiler
from .envelope import scenario_metrics
from .loader import builtin_scenarios, get_scenario
from .recording import RecordedTrace, record_scenario, replay_trace
from .schema import Scenario, ScenarioError

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
        choices=["process", "cohort", "analytic"],
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
        help="write a JSON summary of every run",
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
        choices=["process", "cohort"],
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
        choices=["process", "cohort"],
        default=None,
        help="executor to replay through (default: the recorded one); "
        "picking the other executor is the cross-engine identity check",
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


def _run_scenarios(
    scenarios: List[Scenario], args: argparse.Namespace
) -> int:
    from ..sim.simulation import run_simulation

    runs: List[Dict[str, object]] = []
    failures = 0
    for scenario in scenarios:
        protocols = (
            [args.protocol]
            if args.protocol is not None
            else list(scenario.protocols)
        )
        for protocol in protocols:
            overrides: Dict[str, object] = {}
            if args.executor is not None:
                overrides["client_executor"] = args.executor
            config = scenario.config_for(protocol, **overrides)
            profiler = PhaseProfiler()
            with profiler.phase("run"):
                result = run_simulation(config)
            elapsed = profiler.as_dict()["run"]
            metrics = scenario_metrics(result)
            entry: Dict[str, object] = {
                "scenario": scenario.name,
                "protocol": protocol,
                "seed": scenario.seed,
                "executor": config.client_executor,
                "metrics": metrics,
                "wall_seconds": elapsed,
            }
            line = (
                f"[{scenario.name}/{protocol}] "
                f"commits={metrics['commits']:g} "
                f"response={metrics['response_time_mean']:.0f} "
                f"restarts={metrics['restart_ratio_mean']:.3f} "
                f"({elapsed:.1f}s)"
            )
            if scenario.envelope is not None and not args.no_envelope:
                report = scenario.envelope.check(result)
                entry["envelope"] = report.to_dict()
                if report.ok:
                    line += f"  envelope ok ({len(report.checks)} bounds)"
                else:
                    failures += 1
                    line += "  ENVELOPE MISS"
                    for miss in report.misses:
                        line += f"\n    {miss.describe()}"
            print(line)
            runs.append(entry)
    if args.output is not None:
        args.output.write_text(
            json.dumps({"ok": failures == 0, "runs": runs}, indent=2) + "\n"
        )
        print(f"wrote {args.output}")
    if failures:
        print(f"{failures} envelope miss(es)")
        return 1
    return 0


def _cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.all and args.names:
        parser.error("give scenario names or --all, not both")
    if not args.all and not args.names:
        parser.error("give at least one scenario name (or --all)")
    if args.all:
        scenarios = [s for _, s in sorted(builtin_scenarios().items())]
    else:
        scenarios = [get_scenario(name) for name in args.names]
    claim_output(parser, "--output", args.output)
    return _run_scenarios(scenarios, args)


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
    except (ScenarioError, ValueError) as exc:
        parser.exit(2, f"error: {exc}\n")
        return 2  # pragma: no cover - exit() raises


if __name__ == "__main__":  # pragma: no cover
    sys.exit(scenario_main())
