"""Command line: ``python -m perfbench run | trace | check-repeat``.

Exit codes follow the repo's CLI contract: 0 success, 1 a check failed
(a failed operation, a digest mismatch, a repeat outside its bound),
2 usage error.  ``perfbench/run.py`` is the one-workload entry point the
benchmark driver calls; it shares everything below.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import OUT_DIR, bench, load_spec
from .provenance import manifest

__all__ = ["main", "contract_main"]


def _write(path: Path, document: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {path}")


def _selected(args: argparse.Namespace, spec: Dict[str, Any]) -> List[str]:
    return [w["name"] for w in spec["workloads"]] if args.all else [args.workload]


def _print_metric(name: str, metric: Dict[str, Any]) -> None:
    line = f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}"
    if "n" in metric:
        line += f"   n={metric['n']} min={metric['min']:.6g} max={metric['max']:.6g}"
    if "attempted" in metric:
        line += f"   ({metric['failed']} of {metric['attempted']} operations failed)"
    print(line)


def _print_measured(document: Dict[str, Any]) -> None:
    print(
        f"{document['workload']}  seed={document['seed']} sizes={document['sizes']} "
        f"execution={document['execution']}"
    )
    for name, metric in document["metrics"].items():
        _print_metric(name, metric)
    for failure in document["failures"]:
        print(f"  FAILED {failure}")
    if document["pinned"]:
        print("  digests: match perfbench/expected.json")
    else:
        print("  digests (seed not pinned; compare parent and change by hand):")
        for key, value in document["digests"].items():
            print(f"    {key:<16} {value}")


def _print_traced(document: Dict[str, Any], units: Dict[str, str]) -> None:
    spans = document["trace"]
    root = spans["root_s"]
    print(
        f"{document['workload']}  seed={document['seed']} root={root:.4f} s  "
        f"spans={spans['spans_recorded']} (+{spans['spans_dropped']} beyond the cap)"
    )
    print(f"  {'callable':<44} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name, aggregate in sorted(
        spans["callables"].items(), key=lambda item: -item[1]["self_s"]
    ):
        print(
            f"  {name:<44} {aggregate['calls']:>9} {aggregate['self_s']:>10.4f} "
            f"{aggregate['self_s'] / root:>7.1%}"
        )
    print(f"  {'unattributed_s':<44} {'':>9} {spans['unattributed_s']:>10.4f} "
          f"{spans['unattributed_s'] / root:>7.1%}")
    print(f"  {'trace_overhead_ratio':<44} {document['trace_overhead_ratio']:>20.3f}"
          "   (traced / untraced wall)")
    for name, value in document["counts"].items():
        _print_metric(name, {"value": value, "unit": units.get(name, "")})
    for failure in document["failures"]:
        print(f"  FAILED {failure}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _measure_all(
    spec: Dict[str, Any],
    names: Sequence[str],
    seed: int,
    repeats: Optional[int],
    smoke: bool = False,
) -> Dict[str, Any]:
    """One fresh subprocess per workload, one after another."""
    workloads = {}
    for name in names:
        document = bench.measure(
            name, seed, smoke=smoke, seconds=spec["run_seconds"], repeats=repeats
        )
        _print_measured(document)
        workloads[name] = document
    return workloads


def _run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    document = {
        "manifest": manifest(args.seed),
        "workloads": _measure_all(
            spec, _selected(args, spec), args.seed, args.repeats, args.smoke
        ),
    }
    _write(args.output or OUT_DIR / "run.json", document)
    return 1 if any(w["failed"] for w in document["workloads"].values()) else 0


def _print_drivers(document: Dict[str, Any], units: Dict[str, str]) -> None:
    print("isolated drivers")
    for name, value in document["metrics"].items():
        _print_metric(name, {"value": value, "unit": units.get(name, "")})
    for failure in document["failures"]:
        print(f"  FAILED {failure}")
    if document["pinned"]:
        print("  checksums: match perfbench/expected.json")
    else:
        print(f"  checksums (seed not pinned): {json.dumps(document['checksums'])}")


def _trace(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = {}
    for name in _selected(args, spec):
        workloads[name] = bench.trace(name, args.seed, smoke=args.smoke)
        _print_traced(workloads[name], units)
    # the isolated drivers do not depend on the workload: once, in a
    # process of their own
    drivers = bench.drivers(args.seed, quick=args.smoke)
    _print_drivers(drivers, units)
    for document in workloads.values():
        document["layer_metrics"] = bench.layer_metrics(document, drivers["metrics"])
    _write(
        args.output or OUT_DIR / "trace.json",
        {"manifest": manifest(args.seed), "workloads": workloads, "drivers": drivers},
    )
    return 1 if any(d["failed"] for d in (*workloads.values(), drivers)) else 0


def _check_repeat(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """The full set twice, back to back; every end-to-end metric of every
    workload must agree within its own bound."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    sets = [_measure_all(spec, names, args.seed, args.repeats) for _ in range(2)]
    rows = []
    for name in names:
        first, second = (s[name]["metrics"] for s in sets)
        for metric, bound in bounds.items():
            a, b = first[metric]["value"], second[metric]["value"]
            difference = abs(a - b) / min(a, b)
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "first": a,
                    "second": b,
                    "relative_difference": difference,
                    "bound": bound["bound"],
                    "ok": difference <= bound["bound"],
                }
            )
        # not in BENCHMARK.json (an end-to-end metric may never be 0), and
        # its bound is "no failed operation", not "as many as last time"
        a, b = first["failed_share"], second["failed_share"]
        rows.append(
            {
                "workload": name,
                "metric": "failed_share",
                "first": a["value"],
                "second": b["value"],
                "relative_difference": abs(a["value"] - b["value"]),
                "bound": 0.0,
                "ok": a["failed"] == 0 and b["failed"] == 0,
            }
        )
    for row in rows:
        print(
            f"{row['workload']:<18} {row['metric']:<13} {row['first']:>12.6g} "
            f"{row['second']:>12.6g}  diff {row['relative_difference']:>7.2%} "
            f"bound {row['bound']:>5.0%}  {'ok' if row['ok'] else 'MISS'}"
        )
    ok = all(row["ok"] for row in rows)
    _write(
        args.output or OUT_DIR / "check-repeat.json",
        {"manifest": manifest(args.seed), "ok": ok, "comparison": rows, "sets": sets},
    )
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, *, selectable: bool = True) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_)
        sub.add_argument("--seed", type=int, default=42, help="workload seed (42)")
        sub.add_argument("--output", type=Path, help="where to write the JSON document")
        if selectable:
            which = sub.add_mutually_exclusive_group(required=True)
            which.add_argument("--workload", choices=names)
            which.add_argument("--all", action="store_true", help="all five workloads")
            sub.add_argument(
                "--smoke", action="store_true", help="1/20 size, one repeat"
            )
        return sub

    run = add("run", "end-to-end metrics, tracing off")
    run.add_argument(
        "--repeats", type=int, help="a fixed repeat count (default: run_seconds' worth)"
    )
    add("trace", "per-layer metrics: traced run + isolated drivers")
    check = add("check-repeat", "two full sets must agree", selectable=False)
    check.add_argument("--repeats", type=int, help="a fixed repeat count")
    args = parser.parse_args(argv)
    if getattr(args, "repeats", None) is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    handler = {"run": _run, "trace": _trace, "check-repeat": _check_repeat}
    try:
        return handler[args.command](args, spec)
    except bench.WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


# ----------------------------------------------------------------------
# the benchmark driver's entry point
# ----------------------------------------------------------------------

def contract_main(argv: Optional[Sequence[str]] = None) -> int:
    """``run.py --workload W --seed N --seconds S --trace 0|1``.

    The last stdout line is one JSON object with exactly ``correct``,
    ``attempted``, ``failed`` and ``metrics``: every end-to-end metric
    with tracing off, every per-layer metric from the traced run.
    """
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        return _contract_run(args, spec)
    except bench.WorkerError as exc:
        # no result line: the driver must see a failed run, not a number
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def _contract_run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        document = bench.trace(args.workload, args.seed)
        _print_traced(document, units)
        # one batch per macro driver keeps a traced run inside the time cap
        drivers = bench.drivers(args.seed, quick=True)
        _print_drivers(drivers, units)
        judged = [document, drivers]
        values = bench.layer_metrics(document, drivers["metrics"])
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        document = bench.measure(args.workload, args.seed, seconds=args.seconds)
        _print_measured(document)
        judged = [document]
        metrics = {
            m["name"]: {
                "value": document["metrics"][m["name"]]["value"],
                "unit": m["unit"],
            }
            for m in spec["end_to_end"]
        }
    failed = sum(d["failed"] for d in judged)
    result = {
        "correct": failed == 0,
        "attempted": sum(d["attempted"] for d in judged),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1
