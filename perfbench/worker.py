"""One workload in a fresh process: set-up, warm-up, then timed repeats.

Started by :mod:`perfbench.bench` as ``python -m perfbench.worker``.  The
only lines on stdout are ``READY`` — printed when the first timed repeat
is about to start, which is how the parent measures ``setup_s`` — and the
JSON result document; everything else goes to stderr.

Modes: ``setup`` (exit after ``READY``), ``measure`` (timed repeats with
tracing off), ``trace`` (one untraced and one traced repeat), ``drivers``
(the isolated drivers, which do not depend on the workload).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from . import OUT_DIR, SMOKE_SCALE, load_expected, tracing
from .drivers import run_drivers
from .workloads import WORKLOADS, digest, layer_counts

__all__ = ["main"]

#: a run measured for ``--seconds`` still makes at least this many repeats
MIN_REPEATS = 3


def _timed_repeat(workload: Any, run: Optional[Any] = None) -> Dict[str, Any]:
    gc.collect()
    start = perf_counter()
    ops = (run or workload.repeat)()
    wall = perf_counter() - start
    commits = sum(op.commits for op in ops)
    return {"wall_s": wall, "commits": commits, "txn_per_s": commits / wall, "ops": ops}


def _pinned(workload: Any) -> Dict[str, str]:
    """Pinned digests for this (size, seed, workload), if any."""
    size = {1.0: "full", SMOKE_SCALE: "smoke"}.get(workload.scale)
    digests = load_expected()["digests"]
    return digests.get(size, {}).get(str(workload.seed), {}).get(workload.name, {})


def _judge(workload: Any, repeats: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Count attempted / failed operations over all repeats.

    Failed: raised or missed a check (``op.error``), differs from the first
    repeat's digest (non-deterministic), or differs from the pinned digest.
    """
    pinned = _pinned(workload)
    first = {op.key: op.digest for op in repeats[0]["ops"]}
    failures: List[str] = []
    attempted = 0
    for index, repeat in enumerate(repeats):
        for op in repeat["ops"]:
            attempted += 1
            if op.error:
                failures.append(f"repeat {index} {op.key}: {op.error}")
            elif op.digest != first[op.key]:
                failures.append(f"repeat {index} {op.key}: digest differs from repeat 0")
            elif pinned and op.digest != pinned.get(op.key):
                failures.append(f"repeat {index} {op.key}: digest differs from pin")
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "pinned": bool(pinned),
        "digests": first,
    }


def _describe(workload: Any, repeats: List[Dict[str, Any]]) -> Dict[str, Any]:
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    last_ops = repeats[-1]["ops"]
    stats = next((op.timeline_stats for op in last_ops if op.timeline_stats), None)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "scale": workload.scale,
        "sizes": workload.sizes,
        "execution": workload.execution(),
        "input_fingerprint": digest(workload.inputs()),
        "timeline_stats": stats,
        "repeats": [
            {key: value for key, value in repeat.items() if key != "ops"}
            for repeat in repeats
        ],
        **_judge(workload, repeats),
        "rss_self_mb": usage_self,
        "rss_children_mb": usage_children,
        "peak_rss_mb": usage_self + usage_children,
        "counts": layer_counts(last_ops, workload.pool_workers),
        "ops": [
            {"key": op.key, "commits": op.commits, "events": op.events}
            for op in last_ops
        ],
    }


def _measure(workload: Any, seconds: float, repeats: Optional[int]) -> Dict[str, Any]:
    """Timed repeats, tracing off: a fixed count, or for ``seconds``."""
    done: List[Dict[str, Any]] = []
    started = perf_counter()
    while True:
        done.append(_timed_repeat(workload))
        if repeats is not None:
            if len(done) >= repeats:
                break
        elif len(done) >= MIN_REPEATS and (
            perf_counter() - started + done[-1]["wall_s"] > seconds
        ):
            break
    return _describe(workload, done)


def _trace(workload: Any) -> Dict[str, Any]:
    """One untraced repeat, then one with the layer wrappers installed."""
    untraced = _timed_repeat(workload)
    with tracing.install() as recorder:
        traced = _timed_repeat(
            workload, lambda: recorder.root("repeat", workload.repeat)
        )
    recorder.write_chrome_trace(OUT_DIR / f"trace-{workload.name}.json")
    document = _describe(workload, [untraced, traced])
    document["trace"] = recorder.aggregate("repeat")
    document["trace_overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    return document


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker", description=__doc__)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "trace", "drivers"), required=True
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--repeats", type=int)
    parser.add_argument(
        "--quick", action="store_true", help="one batch per macro driver"
    )
    args = parser.parse_args(argv)

    if args.mode == "drivers":
        print("READY", flush=True)
        print(json.dumps(run_drivers(args.seed, quick=args.quick)))
        return 0

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    workload.warm_up()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "measure":
        document = _measure(workload, args.seconds, args.repeats)
    else:
        document = _trace(workload)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
