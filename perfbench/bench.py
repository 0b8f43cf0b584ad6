"""Driver side: start one fresh worker after another, reduce their documents.

End-to-end metrics come only from ``measure`` (tracing off); per-layer
metrics only from ``trace``.  ``setup_s`` is taken here, not in the worker:
from just before the interpreter is started to the ``READY`` line, so it
covers interpreter start, imports, input generation and the warm-up.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import ROOT, SMOKE_SCALE

__all__ = ["WorkerError", "measure", "trace", "drivers", "layer_metrics"]

#: set-ups per measured run, each in a fresh process; ``setup_s`` is their
#: median.  The builder contract asks for several: with one sample of a
#: 1-3 s set-up per run, the medians of two ten-run passes on the reference
#: host were 18 % apart on ``sharded-replay``.
SETUP_SAMPLES = 3

#: a worker that runs longer than this is killed (the contract allows 180 s
#: for a whole run, set-up workers included)
WORKER_TIMEOUT_S = 150.0


class WorkerError(RuntimeError):
    """A worker exited non-zero, timed out, or printed no result."""


def _kill_group(process: "subprocess.Popen[str]") -> None:
    # the worker leads its own session, so this also reaches its pool workers
    if process.poll() is None:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _spawn(mode: str, *flags: str, **options: object) -> Tuple[Dict[str, Any], float]:
    """Run one worker to completion; its document and its set-up seconds."""
    command = [sys.executable, "-m", "perfbench.worker", "--mode", mode, *flags]
    for name, value in options.items():
        if value is not None:
            command += [f"--{name}", str(value)]
    started = perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, _kill_group, [process])
    watchdog.start()
    try:
        assert process.stdout is not None
        ready = process.stdout.readline()
        setup_s = perf_counter() - started
        rest = process.stdout.read()
        code = process.wait()
    finally:
        watchdog.cancel()
        _kill_group(process)
        process.wait()
    if code != 0 or ready.strip() != "READY":
        raise WorkerError(f"{' '.join(command)} exited with code {code}")
    lines = rest.strip().splitlines()
    return (json.loads(lines[-1]) if lines else {}), setup_s


def _stat(samples: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median with the sample count, min and max beside it.

    Three to seven samples support no percentile above the median, so none
    is reported.
    """
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "n": len(samples),
        "min": min(samples),
        "max": max(samples),
    }


def measure(
    workload: str,
    seed: int,
    *,
    smoke: bool = False,
    seconds: float = 0.0,
    repeats: Optional[int] = None,
) -> Dict[str, Any]:
    """End-to-end metrics of one workload, tracing off.

    The set-up is done ``SETUP_SAMPLES`` times, each in a fresh process
    (all but the last exit at ``READY``), and ``setup_s`` is their median.
    A smoke run is 1/20 size, one repeat, one set-up.
    """
    common = dict(workload=workload, seed=seed, scale=SMOKE_SCALE if smoke else 1.0)
    setups: List[float] = [
        _spawn("setup", **common)[1] for _ in range(0 if smoke else SETUP_SAMPLES - 1)
    ]
    document, setup_s = _spawn(
        "measure", seconds=seconds, repeats=1 if smoke else repeats, **common
    )
    setups.append(setup_s)
    document["metrics"] = {
        "txn_per_s": _stat([r["txn_per_s"] for r in document["repeats"]], "txn/s"),
        "peak_rss_mb": {"value": document["peak_rss_mb"], "unit": "MiB"},
        "setup_s": _stat(setups, "s"),
        "failed_share": {
            "value": document["failed"] / document["attempted"],
            "unit": "ratio",
            "failed": document["failed"],
            "attempted": document["attempted"],
        },
    }
    return document


def trace(workload: str, seed: int, *, smoke: bool = False) -> Dict[str, Any]:
    """The traced run of one workload; never a source of end-to-end metrics."""
    scale = SMOKE_SCALE if smoke else 1.0
    return _spawn("trace", workload=workload, seed=seed, scale=scale)[0]


def drivers(seed: int, *, quick: bool) -> Dict[str, Any]:
    """The isolated drivers, in their own fresh process."""
    return _spawn("drivers", *(["--quick"] if quick else []), seed=seed)[0]


def layer_metrics(
    traced: Dict[str, Any], driver_metrics: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric by its ``BENCHMARK.json`` name: spans (c),
    counts (a) and isolated drivers (b)."""
    out: Dict[str, float] = {}
    for name, aggregate in traced["trace"]["callables"].items():
        out[f"{name}.calls"] = aggregate["calls"]
        out[f"{name}.self_s"] = aggregate["self_s"]
    out["unattributed_s"] = traced["trace"]["unattributed_s"]
    out["trace_overhead_ratio"] = traced["trace_overhead_ratio"]
    out.update(traced["counts"])
    out.update(driver_metrics)
    return out
