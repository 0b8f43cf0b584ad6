"""Span exporters: JSON-lines, Chrome trace-event format, text summary.

The Chrome trace-event output loads directly in Perfetto / chrome://
tracing.  Sim-time bit units are written as microseconds (``ts``/
``dur``), which renders one bit as one "µs" on the timeline — the
absolute unit is meaningless to the viewer, the relative layout is
exact.  Shards become process lanes (pid = shard index), clients and
the timeline tracks become threads within them.
"""

import argparse
import json
import pathlib
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .tracer import Span

__all__ = [
    "claim_output",
    "chrome_trace",
    "spans_to_jsonl",
    "summarize_spans",
    "summarize_trace_events",
]

#: thread names for the timeline track's lanes (``Span.track_id``)
_TIMELINE_LANES = {0: "broadcast", 1: "server", 2: "recovery"}

#: offset separating timeline-lane tids from client tids within a pid
_TIMELINE_TID_BASE = 1_000_000_000


def claim_output(
    parser: argparse.ArgumentParser, flag: str, path: Optional[pathlib.Path]
) -> None:
    """Create the directory ``path`` will be written into, or exit 2 — before
    the run that produces the artifact: found afterwards, it loses the work."""
    if path is None:
        return
    if path.is_dir():
        parser.exit(2, f"error: {flag} {path}: is a directory\n")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.exit(2, f"error: {flag} {path}: {exc}\n")


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, fields in Span order."""
    return "\n".join(
        json.dumps(
            {
                "start": span.start,
                "end": span.end,
                "track": span.track,
                "track_id": span.track_id,
                "name": span.name,
                "status": span.status,
                "detail": span.detail,
            },
            sort_keys=True,
        )
        for span in spans
    )


def _thread_name(span: Span) -> str:
    if span.track == "timeline":
        return _TIMELINE_LANES.get(span.track_id, f"timeline {span.track_id}")
    return f"client {span.track_id}"


def _tid(span: Span) -> int:
    if span.track == "timeline":
        return _TIMELINE_TID_BASE + span.track_id
    return span.track_id


def chrome_trace(
    shard_spans: Sequence[Sequence[Span]],
    counters: Optional[Dict[str, float]] = None,
    profile: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Chrome trace-event JSON document (a dict, ready to ``json.dump``).

    ``shard_spans[0]`` is the primary shard (which also owns the
    timeline track); each shard becomes a process lane.  ``counters``
    and ``profile`` ride along under ``otherData`` so one artifact
    carries spans, end-of-run tallies, and wall-clock phase times.
    """
    events: List[Dict[str, Any]] = []
    for pid, spans in enumerate(shard_spans):
        label = "shard 0 (timeline)" if pid == 0 else f"shard {pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        named: Dict[int, str] = {}
        for span in spans:
            tid = _tid(span)
            if tid not in named:
                named[tid] = _thread_name(span)
        for tid in sorted(named):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": named[tid]},
                }
            )
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.track,
                    "ph": "X",
                    "ts": span.start,
                    "dur": span.end - span.start,
                    "pid": pid,
                    "tid": _tid(span),
                    "args": {"status": span.status, "detail": span.detail},
                }
            )
    other: Dict[str, Any] = {"time_unit": "bits (rendered as us)"}
    if counters is not None:
        other["counters"] = counters
    if profile is not None:
        other["profile_seconds"] = profile
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def summarize_spans(spans: Sequence[Span]) -> str:
    """Terminal summary table: per (track, name) count/duration/status."""
    rows: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        key = f"{span.track}/{span.name}"
        row = rows.get(key)
        if row is None:
            row = rows[key] = {"count": 0, "bits": 0.0, "status": {}}
        row["count"] += 1
        row["bits"] += span.end - span.start
        row["status"][span.status] = row["status"].get(span.status, 0) + 1
    if not rows:
        return "no spans"
    width = max(len(k) for k in rows)
    lines = [
        f"{'span':<{width}}  {'count':>7}  {'mean bits':>10}  statuses"
    ]
    for key in sorted(rows):
        row = rows[key]
        mean = row["bits"] / row["count"]
        statuses = ", ".join(
            f"{status}={count}"
            for status, count in sorted(row["status"].items())
        )
        lines.append(f"{key:<{width}}  {row['count']:>7}  {mean:>10.1f}  {statuses}")
    return "\n".join(lines)


def summarize_trace_events(document: Dict[str, Any]) -> str:
    """Summarize a loaded Chrome trace document (the ``summarize``
    command of ``repro-trace``)."""
    spans = [
        Span(
            float(ev["ts"]),
            float(ev["ts"]) + float(ev.get("dur", 0.0)),
            str(ev.get("cat", "")),
            int(ev["tid"]) % _TIMELINE_TID_BASE,
            str(ev["name"]),
            str(ev.get("args", {}).get("status", "")),
            str(ev.get("args", {}).get("detail", "")),
        )
        for ev in document.get("traceEvents", [])
        if ev.get("ph") == "X"
    ]
    lines = [summarize_spans(spans)]
    other = document.get("otherData", {})
    counters = other.get("counters")
    if counters:
        interesting = {
            k: v for k, v in counters.items() if v
        }
        lines.append("")
        lines.append("nonzero counters:")
        width = max(len(k) for k in interesting) if interesting else 0
        for name in sorted(interesting):
            value = interesting[name]
            shown = int(value) if value == int(value) else value
            lines.append(f"  {name:<{width}}  {shown}")
    profile = other.get("profile_seconds")
    if profile:
        lines.append("")
        lines.append("wall-clock phases (s):")
        width = max(len(k) for k in profile)
        for name, seconds in profile.items():
            lines.append(f"  {name:<{width}}  {seconds:.3f}")
    return "\n".join(lines)
