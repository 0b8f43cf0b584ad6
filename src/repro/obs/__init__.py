"""Deterministic observability: spans, end-of-run telemetry, exporters.

The obs layer sits *outside* the deterministic simulation core in one
direction only: simulation code may emit sim-time-stamped spans into a
:class:`~repro.obs.tracer.Tracer`, but nothing in obs feeds back into
simulation behaviour.  Disabled tracing uses the :data:`NULL_TRACER`
singleton whose ``enabled`` flag short-circuits every hot-path guard, so
untraced runs stay bit-identical and allocation-free.

Wall-clock phase timing (:class:`~repro.obs.profiler.PhaseProfiler`)
lives here precisely because it is *not* deterministic: REP001 bans
wall-clock reads everywhere under ``src/repro``, and
``repro/obs/profiler.py`` holds its one suppressed site.
"""

from .tracer import NULL_TRACER, NullTracer, Span, Tracer, canonical_spans
from .telemetry import render_telemetry, telemetry_from_result
from .profiler import PhaseProfiler
from .export import (
    chrome_trace,
    spans_to_jsonl,
    summarize_spans,
    summarize_trace_events,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PhaseProfiler",
    "Span",
    "Tracer",
    "canonical_spans",
    "chrome_trace",
    "render_telemetry",
    "spans_to_jsonl",
    "summarize_spans",
    "summarize_trace_events",
    "telemetry_from_result",
]
