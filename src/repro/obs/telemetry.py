"""End-of-run telemetry: one document per finished result, and its text form.

:func:`telemetry_from_result` reads the *merged* collector of a finished
``SimulationResult`` — its counters already crossed the shard and replay
boundaries via ``MetricsCollector.merge_from`` / ``fold_journal`` — so
the document inherits shard-order and replay correctness and needs no
merge rule of its own.
"""

from typing import Any, Dict, Iterable, List

__all__ = ["telemetry_from_result", "render_telemetry"]


def _histogram(values: Iterable[float]) -> Dict[str, Any]:
    """Power-of-two buckets: bucket ``k`` counts observations in
    ``(2**(k-1), 2**k]``, bucket 0 everything ``<= 1`` including zeros —
    O(log range) entries whatever the sample count."""
    counts: Dict[int, int] = {}
    total = 0
    value_sum = 0.0
    for value in values:
        bucket = 0
        upper = 1.0
        while value > upper:
            upper *= 2.0
            bucket += 1
        counts[bucket] = counts.get(bucket, 0) + 1
        total += 1
        value_sum += value
    return {
        "type": "histogram",
        "total": total,
        "sum": value_sum,
        "buckets": {str(k): counts[k] for k in sorted(counts)},
    }


def telemetry_from_result(result: Any) -> Dict[str, Dict[str, Any]]:
    """The telemetry document of a finished ``SimulationResult``.

    ``counters`` are ``commits``, every ``MetricsCollector.counters()``
    tally and, when present, the shard layer's numeric timeline stats
    under ``timeline.*``, all as floats; ``gauges`` carry run extent (stop
    time, kernel events); ``histograms`` bucket per-commit response times
    and restart counts from the collector's columns.
    """
    metrics = result.metrics
    counters = {"commits": float(metrics.commit_count)}
    for name, value in metrics.counters().items():
        counters[name] = float(value)
    for key, value in (result.timeline_stats or {}).items():
        if isinstance(value, (int, float)):  # bools count: cache_hit
            counters[f"timeline.{key}"] = float(value)
    histograms = {}
    if metrics.commit_count:
        histograms["response_time_bits"] = _histogram(
            metrics.response_times().tolist()
        )
        histograms["restarts"] = _histogram(metrics.restart_counts().tolist())
    return {
        "counters": counters,
        "gauges": {
            "sim_time": float(result.sim_time),
            "events": float(result.events),
        },
        "histograms": histograms,
    }


def render_telemetry(document: Dict[str, Dict[str, Any]]) -> str:
    """Plain-text table of a telemetry document for terminal output."""
    counters, gauges = document["counters"], document["gauges"]
    lines: List[str] = ["counters:"]
    width = max(len(name) for name in counters)
    for name, value in counters.items():
        shown = int(value) if value == int(value) else value
        lines.append(f"  {name:<{width}}  {shown}")
    lines.append("gauges:")
    width = max(len(name) for name in gauges)
    for name, value in gauges.items():
        lines.append(f"  {name:<{width}}  {value:g}")
    if document["histograms"]:  # none on a run that committed nothing
        lines.append("histograms:")
        for name, hist in document["histograms"].items():
            mean = hist["sum"] / hist["total"]
            buckets = ", ".join(f"2^{k}: {v}" for k, v in hist["buckets"].items())
            lines.append(
                f"  {name}: n={hist['total']} mean={mean:.1f} buckets={{{buckets}}}"
            )
    return "\n".join(lines)
