"""Persist experiment results as JSON.

:func:`save_result` / :func:`load_result` are a lossless JSON round-trip
of an :class:`repro.experiments.sweeps.ExperimentResult` (means, CIs,
sample counts, sim metadata).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Union

from ..sim.metrics import SummaryStat
from .sweeps import ExperimentResult, Point, Series

__all__ = ["save_result", "load_result"]

_FORMAT_VERSION = 1


def _stat_to_dict(stat: SummaryStat) -> Dict[str, float]:
    return {
        "mean": stat.mean,
        "stddev": stat.stddev,
        "count": stat.count,
        "ci_halfwidth": stat.ci_halfwidth,
    }


def _stat_from_dict(data: Dict[str, float]) -> SummaryStat:
    return SummaryStat(
        float(data["mean"]),
        float(data["stddev"]),
        int(data["count"]),
        float(data["ci_halfwidth"]),
    )


def save_result(result: ExperimentResult, path: Union[str, pathlib.Path]) -> None:
    """Serialise a result (atomically: write then rename)."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "name": result.name,
        "xlabel": result.xlabel,
        "series": {
            protocol: [
                {
                    "x": point.x,
                    "response_time": _stat_to_dict(point.response_time),
                    "restart_ratio": _stat_to_dict(point.restart_ratio),
                    "sim_time": point.sim_time,
                    "events": point.events,
                }
                for point in series.points
            ]
            for protocol, series in result.series.items()
        },
    }
    target = pathlib.Path(path)
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    tmp.replace(target)


def load_result(path: Union[str, pathlib.Path]) -> ExperimentResult:
    """Load a result saved by :func:`save_result`."""
    payload = json.loads(pathlib.Path(path).read_text())
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported results format version {version!r}")
    result = ExperimentResult(payload["name"], payload["xlabel"])
    for protocol, points in payload["series"].items():
        series = Series(protocol)
        for entry in points:
            series.points.append(
                Point(
                    x=float(entry["x"]),
                    response_time=_stat_from_dict(entry["response_time"]),
                    restart_ratio=_stat_from_dict(entry["restart_ratio"]),
                    sim_time=float(entry["sim_time"]),
                    events=int(entry["events"]),
                )
            )
        result.series[protocol] = series
    return result
