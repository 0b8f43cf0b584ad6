"""Scenario DSL + trace record/replay (docs/SCENARIOS.md).

The front door for workloads: instead of hand-building
:class:`repro.sim.SimulationConfig` objects, a run is described by a
small declarative document (YAML or JSON) that composes workload shape,
fault plan, caching/currency tiers, broadcast layout, executor/shard/
timeline-mode choice and a protocol list — validated into configs by
:mod:`repro.scenarios.schema`.

* :mod:`repro.scenarios.schema` — the format, validation, and
  ``Scenario.config_for()``;
* :mod:`repro.scenarios.loader` — YAML/JSON parsing plus the shipped
  library of named, seeded scenarios under ``library/``;
* :mod:`repro.scenarios.envelope` — expected-metric envelopes (ranges
  for response time, restart ratio, abort causes, cache hit rate …)
  checked in CI by ``make scenario-smoke``;
* :mod:`repro.scenarios.recording` — record a run's
  :class:`repro.sim.trace.TraceRecorder` observables to a versioned
  file and re-drive any engine or executor from it, asserting
  bit-identity where the determinism contract promises it;
* :mod:`repro.scenarios.cli` — the ``repro-experiments scenario
  list|run|record|replay`` subcommand; ``run`` is the one command that
  runs a configuration, and audit / certification / tracing are checks
  asked of it.
"""

from __future__ import annotations

from .envelope import (
    ENVELOPE_METRICS,
    EnvelopeCheck,
    EnvelopeReport,
    MetricBound,
    MetricEnvelope,
    scenario_metrics,
)
from .loader import (
    builtin_scenarios,
    get_scenario,
    library_dir,
    library_paths,
    load_scenario,
    loads_scenario,
)
from .recording import (
    TRACE_FORMAT_VERSION,
    RecordedTrace,
    ReplayReport,
    record_config,
    record_scenario,
    replay_trace,
    result_signature,
)
from .schema import (
    SCENARIO_FORMAT_VERSION,
    Scenario,
    ScenarioError,
    parse_scenario,
)

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "TRACE_FORMAT_VERSION",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "load_scenario",
    "loads_scenario",
    "builtin_scenarios",
    "get_scenario",
    "library_dir",
    "library_paths",
    "ENVELOPE_METRICS",
    "MetricBound",
    "MetricEnvelope",
    "EnvelopeCheck",
    "EnvelopeReport",
    "scenario_metrics",
    "RecordedTrace",
    "ReplayReport",
    "record_config",
    "record_scenario",
    "replay_trace",
    "result_signature",
]
