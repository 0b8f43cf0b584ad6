"""Record a run's observable outcome; re-drive engines from the file.

The determinism contract (docs/DESIGN.md, docs/PERFORMANCE.md) promises
that a config plus its seed pins a run bit-for-bit, and that every
executor in ``EXECUTORS`` produces identical results.  This
module turns that promise into an executable artefact:

* :func:`record_scenario` / :func:`record_config` run a simulation with
  tracing on and capture a :class:`RecordedTrace` — the exact config
  (via :meth:`SimulationConfig.to_dict`), the committed-transaction
  observables (:meth:`TraceRecorder.observables`), and a metric
  signature — into a versioned JSON file;
* :func:`replay_trace` re-runs the recorded config under any eligible
  executor and asserts the replayed observables and signature are
  *bit-identical* to the recording, reporting the first divergence
  otherwise.

Eligibility is the contract's own boundary: a run records and replays
only where it keeps one global trace, which
:attr:`SimulationConfig.readers_apart` decides.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from ..sim.config import SimulationConfig

if TYPE_CHECKING:
    from ..sim.simulation import SimulationResult
    from .schema import Scenario

__all__ = [
    "TRACE_FORMAT_VERSION",
    "RecordedTrace",
    "ReplayMismatch",
    "ReplayReport",
    "result_signature",
    "record_config",
    "record_scenario",
    "replay_trace",
]

#: on-disk trace format revision; bump on incompatible changes (2: the
#: embedded config and fault plan lost the uplink retry, write-fraction
#: and steady-state-window keys, now constants)
TRACE_FORMAT_VERSION = 2


def result_signature(result: "SimulationResult") -> Dict[str, object]:
    """The metric fingerprint a bit-identical replay must reproduce."""
    return {
        "commits": result.metrics.commit_count,
        "counters": result.metrics.counters(),
        "response_mean": result.response_time.mean,
        "restart_mean": result.restart_ratio.mean,
        "sim_time": result.sim_time,
    }


def _canonical(payload: object) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _canonical_observables(
    observables: Mapping[str, object]
) -> Dict[str, object]:
    """Raw trace observables in executor-independent canonical form.

    The contract pins each committed transaction's content and each
    client's program order bit-for-bit; the *global interleaving* of
    simultaneous commits is an executor scheduling detail (the cohort
    executor coalesces same-slot clients, so ties drain in a different
    order than the per-process oracle).  Canonical form therefore sorts
    commits by transaction id and groups session order per client —
    everything the contract promises, nothing it does not.
    """
    commits = observables.get("client_commits", [])
    sessions = observables.get("session_commits", [])
    assert isinstance(commits, list) and isinstance(sessions, list)
    per_client: Dict[int, List[str]] = {}
    for client_id, tid in sessions:
        per_client.setdefault(int(client_id), []).append(str(tid))
    return {
        "client_commits": sorted(
            (dict(commit) for commit in commits),
            key=lambda commit: str(commit["tid"]),
        ),
        "session_commits": [
            [client_id, tids] for client_id, tids in sorted(per_client.items())
        ],
    }


def _check_replayable(config: SimulationConfig, *, verb: str) -> None:
    if config.readers_apart:
        raise ValueError(
            f"cannot {verb} a run with no global trace: {config.readers_apart}"
        )


@dataclass(frozen=True)
class RecordedTrace:
    """One recorded run: config, observables, and metric signature."""

    config: SimulationConfig
    #: :meth:`TraceRecorder.observables` of the recorded run, in
    #: canonical executor-independent form (commits sorted by tid,
    #: session order grouped per client)
    observables: Mapping[str, object]
    #: :func:`result_signature` of the recorded run
    signature: Mapping[str, object]
    #: executor the recording ran under (replays may pick another)
    recorded_executor: str = "process"
    #: scenario name, when recorded through one ("" for ad-hoc configs)
    scenario: str = ""

    @property
    def digest(self) -> str:
        """SHA-256 over the canonical observables + signature.

        Deliberately excludes the config: a replay under a different
        executor must reproduce this digest exactly — that *is* the
        bit-identity assertion.
        """
        return hashlib.sha256(
            _canonical({"observables": self.observables, "signature": self.signature})
        ).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "format_version": TRACE_FORMAT_VERSION,
            "scenario": self.scenario,
            "recorded_executor": self.recorded_executor,
            "config": self.config.to_dict(),
            "observables": dict(self.observables),
            "signature": dict(self.signature),
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RecordedTrace":
        version = payload.get("format_version")
        if version != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format_version {version!r} "
                f"(this build reads {TRACE_FORMAT_VERSION})"
            )
        config = payload.get("config")
        if not isinstance(config, Mapping):
            raise ValueError("trace file has no 'config' mapping")
        parsed = SimulationConfig.from_dict(dict(config))
        trace = cls(
            config=parsed,
            observables=payload.get("observables", {}),  # type: ignore[arg-type]
            signature=payload.get("signature", {}),  # type: ignore[arg-type]
            recorded_executor=str(
                payload.get("recorded_executor", parsed.client_executor)
            ),
            scenario=str(payload.get("scenario", "")),
        )
        stored = payload.get("digest")
        if stored is not None and stored != trace.digest:
            raise ValueError(
                "trace file is corrupt: stored digest "
                f"{stored!r} != recomputed {trace.digest!r}"
            )
        return trace

    def save(self, path: "Path | str") -> None:
        """Write the versioned trace file atomically."""
        target = Path(path)
        tmp = target.with_suffix(target.suffix + ".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        tmp.replace(target)

    @classmethod
    def load(cls, path: "Path | str") -> "RecordedTrace":
        source = Path(path)
        try:
            payload = json.loads(source.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"{source}: cannot read trace file: {exc}") from exc
        if not isinstance(payload, Mapping):
            raise ValueError(f"{source}: trace file must hold a JSON object")
        return cls.from_dict(payload)


def record_config(
    config: SimulationConfig, *, scenario_name: str = ""
) -> "Tuple[SimulationResult, RecordedTrace]":
    """Run ``config`` with tracing and capture a :class:`RecordedTrace`."""
    from ..sim.simulation import run_simulation

    _check_replayable(config, verb="record")
    result = run_simulation(config, collect_trace=True)
    if result.trace is None:
        raise RuntimeError("run produced no trace despite collect_trace=True")
    return result, RecordedTrace(
        config=config,
        observables=_canonical_observables(result.trace.observables()),
        signature=result_signature(result),
        recorded_executor=config.client_executor,
        scenario=scenario_name,
    )


def record_scenario(
    scenario: "Scenario",
    *,
    protocol: Optional[str] = None,
    executor: Optional[str] = None,
) -> "Tuple[SimulationResult, RecordedTrace]":
    """Record one of a scenario's runs (default: first protocol)."""
    overrides: Dict[str, object] = {}
    if executor is not None:
        overrides["client_executor"] = executor
    config = scenario.config_for(protocol, **overrides)
    return record_config(config, scenario_name=scenario.name)


@dataclass(frozen=True)
class ReplayMismatch:
    """One observed divergence between recording and replay."""

    where: str
    detail: str

    def describe(self) -> str:
        return f"{self.where}: {self.detail}"


@dataclass(frozen=True)
class ReplayReport:
    """The verdict of one replay run against its recording."""

    executor: str
    recorded_executor: str
    recorded_digest: str
    replayed_digest: str
    mismatches: Tuple[ReplayMismatch, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        head = (
            f"replay[{self.executor}] vs recording"
            f"[{self.recorded_executor}]: "
        )
        if self.ok:
            return head + f"bit-identical (digest {self.recorded_digest[:12]})"
        lines = [head + f"{len(self.mismatches)} divergence(s)"]
        lines.extend("  " + m.describe() for m in self.mismatches)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "executor": self.executor,
            "recorded_executor": self.recorded_executor,
            "recorded_digest": self.recorded_digest,
            "replayed_digest": self.replayed_digest,
            "mismatches": [
                {"where": m.where, "detail": m.detail} for m in self.mismatches
            ],
        }


def _diff_observables(
    recorded: Mapping[str, object], replayed: Mapping[str, object]
) -> List[ReplayMismatch]:
    out: List[ReplayMismatch] = []
    rec_commits = recorded.get("client_commits", [])
    rep_commits = replayed.get("client_commits", [])
    assert isinstance(rec_commits, list) and isinstance(rep_commits, list)
    if len(rec_commits) != len(rep_commits):
        out.append(
            ReplayMismatch(
                "client_commits",
                f"recorded {len(rec_commits)} commits, replayed "
                f"{len(rep_commits)}",
            )
        )
    for index, (a, b) in enumerate(zip(rec_commits, rep_commits)):
        if a != b:
            out.append(
                ReplayMismatch(
                    f"client_commits[{index}]",
                    f"recorded {json.dumps(a, sort_keys=True)} != replayed "
                    f"{json.dumps(b, sort_keys=True)}",
                )
            )
            break  # first divergence is the story; the rest is noise
    rec_sessions = dict(
        (entry[0], entry[1]) for entry in recorded.get("session_commits", [])
    )
    rep_sessions = dict(
        (entry[0], entry[1]) for entry in replayed.get("session_commits", [])
    )
    for client_id in sorted(set(rec_sessions) | set(rep_sessions)):
        if rec_sessions.get(client_id) != rep_sessions.get(client_id):
            out.append(
                ReplayMismatch(
                    f"session_commits[client {client_id}]",
                    "per-client commit order diverged",
                )
            )
            break
    return out


def replay_trace(
    trace: RecordedTrace, *, executor: Optional[str] = None
) -> "Tuple[SimulationResult, ReplayReport]":
    """Re-drive a recorded run; assert bit-identity with the recording.

    ``executor`` defaults to the recorded one; passing another executor
    is the cross-engine check — the contract says the
    digest must come out identical either way.
    """
    from ..sim.simulation import run_simulation

    chosen = executor if executor is not None else trace.recorded_executor
    config = trace.config.replace(client_executor=chosen)
    _check_replayable(config, verb="replay")
    result = run_simulation(config, collect_trace=True)
    if result.trace is None:
        raise RuntimeError("replay produced no trace despite collect_trace=True")

    replayed = RecordedTrace(
        config=config,
        observables=_canonical_observables(result.trace.observables()),
        signature=result_signature(result),
        recorded_executor=chosen,
        scenario=trace.scenario,
    )
    mismatches = _diff_observables(trace.observables, replayed.observables)
    for key, recorded_value in trace.signature.items():
        replayed_value = replayed.signature.get(key)
        if recorded_value != replayed_value:
            mismatches.append(
                ReplayMismatch(
                    f"signature.{key}",
                    f"recorded {recorded_value!r} != replayed "
                    f"{replayed_value!r}",
                )
            )
    report = ReplayReport(
        executor=chosen,
        recorded_executor=trace.recorded_executor,
        recorded_digest=trace.digest,
        replayed_digest=replayed.digest,
        mismatches=tuple(mismatches),
    )
    return result, report
