"""The five workloads: what one repeat runs, and how its outputs are checked.

Every workload is a closed-loop batch job: a fixed amount of simulated
work, generated from the seed, timed to completion.  Sizes are fixed and
independent of the host's core count.  ``scale`` shrinks a workload
along its size axis only: 1 is the benchmark size, 1/8 the warm-up,
1/20 the smoke run.  Why each workload exists, and which layer it
bypasses, is in ``perfbench/README.md``.

An *operation* is one ``run_simulation`` call or one sweep grid point;
it fails when it raises, misses a structural check or its envelope, or
(judged later, across repeats) disagrees with a pinned or earlier digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Tuple, Type

from repro.experiments.figures import PAPER_PROTOCOLS, fig4a_num_objects
from repro.scenarios import loads_scenario, result_signature
from repro.sim import (
    TIMELINE_CACHE,
    SimulationConfig,
    SimulationResult,
    run_simulation,
)

from . import WARMUP_SCALE, load_expected

__all__ = [
    "DENSE",
    "Op",
    "Workload",
    "WORKLOADS",
    "digest",
    "layer_counts",
    "mixed_fleet_document",
    "MIXED_FLEET_DOZE",
]

#: the broadcast-bound regime the cohort and analytic executors are built
#: for: few objects, short cycles, think times far below the cycle length.
#: Server completions are evenly spaced: a run spans only two or three of
#: them and each restarts thousands of readers, so with exponential gaps
#: the count (1 to 6) moved the reads per run by 35 % from seed to seed —
#: more than any regression bound.  Spacing them leaves the regime alone.
DENSE: Dict[str, Any] = dict(
    protocol="f-matrix",
    num_objects=16,
    client_txn_length=12,
    mean_inter_operation_delay=4096.0,
    mean_inter_transaction_delay=16384.0,
    server_txn_interval=2_000_000.0,
    server_interval_distribution="deterministic",
)


def digest(payload: object) -> str:
    """sha256 of the canonical JSON form (floats round-trip via repr)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    """One operation's outcome, reduced to what the benchmark reports."""

    key: str
    digest: Optional[str] = None
    commits: int = 0
    events: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    profile: Dict[str, float] = field(default_factory=dict)
    timeline_stats: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


def _scaled(full: int, scale: float, floor: int) -> int:
    return max(floor, round(full * scale))


class Workload:
    """Inputs generated from ``(seed, scale)`` plus the repeat that runs them."""

    name: ClassVar[str]
    #: pool workers the program itself starts (provenance; at most 2)
    pool_workers: int = 0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        #: final sizes, recorded in the provenance manifest
        self.sizes: Dict[str, int] = {}
        #: operation key -> the config ``run_simulation`` receives
        self.configs: Dict[str, SimulationConfig] = {}

    def inputs(self) -> object:
        """The generated inputs, JSON-ready (hashed into the manifest)."""
        return {key: cfg.to_dict() for key, cfg in self.configs.items()}

    def execution(self) -> Dict[str, object]:
        """Executor / shards / timeline mode the configs actually select."""
        cfg = next(iter(self.configs.values()))
        return {
            "client_executor": cfg.client_executor,
            "shards": cfg.shards,
            "timeline_mode": cfg.timeline_mode,
            "effective_workers": self.pool_workers,
        }

    def check(self, op: Op, result: SimulationResult) -> Optional[str]:
        """A workload-specific assert on one result; the failure text or None."""
        return None

    def simulate(self, key: str, config: SimulationConfig) -> Op:
        try:
            result = run_simulation(config)
        except Exception:  # one failed operation must not hide the others
            return Op(key, error=traceback.format_exc(limit=8))
        op = Op(
            key,
            digest=digest(result_signature(result)),
            commits=result.metrics.commit_count,
            events=result.events,
            counters=result.metrics.counters(),
            profile=dict(result.profile or {}),
            timeline_stats=result.timeline_stats,
        )
        op.error = self.check(op, result)
        return op

    def repeat(self) -> List[Op]:
        """One repeat: every operation once, sequentially, in-process."""
        return [self.simulate(key, cfg) for key, cfg in self.configs.items()]

    def warm_up(self) -> None:
        """One reduced-size repeat; a failure here aborts the run."""
        _require_clean(type(self)(self.seed, self.scale * WARMUP_SCALE).repeat())


def _require_clean(ops: List[Op]) -> None:
    failed = [f"{op.key}: {op.error}" for op in ops if op.error]
    if failed:
        raise RuntimeError("warm-up failed: " + " | ".join(failed))


def _expect_commits(op: Op, result: SimulationResult) -> Optional[str]:
    config = result.config
    expected = config.num_clients * config.num_client_transactions
    if op.commits != expected:
        return f"commits {op.commits} != clients x txns {expected}"
    return None


class Table1Protocols(Workload):
    """``run_simulation`` at Table-1 defaults, once per protocol."""

    name = "table1-protocols"
    PROTOCOLS: ClassVar[Tuple[Tuple[str, Dict[str, int]], ...]] = (
        ("f-matrix", {}),
        ("f-matrix-no", {}),
        ("r-matrix", {}),
        ("datacycle", {}),
        ("group-matrix", {"num_groups": 16}),
    )

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        txns = _scaled(500, scale, 8)
        self.sizes = {"num_client_transactions": txns, "simulations": 5}
        for protocol, extra in self.PROTOCOLS:
            self.configs[protocol] = SimulationConfig(
                protocol=protocol, num_client_transactions=txns, seed=seed, **extra
            )


class Fig4aSweep(Workload):
    """``fig4a_num_objects(txns, workers=2)``: 20 grid points through the pool."""

    name = "fig4a-sweep"
    pool_workers = 2
    SIZES: ClassVar[Tuple[int, ...]] = (100, 200, 300, 400, 500)

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        self.transactions = _scaled(150, scale, 8)
        self.sizes = {
            "num_client_transactions": self.transactions,
            "grid_points": len(PAPER_PROTOCOLS) * len(self.SIZES),
            "workers": self.pool_workers,
        }

    def inputs(self) -> object:
        return {"seed": self.seed, "sizes": self.SIZES, **self.sizes}

    def execution(self) -> Dict[str, object]:
        return {
            "client_executor": "process",
            "shards": 1,
            "timeline_mode": "recompute",
            "effective_workers": self.pool_workers,
        }

    def _sweep(self, workers: Optional[int]) -> List[Op]:
        keys = [f"{p}@{n}" for p in PAPER_PROTOCOLS for n in self.SIZES]
        try:
            result = fig4a_num_objects(
                self.transactions, workers=workers, seed=self.seed
            )
        except Exception:  # the sweep is one call: every grid point failed
            error = traceback.format_exc(limit=8)
            return [Op(key, error=error) for key in keys]
        def stat(summary: Any) -> List[float]:
            # not ci_halfwidth: its t-quantile depends on scipy being present
            return [summary.mean, summary.stddev, summary.count]

        ops = {}
        for protocol, series in result.series.items():
            for point in series.points:
                key = f"{protocol}@{int(point.x)}"
                signature = {
                    "response_time": stat(point.response_time),
                    "restart_ratio": stat(point.restart_ratio),
                    "sim_time": point.sim_time,
                }
                ops[key] = Op(
                    key,
                    digest=digest(signature),
                    commits=self.transactions,
                    events=point.events,
                )
        return [ops.get(key, Op(key, error="missing grid point")) for key in keys]

    def repeat(self) -> List[Op]:
        return self._sweep(self.pool_workers)

    def warm_up(self) -> None:
        """Reduced size, through the pool *and* sequentially: series must agree."""
        small = Fig4aSweep(self.seed, self.scale * WARMUP_SCALE)
        parallel = small._sweep(small.pool_workers)
        sequential = small._sweep(None)
        _require_clean(parallel + sequential)
        if [op.digest for op in parallel] != [op.digest for op in sequential]:
            raise RuntimeError("warm-up failed: workers=2 series != workers=None")


class ReaderFleet(Workload):
    """A large read-only population on the cohort executor, unsharded."""

    name = "reader-fleet"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        clients = _scaled(8192, scale, 64)
        self.sizes = {"num_clients": clients, "num_client_transactions": 4}
        self.configs["cohort"] = SimulationConfig(
            num_clients=clients,
            num_client_transactions=4,
            client_executor="cohort",
            seed=seed,
            **DENSE,
        )

    def check(self, op: Op, result: SimulationResult) -> Optional[str]:
        return _expect_commits(op, result)


#: the seeded doze renewal process of ``mixed-fleet`` (``FaultPlan.seeded``)
MIXED_FLEET_DOZE: Dict[str, float] = {
    "horizon": 4.0e7,
    "mean_time_between_dozes": 3.0e6,
    "mean_doze_duration": 4.0e5,
}


def mixed_fleet_document(
    seed: int, clients: int, envelope: Optional[Mapping[str, object]] = None
) -> str:
    """The scenario document (JSON text) the ``mixed-fleet`` workload runs."""
    document: Dict[str, object] = {
        "format_version": 1,
        "name": "mixed-fleet",
        "description": "Readers and writers, caches, modulo timestamps, faults.",
        "seed": seed,
        "protocols": ["f-matrix", "r-matrix", "datacycle"],
        "config": {
            "num_clients": clients,
            "num_update_clients": max(1, clients // 8),
            "client_update_fraction": 0.25,
            "num_client_transactions": 8,
            "num_objects": 128,
            "object_size_bits": 2048,
            "client_txn_length": 6,
            "modulo_timestamps": True,
            "cache_currency_bound": 2.0e6,
            "cache_capacity": 32,
            "server_txn_interval": 2.0e5,
            "mean_inter_operation_delay": 16384.0,
            "mean_inter_transaction_delay": 65536.0,
        },
        "faults": {
            "uplink_loss_probability": 0.05,
            "seeded": MIXED_FLEET_DOZE,
        },
    }
    if envelope is not None:
        document["envelope"] = dict(envelope)
    return json.dumps(document, indent=1)


class MixedFleet(Workload):
    """Writes beside reads: the scalar validator path, caches, faults, uplink."""

    name = "mixed-fleet"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        clients = _scaled(512, scale, 16)
        # the envelope was calibrated at the benchmark size only
        envelope = load_expected()["envelope"] if scale == 1.0 else None
        self.document = mixed_fleet_document(seed, clients, envelope)
        self.scenario = loads_scenario(self.document, fmt="json", source=self.name)
        for protocol in self.scenario.protocols:
            self.configs[protocol] = self.scenario.config_for(protocol)
        parsed = self.configs[self.scenario.protocols[0]]
        self.sizes = {
            "num_clients": parsed.num_clients,
            "num_update_clients": parsed.update_capable_clients(),
            "num_client_transactions": parsed.num_client_transactions,
            "simulations": len(self.configs),
        }

    def check(self, op: Op, result: SimulationResult) -> Optional[str]:
        if self.scenario.envelope is None:
            return None
        report = self.scenario.envelope.check(result)
        if report.ok:
            return None
        return "envelope miss: " + "; ".join(c.describe() for c in report.misses)


class ShardedReplay(Workload):
    """Analytic executor, 2 shards, cold timeline replay through the arena."""

    name = "sharded-replay"
    SHARDS: ClassVar[int] = 2

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        clients = _scaled(8192, scale, 64)
        self.sizes = {
            "num_clients": clients,
            "num_client_transactions": 4,
            "shards": self.SHARDS,
        }
        # the pool size run_sharded resolves: the parent runs shard 0 itself
        self.pool_workers = min(self.SHARDS - 1, max(1, (os.cpu_count() or 1) - 1))
        self.configs["analytic-replay"] = SimulationConfig(
            num_clients=clients,
            num_client_transactions=4,
            client_executor="analytic",
            shards=self.SHARDS,
            timeline_mode="replay",
            seed=seed,
            **DENSE,
        )

    def check(self, op: Op, result: SimulationResult) -> Optional[str]:
        stats = op.timeline_stats or {}
        if stats.get("cache_hit") or stats.get("fallbacks"):
            return f"expected a cold replay without fallbacks, got {stats}"
        return _expect_commits(op, result)

    def repeat(self) -> List[Op]:
        # cold: what one CLI invocation pays
        TIMELINE_CACHE.clear()
        return super().repeat()


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (Table1Protocols, Fig4aSweep, ReaderFleet, MixedFleet, ShardedReplay)
}


def layer_counts(ops: List[Op], effective_workers: int) -> Dict[str, float]:
    """Per-layer counts read off one repeat's public results (exact)."""
    counters: Dict[str, float] = {}
    profile: Dict[str, float] = {}
    cache = {"hits": 0, "misses": 0}
    fallbacks = 0
    for op in ops:
        for name, value in op.counters.items():
            counters[name] = counters.get(name, 0) + value
        for name, value in op.profile.items():
            profile[name] = profile.get(name, 0.0) + value
        if op.timeline_stats:
            fallbacks += int(op.timeline_stats.get("fallbacks", 0))
            for name in cache:
                cache[name] += int(op.timeline_stats.get("cache", {}).get(name, 0))
    commits = sum(op.commits for op in ops)
    events = sum(op.events for op in ops)

    def count(name: str) -> float:
        return counters.get(name, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    aborts = sum(
        count(f"aborts_{cause}")
        for cause in ("conflict", "staleness", "crash", "uplink")
    )
    out: Dict[str, float] = {
        "server.commits": count("server_commits"),
        "server.cycles": count("cycles_broadcast"),
        "core.validators.reject_ratio": ratio(
            count("reads_rejected"),
            count("reads_delivered") + count("reads_rejected"),
        ),
        "client.cache.hit_ratio": ratio(
            count("cache_hits"), count("cache_hits") + count("reads_delivered")
        ),
        "client.restarts_per_commit": ratio(aborts, commits),
        "sim.engine.events": events,
        "sim.engine.events_per_txn": ratio(events, commits),
        "sim.shard.fallbacks": fallbacks,
        "sim.shard.effective_workers": effective_workers,
        "sim.arena.cache_hits": cache["hits"],
        "sim.arena.cache_misses": cache["misses"],
        "sim.faults.doze_slots_missed": count("doze_slots_missed"),
        "sim.faults.uplink_retries": count("uplink_retries"),
    }
    for phase in ("record", "extend", "seal", "replay", "merge", "drive"):
        out[f"sim.shard.phase.{phase}_s"] = profile.get(phase, 0.0)
    return out
