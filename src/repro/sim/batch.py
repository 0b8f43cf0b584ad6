"""Replicated simulation runs: independent seeds, pooled statistics.

A single run's per-transaction response times are autocorrelated (they
share broadcast cycles and server state), so the per-sample t-interval of
:mod:`repro.sim.metrics` is optimistic.  The methodologically clean
estimate replicates the whole simulation across independent seeds and
treats per-replication means as i.i.d. samples; this module provides
that.  The replications are one sweep over their seeds
(:func:`repro.experiments.sweeps.run_sweep`), so they fan out over
processes through the same pool as a figure's grid points.

    from repro.sim.batch import replicate
    pooled = replicate(config, replications=8, workers=4)
    print(pooled.response_time.mean, pooled.response_time.ci)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .config import SimulationConfig
from .metrics import SummaryStat, summarize

__all__ = ["ReplicatedResult", "replication_seeds", "replicate"]


@dataclass(frozen=True)
class ReplicatedResult:
    """Pooled statistics over independent replications."""

    config: SimulationConfig
    seeds: Tuple[int, ...]
    #: per-replication means, in seed order
    response_means: Tuple[float, ...]
    restart_means: Tuple[float, ...]
    #: cross-replication summaries (the honest confidence intervals)
    response_time: SummaryStat
    restart_ratio: SummaryStat

    @property
    def replications(self) -> int:
        return len(self.seeds)


def replication_seeds(base_seed: int, replications: int) -> Tuple[int, ...]:
    """Deterministic, well-separated seeds for the replications."""
    if replications < 1:
        raise ValueError("need at least one replication")
    return tuple(base_seed + 7919 * k for k in range(replications))


def replicate(
    config: SimulationConfig,
    *,
    replications: int = 5,
    workers: Optional[int] = None,
) -> ReplicatedResult:
    """Run ``replications`` independent simulations and pool their means.

    ``workers`` > 1 fans the replications out over processes (configs
    and results are plain picklable values).  ``workers=None`` or 1 runs
    sequentially.
    """
    # the sweep machinery imports this package: bind it at call time
    from ..experiments.sweeps import run_sweep

    seeds = replication_seeds(config.seed, replications)
    sweep = run_sweep(
        "replicate",
        "replication",
        config,
        "seed",
        range(replications),
        [config.protocol],
        config_hook=lambda base, k: base.replace(seed=seeds[k]),
        workers=workers,
    )
    points = sweep.series[config.protocol].points
    response_means = tuple(point.response_time.mean for point in points)
    restart_means = tuple(point.restart_ratio.mean for point in points)
    return ReplicatedResult(
        config=config,
        seeds=seeds,
        response_means=response_means,
        restart_means=restart_means,
        response_time=summarize(list(response_means)),
        restart_ratio=summarize(list(restart_means)),
    )
