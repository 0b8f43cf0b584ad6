"""Parameter-sweep machinery for the evaluation experiments.

An experiment varies one :class:`repro.sim.SimulationConfig` field across
a list of values for several protocols, runs one simulation per (value,
protocol) point, and gathers the series the paper plots: mean response
time (bit-units) and restart ratio, with 95% confidence intervals.

Grid points are independent seeded simulations, so ``run_sweep`` can fan
them over a :class:`concurrent.futures.ProcessPoolExecutor`
(``workers=N``); :func:`repro.sim.batch.replicate` is a sweep over its
replication seeds and uses the same pool.  Results are gathered in
submission order and every simulation derives its randomness from its
config's seed, so the assembled :class:`ExperimentResult` is
bit-identical to a sequential run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.config import SimulationConfig
from ..sim.metrics import SummaryStat
from ..sim.simulation import run_simulation

__all__ = ["Point", "Series", "ExperimentResult", "run_sweep"]


@dataclass(frozen=True)
class Point:
    """One (x, protocol) measurement."""

    x: float
    response_time: SummaryStat
    restart_ratio: SummaryStat
    sim_time: float
    events: int


@dataclass
class Series:
    """One protocol's curve across the sweep."""

    protocol: str
    points: List[Point] = field(default_factory=list)

    @property
    def xs(self) -> Tuple[float, ...]:
        return tuple(p.x for p in self.points)

    @property
    def response_means(self) -> Tuple[float, ...]:
        return tuple(p.response_time.mean for p in self.points)

    @property
    def restart_means(self) -> Tuple[float, ...]:
        return tuple(p.restart_ratio.mean for p in self.points)

    def point_at(self, x: float) -> Point:
        """The point whose x matches ``x`` up to float tolerance.

        Sweep values that pass through float arithmetic (a fraction
        computed by a ``config_hook``, ``0.1 * 3``, a value re-parsed
        from CSV/JSON) need not be bit-equal to the number the caller
        types, so the lookup takes the nearest point and accepts it when
        it is close (1e-9 relative).  Exact-equality lookup raised
        ``KeyError`` on points that plainly exist — the same float-``==``
        bug class PR 1 fixed in ``server/workload.py``.
        """
        best: Optional[Point] = None
        best_err = math.inf
        for p in self.points:
            err = abs(p.x - x)
            if err < best_err:
                best, best_err = p, err
        if best is not None and math.isclose(
            best.x, x, rel_tol=1e-9, abs_tol=1e-12
        ):
            return best
        raise KeyError(f"no point at x={x}")

    def response_at(self, x: float) -> float:
        return self.point_at(x).response_time.mean

    def restart_at(self, x: float) -> float:
        return self.point_at(x).restart_ratio.mean


@dataclass
class ExperimentResult:
    """All series of one experiment, ready for reporting."""

    name: str
    xlabel: str
    series: Dict[str, Series] = field(default_factory=dict)

    def protocols(self) -> Tuple[str, ...]:
        return tuple(self.series)

    def ordering_holds(
        self, x: float, better: str, worse: str, *, margin: float = 1.0
    ) -> bool:
        """Does ``better`` beat ``worse`` on response time at ``x``?

        ``margin`` < 1 tolerates near-ties (e.g. 0.95 allows 5% slack).
        """
        return (
            self.series[better].response_at(x)
            <= self.series[worse].response_at(x) * margin
        )


def _run_grid_point(
    job: "Tuple[str, object, SimulationConfig]",
) -> "Tuple[str, object, Point]":
    """One (protocol, value) point; module-level so pools can pickle it.

    The :class:`Point` is built where the simulation ran: four numbers
    cross the pool, not the server and metrics arrays behind them.
    """
    protocol, value, config = job
    run = run_simulation(config)
    point = Point(
        x=float(value),
        response_time=run.response_time,
        restart_ratio=run.restart_ratio,
        sim_time=run.sim_time,
        events=run.events,
    )
    return (protocol, value, point)


def run_sweep(
    name: str,
    xlabel: str,
    base_config: SimulationConfig,
    param: str,
    values: Sequence,
    protocols: Sequence[str],
    *,
    config_hook: Optional[Callable[[SimulationConfig, object], SimulationConfig]] = None,
    skip: Optional[Callable[[str, object], bool]] = None,
    progress: Optional[Callable[[str, object, Point], None]] = None,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Run the full grid and collect series.

    * ``param`` — the config field to vary (ignored when ``config_hook``
      is given, which maps (base, value) -> config directly);
    * ``skip(protocol, value)`` — omit points (the paper leaves Datacycle
      off the chart where it exceeds the y-axis);
    * ``progress`` — callback ``(protocol, value, point)`` after each point;
    * ``workers`` — fan grid points over that many processes (``None``/1
      runs sequentially).  Hooks run in the parent — only finished,
      picklable configs ship to the pool — and results are gathered in
      grid order, so the returned series (and every ``progress`` call)
      are identical to the sequential run's.
    """
    result = ExperimentResult(name, xlabel)
    grid: List[Tuple[str, object, SimulationConfig]] = []
    for protocol in protocols:
        result.series[protocol] = Series(protocol)
        for value in values:
            if skip is not None and skip(protocol, value):
                continue
            if config_hook is not None:
                config = config_hook(base_config, value)
            else:
                config = base_config.replace(**{param: value})
            grid.append((protocol, value, config.replace(protocol=protocol)))

    outcomes: "Iterable[Tuple[str, object, Point]]"
    if workers is not None and workers > 1 and len(grid) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_grid_point, grid, chunksize=1))
    else:
        # a lazy iterator, so progress callbacks interleave with the runs
        outcomes = (_run_grid_point(job) for job in grid)

    for protocol, value, point in outcomes:
        result.series[protocol].points.append(point)
        if progress is not None:
            progress(protocol, value, point)
    return result
