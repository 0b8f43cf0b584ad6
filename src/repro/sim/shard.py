"""Sharded simulation: partition the read-only population over processes.

One broadcast serves every client, but fault-free read-only clients are
pure *observers*: nothing they do reaches the server, the cycle images,
or each other.  That makes the population embarrassingly parallel —
provided every shard sees the same broadcast.  Two modes provide it:

* **recompute** (``config.timeline_mode == "recompute"``, the default):
  each shard deterministically recomputes the authoritative timeline
  from the config's seeds — the cycle process, the server process, the
  crash schedule, and every update-capable client (whose uplink
  submissions mutate the server) run in *every* shard, bit-identically.
  Correct, but k shards pay k× the timeline cost.

* **replay** (``"replay"``; docs/PERFORMANCE.md §6): the timeline is
  simulated **once** — by a recording pass hosting the primary slice
  (updaters, faulty or not, included) — then sealed into a
  shared-memory :class:`~repro.sim.arena.TimelineArena`.  Worker shards
  attach zero-copy and replay their reader range as pure observers: no
  cycle process, no server process, no crash process, crash dead-air
  reproduced from the plan's closed outage windows.  A shard that reads
  past the recorded horizon falls back to recomputation for itself, so
  replay is an optimisation, never a correctness risk.  For update-free,
  fault-free configs the sealed arena also lands in the cross-run
  :data:`~repro.sim.arena.TIMELINE_CACHE`, keyed by the server-side
  config fingerprint + seed: a later run that varies only client-side
  parameters skips the recording pass (a *cache hit*) and replays the
  primary slice too.  Either way the timeline's counters come from the
  arena's journal, folded at the merged stop time.

Both modes are one path: a timeline (live, or recorded and sealed), one
:func:`_gather` of the other shards' :class:`ShardOutcome` s — inline or
on a pool, the parent's own slice in between — and
:func:`~repro.sim.simulation.assemble_result`.  Double counting is
prevented by the primary/ghost split
(:class:`~repro.sim.simulation.ShardSlice`): exactly one shard — the
primary — records the timeline's metrics; the others route them into a
discarded shadow collector.  Summary statistics sort the merged samples
by a layout-independent key, so the reported numbers are bit-identical
to an unsharded run's — the property tests assert this across shard
counts, executors and timeline modes.

A worker that dies raises :class:`ShardExecutionError` in the parent,
naming the shard and its reader range; queued shards are cancelled and
the arena's shared segment is unlinked on the way out.

``workers=0`` runs every shard sequentially in-process: same results,
no pool — the mode tests use to exercise slicing without fork overhead.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..obs.profiler import PhaseProfiler
from .arena import (
    TIMELINE_CACHE,
    TimelineArena,
    TimelineExhausted,
    TimelineHandle,
    timeline_cacheable,
)
from .config import SimulationConfig
from .simulation import (
    BroadcastSimulation,
    ShardOutcome,
    ShardSlice,
    SimulationResult,
    assemble_result,
)

__all__ = ["reader_slices", "run_sharded", "ShardExecutionError"]

#: recorded-horizon headroom: record this factor past the recording
#: pass's own stop, plus a few whole cycles of slack
_HORIZON_FACTOR = 1.25
_HORIZON_SLACK_CYCLES = 4.0


class ShardExecutionError(RuntimeError):
    """A shard worker failed; identifies which slice of the population.

    Raised by the parent with the original exception chained (``from``),
    after cancelling the shards still queued — a sharded run is
    all-or-nothing, so there is no point starting the survivors.
    """

    def __init__(self, shard_index: int, slice_: ShardSlice, cause: BaseException):
        super().__init__(
            f"shard {shard_index} (readers [{slice_.reader_lo}, "
            f"{slice_.reader_hi})) failed: {cause!r}"
        )
        self.shard_index = shard_index
        self.reader_lo = slice_.reader_lo
        self.reader_hi = slice_.reader_hi


def reader_slices(config: SimulationConfig) -> List[ShardSlice]:
    """Partition the read-only population into ``config.shards`` slices.

    Contiguous, near-even ranges (the first ``readers % shards`` slices
    get the extra client); every slice also carries the update-capable
    prefix ``[0, updaters)``, which all shards must simulate.  The shard
    count is clamped to the number of read-only clients — an empty shard
    would be pure overhead.
    """
    updaters = config.update_capable_clients()
    readers = config.num_clients - updaters
    shards = min(config.shards, readers)
    if shards <= 1:
        return [
            ShardSlice(
                updaters=updaters,
                reader_lo=updaters,
                reader_hi=config.num_clients,
                primary=True,
            )
        ]
    base, extra = divmod(readers, shards)
    slices: List[ShardSlice] = []
    lo = updaters
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        slices.append(
            ShardSlice(
                updaters=updaters,
                reader_lo=lo,
                reader_hi=lo + size,
                primary=index == 0,
            )
        )
        lo += size
    return slices


def _observer_slice(slice_: ShardSlice) -> ShardSlice:
    """The replay form of a shard slice: its readers, nothing else.

    Replay shards host no updaters (those ran in the recording pass) and
    are never primary (there are no live timeline metrics to record).
    """
    return ShardSlice(
        updaters=0,
        reader_lo=slice_.reader_lo,
        reader_hi=slice_.reader_hi,
        primary=False,
    )


#: one shard's work: config, slice, the sealed timeline to replay (``None``
#: = recompute it; a handle is attached, an arena used as is), event cap
ShardJob = Tuple[
    SimulationConfig,
    ShardSlice,
    Union[TimelineHandle, TimelineArena, None],
    Optional[int],
]


def _simulate(
    config: SimulationConfig,
    slice_: ShardSlice,
    max_events: Optional[int],
    arena: Optional[TimelineArena] = None,
    fell_back: bool = False,
) -> ShardOutcome:
    """One slice, run in this process until its last client is done.

    Live — the slice recomputes the timeline for itself — or, given a
    sealed ``arena``, as pure observers of it: its readers, nothing else;
    :class:`TimelineExhausted` if they read past the arena's horizon.
    """
    simulation = (
        BroadcastSimulation(config, slice_=slice_)
        if arena is None
        else BroadcastSimulation(
            config, slice_=_observer_slice(slice_), timeline=arena.view()
        )
    )
    sim_time, events = simulation.execute(max_events)
    tracer = simulation.tracer
    return ShardOutcome(
        simulation.metrics, sim_time, events, tracer.export(), tracer.dropped, fell_back
    )


def _execute(owner: BroadcastSimulation, max_events: Optional[int]) -> ShardOutcome:
    """Run the in-process timeline owner to its clients' stop (its span
    stream is read at assembly, once the timeline covers the merged stop)."""
    return ShardOutcome(owner.metrics, *owner.execute(max_events))


def _run_shard(job: ShardJob) -> ShardOutcome:
    """Worker entry point: one shard, start to finish.

    Given a timeline the shard attaches to it (zero-copy, when handed a
    handle) and replays its readers.  A replay that outruns the recorded
    horizon — like a job with no timeline at all — recomputes the shard
    live with the *original* slice, so the ghost updaters and the shadow
    timeline run exactly as in recompute mode.

    Module-level so the process pool can pickle it; also the inline path
    for ``workers=0``.
    """
    config, slice_, source, max_events = job
    if source is not None:
        arena = (
            TimelineArena.attach(source)
            if isinstance(source, TimelineHandle)
            else source
        )
        try:
            return _simulate(config, slice_, max_events, arena)
        except TimelineExhausted:
            pass
    return _simulate(config, slice_, max_events, fell_back=source is not None)


def _gather(
    config: SimulationConfig,
    slices: Sequence[ShardSlice],
    own: Callable[[], ShardOutcome],
    *,
    profiler: PhaseProfiler,
    workers: int,
    max_events: Optional[int],
    arena: Optional[TimelineArena] = None,
) -> List[ShardOutcome]:
    """Every slice's outcome, in shard order.

    ``own`` yields the primary slice's: the parent's share of the work,
    done between starting the other slices' jobs and collecting them.
    The jobs go to a pool of ``workers`` processes, or with ``workers=0``
    run in this process; given a sealed ``arena`` they replay it (shared
    for the pool's lifetime, unlinked on every way out), otherwise they
    recompute the timeline.  A job's failure is re-raised as
    :class:`ShardExecutionError`; on any failure the jobs still queued
    are cancelled before the pool is joined.
    """
    rest = slices[1:]
    pooled = workers > 0 and bool(rest)
    try:
        source = arena.share() if arena is not None and pooled else arena
        with (
            ProcessPoolExecutor(max_workers=workers) if pooled else nullcontext()
        ) as pool:
            try:
                with profiler.phase("setup"):
                    waits = [
                        pool.submit(_run_shard, job).result
                        if pool is not None
                        else partial(_run_shard, job)
                        for job in ((config, sl, source, max_events) for sl in rest)
                    ]
                with profiler.phase("primary"):
                    outcomes = [own()]
                with profiler.phase("shards"):
                    for sl, wait in zip(rest, waits):
                        try:
                            outcomes.append(wait())
                        except Exception as exc:
                            raise ShardExecutionError(len(outcomes), sl, exc) from exc
            except BaseException:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
                raise
    finally:
        if arena is not None:
            arena.close_shared()
    return outcomes


def run_sharded(
    config: SimulationConfig,
    *,
    workers: Optional[int] = None,
    collect_trace: bool = False,
    max_events: Optional[int] = None,
) -> SimulationResult:
    """Run ``config`` as ``config.shards`` cooperating simulations.

    ``workers=None`` sizes the pool to ``min(shards - 1, cpus - 1)``
    (the parent itself runs the primary shard, so one core is spoken
    for); ``workers=0`` forces sequential in-process execution.

    Recompute mode: the parent runs the primary slice live while the
    other slices recompute the timeline for themselves.  Replay mode
    first records: the primary slice runs live — its own readers, the
    updaters, the crash schedule — keeps the timeline going to a horizon
    with headroom and seals the arena the other slices replay.  On a
    timeline-cache hit *every* slice replays instead, the primary's in
    the parent; if the cached horizon proves too short for this config's
    clients the entry is discarded and the run records after all.
    """
    if collect_trace:
        raise ValueError(
            "sharded runs record no trace (each shard sees only its own "
            "clients); use shards=1 for trace/audit runs"
        )
    profiler = PhaseProfiler()
    slices = reader_slices(config)
    if workers is None:
        workers = min(len(slices) - 1, max(1, (os.cpu_count() or 1) - 1))
    gather = partial(
        _gather,
        config,
        slices,
        profiler=profiler,
        workers=workers,
        max_events=max_events,
    )
    replay = config.timeline_mode == "replay"
    cacheable = replay and timeline_cacheable(config)
    arena = TIMELINE_CACHE.lookup(config) if cacheable else None
    cache_hit = arena is not None

    outcomes: Optional[List[ShardOutcome]] = None
    if arena is not None:
        # the parent's replay of the primary slice lets exhaustion
        # through: recomputing *that* slice live would run a second
        # timeline beside the journal's
        try:
            with profiler.phase("replay"):
                outcomes = gather(
                    partial(_simulate, config, slices[0], max_events, arena),
                    arena=arena,
                )
        except TimelineExhausted:
            pass
        if outcomes is None or any(o.sim_time > arena.horizon_time for o in outcomes):
            # the entry is outgrown — by the primary, or by a fallen-back
            # shard that ran on past the journal's end
            TIMELINE_CACHE.discard(config)
            arena = outcomes = None
            cache_hit = False

    owner: Optional[BroadcastSimulation] = None
    if outcomes is None:
        owner = BroadcastSimulation(config, slice_=slices[0], record_timeline=replay)
        execute = partial(_execute, owner, max_events)
        if not replay:
            outcomes = gather(execute)
        else:
            with profiler.phase("record"):
                first = execute()
            # replay shards may stop later than the recording pass's own
            # clients did (reader mixes differ): record on past its stop
            horizon = (
                first.sim_time * _HORIZON_FACTOR
                + _HORIZON_SLACK_CYCLES * owner.layout.cycle_bits
            )
            with profiler.phase("extend"):
                owner.sim.run(until=horizon, max_events=max_events)
            with profiler.phase("seal"):
                arena = owner.seal_timeline(horizon)
                if cacheable:
                    TIMELINE_CACHE.store(config, arena)
            with profiler.phase("replay"):
                outcomes = gather(lambda: first, arena=arena)

    result = assemble_result(
        config, outcomes, profiler, owner=owner, arena=arena, max_events=max_events
    )
    if replay:
        result.timeline_stats = {
            "mode": "replay",
            "shards": len(slices),
            "cache_hit": cache_hit,
            "fallbacks": sum(outcome.fell_back for outcome in outcomes),
            "cache": TIMELINE_CACHE.stats.as_dict(),
        }
    result.profile = profiler.as_dict()
    return result
