"""Sharded simulation: partition the read-only population over processes.

One broadcast serves every client, but read-only clients are pure
*observers*: nothing they do reaches the server, the cycle images,
or each other.  That makes the population embarrassingly parallel —
provided every shard sees the same broadcast.  Two modes provide it:

* **recompute** (``config.timeline_mode == "recompute"``, the default):
  each shard deterministically recomputes the authoritative timeline
  from the config's seeds — the live broadcast timeline (cycles, server
  completions, crashes) and every update-capable client (whose uplink
  submissions mutate the server) run in *every* shard, bit-identically.
  Correct, but k shards pay k× the timeline cost.

* **replay** (``"replay"``; docs/PERFORMANCE.md §6): the timeline is
  simulated **once** — by a recording pass hosting the primary slice
  (updaters, faulty or not, included) — and published *while it is
  recorded* on a :class:`~repro.sim.arena.TimelineFeed` of sealed
  shared-memory chunks.  The worker shards start before the recording
  pass does and replay their reader range as pure observers of the feed
  (no live timeline; crash dead-air reproduced from the plan's closed
  outage windows), blocking only where nothing is
  published yet: a waved pass (:mod:`repro.sim.schedule`) runs the
  timeline ahead of its own readers, so they hardly wait; an interleaved
  one shares its readers' clock and publishes once, at the horizon.  A
  shard that reads past the horizon the feed was closed at recomputes
  for itself, so replay is an
  optimisation, never a correctness risk.  Update-free, fault-free
  timelines also land in the cross-run
  :data:`~repro.sim.arena.TIMELINE_CACHE`: a later run that varies only
  client-side parameters publishes it whole instead of recording (a
  *cache hit*) and replays the primary slice too.  Either way the
  timeline's counters come from the journal, folded at the merged stop
  time.

Both modes are one path: a timeline (live, or a feed), one
:func:`_gather` of the other shards' :class:`ShardOutcome` s — inline or
on a pool, the parent's own slice in between — and
:func:`~repro.sim.simulation.assemble_result`.  Nothing is counted twice:
the timeline's counters are one journal, the parent's, and only the
primary shard measures the updaters
(:class:`~repro.sim.simulation.ShardSlice`).  Summary statistics sort
the merged samples by a layout-independent key, so the reported numbers
are bit-identical to an unsharded run's — the property tests assert this across shard
counts, executors and timeline modes.

A worker that dies raises :class:`ShardExecutionError` in the parent,
naming the shard and its reader range; on any failure the feed is closed
(so no worker waits on), queued shards cancelled, every segment unlinked.

``workers=0`` runs every shard sequentially in-process: same results,
no pool — the mode tests use to exercise slicing without fork overhead.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs.profiler import PhaseProfiler
from .arena import (
    TIMELINE_CACHE,
    TimelineExhausted,
    TimelineFeed,
    TimelineView,
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


#: one shard's work: config, slice, replay the run's timeline feed
#: (``False`` = recompute the timeline)
ShardJob = Tuple[SimulationConfig, ShardSlice, bool]

#: the feed this process's replay jobs read: a pool worker gets it from
#: the pool's initializer (the one way a ``multiprocessing.Condition``
#: reaches it), the parent from :func:`_gather`, for the jobs run inline
_feed: Optional[TimelineFeed] = None


def _connect(feed: Optional[TimelineFeed]) -> None:
    global _feed
    _feed = feed


def _simulate(
    config: SimulationConfig,
    slice_: ShardSlice,
    view: Optional[TimelineView] = None,
    fell_back: bool = False,
) -> ShardOutcome:
    """One slice, run in this process until its last client is done.

    Live — the slice recomputes the timeline for itself — or, given a
    ``view`` of the recorded one, as pure observers of it: its readers
    only (the updaters ran in the recording pass, whose timeline keeps
    the journal); :class:`TimelineExhausted` past its end.
    """
    if view is None:
        simulation = BroadcastSimulation(config, slice_=slice_)
    else:
        observers = replace(slice_, updaters=0, primary=False)
        simulation = BroadcastSimulation(config, slice_=observers, view=view)
    sim_time, events = simulation.execute()
    stall = view.profiler.as_dict().get("stall", 0.0) if view is not None else 0.0
    spans, dropped = simulation.tracer.export(), simulation.tracer.dropped
    return ShardOutcome(
        simulation.metrics,
        sim_time,
        events,
        simulation.schedule,
        spans,
        dropped,
        fell_back,
        stall,
    )


def _execute(owner: BroadcastSimulation) -> ShardOutcome:
    """Run the in-process timeline owner to its clients' stop (its span
    stream is read at assembly, once the timeline covers the merged stop)."""
    return ShardOutcome(owner.metrics, *owner.execute(), owner.schedule)


def _run_shard(job: ShardJob) -> ShardOutcome:
    """Worker entry point: one shard, start to finish.

    A replay job reads this process's feed from its first chunk on.  A
    replay that outruns the horizon the feed was closed at — like a
    recompute job — recomputes the shard live with the *original* slice,
    so the ghost updaters and the shadow timeline run exactly as in
    recompute mode.

    Module-level so the process pool can pickle it; also the inline path
    for ``workers=0``.
    """
    config, slice_, replay = job
    if replay:
        assert _feed is not None, "a replay job needs the process's feed"
        try:
            return _simulate(config, slice_, TimelineView(_feed.chunk))
        except TimelineExhausted:
            pass
    return _simulate(config, slice_, fell_back=replay)


def _gather(
    config: SimulationConfig,
    slices: Sequence[ShardSlice],
    own: Callable[[], ShardOutcome],
    *,
    profiler: PhaseProfiler,
    workers: int,
    feed: Optional[TimelineFeed] = None,
) -> List[ShardOutcome]:
    """Every slice's outcome, in shard order.

    ``own`` yields the primary slice's: the parent's share of the work,
    done between starting the other slices' jobs and collecting them.
    The jobs go to a pool of ``workers`` processes, or with ``workers=0``
    run in this process afterwards.  Given a ``feed`` they replay it — a
    pool's workers while ``own`` still publishes it; ``own`` closes it,
    and the wait after that is the ``replay`` phase — otherwise they
    recompute the timeline.  A job's failure is re-raised as
    :class:`ShardExecutionError`; any failure closes the feed (waking the
    workers blocked on it) and cancels the queued jobs before the pool is
    joined; the segments go on every way out.
    """
    rest = slices[1:]
    jobs = [(config, sl, feed is not None) for sl in rest]
    _connect(feed)  # for the jobs run inline
    try:
        if workers:
            from concurrent.futures import ProcessPoolExecutor

            scope = ProcessPoolExecutor(workers, initializer=_connect, initargs=(feed,))
        else:
            scope = nullcontext()
        with scope as pool:
            try:
                with profiler.phase("setup"):
                    waits = [
                        pool.submit(_run_shard, job).result
                        if pool is not None
                        else partial(_run_shard, job)
                        for job in jobs
                    ]
                with profiler.phase("primary"):
                    outcomes = [own()]
                with profiler.phase("shards" if feed is None else "replay"):
                    for sl, wait in zip(rest, waits):
                        try:
                            outcomes.append(wait())
                        except Exception as exc:
                            raise ShardExecutionError(len(outcomes), sl, exc) from exc
            except BaseException:
                if feed is not None:
                    feed.close()
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
                raise
    finally:
        _connect(None)
        if feed is not None:
            feed.release()
    return outcomes


def run_sharded(
    config: SimulationConfig,
    *,
    workers: Optional[int] = None,
) -> SimulationResult:
    """Run ``config`` as ``config.shards`` cooperating simulations.

    ``workers=None`` sizes the pool to ``min(shards - 1, cpus - 1)``
    (the parent itself runs the primary shard, so one core is spoken
    for); ``workers=0`` forces sequential in-process execution.

    Recompute mode: the parent runs the primary slice live while the
    other slices recompute the timeline for themselves.  Replay mode:
    the other slices' jobs start first, reading a timeline feed; the
    primary slice then runs live as the recording pass — its own
    readers, the updaters, the crash schedule — publishing the timeline
    whenever it has run it on, keeps it going to a horizon with
    headroom, publishes that and closes the feed.  On a timeline-cache
    hit the parent publishes the cached timeline whole, closes the feed
    and replays the primary slice too; if the cached horizon proves too
    short for this config's clients the entry is discarded and the run
    records after all.
    """
    profiler = PhaseProfiler()
    slices = reader_slices(config)
    if workers is None:
        workers = max(1, (os.cpu_count() or 1) - 1)
    workers = min(workers, len(slices) - 1)
    gather = partial(_gather, config, slices, profiler=profiler, workers=workers)
    replay = config.timeline_mode == "replay"
    cacheable = replay and timeline_cacheable(config)
    cached = TIMELINE_CACHE.lookup(config) if cacheable else None
    feed: Optional[TimelineFeed] = None

    outcomes: Optional[List[ShardOutcome]] = None
    if cached is not None:
        hit = feed = TimelineFeed(shared=workers > 0)
        chunks = cached

        def replay_cached() -> ShardOutcome:
            for chunk in chunks:
                hit.publish(chunk)
            hit.close()
            return _simulate(config, slices[0], TimelineView(hit.chunk))

        # the parent's replay of the primary slice lets exhaustion
        # through: recomputing *that* slice live would run a second
        # timeline beside the journal's
        try:
            outcomes = gather(replay_cached, feed=hit)
        except TimelineExhausted:
            pass
        horizon = cached[-1].horizon_time
        if outcomes is None or any(o.sim_time > horizon for o in outcomes):
            # the entry is outgrown — by the primary, or by a fallen-back
            # shard that ran on past the journal's end
            TIMELINE_CACHE.discard(config)
            cached = outcomes = None

    owner: Optional[BroadcastSimulation] = None
    if outcomes is None and not replay:
        owner = BroadcastSimulation(config, slice_=slices[0])
        outcomes = gather(partial(_execute, owner))
    elif outcomes is None:
        live = feed = TimelineFeed(shared=workers > 0)
        recorder = owner = BroadcastSimulation(
            config, slice_=slices[0], record_timeline=True, feed=live
        )

        def record() -> ShardOutcome:
            with profiler.phase("record"):
                first = _execute(recorder)
            horizon = recorder.recording_horizon(first.sim_time)
            with profiler.phase("extend"):
                assert recorder.timeline is not None
                recorder.timeline.advance_to(horizon)
            with profiler.phase("seal"):
                recorder.publish_timeline(horizon)
                live.close()
                if cacheable:
                    TIMELINE_CACHE.store(config, tuple(live.chunks))
            return first

        outcomes = gather(record, feed=live)

    result = assemble_result(
        config,
        outcomes,
        profiler,
        owner=owner,
        # on a cache hit, any chunk: they share the recorded journal
        arena=feed.chunks[-1] if feed is not None else None,
    )
    profile = profiler.as_dict()
    if feed is not None:
        result.timeline_stats = {
            "mode": "replay",
            "shards": len(slices),
            "cache_hit": cached is not None,
            "chunks": len(feed.chunks),
            "fallbacks": sum(outcome.fell_back for outcome in outcomes),
            "cache": TIMELINE_CACHE.stats.as_dict(),
        }
        # no phase of the parent's: the longest a shard waited on the feed
        profile["stall"] = max(outcome.stall for outcome in outcomes)
    result.profile = profile
    return result
