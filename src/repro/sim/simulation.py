"""Simulation assembly: wire config → server, layout, clients; run; report.

:func:`run_simulation` is the one-call entry point used by the
experiments, benchmarks and examples::

    from repro.sim import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(protocol="f-matrix"))
    print(result.response_time.mean, result.restart_ratio.mean)

One run is a :class:`~repro.sim.timeline.LiveTimeline` — the server
side: broadcast cycles, server completions, crashes — advanced on demand,
plus ``num_clients`` clients scheduled on a
:class:`~repro.sim.engine.Simulator` (the paper simulates one client —
protocol decisions at distinct clients are independent, so a single
client suffices for response-time statistics; more are supported).

Sharded runs (``config.shards > 1``; :mod:`repro.sim.shard`) give each
shard a :class:`ShardSlice`: every shard deterministically *recomputes*
the authoritative timeline — the live timeline and the update clients —
from the shared seeds, and simulates only its own contiguous range of
read-only clients on top of it.  Read-only clients never touch
shared state, so the timeline each shard derives is bit-identical to the
unsharded run's; the only data shards exchange is a
:class:`ShardOutcome`.  Exactly one shard (the primary) measures the
update clients; the others' "ghost" updaters report into a collector
that is dropped on the floor.  The timeline keeps its own books (its
journal, :mod:`repro.sim.timeline`), and only one journal is ever
folded — so the merge counts everything exactly once.

Every path — unsharded, sharded recompute, timeline replay — ends in
:func:`assemble_result`: merge the shards' outcomes, fold the timeline's
journal at the merged stop time, collect the spans, build the one
:class:`SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids an import cycle
    from ..analysis.diagnostics import AuditReport

from ..broadcast.layout import BroadcastLayout
from ..client.cache import QuasiCache
from ..core.validators import ReadValidator, make_validator
from ..obs.profiler import PhaseProfiler
from ..obs.telemetry import telemetry_from_result
from ..obs.tracer import NULL_TRACER, Span, Tracer, canonical_spans
from ..server.server import BroadcastServer
from ..server.workload import ClientWorkload, UniformTape
from . import analytic
from .arena import TimelineArena, TimelineFeed, TimelineView
from .cohort import CohortExecutor
from .config import SimulationConfig
from .engine import Simulator
from .faults import FaultRuntime
from .kernel import ClientEnv, ClientKernel, OnAir
from .metrics import MetricsCollector, SummaryStat
from .processes import client_process
from .schedule import Schedule, schedule_for
from .timeline import LiveTimeline, fold_journal
from .trace import TraceRecorder

__all__ = [
    "SimulationResult",
    "ShardSlice",
    "ShardOutcome",
    "BroadcastSimulation",
    "assemble_result",
    "run_simulation",
]

#: recorded-horizon headroom (replay shards' readers may stop later than
#: the recording pass's own): this factor, plus a few whole cycles of slack
_HORIZON_FACTOR = 1.25
_HORIZON_SLACK_CYCLES = 4.0


@dataclass(frozen=True)
class ShardSlice:
    """Which clients one sharded simulation simulates and measures.

    Update-capable clients ``[0, updaters)`` are part of the shared
    authoritative timeline (they mutate the server over the uplink), so
    *every* shard simulates them; only the primary shard records their
    metrics.  Read-only clients ``[reader_lo, reader_hi)`` exist — and
    are measured — on exactly one shard.
    """

    #: update-capable clients, simulated on every shard
    updaters: int
    #: this shard's contiguous read-only client range (half-open)
    reader_lo: int
    reader_hi: int
    #: does this shard measure the updaters and emit the timeline's spans?
    primary: bool

    @property
    def num_readers(self) -> int:
        return self.reader_hi - self.reader_lo


def _full_slice(config: SimulationConfig) -> ShardSlice:
    updaters = config.update_capable_clients()
    return ShardSlice(
        updaters=updaters,
        reader_lo=updaters,
        reader_hi=config.num_clients,
        primary=True,
    )


class ShardOutcome(NamedTuple):
    """What one shard's run hands to :func:`assemble_result` — and the
    only thing a pool worker sends back."""

    metrics: MetricsCollector
    #: when this shard's last client finished
    sim_time: float
    #: client-side engine events (the timeline costs none)
    events: int
    #: how the shard ran its readers
    schedule: Schedule
    #: the shard's raw span stream (empty when tracing is off, and for
    #: the in-process timeline owner, whose stream is read at assembly)
    spans: Sequence[Span] = ()
    spans_dropped: int = 0
    #: a replay outran the recorded horizon and recomputed this shard
    fell_back: bool = False
    #: wall seconds a replay waited for the recording pass to publish
    stall: float = 0.0


@dataclass
class SimulationResult:
    """Summary of one run (plus handles for deeper inspection)."""

    config: SimulationConfig
    response_time: SummaryStat
    restart_ratio: SummaryStat
    metrics: MetricsCollector
    #: ``None`` on a cache-hit replay run: the timeline was never driven
    #: live, so there is no server instance to inspect
    server: Optional[BroadcastServer]
    trace: Optional[TraceRecorder]
    sim_time: float
    #: engine events, summed over shards: client scheduling only, so the
    #: one observable the executor and the schedule move (when waved, the
    #: updaters' events plus every reader wave's); the broadcast
    #: timeline is advanced on demand and costs none
    events: int
    #: how the readers were scheduled — interleaved or waved, the wave,
    #: the readers, and why (:mod:`repro.sim.schedule`); a sharded run
    #: reports its primary slice's
    schedule: Schedule
    #: invariant-audit report, populated when the config sets ``audit=True``
    audit_report: Optional["AuditReport"] = None
    #: replay/cache telemetry from the shard layer (``timeline_mode``,
    #: cache hit, fallback counts); ``None`` on plain unsharded runs
    timeline_stats: Optional[dict] = None
    #: canonical merged span stream (sorted, truncated at ``sim_time``)
    #: when the config enables tracing; ``None`` otherwise
    spans: Optional[List[Span]] = None
    #: raw per-shard span streams in emission order (index 0 = the
    #: primary/timeline shard) — what the Chrome-trace exporter lays out
    #: as process lanes
    shard_spans: Optional[List[List[Span]]] = None
    #: spans overwritten by ring-buffer wraparound, summed over shards
    spans_dropped: int = 0
    #: wall-clock seconds per harness phase (outside the deterministic
    #: core); populated by the orchestrating entry points
    profile: Optional[Dict[str, float]] = None

    @property
    def protocol(self) -> str:
        return self.config.protocol

    def telemetry(self) -> Dict[str, Dict[str, Any]]:
        """This run's counters / gauges / histograms as one document."""
        return telemetry_from_result(self)


class BroadcastSimulation:
    """Builds and runs one simulation described by a config."""

    def __init__(
        self,
        config: SimulationConfig,
        *,
        collect_trace: bool = False,
        slice_: Optional[ShardSlice] = None,
        view: Optional[TimelineView] = None,
        record_timeline: bool = False,
        feed: Optional[TimelineFeed] = None,
    ):
        """``slice_`` restricts this simulation to one shard's clients
        (:mod:`repro.sim.shard` builds these); ``None`` simulates and
        measures everyone.

        ``view`` makes this a **replay** simulation: broadcast images
        come from a sealed arena and there is no live timeline — the
        slice must contain observers (readers) only.
        ``record_timeline`` makes this a **recording** pass: the timeline
        retains every installed image, so :meth:`seal_timeline` can build
        the arena replays attach to (its journal goes with it).  The two
        are mutually exclusive.  Either way ``self.metrics`` holds the
        clients' measurements only: the timeline's counters are its
        journal until :func:`assemble_result` folds it.  A recording
        pass given a ``feed`` publishes on it what it has recorded
        whenever it runs the timeline on.
        """
        if view is not None and record_timeline:
            raise ValueError("a simulation cannot both replay and record a timeline")
        self.config = config
        self.feed = feed
        self.slice = _full_slice(config) if slice_ is None else slice_
        self.layout: BroadcastLayout = config.layout()
        #: built once, shared by every client's validator: neither
        #: object has a mutator
        self.arithmetic = config.arithmetic()
        self.partition = config.partition()
        self.sim = Simulator()
        self.metrics = MetricsCollector()
        #: interleaved or waved readers, chosen from the config alone
        self.schedule = schedule_for(config, self.slice.num_readers)
        #: span sink for everything this shard measures; the no-op
        #: singleton keeps untraced runs allocation-free
        self.tracer: Tracer = Tracer() if config.tracing else NULL_TRACER
        self.trace = TraceRecorder() if (collect_trace or config.audit) else None
        if self.trace is not None and (
            config.readers_apart or slice_ is not None or view is not None
        ):
            raise ValueError(
                "trace/audit runs need every client in this simulation: "
                + (config.readers_apart or "it was given one shard's slice or view")
            )
        # a no-op plan is indistinguishable from no plan: no runtime,
        # bit-identical event sequences
        self.faults: Optional[FaultRuntime] = None
        if config.faults is not None and not config.faults.is_noop:
            self.faults = FaultRuntime(
                config.faults, self.arithmetic, seed=config.seed
            )
        #: the server side, advanced on demand; None on a replay shard,
        #: whose clients hear the sealed ``view`` instead
        self.timeline: Optional[LiveTimeline] = None
        #: what is on the air for the clients: the live timeline, or the view
        self.on_air: "LiveTimeline | TimelineView"
        if view is None:
            self.on_air = self.timeline = LiveTimeline(
                config,
                self.layout,
                faults=self.faults,
                # timeline spans are primary-only: ghost timelines
                # recompute the same history and would double-emit
                tracer=self.tracer if self.slice.primary else NULL_TRACER,
                # the one image history: a recording pass seals it, a
                # later wave reads far back in it, an audit checks it
                keep_images=record_timeline
                or self.schedule.mode == "waved"
                or config.audit,
            )
        else:
            self.on_air = view

    # -- per-client stream factories -----------------------------------
    # Built on demand (never a list over the whole population): client
    # ``k``'s workload and RNG are pure functions of the config seed and
    # ``k``, so any shard — or the analytical tier, one wave at a
    # time — reconstructs exactly the streams the unsharded run uses.
    def workload_for(self, k: int) -> ClientWorkload:
        config = self.config
        return ClientWorkload(
            config.num_objects,
            length=config.client_txn_length,
            seed=config.seed * 1_000_003 + 100 + k,
            access_skew=config.client_access_skew,
            hot_fraction=config.hot_fraction,
        )

    def rng_for(self, k: int) -> UniformTape:
        # the seed of workload_for(k + 100)'s stream too: a known alias,
        # kept because every pinned digest rests on it (DESIGN.md Sec. 4)
        return UniformTape(self.config.seed * 1_000_003 + 200 + k)

    def cache_for(self, _k: int) -> Optional[QuasiCache]:
        config = self.config
        if config.cache_currency_bound is None:
            return None
        return QuasiCache(config.cache_currency_bound, capacity=config.cache_capacity)

    def validator_for(self, _k: int) -> ReadValidator:
        return make_validator(
            self.config.protocol, arithmetic=self.arithmetic, partition=self.partition
        )

    def client_env(
        self, metrics: MetricsCollector, tracer: Tracer, on_air: Optional[OnAir] = None
    ) -> ClientEnv:
        """The shared half of a kernel population reporting into
        ``metrics`` / ``tracer`` (one per scheduler), hearing ``on_air``
        (by default, this simulation's)."""
        return ClientEnv(
            config=self.config,
            layout=self.layout,
            metrics=metrics,
            on_air=self.on_air if on_air is None else on_air,
            faults=self.faults,
            timeline=self.timeline,
            trace=self.trace,
            tracer=tracer,
        )

    def updater_env(self) -> ClientEnv:
        """The update-capable clients' env: measured on the primary shard;
        elsewhere they are ghosts, recomputing the shared timeline, and
        what they report is dropped."""
        if self.slice.primary:
            return self.client_env(self.metrics, self.tracer)
        return self.client_env(MetricsCollector(), NULL_TRACER)

    def kernel_for(self, env: ClientEnv, k: int) -> ClientKernel:
        return ClientKernel(
            env,
            k,
            self.workload_for(k),
            self.validator_for(k),
            self.rng_for(k),
            self.cache_for(k),
        )

    def _local_client_ids(self) -> List[int]:
        sl = self.slice
        return list(range(sl.updaters)) + list(range(sl.reader_lo, sl.reader_hi))

    # -- recording pass (timeline arena) -------------------------------
    def recording_horizon(self, time: float) -> float:
        """How far the timeline is recorded once a reader has reached ``time``."""
        return time * _HORIZON_FACTOR + _HORIZON_SLACK_CYCLES * self.layout.cycle_bits

    def publish_timeline(self, horizon_time: float) -> None:
        """Advance the timeline to ``horizon_time`` and publish the cycles
        recorded since the last publication, if any.

        Running the timeline ahead of the clients is safe: its journal is
        folded at the run's own stop, and its spans are truncated there.
        """
        feed = self.feed
        assert feed is not None, "publish_timeline requires a feed"
        assert self.timeline is not None
        self.timeline.advance_to(horizon_time)
        first_cycle = feed.chunks[-1].last_cycle + 1 if feed.chunks else 1
        if max(self.timeline.images, default=0) >= first_cycle:
            feed.publish(self.seal_timeline(horizon_time, first_cycle))

    def seal_timeline(self, horizon_time: float, first_cycle: int = 1) -> TimelineArena:
        """Serialise the recorded history from ``first_cycle`` on into an arena.

        The arena shares the timeline's journal rather than copying it: if
        the timeline is later driven past ``horizon_time`` (a fallen-back
        shard outlived it), the fold at the merged stop still covers it.
        """
        assert self.timeline is not None
        return TimelineArena.from_images(
            self.timeline.images,
            cycle_bits=float(self.layout.cycle_bits),
            horizon_time=horizon_time,
            partition=self.partition,
            journal=self.timeline.journal,
            first_cycle=first_cycle,
        )

    def _run_events(self) -> Tuple[float, int]:
        """The event-driven path: process or cohort executor, until the
        engine's queue drains — the instant the last client retires."""
        config = self.config
        sim = self.sim
        ids = self._local_client_ids()
        if config.client_executor == "cohort":
            # ghost updaters (non-primary shards) are a population of
            # their own; everyone this shard measures is the other one
            ghosts = 0 if self.slice.primary else self.slice.updaters
            for env, group in (
                (self.updater_env(), ids[:ghosts]),
                (self.client_env(self.metrics, self.tracer), ids[ghosts:]),
            ):
                if group:
                    kernels = [self.kernel_for(env, k) for k in group]
                    CohortExecutor(sim=sim, env=env, clients=kernels).start()
        else:
            for k in ids:
                sim.spawn(
                    client_process(
                        sim,
                        config,
                        k,
                        self.workload_for(k),
                        self.validator_for(k),
                        self.layout,
                        self.on_air,
                        self.faults,
                        self.metrics,
                        self.rng_for(k),
                        trace=self.trace,
                        cache=self.cache_for(k),
                        tracer=self.tracer,
                    ),
                    name=f"client-{k}",
                )
        return sim.run(), sim.events_processed

    def execute(self) -> Tuple[float, int]:
        """Run the simulation; returns ``(sim_time, events)``.

        ``sim_time`` is when this shard's last client finished, and the
        live timeline, if any, is left advanced to it; ``events`` counts
        the engine's client-side events.  Metrics land in
        ``self.metrics``; :meth:`run` wraps this with the summary
        statistics.  Shard workers call this directly — a secondary
        shard's partial sample set isn't summarisable on its own.
        """
        if self.schedule.mode == "waved":
            sim_time, events = analytic.run_analytic(self, self.schedule.wave)
        else:
            sim_time, events = self._run_events()
        if self.timeline is not None:
            self.timeline.advance_to(sim_time)
        return sim_time, events

    def run(self) -> SimulationResult:
        outcome = ShardOutcome(self.metrics, *self.execute(), self.schedule)
        result = assemble_result(self.config, [outcome], PhaseProfiler(), owner=self)
        if self.config.audit:
            # Imported here (not at module top) so repro.sim never depends
            # on repro.analysis unless auditing is actually requested —
            # analysis imports sim types for annotations only.
            from ..analysis import audit_simulation

            result.audit_report = audit_simulation(result)
        return result


def assemble_result(
    config: SimulationConfig,
    outcomes: Sequence[ShardOutcome],
    profiler: PhaseProfiler,
    *,
    owner: Optional[BroadcastSimulation] = None,
    arena: Optional[TimelineArena] = None,
) -> SimulationResult:
    """The one place a run's measurements become a :class:`SimulationResult`.

    ``outcomes`` are the shards' in shard order — the first is the
    primary slice's, and its collector becomes the merged one.  ``owner``
    is the simulation that ran the timeline live in this process; on a
    timeline-cache hit there is none, and ``arena`` — any chunk of the
    replayed timeline — carries the journal instead.  Exactly one journal
    is folded, at the merged stop: the owner's, else the arena's.
    """
    merged = outcomes[0].metrics
    sim_time = max(outcome.sim_time for outcome in outcomes)
    with profiler.phase("merge"):
        for outcome in outcomes[1:]:
            merged.merge_from(outcome.metrics)
    # the timeline (server completions, crash recovery) keeps going
    # until the globally-last client finishes, and its counters count
    # exactly that far; then it is done, and the result keeps its server
    server = None
    with profiler.phase("drive"):
        if owner is not None:
            timeline = owner.timeline
            assert timeline is not None
            timeline.advance_to(sim_time)
            journal = timeline.journal
            server = timeline.server
            if owner.trace is not None and config.audit:
                owner.trace.cycles = list(timeline.images.values())
            timeline.close()
        else:
            assert arena is not None
            journal = arena.journal
        fold_journal(merged, journal, upto=sim_time)

    spans: Optional[List[Span]] = None
    shard_spans: Optional[List[List[Span]]] = None
    spans_dropped = 0
    if config.tracing:
        shard_spans = [list(outcome.spans) for outcome in outcomes]
        spans_dropped = sum(outcome.spans_dropped for outcome in outcomes)
        if owner is not None:
            # read only now: covering the merged stop (and, on a
            # recording pass, the horizon) emitted the tail of the
            # owner's timeline spans; canonical_spans truncates them
            # with fold_journal's ``start <= sim_time`` predicate, so
            # span counts reconcile with counters
            shard_spans[0] = owner.tracer.export()
            spans_dropped += owner.tracer.dropped
        spans = canonical_spans(shard_spans, sim_time)
    return SimulationResult(
        config=config,
        response_time=merged.response_time(config.measure_fraction),
        restart_ratio=merged.restart_ratio(config.measure_fraction),
        metrics=merged,
        server=server,
        trace=owner.trace if owner is not None else None,
        sim_time=sim_time,
        events=sum(outcome.events for outcome in outcomes),
        schedule=outcomes[0].schedule,
        spans=spans,
        shard_spans=shard_spans,
        spans_dropped=spans_dropped,
    )


def run_simulation(
    config: SimulationConfig, *, collect_trace: bool = False
) -> SimulationResult:
    """Build and run one simulation (sharded when ``config.shards > 1``).

    ``config.timeline_mode == "replay"`` also routes through the shard
    layer (even at one shard): the run records or reuses a sealed
    timeline arena and replays observers against it.
    """
    if collect_trace and config.readers_apart:
        raise ValueError(f"this run keeps no global trace: {config.readers_apart}")
    if config.shards > 1 or config.timeline_mode == "replay":
        from .shard import run_sharded

        return run_sharded(config)
    profiler = PhaseProfiler()
    simulation = BroadcastSimulation(config, collect_trace=collect_trace)
    with profiler.phase("execute"):
        result = simulation.run()
    result.profile = profiler.as_dict()
    return result
