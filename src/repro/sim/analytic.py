"""The analytical tier: closed-form replay of fault-free read-only clients.

The cohort executor (:mod:`repro.sim.cohort`) already collapses a
client's think-time events and coalesces its slot waits, but it still
keeps every client's transaction state resident and pays one bucket
membership per read.  For the regimes the scaling benchmarks probe —
10⁵–10⁶ *read-only* clients over one shared broadcast — even that is
more machinery than the physics requires, because a fault-free read-only
client **never influences anything**: not the server, not the broadcast,
not any other client.  Its entire trajectory is a deterministic function
of (a) its private seeded streams and (b) the broadcast image sequence.

So the tier splits the run in two:

* **Phase A — the timeline.**  One ordinary event simulation hosts the
  cycle process, the server process, and (when the config bounds the
  update population via ``num_update_clients``) the update-capable
  clients under the cohort executor.  Every installed broadcast image is
  retained by cycle number (``SharedState.record_images``).  The event
  sequence this produces is bit-identical to the unsharded run's,
  because read-only clients never perturb it — the oracle equivalence
  tests assert exactly that.

* **Phase B — the replay.**  Each read-only client is fast-forwarded by
  a straight-line loop over its :class:`~repro.sim.kernel.ClientKernel`
  — the same kernel the cohort executor schedules, so the same RNG draws
  in the same order, the same slot arithmetic, the same cache/validator
  interactions — with a plain float for the clock instead of simulator
  events: the slot end the kernel returns *is* the next instant.  When a
  replay reads past the timeline's horizon, the timeline lazily extends
  itself (``sim.run(until=...)``) to manufacture the missing cycles.
  Transient state is O(1) per client: one kernel (workload, RNG,
  validator, cache) is alive at a time and dropped when its client
  finishes.

The tier refuses fault plans (a dozing or crash-affected client's
trajectory is not closed-form replayable — config validation enforces
this) and trace collection (nothing event-driven happens for readers).
Memory is O(cycles simulated) for the retained images plus O(commits)
for metrics (24 bytes and a tid per commit; no sample objects).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..broadcast.program import BroadcastCycle
from .cohort import CohortExecutor
from .engine import Simulator

if TYPE_CHECKING:
    from .arena import TimelineView
    from .simulation import BroadcastSimulation

__all__ = ["run_analytic"]


class _Timeline:
    """Lazily-extended broadcast history backing the replays.

    ``broadcast(cycle)`` returns the image the event simulation
    installed for that cycle, running the simulation forward to the
    cycle's start instant first if it hasn't got there yet.  Every
    image ever installed stays addressable (replayed clients each start
    from t = 0, so early cycles are re-read arbitrarily late).

    A recording pass with a feed extends to the recording horizon of
    that instant instead and publishes what that recorded, staying ahead
    of the shards replaying the feed on other cores.  Safe there and
    only there: its timeline counters are journalled and folded at the
    run's own stop time, so running early counts nothing early.
    """

    __slots__ = ("_sim", "_images", "_cycle_bits", "_max_events", "_recorder")

    def __init__(
        self,
        simulation: "BroadcastSimulation",
        images: Dict[int, BroadcastCycle],
        max_events: Optional[int],
    ) -> None:
        self._sim: Simulator = simulation.sim
        self._images = images
        self._cycle_bits = simulation.layout.cycle_bits
        self._max_events = max_events
        self._recorder = simulation if simulation.feed is not None else None

    def broadcast(self, cycle: int) -> BroadcastCycle:
        image = self._images.get(cycle)
        if image is not None:
            return image
        # cycle c's image is installed by the boundary event at its start
        # instant; run(until=) processes events at that instant inclusive
        target = (cycle - 1) * self._cycle_bits
        if target >= self._sim.now:
            recorder = self._recorder
            if recorder is not None:
                target = recorder.recording_horizon(target)
            self._sim.run(until=target, max_events=self._max_events)
            if recorder is not None:
                recorder.publish_timeline(target)
        return self._images[cycle]


def run_analytic(
    simulation: "BroadcastSimulation", *, max_events: Optional[int] = None
) -> Tuple[float, int]:
    """Run ``simulation`` through the analytical tier.

    Returns ``(sim_time, events)``: the instant the last client finished
    (bit-identical to the event-driven run's stop time) and the number
    of *timeline* events processed — replayed readers, by construction,
    cost none.
    """
    if simulation.trace is not None:
        raise ValueError("the analytical tier records no trace")
    state = simulation.state
    sim = simulation.sim
    sl = simulation.slice

    view = simulation.timeline_view
    if view is not None:
        # replay shard: the timeline already happened (a sealed arena) —
        # there is no Phase A at all, just Phase B against the arena.
        # Reading past the arena's horizon raises TimelineExhausted,
        # which the shard layer turns into a recompute fallback.
        return _replay(simulation, view, 0.0), sim.events_processed

    if state.record_images is None:
        state.record_images = {}
    simulation.spawn_timeline()

    # Phase A: drive the shared timeline until every update-capable
    # client (simulated event-driven, under the cohort executor) is done.
    # Their same-time interleaving with reader events in the oracle run
    # is unobservable — readers mutate nothing — so this sub-simulation's
    # event sequence, and hence the image history, is bit-identical.
    updaters = sl.updaters
    if updaters > 0:
        # measured on the primary, ghosts (shadow collector) elsewhere
        env = simulation.client_env(
            simulation.metrics if sl.primary else simulation._timeline_metrics,
            state.tracer,
        )
        CohortExecutor(
            sim=sim,
            state=state,
            env=env,
            clients=[simulation.kernel_for(env, k) for k in range(updaters)],
        ).start()
        sim.run(
            stop_when=lambda: state.clients_done >= updaters,
            max_events=max_events,
        )
        if simulation.feed is not None:
            simulation.publish_timeline(sim.now)

    # Phase B: fast-forward each read-only client against the timeline.
    timeline = _Timeline(simulation, state.record_images, max_events)
    sim_time = _replay(simulation, timeline, sim.now)
    # the event-driven run keeps processing timeline events until the
    # last client's done instant — mirror that, so server-side tallies
    # (completions, commits) cover the same simulated span exactly
    if sim_time > sim.now:
        sim.run(until=sim_time, max_events=max_events)
    return sim_time, sim.events_processed


def _replay(
    simulation: "BroadcastSimulation",
    timeline: "_Timeline | TimelineView",
    sim_time: float,
) -> float:
    """Phase B: run this shard's readers one by one against ``timeline``.

    Returns the latest finish time (at least ``sim_time``).  The loop is
    the whole scheduler: a fault-free reader's next instant is the slot
    end its kernel returns, so there is no calendar to keep.
    """
    env = simulation.client_env(simulation.metrics, simulation.tracer)
    lossy = env.loss > 0.0
    sl = simulation.slice
    for k in range(sl.reader_lo, sl.reader_hi):
        kernel = simulation.kernel_for(env, k)
        kernel.begin(0.0)
        end = kernel.advance(0.0, True)
        while end is not None:
            if lossy and not kernel.heard(end):
                end = kernel.retune(end)
            else:
                end = kernel.deliver(end, timeline.broadcast(kernel.cycle))
        # readers never use the uplink: off the air means retired
        if kernel.wake > sim_time:
            sim_time = kernel.wake
    return sim_time
