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

* **Phase A — the updaters.**  When the config bounds the update
  population via ``num_update_clients``, the update-capable clients run
  event-driven under the cohort executor, advancing the live timeline
  (:mod:`repro.sim.timeline`) through their reads and uplink
  submissions.  The timeline retains every installed image by cycle
  number.  The history this produces is bit-identical to the unsharded
  run's, because read-only clients never perturb it — the oracle
  equivalence tests assert exactly that.

* **Phase B — the replay.**  Each read-only client is fast-forwarded by
  a straight-line loop over its :class:`~repro.sim.kernel.ClientKernel`
  — the same kernel the cohort executor schedules, so the same RNG draws
  in the same order, the same slot arithmetic, the same cache/validator
  interactions — with a plain float for the clock instead of simulator
  events: the slot end the kernel returns *is* the next instant.  Each
  read advances the timeline to its own instant first; replayed clients
  each start from t = 0, so early cycles are re-read arbitrarily late.
  Transient state is O(1) per client: one kernel (workload, RNG,
  validator, cache) is alive at a time and dropped when its client
  finishes.

The tier refuses fault plans (a dozing or crash-affected client's
trajectory is not closed-form replayable — config validation enforces
this); it keeps no global trace (``SimulationConfig.readers_apart``).
Memory is O(cycles simulated) for the retained images plus O(commits)
for metrics (24 bytes and a tid per commit; no sample objects).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

from .cohort import CohortExecutor

if TYPE_CHECKING:
    from .arena import TimelineView
    from .simulation import BroadcastSimulation
    from .timeline import LiveTimeline

__all__ = ["run_analytic"]


def run_analytic(simulation: "BroadcastSimulation") -> Tuple[float, int]:
    """Run ``simulation`` through the analytical tier.

    Returns ``(sim_time, events)``: the instant the last client finished
    (bit-identical to the event-driven run's stop time) and the number
    of engine events the updaters took — replayed readers, by
    construction, cost none.
    """
    sim = simulation.sim

    timeline = simulation.timeline
    if timeline is None:
        # replay shard: the timeline already happened (a sealed arena) —
        # there is no Phase A at all, just Phase B against the arena.
        # Reading past the arena's horizon raises TimelineExhausted,
        # which the shard layer turns into a recompute fallback.
        return _replay(simulation, simulation.on_air, None, 0.0), sim.events_processed

    # Phase A: the update-capable clients, event-driven under the cohort
    # executor, until the engine drains.  Their same-time interleaving
    # with reader events in the oracle run is unobservable — readers
    # mutate nothing — so the history they leave is bit-identical.
    updaters = simulation.slice.updaters
    if updaters > 0:
        env = simulation.updater_env()
        CohortExecutor(
            sim=sim,
            timeline=timeline,
            env=env,
            clients=[simulation.kernel_for(env, k) for k in range(updaters)],
        ).start()
        sim.run()
        if simulation.feed is not None:
            simulation.publish_timeline(sim.now)

    # Phase B: fast-forward each read-only client against the timeline
    advance: Callable[[float], None] = timeline.advance_to
    if simulation.feed is not None:
        # a recording pass runs the timeline to the recording horizon of
        # the instant a reader needs, and publishes what that recorded,
        # staying ahead of the shards replaying the feed on other cores
        reach = sim.now

        def advance(time: float) -> None:
            nonlocal reach
            if time > reach:
                reach = simulation.recording_horizon(time)
                simulation.publish_timeline(reach)

    return _replay(simulation, timeline, advance, sim.now), sim.events_processed


def _replay(
    simulation: "BroadcastSimulation",
    timeline: "LiveTimeline | TimelineView",
    advance: Optional[Callable[[float], None]],
    sim_time: float,
) -> float:
    """Phase B: run this shard's readers one by one against ``timeline``.

    ``advance`` (None for a sealed timeline) runs the live timeline to a
    read's instant before the read.  Returns the latest finish time (at
    least ``sim_time``).  The loop is the whole scheduler: a fault-free
    reader's next instant is the slot end its kernel returns, so there is
    no calendar to keep.
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
                if advance is not None:
                    advance(end)
                end = kernel.deliver(end, timeline.broadcast(kernel.cycle))
        # readers never use the uplink: off the air means retired
        if kernel.wake > sim_time:
            sim_time = kernel.wake
    return sim_time
