"""The waved schedule: read-only clients, replayed in waves.

A ``cohort`` run takes it when the schedule model
(:mod:`repro.sim.schedule`) says so, with the model's wave size;
``client_executor="analytic"`` forces it, with :data:`WAVE`.

A read-only client **never influences anything**: not the server, not
the broadcast, not any other client (it commits without the uplink,
Sec. 3.2.1).  Its entire trajectory is a deterministic function of (a)
its private seeded streams and doze windows and (b) the broadcast image
sequence, so once the timeline is fixed readers may be run in any
grouping, in any order, and each still does exactly what it does in the
event-driven run.

So the tier splits the run in two:

* **Phase A — the updaters.**  The update-capable clients (every
  client, when ``num_update_clients`` leaves the population unbounded)
  run event-driven under the cohort executor, advancing the live timeline
  (:mod:`repro.sim.timeline`) through their reads and uplink
  submissions.  The timeline retains every installed image by cycle
  number.  The history this produces is bit-identical to the unsharded
  run's, because read-only clients never perturb it — the oracle
  equivalence tests assert exactly that.

* **Phase B — the readers, a wave at a time.**  The shard's readers go
  through the cohort executor (:mod:`repro.sim.cohort`) a wave at a
  time: each wave is a fresh engine from t = 0 whose slot buckets
  settle all its members that wait for one slot together (one sweep,
  one pass), drained before the next wave is built.  Every wave hears
  the same timeline, its env's :attr:`~repro.sim.kernel.ClientEnv.on_air`
  — live (its images retained), a replay shard's sealed view, or, on a
  recording pass, a hook that runs the live one on to a recording
  horizon (and publishes it) whenever a reader reaches past it.  Loss,
  doze, crash stalls, re-tuning and multi-disk layouts are the kernel's
  own (:meth:`~repro.sim.kernel.ClientKernel.settle`); reading past a
  sealed view raises
  :class:`~repro.sim.arena.TimelineExhausted` for the shard layer's
  fallback.  Transient state is O(wave): a wave's kernels (workload,
  tapes, validator, cache) go when it drains.

The waves share the simulation's metrics, tracer and trace recorder, so
an unsharded run keeps one global trace under this tier too.  Memory is
O(cycles simulated) for the retained images, O(commits) for metrics
(24 bytes and a tid per commit) and O(wave) for the readers in flight.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from .cohort import CohortExecutor
from .engine import Simulator

if TYPE_CHECKING:
    from ..broadcast.program import BroadcastCycle
    from .simulation import BroadcastSimulation

__all__ = ["WAVE", "run_analytic"]

#: readers replayed together under ``client_executor="analytic"``:
#: bounded, so a shard's working set is one wave's kernels and buckets
#: (docs/PERFORMANCE.md §5 has the table)
WAVE = 128


class _Recording:
    """A recording pass's live timeline as its readers hear it: reaching
    past the recorded horizon runs it on to a new one and publishes it,
    staying ahead of the shards replaying the feed on other cores."""

    __slots__ = ("simulation", "reach")

    def __init__(self, simulation: "BroadcastSimulation", reach: float) -> None:
        self.simulation = simulation
        self.reach = reach

    def advance_to(self, time: float) -> None:
        if time > self.reach:
            self.reach = self.simulation.recording_horizon(time)
            self.simulation.publish_timeline(self.reach)

    def broadcast(self, cycle: int) -> "BroadcastCycle":
        assert self.simulation.timeline is not None
        return self.simulation.timeline.broadcast(cycle)


def run_analytic(simulation: "BroadcastSimulation", wave: int) -> Tuple[float, int]:
    """Run ``simulation`` through the analytical tier, ``wave`` readers
    at a time (:data:`WAVE` under ``client_executor="analytic"``, the
    schedule's wave under ``"cohort"``: :mod:`repro.sim.schedule`).

    Returns ``(sim_time, events)``: the instant the last client finished
    (bit-identical to the event-driven run's stop time — the latest
    drain of Phase A and the waves) and the engine events of Phase A
    plus every wave's bucket and retirement events.
    """
    sim = simulation.sim
    sl = simulation.slice
    # Phase A (never on a replay shard: its slice holds observers only):
    # the update-capable clients, event-driven under the cohort
    # executor, until the engine drains.  Their same-time interleaving
    # with reader events in the oracle run is unobservable — readers
    # mutate nothing — so the history they leave is bit-identical.
    if sl.updaters > 0:
        env = simulation.updater_env()
        CohortExecutor(
            sim=sim,
            env=env,
            clients=[simulation.kernel_for(env, k) for k in range(sl.updaters)],
        ).start()
        sim.run()
        if simulation.feed is not None:
            simulation.publish_timeline(sim.now)

    # Phase B: the readers, a bounded wave at a time; on a recording pass
    # they hear the recording hook, elsewhere the simulation's broadcast
    sim_time, events = sim.now, sim.events_processed
    recording = None if simulation.feed is None else _Recording(simulation, sim.now)
    env = simulation.client_env(simulation.metrics, simulation.tracer, recording)
    for lo in range(sl.reader_lo, sl.reader_hi, wave):
        engine = Simulator()
        ids = range(lo, min(lo + wave, sl.reader_hi))
        CohortExecutor(
            sim=engine,
            env=env,
            clients=[simulation.kernel_for(env, k) for k in ids],
        ).start()
        sim_time = max(sim_time, engine.run())
        events += engine.events_processed
    return sim_time, events
