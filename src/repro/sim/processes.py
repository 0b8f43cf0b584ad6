"""Simulation processes: the per-process reference client.

Event choreography (all times in bit-units):

* the **broadcast timeline** (:mod:`repro.sim.timeline`) holds the server
  side — a broadcast image frozen at every cycle boundary, server
  transactions committed in completion order, crashes and recoveries —
  and is no process at all: every client observation first advances it
  to the observer's instant;
* each **client process** runs transactions back to back: an exponential
  think time before each read (except the first, matching
  "inter-operation delay"), a wait until the object's slot in the
  broadcast, validation against the cycle's control snapshot, abort and
  restart from scratch on rejection, an uplink submission at commit for
  an update transaction, and an exponential inter-transaction delay
  after commit.  Response time spans submission to commit, including
  restarts (Sec. 4's metric).

So the engine schedules clients only, and its queue drains when the last
client retires.  Object slots lie strictly inside a cycle, and advancing
the timeline to a read's instant processes the boundary at that instant
first, so a read at slot time ``t`` always observes the broadcast image of
the cycle its slot lies in.

The cohort and analytical executors schedule :mod:`repro.sim.kernel`
instead; this module is the independent reference they are tested against.
"""

from __future__ import annotations

from math import log as _log
from typing import TYPE_CHECKING, Generator, Optional, Sequence, Union

from ..broadcast.layout import FlatLayout
from ..broadcast.program import BroadcastCycle
from ..client.cache import QuasiCache
from ..client.runtime import ClientUpdateTransactionRuntime, ReadOnlyTransactionRuntime
from ..core.validators import ReadValidator
from ..obs.tracer import NULL_TRACER, Tracer
from ..server.workload import ClientWorkload, UniformTape
from .config import CLIENT_UPDATE_WRITE_FRACTION, UPLINK_ROUND_TRIP, SimulationConfig
from .engine import Simulator, Timeout, WaitUntil
from .faults import UPLINK_BACKOFF, UPLINK_MAX_RETRIES, UPLINK_TIMEOUT, FaultRuntime
from .metrics import MetricsCollector
from .timeline import LiveTimeline
from .trace import TraceRecorder

if TYPE_CHECKING:  # type-only: arena never imports processes
    from .arena import TimelineView

__all__ = ["client_process"]

#: what a simulation process generator yields / returns
SimEvents = Generator[Union[Timeout, WaitUntil], None, None]
SimAttempt = Generator[Union[Timeout, WaitUntil], None, bool]

#: the 1-bit re-tune pause after a lost slot; immutable, so one shared
#: instance serves every loss event in every client
_LOSS_RETUNE = Timeout(1.0)


def client_process(
    sim: Simulator,
    config: SimulationConfig,
    client_id: int,
    workload: ClientWorkload,
    validator: ReadValidator,
    layout: FlatLayout,
    timeline: "LiveTimeline | TimelineView",
    faults: Optional[FaultRuntime],
    metrics: MetricsCollector,
    rng: UniformTape,
    trace: Optional[TraceRecorder] = None,
    cache: Optional[QuasiCache] = None,
    tracer: Tracer = NULL_TRACER,
) -> "SimEvents":
    """Run ``num_client_transactions`` client transactions to commit.

    A configurable fraction are *update* transactions (Sec. 3.2.1's
    client functionality): they validate their reads off the air like
    everyone else, buffer writes locally, and at commit ship the
    submission over the uplink for backward validation — a rejection
    restarts the transaction just like a failed read.

    ``timeline`` is the broadcast the client hears: the live one, or on a
    replay shard a sealed one (:class:`repro.sim.arena.TimelineView`);
    ``faults`` is the run's fault state, None on zero-fault runs — every
    fault hook below is guarded on it, so fault-free event sequences are
    untouched.
    """
    restart_pause = Timeout(config.restart_delay) if config.restart_delay > 0 else None
    staleness_window = config.max_cycles
    # exponential delays are expovariate's formula on one tape draw
    txn_lambd = 1.0 / config.mean_inter_transaction_delay
    for _txn_index in range(config.num_client_transactions):
        tid, objects = workload.next_transaction()
        tid = f"cl{client_id}.{tid}"
        is_update = (
            config.client_update_fraction > 0.0
            and config.update_capable(client_id)
            and rng.random() < config.client_update_fraction
        )
        if is_update:
            runtime: ReadOnlyTransactionRuntime = ClientUpdateTransactionRuntime(
                tid, objects, validator, staleness_window=staleness_window
            )
            num_writes = max(1, round(len(objects) * CLIENT_UPDATE_WRITE_FRACTION))
            write_objs = list(objects[:num_writes])
        else:
            runtime = ReadOnlyTransactionRuntime(
                tid, objects, validator, staleness_window=staleness_window
            )
            write_objs = []
        submit_time = sim.now
        restarts = 0

        while True:  # attempts
            attempt_start = sim.now
            committed = yield from _attempt(
                sim,
                config,
                runtime,
                layout,
                timeline,
                faults,
                metrics,
                rng,
                cache,
                client_id=client_id,
                tracer=tracer,
                attempt_start=attempt_start,
            )
            if committed and is_update:
                committed = yield from _submit_update(
                    sim,
                    runtime,
                    write_objs,
                    timeline,
                    metrics,
                    client_id=client_id,
                    tracer=tracer,
                    attempt_start=attempt_start,
                )
            if committed:
                if tracer.enabled:
                    tracer.emit(
                        attempt_start, sim.now, "client", client_id, "attempt", "ok", tid
                    )
                break
            restarts += 1
            runtime.restart()
            if restart_pause is not None:
                yield restart_pause

        metrics.record_commit(tid, submit_time, sim.now, restarts)
        if tracer.enabled:
            tracer.emit(submit_time, sim.now, "client", client_id, "txn", "ok", tid)
        if trace is not None:
            trace.record_session_commit(client_id, tid)
            if not is_update:
                trace.record_client_commit(tid, runtime.versions, runtime.reads)
        yield Timeout(-_log(1.0 - rng.random()) / txn_lambd)


def _submit_update(
    sim: Simulator,
    runtime: ReadOnlyTransactionRuntime,
    write_objs: Sequence[int],
    timeline: "LiveTimeline | TimelineView",
    metrics: MetricsCollector,
    client_id: int = 0,
    tracer: Tracer = NULL_TRACER,
    attempt_start: float = 0.0,
) -> "SimAttempt":
    """Ship a finished update transaction up the uplink; True iff committed.

    With faults active a submission can be lost — because the server is
    down when it arrives, or in transit (the plan's
    ``uplink_loss_probability``, drawn from the client's own seeded
    stream so the sequence is independent of executor and shard layout).
    Either way no verdict comes back: the client waits out the verdict
    timeout, backs off multiplicatively, and resubmits, up to
    ``UPLINK_MAX_RETRIES`` times before the attempt aborts with a
    cause-attributed metric (:mod:`repro.sim.faults`).
    """
    assert isinstance(runtime, ClientUpdateTransactionRuntime)
    # replay shards host readers only: an updater hears the live timeline
    assert isinstance(timeline, LiveTimeline)
    for obj in write_objs:
        runtime.write(obj, f"{runtime.tid}#{runtime.attempt}")
    half_rtt = Timeout(UPLINK_ROUND_TRIP / 2)
    retries = 0
    uplink_start = sim.now
    tid = runtime.tid
    while True:
        yield half_rtt
        status = timeline.uplink(sim.now, client_id, runtime.submission())
        if status in ("crash", "uplink"):
            # no verdict ever comes back
            if status == "crash":
                metrics.uplink_crash_losses += 1
            else:
                metrics.uplink_losses += 1
            if retries >= UPLINK_MAX_RETRIES:
                metrics.record_abort(status)
                if tracer.enabled:
                    tracer.emit(
                        uplink_start, sim.now, "client", client_id,
                        "uplink", status, tid,
                    )
                    tracer.emit(
                        attempt_start, sim.now, "client", client_id,
                        "attempt", status, tid,
                    )
                return False
            if tracer.enabled:
                tracer.emit(
                    sim.now, sim.now, "client", client_id,
                    "uplink.retry", status, tid,
                )
            # wait out the verdict timeout, back off, resubmit
            yield Timeout(UPLINK_TIMEOUT * UPLINK_BACKOFF**retries)
            retries += 1
            metrics.uplink_retries += 1
            continue
        yield half_rtt
        if tracer.enabled:
            tracer.emit(
                uplink_start, sim.now, "client", client_id, "uplink", status, tid
            )
        if status == "ok":
            metrics.client_updates_committed += 1
            return True
        metrics.client_updates_rejected += 1
        metrics.record_abort("conflict")
        if tracer.enabled:
            tracer.emit(
                attempt_start, sim.now, "client", client_id, "attempt", "conflict", tid
            )
        return False


def _attempt(
    sim: Simulator,
    config: SimulationConfig,
    runtime: ReadOnlyTransactionRuntime,
    layout: FlatLayout,
    timeline: "LiveTimeline | TimelineView",
    faults: Optional[FaultRuntime],
    metrics: MetricsCollector,
    rng: UniformTape,
    cache: Optional[QuasiCache],
    client_id: int = 0,
    tracer: Tracer = NULL_TRACER,
    attempt_start: float = 0.0,
) -> "SimAttempt":
    """One attempt of a client transaction; True iff it commits."""
    op_lambd = 1.0 / config.mean_inter_operation_delay
    first = True
    while not runtime.is_done:
        if not first or config.delay_before_first_operation:
            yield Timeout(-_log(1.0 - rng.random()) / op_lambd)
        first = False
        obj = runtime.next_object
        assert obj is not None

        broadcast: Optional[BroadcastCycle] = None
        if cache is not None:
            entry = cache.lookup(obj, sim.now)
            if entry is not None:
                broadcast = entry.as_broadcast()
                metrics.cache_hits += 1
        if broadcast is None:
            while True:
                if faults is not None:
                    wake = faults.doze_wake(client_id, sim.now)
                    if wake is not None:
                        # the radio is off: fast-forward to the rejoin
                        yield WaitUntil(wake)
                hit = layout.next_read(obj, sim.now)
                yield WaitUntil(hit.time)
                if faults is not None and not faults.slot_heard(
                    client_id, hit.time - layout.slot_bits, hit.time, metrics
                ):
                    # dozed or dead air through (part of) the slot: same
                    # re-tune as a radio loss, but charged to its cause
                    yield _LOSS_RETUNE
                    continue
                if (
                    config.broadcast_loss_probability > 0.0
                    and rng.random() < config.broadcast_loss_probability
                ):
                    # radio loss: the slot went by unheard; catch the
                    # object's next appearance
                    metrics.broadcast_losses += 1
                    yield _LOSS_RETUNE
                    continue
                break
            # the image of the slot's cycle, as heard at the slot's end
            timeline.advance_to(hit.time)
            broadcast = timeline.broadcast(hit.cycle)
            # tuning time: the client listened for the whole slot (data +
            # its control share); a cache hit costs nothing — the battery
            # argument of Secs. 2.1/3.3 made measurable
            metrics.listening_bits += layout.slot_bits
            if cache is not None:
                cache.insert(broadcast, obj, sim.now)

        outcome = runtime.deliver(broadcast)
        if outcome.ok:
            metrics.reads_delivered += 1
        else:
            metrics.reads_rejected += 1
            cause = "staleness" if outcome.stale else "conflict"
            metrics.record_abort(cause)
            if cache is not None:
                # every read of this attempt is a staleness suspect —
                # evict them so the retry re-fetches off the air instead
                # of re-aborting on the same cached versions
                cache.evict(outcome.obj)
                for read_obj, _cycle in runtime.reads:
                    cache.evict(read_obj)
            if tracer.enabled:
                tracer.emit(
                    attempt_start, sim.now, "client", client_id,
                    "attempt", cause, runtime.tid,
                )
            return False
    runtime.commit()
    return True
