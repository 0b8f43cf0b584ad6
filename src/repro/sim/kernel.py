"""The client kernel: what one broadcast client does, and nothing about when.

Sec. 3.2.1's client is half a page: wait for ``ob_j``'s slot, admit the
read iff ``C(i, j) < c`` for every ``(ob_i, c) ∈ R_t``, otherwise abort
and restart; a read-only commit needs no uplink.  :class:`ClientKernel`
is that half page with the simulation's bookkeeping around it — think
times, the quasi-cache, doze and loss, update submissions, counters and
spans — as per-client state plus methods that take an explicit time and
return *what the client waits for next*::

    begin(t) ─► advance(t, first) ─► slot end ──┐        (scheduler waits)
                   ▲                            ▼
                   │               heard(t)? ── no ─► retune(t) ─► slot end
                   │                            │ yes
                   └── next read / restart ◄─ deliver(t, image, ok)
                                                │ last read validated
                             finish(t) ◄────────┴─► uplink_arrival(t) …

A method returns the end time of the broadcast slot the client now
awaits (``obj`` / ``cycle`` / ``issue`` describe the wait), or ``None``
when the client left the air: ``wake`` is then the instant of its next
event — an uplink arrival, or, once ``done`` is set, its retirement.

There is no :class:`~repro.sim.engine.Simulator`, no calendar and no
clock in here.  *When* a method runs is the scheduler's business: the
cohort executor (:mod:`repro.sim.cohort`) coalesces slot waits into
buckets, validates each bucket in one batch and settles it with one
call of :meth:`ClientKernel.settle` (``deliver`` is that step for a
bucket of one), the analytical tier
(:mod:`repro.sim.analytic`) runs one client at a time against a recorded
timeline.  :mod:`repro.sim.processes` stays the event-level reference
both are tested against: every RNG draw, cache probe, slot seek and
validator call below happens in the order ``client_process`` makes it,
and exponential delays are drawn as ``-log(1 - random()) / lambd`` — the
exact formula of :meth:`random.Random.expovariate` on the same single
draw — so every simulated outcome is bit-identical across the three.

A client holds no generator.  Both of its streams are tapes
(:mod:`repro.server.workload`): the workload hands out read sets, and
``rng``, a :class:`~repro.server.workload.UniformTape`, the ``random()``
draws — update gate, radio loss and think times, the last read by index
in :meth:`ClientKernel.settle`.  Each is its seed, a cursor and a few
pre-drawn values, refilled from one shared generator, and equal to the
``random.Random`` stream it replaces draw for draw.
"""

from __future__ import annotations

from math import log as _log
from typing import Iterator, List, Optional, Sequence, Union

from ..broadcast.layout import BroadcastLayout, FlatLayout
from ..broadcast.program import BroadcastCycle
from ..client.cache import QuasiCache
from ..client.runtime import ClientUpdateTransactionRuntime, ReadOnlyTransactionRuntime
from ..core.validators import ReadValidator
from ..obs.tracer import NULL_TRACER, Tracer
from ..server.workload import ClientWorkload, UniformTape
from .config import SimulationConfig
from .faults import FaultRuntime
from .metrics import MetricsCollector
from .timeline import LiveTimeline
from .trace import TraceRecorder

__all__ = ["ClientEnv", "ClientKernel", "STALE"]


class Stale:
    """The type of :data:`STALE`, its one instance."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "STALE"


#: the verdict a scheduler hands :meth:`ClientKernel.settle` for a read
#: the runtime's staleness guard refused: falsy like ``False`` (the read
#: is rejected), but charged to ``staleness`` instead of ``conflict``
STALE = Stale()


class ClientEnv:
    """What the clients of one scheduler share: parameters and sinks."""

    __slots__ = (
        "config",
        "layout",
        "metrics",
        "faults",
        "timeline",
        "trace",
        "tracer",
        "staleness",
        "op_lambd",
        "txn_lambd",
        "half_rtt",
        "delay_first",
        "loss",
        "flat_offsets",
        "cycle_bits",
        "slot_bits",
    )

    def __init__(
        self,
        *,
        config: SimulationConfig,
        layout: BroadcastLayout,
        metrics: MetricsCollector,
        faults: Optional[FaultRuntime] = None,
        timeline: Optional[LiveTimeline] = None,
        trace: Optional[TraceRecorder] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.config = config
        self.layout = layout
        self.metrics = metrics
        self.faults = faults
        #: the uplink's far end; None where no client may update
        self.timeline = timeline
        self.trace = trace
        self.tracer = tracer
        #: the paper's max-cycles rejoin bound, active under modulo
        #: timestamps with faults: each runtime's staleness guard
        #: (``runtime.stale``) then runs per delivery, before validation —
        #: a scheduler runs it per bucket member ahead of the sweep
        self.staleness = faults.staleness_window if faults is not None else None
        # exponential-delay rates, evaluated exactly as the per-process
        # path does (1.0 / mean), so inline draws divide by the
        # bit-identical lambda
        self.op_lambd = 1.0 / config.mean_inter_operation_delay
        self.txn_lambd = 1.0 / config.mean_inter_transaction_delay
        self.half_rtt = config.uplink_round_trip / 2.0
        # read by every client step: kept one attribute hop away
        self.delay_first = config.delay_before_first_operation
        self.loss = config.broadcast_loss_probability
        #: flat layouts are the common case: their slot timing is pure
        #: arithmetic, inlined in ``ClientKernel.settle``; other layouts go
        #: through ``layout.next_read``
        self.flat_offsets: Optional[List[int]] = None
        if isinstance(layout, FlatLayout):
            self.flat_offsets = [
                layout.slot_end_offset(obj) for obj in range(layout.num_objects)
            ]
        self.cycle_bits = layout.cycle_bits
        self.slot_bits = layout.slot_bits


class ClientKernel:
    """One client's state and its read / validate / restart step."""

    __slots__ = (
        "env",
        "client_id",
        "workload",
        "validator",
        "rng",
        "cache",
        "runtime",
        "txn_index",
        "submit_time",
        "write_objs",
        "uplink_retries",
        "attempt_start",
        "uplink_start",
        "obj",
        "cycle",
        "issue",
        "wake",
        "done",
    )

    def __init__(
        self,
        env: ClientEnv,
        client_id: int,
        workload: ClientWorkload,
        validator: ReadValidator,
        rng: UniformTape,
        cache: Optional[QuasiCache],
    ) -> None:
        self.env = env
        self.client_id = client_id
        self.workload = workload
        self.validator = validator
        self.rng = rng
        self.cache = cache
        self.runtime: Optional[ReadOnlyTransactionRuntime] = None
        self.txn_index = 0
        self.submit_time = 0.0
        #: objects an update transaction rewrites; empty for read-only ones
        self.write_objs: List[int] = []
        self.uplink_retries = 0
        # span bookkeeping
        self.attempt_start = 0.0
        self.uplink_start = 0.0
        #: the pending read: its object, and — once a slot is sought — the
        #: cycle that slot lies in and the instant the wait was issued
        #: (think expiry or doze wake: when the per-process path would
        #: have pushed its ``WaitUntil``)
        self.obj = 0
        self.cycle = 0
        self.issue = 0.0
        #: off the air: the instant of the next uplink arrival, or of the
        #: client's retirement once ``done``
        self.wake = 0.0
        self.done = False

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self, submit_time: float) -> None:
        """Install the client's next transaction, submitted at ``submit_time``.

        Draws the workload, then the update gate: both of its guards
        short-circuit, so clients that cannot update consume no RNG value.
        """
        config = self.env.config
        tid, objects = self.workload.next_transaction()
        tid = f"cl{self.client_id}.{tid}"
        staleness = self.env.staleness
        if (
            config.client_update_fraction > 0.0
            and config.update_capable(self.client_id)
            and self.rng.random() < config.client_update_fraction
        ):
            self.runtime = ClientUpdateTransactionRuntime(
                tid, objects, self.validator, staleness_window=staleness
            )
            num_writes = max(
                1, round(len(objects) * config.client_update_write_fraction)
            )
            self.write_objs = list(objects[:num_writes])
        else:
            self.runtime = ReadOnlyTransactionRuntime(
                tid, objects, self.validator, staleness_window=staleness
            )
            self.write_objs = []
        self.obj = self.runtime.objects[0]
        # the first attempt starts the instant the transaction is submitted
        self.submit_time = self.attempt_start = submit_time

    def finish(self, commit_time: float) -> Optional[float]:
        """Record the commit, draw the inter-transaction delay, begin what
        is next.  Returns the next transaction's start, or ``None`` when
        the client has none left: it retires at ``wake``, after the
        trailing delay, as the per-process client does.
        """
        env = self.env
        runtime = self.runtime
        assert runtime is not None
        tid = runtime.tid
        # a runtime lives for one transaction, so its attempt counter is
        # the transaction's restart count
        env.metrics.record_commit(tid, self.submit_time, commit_time, runtime.attempt)
        if env.tracer.enabled:
            client = self.client_id
            env.tracer.emit(
                self.attempt_start, commit_time, "client", client, "attempt", "ok", tid
            )
            env.tracer.emit(
                self.submit_time, commit_time, "client", client, "txn", "ok", tid
            )
        if env.trace is not None:
            env.trace.record_session_commit(self.client_id, tid)
            if not self.write_objs:
                env.trace.record_client_commit(tid, runtime.versions, runtime.reads)
        start_time = commit_time - _log(1.0 - self.rng.random()) / env.txn_lambd
        self.txn_index += 1
        if self.txn_index >= env.config.num_client_transactions:
            self.wake = start_time
            self.done = True
            return None
        self.begin(start_time)
        return start_time

    def _restart(self, time: float, cause: str) -> float:
        """The attempt failed at ``time``; returns when the next begins."""
        runtime = self.runtime
        assert runtime is not None
        start_time = time + self.env.config.restart_delay
        if self.env.tracer.enabled:
            self.env.tracer.emit(
                self.attempt_start, time, "client", self.client_id,
                "attempt", cause, runtime.tid,
            )
        self.attempt_start = start_time
        runtime.restart()
        self.obj = runtime.objects[0]
        return start_time

    # ------------------------------------------------------------------
    # the read loop
    # ------------------------------------------------------------------
    def advance(self, now: float, first: bool) -> Optional[float]:
        """Drive the client from ``now`` until it has to wait.

        ``first`` says the next read opens an attempt (no think time
        before it unless the config asks for one).  Think expiries and
        cache hits are local computation: every value they observe (cache
        content, validator state, RNG draws) is private to the client, so
        nothing the rest of the simulation does between ``now`` and the
        returned wait can change the outcome.
        """
        return self.deliver(now, None, first=first)

    def heard(self, time: float) -> bool:
        """Did the client receive the slot that ends at ``time``?

        Doze and dead air first, then the radio-loss draw — an unheard
        slot consumes no loss randomness — exactly as the per-process
        loop decides at its own slot event.
        """
        env = self.env
        faults = env.faults
        if faults is not None and not faults.slot_heard(
            self.client_id, time - env.slot_bits, time, env.metrics
        ):
            return False
        loss = env.loss
        if loss > 0.0 and self.rng.random() < loss:
            env.metrics.broadcast_losses += 1
            return False
        return True

    def retune(self, time: float) -> float:
        """The slot at ``time`` went by unheard: a 1-bit re-tune, then the
        object's next appearance."""
        end = self.deliver(time + 1.0, None, seek_only=True)
        assert end is not None  # a seek always ends in a slot wait
        return end

    def deliver(
        self,
        time: float,
        broadcast: Optional[BroadcastCycle],
        ok: Union[bool, Stale, None] = None,
        *,
        first: bool = False,
        seek_only: bool = False,
    ) -> Optional[float]:
        """The awaited slot was heard at ``time``; carry on from there.

        ``ok`` is the read condition's verdict when the scheduler already
        evaluated it (batch validation, which also recorded a successful
        read into ``R_t``), or :data:`STALE` when the runtime's staleness
        guard refused the read before validation; ``None`` has the
        runtime guard and validate.  :meth:`settle` for a bucket of one:
        :meth:`advance` and :meth:`retune` enter it with
        ``broadcast=None`` (nothing was heard: move on from ``time``),
        the latter past the think time and the cache too.
        """
        (end,) = ClientKernel.settle(
            self.env, (self,), time, broadcast, (ok,),
            first=first, seek_only=seek_only,
        )
        return end

    @staticmethod
    def settle(
        env: ClientEnv,
        kernels: Sequence["ClientKernel"],
        time: float,
        broadcast: Optional[BroadcastCycle],
        verdicts: Sequence[Union[bool, Stale, None]],
        *,
        first: bool = False,
        seek_only: bool = False,
    ) -> Iterator[Optional[float]]:
        """The client step, whole, for every client that heard one slot
        (or, with ``broadcast=None``, moves on from ``time`` unheard).

        Yields, member by member and in order, what :meth:`deliver`
        returns for it: settle the read (``verdicts`` aligned with
        ``kernels``, as :meth:`deliver`'s ``ok``), think, serve what the
        cache can (each hit is settled by the same code on the next turn
        of the loop), then seek the next slot.  This is the one copy of
        the step — the reject block, the think draw, the flat-slot
        arithmetic — and a scheduler that hears a slot for many clients
        pays one call and one read of the shared ``env`` for all of
        them; the slot's tuning time and its handed-in accepts are
        counted once.  A lazy generator: a scheduler places each member
        as it is yielded, before the next member's step runs.
        """
        metrics = env.metrics
        # versions are retained only for the trace recorder
        tracing = env.trace is not None
        staleness = env.staleness
        faults = env.faults
        offsets = env.flat_offsets
        cycle_bits = env.cycle_bits
        op_lambd = env.op_lambd
        delay_first = env.delay_first
        if broadcast is not None:
            # tuning time: each client listened for the whole slot (data +
            # its control share); a cache hit costs nothing — the battery
            # argument of Secs. 2.1/3.3 made measurable
            metrics.listening_bits += env.slot_bits * len(kernels)
            metrics.reads_delivered += verdicts.count(True)
        for kernel, ok in zip(kernels, verdicts):
            cache = kernel.cache
            runtime = kernel.runtime
            assert runtime is not None
            now, heard, opening = time, broadcast, first
            end: Optional[float] = None
            if heard is not None and cache is not None:
                cache.insert(heard, kernel.obj, time)
            while True:
                if heard is not None:
                    if ok is None:
                        # no verdict handed in: the runtime's staleness
                        # guard, then the read condition, as a scheduler
                        # runs them for a bucket
                        snapshot = heard.snapshot
                        if staleness is not None and runtime.stale(snapshot.cycle):
                            ok = STALE
                        elif kernel.validator.validate_read(kernel.obj, snapshot):
                            ok = True
                            metrics.reads_delivered += 1
                        else:
                            ok = False
                    if ok:
                        next_obj = runtime.apply_read_ok(heard if tracing else None)
                        if next_obj is not None:
                            kernel.obj = next_obj
                            opening = False
                        elif kernel.write_objs:
                            # the last read validated: the transaction is
                            # done reading, so it needs no commit() check
                            kernel._begin_uplink(now)
                            break
                        else:
                            start_time = kernel.finish(now)
                            if start_time is None:
                                break
                            now, opening, runtime = start_time, True, kernel.runtime
                    else:
                        cause = "staleness" if ok is STALE else "conflict"
                        metrics.reads_rejected += 1
                        metrics.record_abort(cause)
                        if cache is not None:
                            # every read of this attempt is a staleness
                            # suspect — evict them so the retry re-fetches
                            # off the air instead of re-aborting on the
                            # same cached versions
                            cache.evict(kernel.obj)
                            for read_obj, _cycle in runtime.reads:
                                cache.evict(read_obj)
                        now, opening = kernel._restart(now, cause), True
                issue = now
                if not seek_only:
                    if not opening or delay_first:
                        # the think draw: ``rng.random()``, inlined
                        tape = kernel.rng
                        uniforms, i = tape.uniforms, tape.cursor
                        if i == len(uniforms):
                            uniforms, i = tape.refill(), 0
                        tape.cursor = i + 1
                        issue = now - _log(1.0 - uniforms[i]) / op_lambd
                    if cache is not None:
                        entry = cache.lookup(kernel.obj, issue)
                        if entry is not None:
                            metrics.cache_hits += 1
                            now, heard, ok = issue, entry.as_broadcast(), None
                            continue
                # wait for the first slot of ``obj`` ending at or after ``issue``
                if faults is not None:
                    # the (static) doze schedule is checked at seek time
                    # and the client fast-forwards to its rejoin; the wait
                    # is issued then
                    wake = faults.doze_wake(kernel.client_id, issue)
                    if wake is not None:
                        issue = wake
                if offsets is not None:
                    # FlatLayout.next_read, inlined (pure arithmetic, no SlotHit)
                    cycle = int(issue // cycle_bits) + 1
                    end = (cycle - 1) * cycle_bits + offsets[kernel.obj]
                    if cycle > 1 and end - cycle_bits >= issue:
                        cycle -= 1
                        end -= cycle_bits
                    elif end < issue:
                        cycle += 1
                        end += cycle_bits
                else:
                    hit = env.layout.next_read(kernel.obj, issue)
                    end, cycle = hit.time, hit.cycle
                kernel.cycle = cycle
                kernel.issue = issue
                break
            yield end

    # ------------------------------------------------------------------
    # update transactions: the uplink
    # ------------------------------------------------------------------
    def _begin_uplink(self, time: float) -> None:
        """Buffer the writes (stamped ``tid#attempt`` per attempt) and
        ship the submission: it reaches the server half a round trip on."""
        runtime = self.runtime
        assert isinstance(runtime, ClientUpdateTransactionRuntime)
        for write_obj in self.write_objs:
            runtime.write(write_obj, f"{runtime.tid}#{runtime.attempt}")
        self.uplink_retries = 0
        self.uplink_start = time
        self.wake = time + self.env.half_rtt

    def uplink_arrival(self, now: float) -> Optional[float]:
        """The submission reaches the server at ``now`` — or doesn't.

        The timeline's uplink door decides at the arrival instant: lost
        to a dead server or in transit (from the client's own numpy
        stream), or validated by the server.  The verdict's client-side
        consequences touch only private state, so they are computed on
        the spot, dated ``now + half_rtt``.
        """
        env = self.env
        metrics = env.metrics
        tracer = env.tracer
        runtime = self.runtime
        assert isinstance(runtime, ClientUpdateTransactionRuntime)
        assert env.timeline is not None
        client, tid = self.client_id, runtime.tid
        status = env.timeline.uplink(now, client, runtime.submission())
        if status in ("crash", "uplink"):
            # no verdict ever comes back
            if status == "crash":
                metrics.uplink_crash_losses += 1
            else:
                metrics.uplink_losses += 1
            assert env.faults is not None
            plan = env.faults.plan
            if self.uplink_retries >= plan.uplink_max_retries:
                metrics.record_abort(status)
                if tracer.enabled:
                    tracer.emit(
                        self.uplink_start, now, "client", client, "uplink", status, tid
                    )
                return self.advance(self._restart(now, status), True)
            if tracer.enabled:
                tracer.emit(now, now, "client", client, "uplink.retry", status, tid)
            # wait out the verdict timeout, back off, resubmit
            delay = plan.uplink_timeout * plan.uplink_backoff**self.uplink_retries
            self.uplink_retries += 1
            metrics.uplink_retries += 1
            self.wake = now + delay + env.half_rtt
            return None
        verdict_time = now + env.half_rtt
        if tracer.enabled:
            tracer.emit(
                self.uplink_start, verdict_time, "client", client, "uplink", status, tid
            )
        if status == "ok":
            metrics.client_updates_committed += 1
            start_time = self.finish(verdict_time)
            return None if start_time is None else self.advance(start_time, True)
        metrics.client_updates_rejected += 1
        metrics.record_abort("conflict")
        # a rejected update restarts its read phase from scratch
        return self.advance(self._restart(verdict_time, "conflict"), True)
