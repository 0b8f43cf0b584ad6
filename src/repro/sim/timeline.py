"""The broadcast timeline: the server side of a run, as a function of time.

In the paper (Sec. 3.2.1) a server commit reaches clients only through the
image frozen at the next cycle boundary, and every server draw comes from
the server's own seeded streams.  So the whole server side — completions,
commits, cycle freezes, crashes and recoveries — is fixed by the config
before the run starts, and a client can observe it only three ways: by
reading a frozen image, by submitting an update over the uplink, and by
the counters read at run end.  :class:`LiveTimeline` computes it on
demand: :meth:`~LiveTimeline.advance_to` processes every timeline event at
or before an instant, and the observers call it with theirs::

    read at t          ─► advance_to(t) ─► broadcast(cycle)
    uplink arrival at t ─► uplink(t, …)  ─► advance_to(t), plan, server
    recording horizon  ─► advance_to(horizon)      (repro.sim.simulation)
    run end            ─► advance_to(stop)         (assemble_result)

Three streams make the events; each schedules its next event when the
current one fires:

* **cycles** — at every boundary, freeze the committed database and the
  control state into the cycle's broadcast image, unless the server is
  down or crash recovery already re-issued that cycle;
* **completions** — one server transaction per exponential (or
  deterministic) gap of mean ``server_txn_interval`` (Table 1), committed
  in completion order, which is the serialization order the control
  matrix needs; a completion while the server is down is lost;
* **crashes** — at each of the plan's crashes the volatile state dies;
  after the downtime the server is rebuilt from its durable log by
  :func:`repro.server.recovery.recover_server`, the boundaries that fell
  inside the outage are replayed as quiescent cycles, and the image of
  the cycle in progress goes on air at the recovery instant.

A completion is journalled (and traced) at its own instant, but installed
only when something can tell — a cycle's completions at a time
(:class:`LiveTimeline` states the flush contract).

Same-instant events fire in ``(time, seq)`` order, ``seq`` counting
schedulings in this timeline in the streams' order (cycles, completions,
crashes) — exactly the order a discrete-event engine hosting the three as
processes fires them, so a completion that lands on a boundary commits in
the cycle that boundary opens.  An observer at instant ``t`` sees every
event at or before ``t``: a boundary at a read's instant has installed its
image (the slot ending on it read the previous image, which is retained),
and a completion — or a crash, or a recovery — at an uplink arrival's
instant has happened when the submission is validated.  A completion
that nothing precedes — its instant strictly before the queue's head and
within the current :meth:`~LiveTimeline.advance_to` bound — runs inline
in its stream, without a push and a pop: it is what the queue would pop
next, and as ``seq`` numbers are only ever compared, skipping its push
keeps every other pair's order.  A tie with the head, or anything at or
after it, still goes through ``(time, seq)``, where the earlier
scheduling wins.

The timeline keeps the last two images, or every image when asked
(the analytical tier and a recording pass read arbitrarily far back,
and an audit checks them all: they are the run's one image history).
It keeps its own books: its :attr:`~LiveTimeline.journal` holds, per
counter it changes, the instant of every increment, and a run's
timeline counters are that journal folded at the run's stop
(:func:`fold_journal`) — so a timeline may run ahead of its clients, or
be recomputed by a shard that does not own it, without counting
anything twice.  The instants are raw doubles (``array('d')``): a
journal allocates no object per increment.

Nothing here touches :mod:`repro.sim.engine`: clients are scheduled on the
engine, the server side never is.
"""

from __future__ import annotations

import itertools
import random
from array import array
from bisect import bisect_right
from collections import defaultdict
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from ..broadcast.layout import BroadcastLayout
from ..broadcast.program import BroadcastCycle
from ..obs.tracer import NULL_TRACER, Tracer
from ..server.recovery import recover_server
from ..server.server import BroadcastServer
from ..server.validation import UpdateSubmission
from ..server.workload import ServerTransactionSpec, ServerWorkload
from .metrics import MetricsCollector

if TYPE_CHECKING:  # type-only: config imports faults, never this module
    from .config import SimulationConfig
    from .faults import FaultRuntime

__all__ = ["Journal", "LiveTimeline", "fold_journal"]

#: a stream yields the instant of its next event; it runs that event when
#: it is resumed
Stream = Iterator[float]

#: per counter field, the instant of each unit increment, in time order
Journal = Dict[str, "array[float]"]


def fold_journal(metrics: MetricsCollector, journal: Journal, *, upto: float) -> None:
    """Add every increment at or before ``upto`` to ``metrics``: the
    counters of a timeline advanced to ``upto`` (inclusive, as
    :meth:`LiveTimeline.advance_to` is) and no further."""
    for name, instants in journal.items():
        setattr(metrics, name, getattr(metrics, name) + bisect_right(instants, upto))


class LiveTimeline:
    """The server, its broadcast images and its crashes, advanced on demand.

    **The flush contract.**  A completion waits in a pending batch — all of
    one commit cycle, in completion order — that goes through
    :meth:`BroadcastServer.commit_batch` in one piece when the server is
    observed: before a cycle freeze, before an uplink submission is
    validated, before a crash snapshots the durable log, when the commit
    cycle changes, and on every read of :attr:`server`.  So whoever reads
    :attr:`server` sees every completion up to :attr:`now`; a handle kept
    from an earlier read (``timeline.server.database``) may lag — read
    through ``timeline.server`` after advancing.
    """

    def __init__(
        self,
        config: "SimulationConfig",
        layout: BroadcastLayout,
        *,
        faults: Optional["FaultRuntime"] = None,
        tracer: Tracer = NULL_TRACER,
        keep_images: bool = False,
    ) -> None:
        self.config = config
        self.layout = layout
        self._server = BroadcastServer(
            config.num_objects,
            config.protocol,
            partition=config.partition(),
        )
        #: completions not yet installed, all of commit cycle _pending_cycle
        self._pending: List[ServerTransactionSpec] = []
        self._pending_cycle = 0
        self.faults = faults
        self.tracer = tracer
        #: the timeline's own books; read with fold_journal
        self.journal: Journal = defaultdict(partial(array, "d"))
        #: installed images by cycle, in install order: the last two, or all
        self.images: Dict[int, BroadcastCycle] = {}
        self._keep_images = keep_images
        #: the instant of the event being (or last) processed, and the
        #: instant the current advance_to processes events up to
        self.now = 0.0
        self._bound = 0.0
        #: between a crash and its recovery
        self._down = False
        base_seed = config.seed * 1_000_003
        self._workload = ServerWorkload(
            config.num_objects,
            length=config.server_txn_length,
            read_probability=config.server_read_probability,
            seed=base_seed + 1,
        )
        self._rng = random.Random(base_seed + 2)
        self._seq = itertools.count()
        streams = [self._cycles(), self._completions()]
        if faults is not None and faults.plan.crashes:
            streams.append(self._crashes())
        self._queue: List[Tuple[float, int, Stream]] = [
            (0.0, next(self._seq), stream) for stream in streams
        ]

    # -- the doors ------------------------------------------------------
    @property
    def server(self) -> BroadcastServer:
        """The server, every completion so far installed."""
        self._flush()
        return self._server

    def _flush(self) -> None:
        """Install the pending completions, one batch (the flush contract)."""
        if self._pending:
            self._server.commit_batch(self._pending_cycle, self._pending)
            self._pending.clear()

    def close(self) -> None:
        """End the timeline: nothing advances it again.

        Its streams refer back to it; dropping them lets the timeline —
        server, images, log — go with its last reference instead of at
        the cyclic collector's next pass, which in a sweep is often after
        the next run has peaked.
        """
        self._queue.clear()

    def advance_to(self, time: float) -> None:
        """Process every event at or before ``time``, in ``(time, seq)`` order."""
        queue = self._queue
        seq = self._seq
        self._bound = time
        while queue and queue[0][0] <= time:
            self.now, _, stream = heappop(queue)
            at = next(stream, None)
            if at is not None:
                heappush(queue, (at, next(seq), stream))

    def broadcast(self, cycle: int) -> BroadcastCycle:
        """The installed image of ``cycle``.

        The last object's slot ends exactly on the cycle boundary, at
        which instant the next image is already installed — hence the
        previous image is retained one cycle.
        """
        image = self.images.get(cycle)
        if image is None:
            raise RuntimeError(f"no broadcast image for cycle {cycle}")
        return image

    def uplink(self, time: float, client: int, submission: UpdateSubmission) -> str:
        """A client's update submission reaching the server at ``time``.

        Returns what happened to it: ``"crash"`` — the server is down (a
        crash at or before ``time`` whose recovery is after it);
        ``"uplink"`` — lost in transit (one draw from the client's own
        stream, made only if the server is up); otherwise the server's
        verdict, ``"ok"`` or ``"conflict"``, after backward validation
        against every commit at or before ``time``.
        """
        self.advance_to(time)
        if self._down:
            return "crash"
        faults = self.faults
        if (
            faults is not None
            and faults.plan.uplink_loss_probability > 0.0
            and faults.uplink_lost(client)
        ):
            return "uplink"
        committed = self.server.submit_client_update(submission).committed
        return "ok" if committed else "conflict"

    # -- the streams ----------------------------------------------------
    def _install(self, image: BroadcastCycle, end: float) -> None:
        """Put ``image`` on air now, nominally until ``end``."""
        images = self.images
        images[image.cycle] = image
        if len(images) > 2 and not self._keep_images:
            del images[next(iter(images))]
        self.journal["cycles_broadcast"].append(self.now)
        if self.tracer.enabled:
            self.tracer.emit(
                self.now, end, "timeline", 0, "cycle", "ok", str(image.cycle)
            )

    def _cycles(self) -> Stream:
        cycle_bits = self.layout.cycle_bits
        cycle = 0
        while True:
            cycle += 1
            # dead air: the server is down — or crash recovery already
            # re-issued this cycle as a quiescent replay
            if not self._down and self._server.current_cycle < cycle:
                self._install(self.server.begin_cycle(cycle), self.now + cycle_bits)
            yield self.now + cycle_bits

    def _completions(self) -> Stream:
        config = self.config
        queue = self._queue
        pending = self._pending
        next_transaction = self._workload.next_transaction
        expovariate = self._rng.expovariate
        cycle_bits = self.layout.cycle_bits
        tracer = self.tracer
        committed = self.journal["server_commits"].append
        lost = self.journal["server_txns_lost"].append
        interval = config.server_txn_interval
        deterministic = config.server_interval_distribution == "deterministic"
        while True:
            gap = interval if deterministic else expovariate(1.0 / interval)
            at = self.now + gap
            if at < queue[0][0] and at <= self._bound:
                # nothing precedes it, and the current advance covers it:
                # run it here, not through the queue
                self.now = at
            else:
                yield at
            spec = next_transaction()
            tid = spec.tid
            now = self.now
            if self._down:
                # the completion evaporates with the crashed server
                lost(now)
                if tracer.enabled:
                    tracer.emit(now, now, "timeline", 1, "server.commit", "lost", tid)
                continue
            if not spec.write_set:
                continue  # read-only at the server: nothing to install
            cycle = int(now // cycle_bits) + 1  # layout.cycle_of(now)
            if cycle != self._pending_cycle:
                self._flush()
                self._pending_cycle = cycle
            pending.append(spec)  # writes its tid: a spec is a Commit
            committed(now)
            if tracer.enabled:
                tracer.emit(now, now, "timeline", 1, "server.commit", "ok", tid)

    def _crashes(self) -> Stream:
        config = self.config
        faults = self.faults
        assert faults is not None
        for crash in faults.plan.crashes:
            yield crash.time
            # volatile state dies here; only the database's log and cycle
            # mark survive (snapshotted before anything can touch them)
            server = self.server
            durable_log = server.database.commit_log
            durable_cycle = server.database.last_broadcast_cycle
            self._down = True
            self.journal["server_crashes"].append(self.now)
            end = self.now + crash.downtime
            if self.tracer.enabled:
                # emitted at the outage's start, as its counter is: a run
                # that stops mid-outage still holds the span
                self.tracer.emit(
                    self.now,
                    end,
                    "timeline",
                    2,
                    "crash",
                    "ok",
                    f"replayed={max(0, self.layout.cycle_of(end) - durable_cycle)}",
                )
            yield end
            revived = recover_server(
                durable_log,
                config.num_objects,
                config.protocol,
                partition=config.partition(),
                current_cycle=durable_cycle,
            )
            # cycles whose boundaries fell inside the outage were dead air;
            # the recovered server re-issues them as quiescent cycles so its
            # counter lines up with wall-clock broadcast time again
            replayed = [
                revived.begin_cycle(cycle)
                for cycle in range(durable_cycle + 1, self.layout.cycle_of(self.now) + 1)
            ]
            server.restore_from(revived)
            if replayed:
                replays = self.journal["quiescent_replay_cycles"]
                replays.extend([self.now] * len(replayed))
                # the in-progress cycle's image goes on air now, mid-cycle,
                # for the boundary it nominally covers: readers whose slots
                # end after the recovery read it
                image = replayed[-1]
                self._install(image, image.cycle * self.layout.cycle_bits)
            self._down = False
