"""Slot-coalesced scheduling of large client populations.

The per-process client path (:func:`repro.sim.processes.client_process`)
pays one generator step plus one heapq push/pop **per client per event**:
a think-time timeout, then a wait for the object's broadcast slot, for
every read of every client.  With hundreds or thousands of clients the
simulation kernel, not the protocol work, dominates wall-clock time.

What a client *does* lives in :mod:`repro.sim.kernel`; this module only
decides *when*.  The cohort executor is a scheduler over
:class:`~repro.sim.kernel.ClientKernel` that removes the per-client
constant factor with three observations, none of which changes a single
simulated outcome:

1. **Think-time events are unobservable.**  Between a commit (or a
   delivered read) and the next slot wait, a client only draws its think
   delay and computes the slot of its next object — no shared state is
   read at the think-expiry instant.  The kernel computes the chain
   ``now → think expiry → slot end`` locally and returns the slot end, so
   the timeout event never exists.

2. **Slot waits coalesce.**  Every client waiting for the same broadcast
   slot resumes at the same instant and reads the same object from the
   same frozen cycle image.  Bucketing them (a calendar keyed by slot-end
   time) fires **one** simulator event per occupied slot instead of one
   per client.

3. **Validation batches, settled in one pass.**  Within a bucket all
   clients evaluate the same protocol's read condition against the same
   control snapshot, so the control column is fetched — and, under
   modulo timestamps, anchored at the snapshot cycle — once, its maximum
   taken once, and swept over the members
   (:func:`repro.core.validators.validate_read_batch`): a member whose
   oldest retained read postdates that maximum passes on the bound
   alone, the rest have their ``R_t`` walked.  A bucket of one goes
   through ``validate_read``: ``_validate``'s ``len(kernels) > 1`` is
   the only place that chooses.  Under a staleness window (modulo
   timestamps with faults) each member's runtime guard runs first, in
   issue order; the members it refuses get
   :data:`~repro.sim.kernel.STALE` and the rest are swept.  Then one
   loop settles the bucket: :meth:`ClientKernel.settle
   <repro.sim.kernel.ClientKernel.settle>` runs each member's client
   step with its verdict and :meth:`CohortExecutor._place` puts the
   member in its next bucket as it is yielded.

Determinism is preserved exactly: bucket members are processed in the
order their slot waits would have been *issued* (think-expiry or doze
wake, ties by enqueue order) — which is the order the per-process path's
same-time events fire in.  Oracle tests assert bit-identical commits,
restarts, response times and listening bits against the per-process path
on randomized configs.

Clients off the air — an update transaction's submission travelling the
uplink, a finished client sitting out its trailing delay — own one real
simulator event at the instant the kernel names (``wake``): the
submission reaches the timeline's uplink door (where loss draws and the
server's backward validation happen) exactly when the per-process
``_submit_update`` generator would have resumed.

Fault plans (docs/FAULTS.md) need little here: the kernel shifts a
dozing client's seek and decides per member whether a slot was heard
(the members that missed it re-seek and are placed first); under a
modulo staleness window :meth:`_verdicts` runs each survivor's
staleness guard (``runtime.stale``, which consults per-runtime rejoin
state a sweep cannot see) before the bucket's sweep.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Union,
)

from ..core.validators import (
    ControlSnapshot,
    validate_read_batch,
    validate_read_batch_inorder,
)
from .engine import Simulator
from .kernel import STALE, ClientEnv, ClientKernel, Stale

if TYPE_CHECKING:  # annotations only
    from ..broadcast.program import BroadcastCycle

__all__ = ["CohortExecutor", "OnAir"]

_issue = attrgetter("issue")
_validator = attrgetter("validator")


class OnAir(Protocol):
    """What a population hears: the timeline run on to an instant, then
    a cycle's image — a live timeline, a sealed view, or a recording
    pass's (:mod:`repro.sim.analytic`)."""

    def advance_to(self, time: float) -> None: ...

    def broadcast(self, cycle: int) -> "BroadcastCycle": ...


class _Bucket:
    """Clients awaiting one broadcast slot (same object, same cycle)."""

    __slots__ = ("obj", "cycle", "members")

    def __init__(self, obj: int, cycle: int) -> None:
        self.obj = obj
        self.cycle = cycle
        #: clients in enqueue order — stably sorted by issue time before
        #: processing, so clients fire in the order their per-process
        #: WaitUntil events would have been pushed
        self.members: List[ClientKernel] = []


class CohortExecutor:
    """Runs a client population through slot-coalesced buckets."""

    def __init__(
        self,
        *,
        sim: Simulator,
        timeline: OnAir,
        env: ClientEnv,
        clients: Sequence[ClientKernel],
    ) -> None:
        self.sim = sim
        #: the broadcast the clients hear: live, or sealed on a replay shard
        self.timeline = timeline
        self.env = env
        self.clients = list(clients)
        self._buckets: Dict[float, _Bucket] = {}
        # cache-less populations of one protocol class and one timestamp
        # arithmetic satisfy validate_read_batch_inorder's precondition
        # for every bucket (checked once here instead of per member per
        # bucket)
        self._batch_validate = validate_read_batch
        if all(c.cache is None for c in self.clients) and (
            len({(c.validator.__class__, c.validator._mask) for c in self.clients})
            == 1
        ):
            self._batch_validate = validate_read_batch_inorder

    def start(self) -> None:
        """Begin every client's first transaction (call before run)."""
        ends = []
        for kernel in self.clients:
            kernel.begin(0.0)
            ends.append(kernel.advance(0.0, True))
        self._place(self.clients, ends)

    # ------------------------------------------------------------------
    # the calendar
    # ------------------------------------------------------------------
    def _place(
        self, kernels: Iterable[ClientKernel], ends: Iterable[Optional[float]]
    ) -> None:
        """Put each kernel where its wait says: the bucket of the slot
        ending at ``end``, or — off the air — an event of its own.
        ``ends`` may be lazy (:meth:`ClientKernel.settle`): each end is
        drawn just before its kernel is placed."""
        buckets = self._buckets
        for kernel, end in zip(kernels, ends):
            if end is None:
                self.sim.schedule(kernel.wake, partial(self._wake, kernel))
                continue
            bucket = buckets.get(end)
            if bucket is None:
                bucket = buckets[end] = _Bucket(kernel.obj, kernel.cycle)
                self.sim.schedule(end, partial(self._fire, end))
            bucket.members.append(kernel)

    def _wake(self, kernel: ClientKernel) -> None:
        """An off-air client's event: its retirement, or its submission
        reaching the server."""
        # the per-process client is done only after its trailing
        # inter-transaction delay elapses — a real event, which does
        # nothing but end the run there once it is the last
        if not kernel.done:
            self._place((kernel,), (kernel.uplink_arrival(self.sim.now),))

    def _fire(self, time: float) -> None:
        """Process one occupied slot: every client whose wait ends now."""
        bucket = self._buckets.pop(time)
        kernels = bucket.members
        if len(kernels) > 1:
            # stable: ties keep their enqueue order
            kernels.sort(key=_issue)
        env = self.env
        if env.faults is not None or env.loss > 0.0:
            # each client that missed the slot re-seeks the object's next
            # appearance — decided per client, in issue order, as the
            # per-process loop would at its own slot event — and is
            # placed before the clients that heard it
            heard = []
            for kernel in kernels:
                if kernel.heard(time):
                    heard.append(kernel)
                else:
                    self._place((kernel,), (kernel.retune(time),))
            if not heard:
                return
            kernels = heard
        timeline = self.timeline
        timeline.advance_to(time)
        broadcast = timeline.broadcast(bucket.cycle)
        # one pass: each member takes its verdict, runs the client step
        # and joins its next bucket, in issue order
        self._place(
            kernels,
            ClientKernel.settle(
                env,
                kernels,
                time,
                broadcast,
                self._verdicts(kernels, bucket, broadcast.snapshot),
            ),
        )

    def _verdicts(
        self, kernels: List[ClientKernel], bucket: _Bucket, snapshot: ControlSnapshot
    ) -> Sequence[Union[bool, Stale]]:
        """Every member's verdict, aligned with ``kernels``.  Under a
        staleness window each runtime's guard runs first, in issue order;
        the members it refuses get :data:`~repro.sim.kernel.STALE` and
        the rest are validated together."""
        if self.env.staleness is None:
            return self._validate(kernels, bucket.obj, snapshot)
        stale = []
        for kernel in kernels:
            runtime = kernel.runtime
            assert runtime is not None  # set before the first wait
            stale.append(runtime.stale(bucket.cycle))
        swept = iter(
            self._validate(
                [k for k, refused in zip(kernels, stale) if not refused],
                bucket.obj,
                snapshot,
            )
        )
        return [STALE if refused else next(swept) for refused in stale]

    def _validate(
        self, kernels: Sequence[ClientKernel], obj: int, snapshot: ControlSnapshot
    ) -> List[bool]:
        """The read condition for every kernel of a bucket: one sweep, or
        the scalar ``validate_read`` for a bucket of one."""
        if len(kernels) > 1:
            return self._batch_validate(list(map(_validator, kernels)), obj, snapshot)
        return [kernel.validator.validate_read(obj, snapshot) for kernel in kernels]
