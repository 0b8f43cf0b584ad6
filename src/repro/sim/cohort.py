"""Slot-coalesced scheduling of large client populations.

The per-process client path (:func:`repro.sim.processes.client_process`)
pays one generator step plus one heapq push/pop **per client per event**:
a think-time timeout, then a wait for the object's broadcast slot, for
every read of every client.  With hundreds or thousands of clients the
simulation kernel, not the protocol work, dominates wall-clock time.

What a client *does* lives in :mod:`repro.sim.kernel`; this module only
decides *when*.  The cohort executor is a calendar over
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

3. **A fired bucket is one call.**  :meth:`CohortExecutor._fire` orders
   the bucket and hands it to :meth:`ClientKernel.settle
   <repro.sim.kernel.ClientKernel.settle>`, which decides what the slot
   means to each member — missed or heard, the staleness guard, the read
   condition, the step — and :meth:`CohortExecutor._place` puts each
   member in its next bucket as it is yielded.  Within a bucket all
   clients evaluate the same protocol's read condition against the same
   control snapshot, so the control column is fetched once, its maximum
   taken once, and swept over the members
   (:func:`repro.core.validators.validate_read_batch`): a member whose
   oldest retained read postdates that maximum passes on the bound
   alone, the rest have their ``R_t`` walked.  Which sweep is the
   population's, chosen here once: a cache-less population of one
   protocol reads every object in order and takes :func:`~repro.core.validators.validate_read_batch_inorder`.

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

Fault plans (docs/FAULTS.md) need nothing here: doze, loss, re-tuning
and the staleness window are the kernel's, decided in
:meth:`~repro.sim.kernel.ClientKernel.settle`.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.validators import validate_read_batch, validate_read_batch_inorder
from .engine import Simulator
from .kernel import ClientEnv, ClientKernel

__all__ = ["CohortExecutor"]

_issue = attrgetter("issue")


class CohortExecutor:
    """Runs a client population through slot-coalesced buckets."""

    def __init__(
        self,
        *,
        sim: Simulator,
        env: ClientEnv,
        clients: Sequence[ClientKernel],
    ) -> None:
        self.sim = sim
        self.env = env
        self.clients = list(clients)
        #: clients awaiting each slot, by its end time, in enqueue order —
        #: stably sorted by issue time when the slot fires, so clients run
        #: in the order their per-process WaitUntil events would be pushed
        self._buckets: Dict[float, List[ClientKernel]] = {}
        # cache-less populations of one protocol class satisfy
        # validate_read_batch_inorder's precondition for every bucket
        # (checked once here instead of per member per bucket)
        self._sweep = validate_read_batch
        if all(c.cache is None for c in self.clients) and (
            len({c.validator.__class__ for c in self.clients}) == 1
        ):
            self._sweep = validate_read_batch_inorder

    def start(self) -> None:
        """Begin every client's first transaction (call before run)."""
        waits = []
        for kernel in self.clients:
            kernel.begin(0.0)
            waits.append((kernel, kernel.advance(0.0, True)))
        self._place(waits)

    # ------------------------------------------------------------------
    # the calendar
    # ------------------------------------------------------------------
    def _place(self, waits: Iterable[Tuple[ClientKernel, Optional[float]]]) -> None:
        """Put each kernel where its wait says: the bucket of the slot
        ending at ``end``, or — off the air — an event of its own.
        ``waits`` may be lazy (:meth:`ClientKernel.settle`): each is drawn
        just before its kernel is placed."""
        buckets = self._buckets
        for kernel, end in waits:
            if end is None:
                self.sim.schedule(kernel.wake, partial(self._wake, kernel))
                continue
            bucket = buckets.get(end)
            if bucket is None:
                bucket = buckets[end] = []
                self.sim.schedule(end, partial(self._fire, end))
            bucket.append(kernel)

    def _wake(self, kernel: ClientKernel) -> None:
        """An off-air client's event: its retirement, or its submission
        reaching the server."""
        # the per-process client is done only after its trailing
        # inter-transaction delay elapses — a real event, which does
        # nothing but end the run there once it is the last
        if not kernel.done:
            self._place(((kernel, kernel.uplink_arrival(self.sim.now)),))

    def _fire(self, time: float) -> None:
        """Process one occupied slot: every client whose wait ends now,
        in issue order (stable: ties keep their enqueue order)."""
        kernels = self._buckets.pop(time)
        if len(kernels) > 1:
            kernels.sort(key=_issue)
        self._place(
            ClientKernel.settle(self.env, kernels, time, kernels[0].cycle, self._sweep)
        )
