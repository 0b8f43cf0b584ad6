"""A from-scratch discrete-event simulation kernel.

The paper's evaluation ran on the authors' own event-driven simulator; we
rebuild the abstraction: a priority queue of timestamped events plus
generator-based *processes* (simpy-style, but self-contained).  A process
is a Python generator that yields scheduling directives:

* ``Timeout(delay)``   — resume after ``delay`` time units (``0``:
  immediately, after already-due events);
* ``WaitUntil(time)``  — resume at absolute time ``time`` (>= now).

A run ends when the queue drains: :meth:`Simulator.run` takes no limits.

Time is a float in *bit-units* (the time to broadcast one bit — the
paper's unit).  Determinism: simultaneous events fire in scheduling
order (a monotone sequence number breaks ties), so a seeded run is fully
reproducible.

Example::

    sim = Simulator()
    def pinger():
        for _ in range(3):
            yield Timeout(10)
            print("ping at", sim.now)
    sim.spawn(pinger())
    sim.run()
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, List, Tuple, Union

__all__ = ["Timeout", "WaitUntil", "Process", "Simulator", "SimClockError"]


class SimClockError(RuntimeError):
    """Raised when a directive would move time backwards."""


@dataclass(frozen=True)
class Timeout:
    """Resume the yielding process after ``delay`` time units."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("delay must be non-negative")


@dataclass(frozen=True)
class WaitUntil:
    """Resume the yielding process at absolute time ``time``."""

    time: float


Directive = Union[Timeout, WaitUntil]
ProcessGen = Generator[Directive, None, None]


class Process:
    """Handle to a spawned process."""

    __slots__ = ("name", "_gen", "alive", "_step")

    def __init__(self, gen: ProcessGen, name: str):
        self._gen = gen
        self.name = name
        self.alive = True
        #: bound step callable, installed by :meth:`Simulator.spawn` — the
        #: heap stores this directly so dispatch needs no type inspection
        self._step: Callable[[], None] = _unspawned

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"Process({self.name}, {state})"


def _unspawned() -> None:  # pragma: no cover - defensive placeholder
    raise RuntimeError("process stepped before being spawned")


class Simulator:
    """Event queue + process scheduler."""

    def __init__(self):
        self._now: float = 0.0
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._event_count = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in bit-units."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._event_count

    # ------------------------------------------------------------------
    def schedule(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action()`` at absolute ``time`` (a one-shot callback)."""
        if time < self._now:
            raise SimClockError(f"cannot schedule at {time} < now {self._now}")
        heapq.heappush(self._queue, (time, next(self._seq), action))

    def spawn(self, gen: ProcessGen, name: str = "process") -> Process:
        """Start a generator process now (first step runs when due)."""
        process = Process(gen, name)
        # the heap carries the bound step callable, precomputed once per
        # process — dispatch is then a plain call, no isinstance chain
        process._step = partial(self._step_process, process)
        heapq.heappush(self._queue, (self._now, next(self._seq), process._step))
        return process

    # ------------------------------------------------------------------
    def run(self) -> float:
        """Process events until the queue drains; returns the time of the
        last one.

        A broadcast simulation puts only its clients on the engine (the
        server side, :mod:`repro.sim.timeline`, is advanced on demand and
        costs no event), so its queue drains when the last client retires.
        """
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            time, _, action = heappop(queue)
            if time < self._now:  # pragma: no cover - guarded at insert
                raise SimClockError("event queue went backwards")
            self._now = time
            self._event_count += 1
            action()
        return self._now

    def _step_process(self, process: Process) -> None:
        try:
            directive = process._gen.send(None)
        except StopIteration:
            process.alive = False
            return
        # exact-class dispatch on the hot path: a directive is one of
        # two frozen dataclasses
        cls = directive.__class__
        if cls is Timeout:
            resume_at = self._now + directive.delay
        elif cls is WaitUntil:
            if directive.time < self._now:
                raise SimClockError(
                    f"WaitUntil({directive.time}) in the past (now {self._now})"
                )
            resume_at = directive.time
        else:
            raise TypeError(f"process yielded {directive!r}, not a directive")
        heapq.heappush(
            self._queue, (resume_at, next(self._seq), process._step)
        )
