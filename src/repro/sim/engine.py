"""A from-scratch discrete-event simulation kernel.

The paper's evaluation ran on the authors' own event-driven simulator; we
rebuild the abstraction: a priority queue of timestamped events plus
generator-based *processes* (simpy-style, but self-contained).  A process
is a Python generator that yields scheduling directives:

* ``Timeout(delay)``   — resume after ``delay`` time units;
* ``WaitUntil(time)``  — resume at absolute time ``time`` (>= now);
* ``Waive()``          — resume immediately, after already-due events.

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
from typing import Callable, Generator, Iterator, List, Optional, Tuple, Union

__all__ = ["Timeout", "WaitUntil", "Waive", "Process", "Simulator", "SimClockError"]


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


@dataclass(frozen=True)
class Waive:
    """Yield the processor: resume at the same time, after due events."""


Directive = Union[Timeout, WaitUntil, Waive]
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
    def run(
        self,
        *,
        until: Optional[float] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Process events until the queue drains or a limit triggers.

        * ``until`` — process every event at time <= ``until``, then stop
          with the clock advanced to exactly ``until`` — also when the
          queue drains earlier, so ``run(until=T)`` always returns ``T``
          ("simulate through T") unless ``stop_when``/``max_events``
          fires first;
        * ``stop_when`` — predicate evaluated after every event; stops at
          the current event's time;
        * ``max_events`` — hard safety cap on :attr:`events_processed`.
          A broadcast simulation puts only its clients on the engine (the
          server side, :mod:`repro.sim.timeline`, is advanced on demand
          and costs no event), so there the cap counts client events.

        Returns the simulation time at stop.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            time = entry[0]
            if until is not None and time > until:
                self._now = until
                return until
            heapq.heappop(queue)
            if time < self._now:  # pragma: no cover - guarded at insert
                raise SimClockError("event queue went backwards")
            self._now = time
            self._event_count += 1
            entry[2]()
            if stop_when is not None and stop_when():
                return self._now
            if max_events is not None and self._event_count >= max_events:
                raise RuntimeError(f"exceeded max_events={max_events}")
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _step_process(self, process: Process) -> None:
        try:
            directive = process._gen.send(None)
        except StopIteration:
            process.alive = False
            return
        # exact-class dispatch on the hot path (directives are frozen
        # dataclasses, virtually never subclassed); subclass directives
        # take the isinstance fallback
        cls = directive.__class__
        if cls is Timeout:
            resume_at = self._now + directive.delay
        elif cls is WaitUntil:
            if directive.time < self._now:
                raise SimClockError(
                    f"WaitUntil({directive.time}) in the past (now {self._now})"
                )
            resume_at = directive.time
        elif cls is Waive:
            resume_at = self._now
        else:
            resume_at = self._resume_time(directive)
        heapq.heappush(
            self._queue, (resume_at, next(self._seq), process._step)
        )

    def _resume_time(self, directive: Directive) -> float:
        """Directive resolution for subclassed directives (cold path)."""
        if isinstance(directive, Timeout):
            return self._now + directive.delay
        if isinstance(directive, WaitUntil):
            if directive.time < self._now:
                raise SimClockError(
                    f"WaitUntil({directive.time}) in the past (now {self._now})"
                )
            return directive.time
        if isinstance(directive, Waive):
            return self._now
        raise TypeError(f"process yielded {directive!r}, not a directive")
