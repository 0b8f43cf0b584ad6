"""Broadcast-disk layouts: slot timing in bit-units.

The server broadcasts every object once per cycle (single-speed disk, the
paper's setting), each object followed by its control-information share.
Time is measured in *bit-units* — the time to broadcast one bit — so a
slot's duration equals its size in bits.

:class:`FlatLayout` is the paper's layout.  :class:`MultiDiskLayout` is
the classic hot/cold multi-speed broadcast-disk generalisation (Acharya et
al.), provided as an extension: hot objects appear several times per major
cycle.  Both answer the two questions the simulation asks:

* in which cycle does time ``t`` fall, and when did that cycle start?
* when is the next slot of object ``j`` at or after time ``t``, and in
  which cycle does that slot lie?

Cycles are numbered from 1; cycle ``k`` occupies
``[(k-1)·cycle_bits, k·cycle_bits)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["SlotHit", "BroadcastLayout", "FlatLayout", "MultiDiskLayout"]


@dataclass(frozen=True)
class SlotHit:
    """The answer to "when can I next read object j?"."""

    obj: int
    #: absolute bit-time at which the object's slot *ends* (data available)
    time: int
    #: broadcast cycle containing the slot
    cycle: int


class BroadcastLayout:
    """Interface shared by all layouts."""

    #: total length of one broadcast cycle in bit-units
    cycle_bits: int
    #: length of one object's slot (data + its control share) in bit-units
    slot_bits: int

    def cycle_of(self, time: float) -> int:
        """1-based cycle number containing bit-time ``time``."""
        return int(time // self.cycle_bits) + 1

    def cycle_start(self, cycle: int) -> int:
        return (cycle - 1) * self.cycle_bits

    def next_read(self, obj: int, time: float) -> SlotHit:
        """Earliest completed broadcast of ``obj`` at or after ``time``."""
        raise NotImplementedError


class FlatLayout(BroadcastLayout):
    """Single-speed disk: objects ``0..n-1`` in id order, once per cycle.

    Each slot is ``object_bits + control_bits_per_slot`` wide; an optional
    cycle preamble (e.g. group columns broadcast once per cycle) precedes
    slot 0.  A read completes at the end of the object's slot.
    """

    def __init__(
        self,
        num_objects: int,
        object_bits: int,
        control_bits_per_slot: int = 0,
        preamble_bits: int = 0,
    ):
        if num_objects <= 0 or object_bits <= 0:
            raise ValueError("need positive num_objects and object_bits")
        self.num_objects = num_objects
        self.object_bits = object_bits
        self.control_bits_per_slot = control_bits_per_slot
        self.preamble_bits = preamble_bits
        self.slot_bits = object_bits + control_bits_per_slot
        self.cycle_bits = preamble_bits + num_objects * self.slot_bits

    def slot_end_offset(self, obj: int) -> int:
        """Offset within the cycle at which object ``obj`` is fully read."""
        if not 0 <= obj < self.num_objects:
            raise IndexError(f"object {obj} out of range")
        return self.preamble_bits + (obj + 1) * self.slot_bits

    def next_read(self, obj: int, time: float) -> SlotHit:
        offset = self.slot_end_offset(obj)
        cycle = self.cycle_of(time)
        # the previous cycle's slot can end exactly at `time` when the
        # object is last in the cycle and `time` sits on the boundary —
        # it still counts as "at or after time"
        if cycle > 1:
            prev_end = self.cycle_start(cycle - 1) + offset
            if prev_end >= time:
                return SlotHit(obj, prev_end, cycle - 1)
        end = self.cycle_start(cycle) + offset
        if end < time:
            cycle += 1
            end += self.cycle_bits
        return SlotHit(obj, end, cycle)


class MultiDiskLayout(BroadcastLayout):
    """Multi-speed broadcast disks (extension; Acharya et al. style).

    ``disks`` maps relative frequency -> object ids.  A disk with
    frequency ``f`` has its objects appear ``f`` times per major cycle.
    The schedule interleaves ``lcm`` chunks: the major cycle is divided
    into ``max_f`` minor cycles; a frequency-``f`` disk occupies
    ``f`` of them, evenly spaced.

    The *cycle* reported to validators is the **major** cycle: the control
    snapshot is refreshed once per major cycle, so correctness matches the
    single-speed protocol (a value read in major cycle ``k`` is committed
    before the major cycle began).
    """

    def __init__(
        self,
        disks: Sequence[Tuple[int, Sequence[int]]],
        object_bits: int,
        control_bits_per_slot: int = 0,
    ):
        seen: set = set()
        for freq, objs in disks:
            if freq <= 0:
                raise ValueError("frequencies must be positive")
            for obj in objs:
                if obj in seen:
                    raise ValueError(f"object {obj} on more than one disk")
                seen.add(obj)
        self.num_objects = len(seen)
        if seen != set(range(self.num_objects)):
            raise ValueError("disks must cover object ids 0..n-1")
        self.object_bits = object_bits
        self.control_bits_per_slot = control_bits_per_slot
        self.slot_bits = object_bits + control_bits_per_slot

        max_freq = max(freq for freq, _objs in disks)
        minor: List[List[int]] = [[] for _ in range(max_freq)]
        for freq, objs in disks:
            step = max_freq / freq
            slots = [int(round(k * step)) % max_freq for k in range(freq)]
            for minor_idx in slots:
                minor[minor_idx].extend(objs)
        self._schedule: List[int] = list(itertools.chain.from_iterable(minor))
        self.cycle_bits = len(self._schedule) * self.slot_bits
        # first slot-end offset of each object within the major cycle,
        # plus all its occurrences for next_read scanning
        self._occurrences: Dict[int, List[int]] = {}
        for idx, obj in enumerate(self._schedule):
            self._occurrences.setdefault(obj, []).append((idx + 1) * self.slot_bits)

    @property
    def schedule(self) -> Tuple[int, ...]:
        """The per-major-cycle slot order (object ids, may repeat)."""
        return tuple(self._schedule)

    def next_read(self, obj: int, time: float) -> SlotHit:
        ends = self._occurrences.get(obj)
        if not ends:
            raise IndexError(f"object {obj} not scheduled")
        cycle = self.cycle_of(time)
        start = self.cycle_start(cycle)
        if cycle > 1:
            # a final-slot occurrence of the previous cycle may end
            # exactly at `time` (cycle boundary): still eligible
            prev_end = start - self.cycle_bits + ends[-1]
            if prev_end >= time:
                return SlotHit(obj, prev_end, cycle - 1)
        for end in ends:
            if start + end >= time:
                return SlotHit(obj, start + end, cycle)
        return SlotHit(obj, start + self.cycle_bits + ends[0], cycle + 1)
