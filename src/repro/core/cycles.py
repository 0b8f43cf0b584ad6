"""Broadcast-cycle timestamps and the paper's modulo wire codec.

The control matrix stores broadcast-cycle numbers.  Storing absolute cycle
numbers would need unbounded timestamps, so the paper observes (Sec. 3.2.1)
that if ``max_cycles`` bounds the number of cycles any transaction spans,
entries can be kept modulo ``max_cycles + 1`` on the wire.  The evaluation
uses 8-bit timestamps.

The simulation carries absolute cycles end to end under either setting:
the server freezes, and the validators compare, plain ints.  Modulo
timestamps mean two things there — ``timestamp_bits`` sizes every control
entry on the broadcast (Table 1's overhead, charged identically for both
settings), and the client's ``max_cycles`` guard
(:meth:`repro.client.runtime.ReadOnlyTransactionRuntime.stale`) aborts an
attempt before it outlives the window.  Under that bound the 8-bit wire
is exact, so a run with modulo timestamps equals its absolute twin
wherever the guard is silent.

This module keeps the wire codec itself: :class:`UnboundedCycles` (the
identity) and :class:`ModuloCycles` (residues, and one anchored
comparison of a residue against an absolute cycle), tested against each
other inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CycleArithmetic", "UnboundedCycles", "ModuloCycles"]


class CycleArithmetic:
    """Interface: encode absolute cycles for the wire, compare one entry."""

    #: number of bits one encoded timestamp occupies on the broadcast
    timestamp_bits: int

    def encode(self, cycle: int) -> int:
        raise NotImplementedError

    def encode_array(self, cycles: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode`: a fresh array, never a view of ``cycles``."""
        raise NotImplementedError

    def less_encoded_absolute(self, a: int, b: int, *, reference: int) -> bool:
        """Is encoded timestamp ``a`` < *absolute* cycle ``b``?

        ``a`` is a control entry as it travels on the wire, decoded at
        ``reference`` (the cycle of the snapshot that carried it); ``b`` is
        a cycle the client holds in absolute form.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class UnboundedCycles(CycleArithmetic):
    """Absolute cycle numbers; timestamps conceptually unbounded.

    ``timestamp_bits`` still matters for overhead accounting: the paper's
    experiments charge 8 bits per matrix entry, which this class mirrors by
    default so that switching arithmetics never changes broadcast sizing.
    """

    timestamp_bits: int = 8

    def encode(self, cycle: int) -> int:
        return cycle

    def encode_array(self, cycles: np.ndarray) -> np.ndarray:
        return cycles.copy()

    def less_encoded_absolute(self, a: int, b: int, *, reference: int) -> bool:
        return a < b


@dataclass(frozen=True)
class ModuloCycles(CycleArithmetic):
    """Timestamps kept modulo ``window = 2**timestamp_bits``.

    A residue decodes to the most recent absolute cycle ≤ ``reference``
    with that residue — exact whenever the entry is younger than the
    window: ``reference - window < entry <= reference``.
    """

    timestamp_bits: int = 8

    @property
    def window(self) -> int:
        return 1 << self.timestamp_bits

    def encode(self, cycle: int) -> int:
        return cycle % self.window

    def encode_array(self, cycles: np.ndarray) -> np.ndarray:
        # the window is a power of two, so the mask is the residue of
        # every int64 — at a tenth of the cost of numpy's remainder
        return cycles & (self.window - 1)

    def less_encoded_absolute(self, a: int, b: int, *, reference: int) -> bool:
        """Decode wire entry ``a`` at ``reference``, compare with absolute ``b``.

        Only the wire side is decoded: re-anchoring ``b`` too would flip
        the comparison whenever ``b`` lies outside the window around
        ``reference`` (a cached read postdating it, or one older than the
        window).
        """
        return reference - ((reference - a) % self.window) < b
