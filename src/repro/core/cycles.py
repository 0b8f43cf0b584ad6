"""Broadcast-cycle arithmetic, including the modulo timestamp window.

The control matrix stores broadcast-cycle numbers.  Storing absolute cycle
numbers would need unbounded timestamps, so the paper observes (Sec. 3.2.1)
that if ``max_cycles`` bounds the number of cycles any transaction spans,
entries can be kept modulo ``max_cycles + 1`` and compared with wrap-around
semantics.  The evaluation uses 8-bit timestamps.

:class:`UnboundedCycles` is the trivially correct arithmetic (absolute
ints); :class:`ModuloCycles` implements the wrap-around comparison.  Both
satisfy the same protocol so validators are parameterised by either; the
test suite checks they agree whenever the compared cycles lie within the
window.  The paper's assumption bounds the cycles a transaction spans,
not the age of a control entry, so an entry older than the window falls
outside that regime (ROADMAP, "Modulo timestamps that mean what the
paper says").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CycleArithmetic", "UnboundedCycles", "ModuloCycles"]


class CycleArithmetic:
    """Interface: encode absolute cycles, compare encoded timestamps."""

    #: number of bits one encoded timestamp occupies on the broadcast
    timestamp_bits: int

    @property
    def anchor_mask(self) -> int:
        """The mask ``m`` for which ``reference - ((reference - a) & m)`` is
        the absolute cycle encoded entry ``a`` denotes at ``reference``.

        So ``less_encoded_absolute(a, b, reference=r)`` is
        ``r - ((r - a) & m) < b``: the form validators inline, per entry or
        once for a whole column.  ``-1`` (every bit set) makes the anchor
        the identity.
        """
        raise NotImplementedError

    def encode(self, cycle: int) -> int:
        raise NotImplementedError

    def encode_array(self, cycles: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode`: a fresh array, never a view of ``cycles``."""
        raise NotImplementedError

    def less(self, a: int, b: int, *, reference: int) -> bool:
        """Is encoded timestamp ``a`` < encoded ``b``?

        ``reference`` is the current (absolute) cycle at the client, which
        anchors wrap-around comparisons; unbounded arithmetic ignores it.
        """
        raise NotImplementedError

    def less_encoded_absolute(self, a: int, b: int, *, reference: int) -> bool:
        """Is encoded timestamp ``a`` < *absolute* cycle ``b``?

        The read condition compares a broadcast control entry (encoded on
        the wire) against a cycle number the client holds in absolute form
        (the cycle it performed a read in).  Encoding ``b`` and comparing
        two re-anchored residues loses information: when ``b`` lies outside
        the window around ``reference`` the anchor lands a full window away
        and the comparison silently flips.  Anchoring only the wire-format
        side against ``reference`` and comparing with the absolute value
        directly is exact whenever the *entry* is within the window of
        ``reference`` — a bound on the entry's age, which the paper's
        assumption (no transaction spans ``max_cycles`` cycles) does not
        give.
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

    @property
    def anchor_mask(self) -> int:
        return -1

    def encode(self, cycle: int) -> int:
        return cycle

    def encode_array(self, cycles: np.ndarray) -> np.ndarray:
        return cycles.copy()

    def less(self, a: int, b: int, *, reference: int) -> bool:
        return a < b

    def less_encoded_absolute(self, a: int, b: int, *, reference: int) -> bool:
        return a < b


@dataclass(frozen=True)
class ModuloCycles(CycleArithmetic):
    """Timestamps kept modulo ``window = 2**timestamp_bits``.

    The comparison ``less(a, b, reference=now)`` re-anchors both encoded
    values to the most recent absolute cycle ≤ ``now`` with the given
    residue, then compares.  This is correct provided both absolute values
    lie within ``window`` cycles of ``now``.  The paper's assumption — no
    transaction spans ``max_cycles = window - 1`` cycles — bounds the
    client's cycles only; a control entry can be older.
    """

    timestamp_bits: int = 8

    @property
    def window(self) -> int:
        return 1 << self.timestamp_bits

    @property
    def anchor_mask(self) -> int:
        # the window is a power of two: ``x % window == x & (window - 1)``
        # for every int, negative ones included
        return self.window - 1

    def encode(self, cycle: int) -> int:
        return cycle % self.window

    def encode_array(self, cycles: np.ndarray) -> np.ndarray:
        # the window is a power of two, so the mask is the residue of
        # every int64 — at a tenth of the cost of numpy's remainder
        return cycles & (self.window - 1)

    def _anchor(self, encoded: int, reference: int) -> int:
        """Most recent absolute cycle ≤ reference with this residue."""
        w = self.window
        base = reference - ((reference - encoded) % w)
        return base

    def less(self, a: int, b: int, *, reference: int) -> bool:
        return self._anchor(a, reference) < self._anchor(b, reference)

    def less_encoded_absolute(self, a: int, b: int, *, reference: int) -> bool:
        """Anchored wire entry vs. an absolute cycle the client holds.

        Re-anchoring ``b``'s residue (what :meth:`less` would do) is wrong
        twice over once ``b`` strays outside the window of ``reference``:

        * ``b > reference`` (a retained cached read postdating the current
          snapshot) anchors a full window *back*, rejecting reads the
          unbounded arithmetic accepts;
        * ``b <= reference - window`` (a transaction spanning the wrap gap)
          anchors back *onto* recent cycles, silently accepting reads the
          unbounded arithmetic rejects — an unsound validation.

        Keeping ``b`` absolute removes both failure modes.  The comparison
        is then exact when every compared entry ``a`` is younger than the
        window: ``reference - window < a <= reference``.  The paper's
        ``max_cycles`` bound (no attempt spans ``window - 1`` cycles; the
        client-side staleness guard enforces it on rejoin after a doze)
        bounds ``b``, not ``a``.  A ``C(i,j)`` or ``MC(i)`` entry last
        written more than a window ago re-anchors into the window and
        reads as a recent write, so validation rejects reads the unbounded
        arithmetic accepts — docs/FAULTS.md, "What the wrap window costs".
        The server-side fix is ROADMAP's "Modulo timestamps that mean what
        the paper says".
        """
        return self._anchor(a, reference) < b
