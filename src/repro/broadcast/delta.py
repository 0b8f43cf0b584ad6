"""Incremental (delta) transmission of the control matrix.

Section 3.2.1 observes that the F-Matrix control information is
worst-case quadratic per cycle (Theorem 8), but that "the number of bits
to be transmitted may be drastically reduced if we transmit only changes
(deltas) over the previous C matrix transmission", at the cost that a
client must listen to every cycle (battery) and buffer the previous
matrix (memory).  The paper defers this to future work; this module
implements it:

* :class:`DeltaEncoder` — given successive matrix snapshots, emits a
  compact per-cycle delta: the sorted list of changed entries as
  ``(row, column, new-timestamp)`` triples, plus periodic full-matrix
  *anchor* frames so late joiners can synchronise;
* :class:`DeltaDecoder` — the client side: replays anchors and deltas
  into an exact copy of the server's per-cycle snapshot;
* wire-size accounting (:meth:`DeltaFrame.size_bits`) so experiments can
  compare delta bandwidth against the full matrix — the
  ``benchmarks/test_ablation_delta_encoding.py`` bench does exactly that
  on commit logs produced by real simulation runs.

The encoding uses ``ceil(log2 n)`` bits per coordinate and the protocol
timestamp width per value; a one-bit frame header distinguishes anchors
from deltas (amortised into the header field below).
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DeltaFrame", "DeltaEncoder", "DeltaDecoder", "DesyncError"]

#: bits for the per-frame header (frame kind + cycle tag)
FRAME_HEADER_BITS = 16


class DesyncError(RuntimeError):
    """The decoder missed a frame and can no longer apply deltas."""


@dataclass(frozen=True)
class DeltaFrame:
    """One cycle's control-information frame.

    ``anchor`` frames carry the whole matrix; ``delta`` frames carry only
    the entries that changed since the previous frame.
    """

    cycle: int
    kind: str  # "anchor" | "delta"
    #: changed entries as (row, col, encoded timestamp); full content for anchors
    entries: Tuple[Tuple[int, int, int], ...]
    num_objects: int
    timestamp_bits: int

    def __post_init__(self) -> None:
        if self.kind not in ("anchor", "delta"):
            raise ValueError(f"unknown frame kind {self.kind!r}")

    @property
    def coordinate_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.num_objects)))

    def size_bits(self) -> int:
        """Wire size of this frame.

        Anchors ship the dense matrix (n² timestamps, no coordinates);
        deltas ship ``(2·coord + ts)`` bits per changed entry plus a
        length field (counted inside the header allowance).
        """
        if self.kind == "anchor":
            return FRAME_HEADER_BITS + self.num_objects ** 2 * self.timestamp_bits
        per_entry = 2 * self.coordinate_bits + self.timestamp_bits
        return FRAME_HEADER_BITS + len(self.entries) * per_entry


class DeltaEncoder:
    """Server side: turn successive snapshots into frames."""

    def __init__(
        self,
        num_objects: int,
        *,
        timestamp_bits: int = 8,
        anchor_every: int = 64,
    ):
        if anchor_every < 1:
            raise ValueError("anchor_every must be >= 1")
        self.num_objects = num_objects
        self.timestamp_bits = timestamp_bits
        self.anchor_every = anchor_every
        self._previous: Optional[np.ndarray] = None
        self._deltas_since = 0

    def encode(self, cycle: int, snapshot: np.ndarray) -> DeltaFrame:
        """Encode the snapshot broadcast at ``cycle``.

        The first frame, and every ``anchor_every``-th frame, is an
        anchor; the rest are deltas against the previous snapshot.
        """
        if snapshot.shape != (self.num_objects, self.num_objects):
            raise ValueError("snapshot has the wrong shape")
        anchor_due = self._previous is None or self._deltas_since >= self.anchor_every - 1
        # whole-array selection, then one tolist() per column of the frame:
        # a Table-1 delta rewrites ~8k cells, an anchor walks all n²
        rows, cols = np.nonzero(snapshot if anchor_due else snapshot != self._previous)
        entries: Tuple[Tuple[int, int, int], ...] = tuple(
            zip(rows.tolist(), cols.tolist(), snapshot[rows, cols].tolist())
        )
        kind = "anchor" if anchor_due else "delta"
        frame = DeltaFrame(cycle, kind, entries, self.num_objects, self.timestamp_bits)
        self._deltas_since = 0 if anchor_due else self._deltas_since + 1
        self._previous = snapshot.copy()
        return frame


class DeltaDecoder:
    """Client side: reconstruct snapshots by replaying frames.

    The client must hear every frame; a gap in cycle numbers after
    synchronisation raises :class:`DesyncError` (the client then waits
    for the next anchor, exactly the paper's noted drawback).
    """

    def __init__(self, num_objects: int):
        self.num_objects = num_objects
        self._matrix: Optional[np.ndarray] = None
        self._last_cycle: Optional[int] = None

    def apply(self, frame: DeltaFrame) -> Optional[np.ndarray]:
        """Apply one frame; returns the current snapshot (or None while
        waiting for the first anchor)."""
        if frame.kind == "anchor":
            self._matrix = np.zeros(
                (self.num_objects, self.num_objects), dtype=np.int64
            )
        else:
            if self._matrix is None:
                return None  # not yet synchronised: ignore deltas
            if self._last_cycle is not None and frame.cycle != self._last_cycle + 1:
                self._matrix = None
                self._last_cycle = None
                raise DesyncError(
                    f"missed frame(s) before cycle {frame.cycle}; wait for anchor"
                )
        if frame.entries:
            # flatten once (fromiter over the chained triples is half the
            # cost of np.array on a tuple of tuples), then one indexed store
            rows, cols, values = np.fromiter(
                chain.from_iterable(frame.entries), np.int64, 3 * len(frame.entries)
            ).reshape(-1, 3).T
            self._matrix[rows, cols] = values
        self._last_cycle = frame.cycle
        return self.snapshot()

    def snapshot(self) -> Optional[np.ndarray]:
        return None if self._matrix is None else self._matrix.copy()


def replay_sizes(frames: Sequence[DeltaFrame]) -> Tuple[int, int]:
    """Total (delta-encoded, dense) bits for a frame sequence.

    The dense figure charges every cycle the full ``n²·TS`` matrix, which
    is what plain F-Matrix broadcasts.
    """
    if not frames:
        return (0, 0)
    encoded = sum(f.size_bits() for f in frames)
    dense = sum(
        FRAME_HEADER_BITS + f.num_objects ** 2 * f.timestamp_bits for f in frames
    )
    return encoded, dense
