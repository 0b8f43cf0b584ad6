"""Tests for delta transmission of the control matrix (repro.broadcast.delta)."""

import numpy as np
import pytest

from repro.broadcast.delta import (
    DeltaDecoder,
    DeltaEncoder,
    DeltaFrame,
    DesyncError,
    replay_sizes,
)
from repro.core.control_matrix import ControlMatrix
from repro.server.workload import ServerWorkload


def snapshots(num_objects=6, cycles=20, seed=0):
    """Realistic snapshot stream driven by a server workload."""
    workload = ServerWorkload(num_objects, length=3, seed=seed)
    cm = ControlMatrix(num_objects)
    out = []
    for cycle in range(1, cycles + 1):
        spec = workload.next_transaction()
        cm.apply_commit(cycle, spec.read_set, spec.write_set)
        out.append((cycle, cm.snapshot()))
    return out


class TestRoundtrip:
    def test_decoder_tracks_encoder_exactly(self):
        encoder = DeltaEncoder(6, anchor_every=5)
        decoder = DeltaDecoder(6)
        for cycle, snap in snapshots():
            frame = encoder.encode(cycle, snap)
            decoded = decoder.apply(frame)
            assert decoded is not None
            assert np.array_equal(decoded, snap)

    def test_first_frame_is_anchor(self):
        encoder = DeltaEncoder(4)
        frame = encoder.encode(1, np.zeros((4, 4), dtype=np.int64))
        assert frame.kind == "anchor"

    def test_anchor_cadence(self):
        encoder = DeltaEncoder(4, anchor_every=3)
        kinds = [
            encoder.encode(c, np.zeros((4, 4), dtype=np.int64)).kind
            for c in range(1, 8)
        ]
        assert kinds == ["anchor", "delta", "delta", "anchor", "delta", "delta", "anchor"]

    def test_late_joiner_waits_for_anchor(self):
        encoder = DeltaEncoder(4, anchor_every=4)
        decoder = DeltaDecoder(4)
        stream = snapshots(num_objects=4, cycles=8)
        frames = [encoder.encode(c, s) for c, s in stream]
        # join at the second frame (a delta): nothing until the anchor
        assert decoder.apply(frames[1]) is None
        assert decoder.snapshot() is None
        out = decoder.apply(frames[4])  # next anchor (cycle 5)
        assert out is not None and np.array_equal(out, stream[4][1])

    def test_gap_raises_desync(self):
        encoder = DeltaEncoder(4, anchor_every=100)
        decoder = DeltaDecoder(4)
        stream = snapshots(num_objects=4, cycles=6)
        frames = [encoder.encode(c, s) for c, s in stream]
        decoder.apply(frames[0])
        decoder.apply(frames[1])
        with pytest.raises(DesyncError):
            decoder.apply(frames[3])  # skipped frames[2]
        assert decoder.snapshot() is None


class TestSizes:
    def test_delta_much_smaller_when_sparse(self):
        encoder = DeltaEncoder(50, anchor_every=1000)
        frames = []
        cm = ControlMatrix(50)
        workload = ServerWorkload(50, length=4, seed=3)
        for cycle in range(1, 30):
            spec = workload.next_transaction()
            cm.apply_commit(cycle, spec.read_set, spec.write_set)
            frames.append(encoder.encode(cycle, cm.snapshot()))
        encoded, dense = replay_sizes(frames)
        assert encoded < dense / 4  # deltas win handily at this sparsity

    def test_anchor_size_is_dense(self):
        frame = DeltaFrame(1, "anchor", (), 300, 8)
        assert frame.size_bits() >= 300 * 300 * 8

    def test_delta_size_per_entry(self):
        frame = DeltaFrame(2, "delta", ((0, 1, 5), (2, 3, 6)), 300, 8)
        coord = frame.coordinate_bits
        assert frame.size_bits() == 16 + 2 * (2 * coord + 8)

    def test_replay_sizes_empty(self):
        assert replay_sizes([]) == (0, 0)


class TestValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            DeltaFrame(1, "weird", (), 4, 8)

    def test_bad_shape(self):
        encoder = DeltaEncoder(4)
        with pytest.raises(ValueError):
            encoder.encode(1, np.zeros((3, 3), dtype=np.int64))

    def test_bad_anchor_cadence(self):
        with pytest.raises(ValueError):
            DeltaEncoder(4, anchor_every=0)
