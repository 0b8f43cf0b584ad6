"""Tests for the broadcast image (repro.broadcast.program)."""

import numpy as np
import pytest

from repro.broadcast.program import BroadcastCycle, ObjectVersion
from repro.core.validators import ControlSnapshot
from repro.server.server import BroadcastServer


def make_cycle(num_objects=3, cycle=4, with_matrix=True):
    versions = tuple(
        ObjectVersion(obj, f"v{obj}", f"w{obj}", cycle - 1) for obj in range(num_objects)
    )
    snapshot = ControlSnapshot(
        cycle,
        matrix=np.arange(num_objects * num_objects).reshape(num_objects, num_objects)
        if with_matrix
        else None,
        vector=None if with_matrix else np.zeros(num_objects, dtype=np.int64),
    )
    return BroadcastCycle(cycle, versions, snapshot)


class TestBroadcastCycle:
    def test_version_lookup(self):
        bc = make_cycle()
        assert bc.version(1).value == "v1"
        assert bc.version(1).writer == "w1"
        assert bc.num_objects == 3

    def test_column_of_a_server_made_image_is_the_shared_column(self):
        """What a client retains (a cache entry, ``ReadRecord.slice_``) is
        the ``8n``-byte column itself — it pins no per-cycle matrix."""
        n = 5
        server = BroadcastServer(n, "f-matrix")
        server.begin_cycle(1)
        server.commit_update("t1", [0], {1: "x", 3: "y"})
        bc = server.begin_cycle(2)
        later = server.begin_cycle(3)  # quiescent: the same columns ride again
        for obj in range(n):
            col = bc.snapshot.column(obj)
            assert col is later.snapshot.column(obj)
            assert col.base is None and col.nbytes == 8 * n
            assert col.flags.c_contiguous and not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 99
        # written together: one column
        assert bc.snapshot.column(1) is bc.snapshot.column(3)
        assert list(bc.snapshot.column(1)) == [0, 1, 0, 1, 0]

    def test_version_provenance(self):
        bc = make_cycle(cycle=7)
        assert bc.version(0).commit_cycle == 6
