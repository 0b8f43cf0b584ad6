"""Tests for the versioned store (repro.server.database)."""

import pytest

from repro.core.model import T0
from repro.server.database import Database


class TestDatabase:
    def test_initial_versions_from_t0(self):
        db = Database(3, initial_value="init")
        v = db.committed(1)
        assert v.value == "init" and v.writer == T0 and v.commit_cycle == 0

    def test_commit_installs_versions(self):
        db = Database(2)
        db.apply_batch(3, [("t1", (0,), {1: "new"})])
        assert db.committed(1).value == "new"
        assert db.committed(1).writer == "t1"
        assert db.committed(1).commit_cycle == 3
        assert db.committed(0).writer == T0  # read did not change it

    def test_commit_log_in_order(self):
        db = Database(2)
        db.apply_batch(1, [("a", (), {0: 1}), ("b", (0,), {1: 2})])
        log = db.commit_log
        assert [r.txn for r in log] == ["a", "b"]
        assert log[1].commit_seq == 2
        assert log[1].read_set == (0,)
        assert log[1].writes == ((1, 2),)

    def test_snapshot_is_stable(self):
        db = Database(2)
        snap = db.committed_snapshot()
        db.apply_batch(1, [("t1", (), {0: "x"})])
        assert snap[0].writer == T0

    def test_bounds_checked(self):
        """The store's one bound is its size; object ids are checked at
        the server's commit door (``tests/server/test_server.py``)."""
        with pytest.raises(ValueError):
            Database(0)
