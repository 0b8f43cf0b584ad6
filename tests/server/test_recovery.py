"""Recovery regressions (repro.server.recovery, BroadcastServer.restore_from).

Pins replay equivalence (a revived server holds the crashed one's
versions, control state and cycle) and the crash-recovery behaviours the
fault injection relies on: quiescent cycles surviving recovery, the
durable cycle mark, and swapping a revived server's state into the live
object.
"""

import numpy as np
import pytest

from repro.server import database as database_mod
from repro.server.database import Database
from repro.server.recovery import recover_server
from repro.server.server import BroadcastServer
from repro.server.workload import ServerWorkload


def _crashed_server(protocol="f-matrix"):
    server = BroadcastServer(5, protocol)
    server.begin_cycle(1)
    server.commit_update("s1", [0], {1: "a", 2: "b"})
    server.begin_cycle(2)
    server.commit_update("s2", [1], {0: "c"})
    # cycles 3-5 are quiescent: broadcast happened, nothing committed
    for cycle in (3, 4, 5):
        server.begin_cycle(cycle)
    return server


class TestQuiescentCycleRecovery:
    def test_database_source_restores_quiescent_cycles(self):
        crashed = _crashed_server()
        revived = recover_server(crashed.database, 5, "f-matrix")
        # the regression: defaulting to the last *commit* cycle (2) would
        # make the revived server re-issue cycles 3-5
        assert revived.current_cycle == 5
        with pytest.raises(ValueError):
            revived.begin_cycle(5)
        revived.begin_cycle(6)

    def test_bare_log_falls_back_to_last_commit_cycle(self):
        crashed = _crashed_server()
        revived = recover_server(crashed.database.commit_log, 5)
        assert revived.current_cycle == 2  # documented lossy fallback

    def test_explicit_cycle_wins_over_database_mark(self):
        crashed = _crashed_server()
        revived = recover_server(crashed.database, 5, current_cycle=9)
        assert revived.current_cycle == 9

    def test_replay_is_one_batch_per_commit_cycle(self, monkeypatch):
        crashed = _crashed_server()
        crashed.commit_update("s3", [2], {4: "d"}, cycle=5)
        crashed.commit_update("s4", [4], {3: "e"}, cycle=5)
        batches = []
        door = BroadcastServer.commit_batch

        def counted(server, cycle, batch):
            batches.append((cycle, [txn for txn, _, _ in batch]))
            door(server, cycle, batch)

        monkeypatch.setattr(BroadcastServer, "commit_batch", counted)
        revived = recover_server(crashed.database, 5, "f-matrix")
        assert batches == [(1, ["s1"]), (2, ["s2"]), (5, ["s3", "s4"])]
        assert revived.database.commit_log == crashed.database.commit_log
        assert np.array_equal(revived.matrix.array, crashed.matrix.array)

    def test_recovered_database_carries_the_cycle_mark(self):
        crashed = _crashed_server()
        revived = recover_server(crashed.database, 5, "f-matrix")
        assert revived.database.last_broadcast_cycle == 5
        # a second crash+recovery of the revived server loses nothing
        again = recover_server(revived.database, 5, "f-matrix")
        assert again.current_cycle == 5


class TestBroadcastCycleMark:
    def test_begin_cycle_records_the_mark(self):
        server = BroadcastServer(3, "r-matrix")
        assert server.database.last_broadcast_cycle == 0
        server.begin_cycle(1)
        server.begin_cycle(2)
        assert server.database.last_broadcast_cycle == 2

    def test_mark_may_not_regress(self):
        database = Database(3)
        database.record_broadcast_cycle(4)
        database.record_broadcast_cycle(4)  # idempotent re-record is fine
        with pytest.raises(ValueError):
            database.record_broadcast_cycle(3)


class TestRestoreFrom:
    def test_adopts_revived_state_in_place(self):
        crashed = _crashed_server()
        revived = recover_server(crashed.database, 5, "f-matrix")
        live = BroadcastServer(5, "f-matrix")  # stands in for the dead one
        live.restore_from(revived)
        assert live.current_cycle == 5
        assert np.array_equal(live.matrix.array, crashed.matrix.array)
        b1 = crashed.begin_cycle(6)
        b2 = live.begin_cycle(6)
        assert np.array_equal(b1.snapshot.matrix, b2.snapshot.matrix)
        assert b1.versions == b2.versions

    def test_protocol_mismatch_rejected(self):
        live = BroadcastServer(5, "f-matrix")
        other = BroadcastServer(5, "r-matrix")
        with pytest.raises(ValueError, match="cannot restore"):
            live.restore_from(other)

    def test_size_mismatch_rejected(self):
        live = BroadcastServer(5, "f-matrix")
        other = BroadcastServer(6, "f-matrix")
        with pytest.raises(ValueError, match="objects"):
            live.restore_from(other)


class TestReplayEquivalence:
    """A server rebuilt from its commit log holds the crashed one's state."""

    def _crashed_server(self, protocol="f-matrix"):
        server = BroadcastServer(5, protocol)
        server.begin_cycle(1)
        server.commit_update("s1", [0], {1: "a", 2: "b"})
        server.begin_cycle(2)
        server.commit_update("s2", [1], {0: "c"})
        server.commit_update("s3", [], {4: "d"})
        server.begin_cycle(3)
        return server

    def test_state_identical_after_replay(self):
        crashed = self._crashed_server()
        revived = recover_server(
            crashed.database.commit_log, 5, "f-matrix",
            current_cycle=crashed.current_cycle,
        )
        assert np.array_equal(revived.matrix.array, crashed.matrix.array)
        assert revived.vector is None and revived.grouped is None
        for obj in range(5):
            assert revived.database.committed(obj) == crashed.database.committed(obj)
        assert revived.current_cycle == crashed.current_cycle

    def test_snapshots_identical_after_recovery(self):
        crashed = self._crashed_server()
        revived = recover_server(
            crashed.database.commit_log, 5, "f-matrix",
            current_cycle=crashed.current_cycle,
        )
        b1 = crashed.begin_cycle(4)
        b2 = revived.begin_cycle(4)
        assert np.array_equal(b1.snapshot.matrix, b2.snapshot.matrix)
        assert b1.versions == b2.versions

    def test_default_cycle_is_last_commit(self):
        crashed = self._crashed_server()
        revived = recover_server(crashed.database.commit_log, 5)
        assert revived.current_cycle == 2  # s2/s3 committed in cycle 2

    def test_vector_protocol_recovery(self):
        crashed = self._crashed_server(protocol="r-matrix")
        revived = recover_server(crashed.database.commit_log, 5, "r-matrix")
        assert np.array_equal(revived.vector.array, crashed.vector.array)

    def test_commit_log_preserved_through_recovery(self):
        crashed = self._crashed_server()
        revived = recover_server(crashed.database.commit_log, 5)
        assert [r.txn for r in revived.database.commit_log] == ["s1", "s2", "s3"]

    def test_a_log_past_its_pack_interval_replays_whole(self):
        """A crash after more commits than one pack holds: packed and
        pending commits replay alike, a client update's values with them."""
        workload = ServerWorkload(8, length=3, seed=7)
        crashed = BroadcastServer(8, "f-matrix")
        cycle = 0
        while len(crashed.database.commit_log) <= database_mod._PACK + 100:
            cycle += 1
            crashed.begin_cycle(cycle)
            crashed.commit_batch(cycle, [workload.next_transaction() for _ in range(3)])
            crashed.commit_update(f"u{cycle}", [cycle % 8], {cycle % 7: f"v{cycle}"})
        crashed.begin_cycle(cycle + 1)
        revived = recover_server(crashed.database, 8, "f-matrix")
        assert revived.database.commit_log == crashed.database.commit_log
        assert (
            revived.database.committed_snapshot()
            == crashed.database.committed_snapshot()
        )
        assert np.array_equal(revived.matrix.array, crashed.matrix.array)
        assert revived.current_cycle == cycle + 1
