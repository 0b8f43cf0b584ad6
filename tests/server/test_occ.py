"""Tests for the OCC executor (repro.server.occ) and recovery
(repro.server.recovery)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.serialgraph import conflict_graph, is_conflict_serializable
from repro.server.database import Database
from repro.server.occ import OCCExecutor
from repro.server.recovery import recover_server
from repro.server.server import BroadcastServer
from repro.server.twopl import TransactionProgram, TwoPLExecutor


def program(tid, *steps):
    return TransactionProgram(tid, tuple(steps))


class TestOCCBasics:
    def test_single_transaction(self):
        db = Database(2)
        result = OCCExecutor(db).run([program("t1", ("r", 0), ("w", 1))])
        assert result.commit_order == ("t1",)
        assert db.committed(1).writer == "t1"

    def test_own_writes_visible(self):
        db = Database(1)
        executor = OCCExecutor(db, value_fn=lambda t, o, a: "mine")
        result = executor.run([program("t1", ("w", 0), ("r", 0))])
        assert result.read_values["t1"][0] == "mine"

    def test_stale_reader_restarts(self):
        # t1 reads 0 then waits; t2 blind-writes 0 and commits first;
        # round-robin makes t1 validate after t2's commit -> restart
        db = Database(2)
        result = OCCExecutor(db).run(
            [
                program("t1", ("r", 0), ("r", 1)),
                program("t2", ("w", 0)),
            ]
        )
        assert result.restarts["t1"] >= 1
        assert set(result.commit_order) == {"t1", "t2"}

    def test_blind_writers_never_restart(self):
        db = Database(3)
        result = OCCExecutor(db).run(
            [program(f"t{k}", ("w", k % 3)) for k in range(5)]
        )
        assert all(r == 0 for r in result.restarts.values())

    def test_duplicate_tids_rejected(self):
        with pytest.raises(ValueError):
            OCCExecutor(Database(1)).run(
                [program("t", ("r", 0)), program("t", ("r", 0))]
            )


class TestOCCSerializability:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_interleavings_serializable(self, seed):
        rng = random.Random(seed)
        db = Database(4)
        programs = [
            program(f"t{t}", *[
                ("r" if rng.random() < 0.5 else "w", obj)
                for obj in rng.sample(range(4), rng.randint(1, 4))
            ])
            for t in range(5)
        ]
        result = OCCExecutor(db).run(programs, rng=rng)
        assert is_conflict_serializable(result.history)
        assert len(result.commit_order) == 5

    @pytest.mark.parametrize("seed", range(8))
    def test_commit_order_is_serialization_order(self, seed):
        rng = random.Random(seed + 50)
        db = Database(3)
        programs = [
            program(f"t{t}", *[
                ("r" if rng.random() < 0.5 else "w", obj)
                for obj in rng.sample(range(3), rng.randint(1, 3))
            ])
            for t in range(4)
        ]
        result = OCCExecutor(db).run(programs, rng=rng)
        graph = conflict_graph(result.history)
        position = {tid: i for i, tid in enumerate(result.commit_order)}
        for src, dst in graph.edges:
            assert position[src] < position[dst]

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_property_occ_vs_twopl_same_guarantee(self, data):
        num_objects = data.draw(st.integers(2, 4))
        programs = []
        for t in range(data.draw(st.integers(2, 4))):
            objs = data.draw(
                st.lists(st.integers(0, num_objects - 1), min_size=1,
                         max_size=3, unique=True)
            )
            steps = tuple(
                ("r" if data.draw(st.booleans()) else "w", obj) for obj in objs
            )
            programs.append(TransactionProgram(f"t{t}", steps))
        seed = data.draw(st.integers(0, 1000))
        for executor_cls in (OCCExecutor, TwoPLExecutor):
            result = executor_cls(Database(num_objects)).run(
                programs, rng=random.Random(seed)
            )
            assert is_conflict_serializable(result.history)


class TestRecovery:
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
