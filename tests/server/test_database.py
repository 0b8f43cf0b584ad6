"""Tests for the versioned store (repro.server.database)."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import T0
from repro.server import database as database_mod
from repro.server.database import CommitRecord, Database
from repro.server.server import BroadcastServer
from repro.server.workload import ServerWorkload


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


def raw_record(txn, commit_cycle, commit_seq, read_set, writes):
    """The record of a raw ``(txn, cycle, seq, read_set, writes)`` log
    entry, sorted as the log reports every commit."""
    if type(writes) is dict:
        pairs = tuple(sorted(writes.items()))
    else:  # the ids a transaction wrote its own id to
        pairs = tuple((obj, txn) for obj in sorted(set(writes)))
    return CommitRecord(
        txn, commit_cycle, commit_seq, tuple(sorted(set(read_set))), pairs
    )


N = 6
_IDS = st.lists(st.integers(0, N - 1), max_size=5)  # empty and repeated ids too
_COMMIT = st.tuples(
    st.one_of(
        st.builds("s{}".format, st.integers(1, 99_999)),
        st.text(
            st.characters(blacklist_characters="\0", blacklist_categories=("Cs",)),
            max_size=4,
        ),
    ),
    _IDS,
    st.one_of(
        _IDS.map(tuple),  # a server spec's written ids
        st.dictionaries(  # a client update's written values
            st.integers(0, N - 1),
            st.one_of(st.none(), st.text(max_size=2), st.integers()),
        ),
    ),
)


class TestColumnLog:
    """The columns give back, record for record, what logging each commit
    raw gave: whatever the pack interval, wherever a read falls."""

    @settings(max_examples=150, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(st.integers(0, 2), st.lists(_COMMIT, max_size=4)), max_size=12
        ),
        pack=st.sampled_from([1, 2, 3, 7, database_mod._PACK]),
        read_at=st.sets(st.integers(0, 12)),
    )
    def test_the_log_round_trips_every_commit(self, batches, pack, read_at):
        db, raw, cycle = Database(N), [], 0
        with mock.patch.object(database_mod, "_PACK", pack):
            for k, (step, batch) in enumerate(batches):
                cycle += step  # commit cycles repeat and skip, never fall
                db.apply_batch(cycle, batch)
                for txn, read_set, writes in batch:
                    raw.append(raw_record(txn, cycle, len(raw) + 1, read_set, writes))
                if raw:
                    assert db.last_record == raw[-1]
                assert db.last_commit_cycle == (raw[-1].commit_cycle if raw else 0)
                if k in read_at:
                    assert db.commit_log == tuple(raw)
        assert db.commit_log == tuple(raw)

    def test_ids_past_a_short_column(self):
        """Past 65,536 objects an id no longer fits two bytes."""
        db = Database((1 << 16) + 1)
        db.apply_batch(1, [("s1", (1 << 16,), (0, 1 << 16))])
        db.apply_batch(2, [("s2", (), (1 << 16,))])
        assert db.commit_log == (
            CommitRecord("s1", 1, 1, (1 << 16,), ((0, "s1"), (1 << 16, "s1"))),
            CommitRecord("s2", 2, 2, (), ((1 << 16, "s2"),)),
        )

    def test_an_empty_log(self):
        db = Database(2)
        db.apply_batch(1, [])
        assert db.commit_log == () and db.last_commit_cycle == 0
        with pytest.raises(IndexError):
            db.last_record

    def test_a_tid_holding_nul_is_refused_when_packed(self):
        """Fixed-width bytes pad with NUL, so a packed tid could not keep one."""
        db = Database(2)
        with mock.patch.object(database_mod, "_PACK", 1):
            db.apply_batch(1, [("a\0", (), (0,))])
            with pytest.raises(ValueError, match="NUL"):
                db.apply_batch(2, [("b", (), (1,))])


def test_a_logged_commit_costs_bytes_not_its_spec():
    """20,000 Table-1 server commits (300 objects, 8 ids each), a batch a
    cycle: the log keeps packed tids, two-byte ids, two counts and a cycle
    run — about 50 B a commit with the pending lists' share — and lets
    each spec go.  Logged raw, with the specs, a commit kept ~380 B.
    Datacycle's control state is one vector, so what grows is the log."""
    n = 20_000
    workload = ServerWorkload(300, seed=1999)
    server = BroadcastServer(300, "datacycle")
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for cycle in range(1, n + 1):
            server.commit_batch(cycle, [workload.next_transaction()])
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert len(server.database.commit_log) == n
    assert retained <= 64 * n
