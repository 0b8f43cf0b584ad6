"""Tests for the broadcast server (repro.server.server)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.control_info import snapshot_payload
from repro.core.group_matrix import uniform_partition
from repro.core.validators import PROTOCOL_NAMES
from repro.server.recovery import recover_server
from repro.server.server import BroadcastServer
from repro.server.validation import UpdateSubmission

def partition_for(protocol, num_objects=4):
    return uniform_partition(num_objects, 2) if protocol == "group-matrix" else None


def make_server(protocol, num_objects=4):
    return BroadcastServer(
        num_objects, protocol, partition=partition_for(protocol, num_objects)
    )


def control_array(server):
    """The one control structure ``server`` keeps, as a dense array."""
    (state,) = [s for s in (server.matrix, server.vector, server.grouped) if s is not None]
    return state.array


class TestSnapshots:
    def test_fmatrix_snapshot_carries_matrix(self):
        server = BroadcastServer(3, "f-matrix")
        bc = server.begin_cycle(1)
        assert bc.snapshot.matrix is not None
        assert bc.snapshot.vector is None

    def test_vector_protocol_snapshot(self):
        for protocol in ("r-matrix", "datacycle"):
            server = BroadcastServer(3, protocol)
            bc = server.begin_cycle(1)
            assert bc.snapshot.vector is not None
            assert bc.snapshot.matrix is None

    def test_grouped_snapshot(self):
        part = uniform_partition(4, 2)
        server = BroadcastServer(4, "group-matrix", partition=part)
        bc = server.begin_cycle(1)
        assert bc.snapshot.grouped is not None
        assert bc.snapshot.grouped.shape == (4, 2)
        assert bc.snapshot.partition is part

    def test_group_matrix_requires_partition(self):
        with pytest.raises(ValueError):
            BroadcastServer(4, "group-matrix")

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            BroadcastServer(4, "nonsense")

    def test_mid_cycle_commits_invisible_until_next_cycle(self):
        server = BroadcastServer(2, "f-matrix")
        bc1 = server.begin_cycle(1)
        server.commit_update("t1", [], {0: "new"}, cycle=1)
        # the cycle-1 image is frozen
        assert bc1.version(0).value == 0
        assert bc1.snapshot.matrix[0, 0] == 0
        bc2 = server.begin_cycle(2)
        assert bc2.version(0).value == "new"
        assert bc2.snapshot.matrix[0, 0] == 1

    def test_cycles_must_advance(self):
        server = BroadcastServer(2, "f-matrix")
        server.begin_cycle(1)
        with pytest.raises(ValueError):
            server.begin_cycle(1)


class TestCommitUpdate:
    def test_updates_all_control_structures(self):
        """One control state per server — the one the protocol broadcasts;
        the last write cycle is the database's to answer."""
        kinds = {"f-matrix": "matrix", "f-matrix-no": "matrix", "group-matrix": "grouped"}
        for protocol in PROTOCOL_NAMES:
            server = make_server(protocol)
            server.begin_cycle(1)
            server.commit_update("t1", [], {0: "v"})
            states = {
                "matrix": server.matrix,
                "vector": server.vector,
                "grouped": server.grouped,
            }
            (kind,) = [name for name, state in states.items() if state is not None]
            assert kind == kinds.get(protocol, "vector")
            assert states[kind].array[0].max() == 1
            assert server.database.committed(0).value == "v"
            assert server.database.committed(0).commit_cycle == 1

    def test_default_cycle_is_current(self):
        server = BroadcastServer(2, "r-matrix")
        server.begin_cycle(3)
        record = server.commit_update("t1", [], {0: "v"})
        assert record.commit_cycle == 3


#: (read set, writes, cycle, documented exception) — the live server is at
#: cycle 5 with one commit in it; every case is refused at the door
BAD_COMMITS = [
    pytest.param([], {0: "x", 7: "y"}, None, IndexError, id="write-past-end"),
    pytest.param([], {0: "x", -1: "y"}, None, IndexError, id="write-negative"),
    pytest.param([7], {0: "x"}, None, IndexError, id="read-past-end"),
    pytest.param([-1], {0: "x"}, None, IndexError, id="read-negative"),
    pytest.param([1], {0: "x"}, 3, ValueError, id="cycle-goes-back"),
]


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
class TestRejectedCommits:
    """A commit the server refuses is refused whole, under every protocol:
    no version, log record or control entry changes, so the durable log
    never holds a record the control state (or a replay) cannot apply.
    A batch is refused whole too, wherever in it the bad commit sits."""

    def _server(self, protocol):
        server = make_server(protocol)
        server.begin_cycle(5)
        server.commit_update("t1", [1], {0: "a", 2: "b"})
        return server

    @pytest.mark.parametrize("reads, writes, cycle, error", BAD_COMMITS)
    def test_bad_commit_raises_and_leaves_no_trace(
        self, protocol, reads, writes, cycle, error
    ):
        server, twin = self._server(protocol), self._server(protocol)
        with pytest.raises(error):
            server.commit_update("bad", reads, writes, cycle=cycle)
        self._assert_untouched(protocol, server, twin)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("reads, writes, cycle, error", BAD_COMMITS)
    def test_a_bad_commit_anywhere_refuses_the_whole_batch(
        self, protocol, reads, writes, cycle, error, position
    ):
        server, twin = self._server(protocol), self._server(protocol)
        batch = [("g1", (0,), (1,)), ("g2", (1, 3), {3: "v"})]
        batch.insert(position, ("bad", tuple(reads), dict(writes)))
        with pytest.raises(error):
            server.commit_batch(5 if cycle is None else cycle, batch)
        self._assert_untouched(protocol, server, twin)

    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("obj", [-1, 4])
    @pytest.mark.parametrize("side", ["reads", "writes"])
    def test_the_id_door_names_the_bad_id(self, protocol, side, obj, position):
        """One id outside ``0..3``, in the reads only or in the writes
        only, anywhere in the batch: the ``IndexError`` names it."""
        server, twin = self._server(protocol), self._server(protocol)
        bad = ("bad", (obj,), {0: "x"}) if side == "reads" else ("bad", (1,), {obj: "x"})
        batch = [("g1", (0,), (1,)), ("g2", (1, 3), {3: "v"})]
        batch.insert(position, bad)
        with pytest.raises(IndexError, match=rf"^object id {obj} out of range 0\.\.3$"):
            server.commit_batch(5, batch)
        self._assert_untouched(protocol, server, twin)

    def _assert_untouched(self, protocol, server, twin):
        assert server.database.commit_log == twin.database.commit_log
        assert server.database.committed_snapshot() == twin.database.committed_snapshot()
        assert np.array_equal(control_array(server), control_array(twin))
        # the next good commit gets the record (and sequence number) it
        # would have had, and everything a client can see is the twin's
        assert server.commit_update("t2", [0], {3: "c"}) == twin.commit_update(
            "t2", [0], {3: "c"}
        )
        revived = recover_server(
            server.database, 4, protocol, partition=partition_for(protocol)
        )
        expected = twin.begin_cycle(6)
        for candidate in (server, revived):
            image = candidate.begin_cycle(6)
            assert image.versions == expected.versions
            assert np.array_equal(
                snapshot_payload(image.snapshot)[1],
                snapshot_payload(expected.snapshot)[1],
            )

    @pytest.mark.parametrize("obj", [-1, 7])
    def test_bad_client_read_id_refused_without_a_commit(self, protocol, obj):
        server = self._server(protocol)
        before = server.database.commit_log
        with pytest.raises(IndexError):
            server.submit_client_update(
                UpdateSubmission("u1", reads=((obj, 6),), writes=((1, "bid"),)),
                cycle=6,
            )
        assert server.database.commit_log == before
        assert server.database.committed(1).value == 0


class TestClientUpdatePath:
    def test_accept_and_install(self):
        server = BroadcastServer(2, "f-matrix")
        server.begin_cycle(1)
        outcome = server.submit_client_update(
            UpdateSubmission("u1", reads=((0, 1),), writes=((0, "bid"),))
        )
        assert outcome.committed
        assert server.database.committed(0).value == "bid"
        assert server.database.commit_log[-1].txn == "u1"

    def test_reject_stale_and_do_not_install(self):
        server = BroadcastServer(2, "f-matrix")
        server.begin_cycle(1)
        server.commit_update("t1", [], {0: "newer"})
        outcome = server.submit_client_update(
            UpdateSubmission("u1", reads=((0, 1),), writes=((0, "bid"),))
        )
        assert not outcome.committed
        assert server.database.committed(0).value == "newer"

    def test_serialization_order_preserved_with_mixed_sources(self):
        from repro.core.serialgraph import is_conflict_serializable
        from repro.sim.trace import TraceRecorder

        server = BroadcastServer(3, "f-matrix")
        server.begin_cycle(1)
        server.commit_update("s1", [0], {1: "a"})
        server.begin_cycle(2)
        out1 = server.submit_client_update(
            UpdateSubmission("u1", reads=((1, 2),), writes=((2, "b"),))
        )
        server.begin_cycle(3)
        out2 = server.submit_client_update(
            UpdateSubmission("u2", reads=((2, 3),), writes=((0, "c"),))
        )
        assert out1.committed and out2.committed
        trace = TraceRecorder()
        history = trace.build_history(server.database)
        assert is_conflict_serializable(history)
        assert [r.txn for r in server.database.commit_log] == ["s1", "u1", "u2"]


# ----------------------------------------------------------------------
# the batch door
# ----------------------------------------------------------------------
#: objects of the batch tests: enough for the 16 groups Table-1 runs use
N = 20


@st.composite
def cycles_of_commits(draw):
    """Per cycle, the commits of one batch: (read ids, written ids, whether
    the writes carry their own values or the transaction id)."""
    ids = st.integers(0, N - 1)
    commit = st.tuples(
        st.lists(ids, max_size=4),  # repeats allowed
        st.lists(ids, max_size=4, unique=True),  # read-only commits too
        st.booleans(),
    )
    return draw(st.lists(st.lists(commit, max_size=5), min_size=1, max_size=6))


def batch_server(protocol):
    return BroadcastServer(
        N,
        protocol,
        partition=uniform_partition(N, 16) if protocol == "group-matrix" else None,
    )


def assert_same_images(left, right):
    assert left.versions == right.versions
    assert np.array_equal(
        snapshot_payload(left.snapshot)[1], snapshot_payload(right.snapshot)[1]
    )


class TestBatchDoor:
    @settings(max_examples=80, deadline=None)
    @given(
        cycles=cycles_of_commits(),
        protocol=st.sampled_from(PROTOCOL_NAMES),
    )
    def test_one_batch_equals_its_commits_one_at_a_time(self, cycles, protocol):
        """Theorem 2 is order-dependent inside a cycle; the batch chains
        its columns in order, so state, versions, log and the next frozen
        image are those of the same commits made one by one."""
        batched, sequential = batch_server(protocol), batch_server(protocol)
        for cycle, commits in enumerate(cycles, start=1):
            assert_same_images(batched.begin_cycle(cycle), sequential.begin_cycle(cycle))
            batch = []
            for k, (reads, written, valued) in enumerate(commits):
                txn = f"t{cycle}.{k}"
                writes = {obj: f"v{cycle}.{obj}" for obj in written}
                batch.append((txn, tuple(reads), writes if valued else tuple(written)))
                if not valued:
                    writes = dict.fromkeys(written, txn)
                sequential.commit_update(txn, reads, writes, cycle=cycle)
            batched.commit_batch(cycle, batch)
            assert np.array_equal(control_array(batched), control_array(sequential))
            assert (
                batched.database.committed_snapshot()
                == sequential.database.committed_snapshot()
            )
        assert batched.database.commit_log == sequential.database.commit_log
        after = len(cycles) + 1
        assert_same_images(batched.begin_cycle(after), sequential.begin_cycle(after))

    def test_the_log_keeps_no_reference_to_a_callers_sets(self):
        server = BroadcastServer(4, "f-matrix")
        reads, writes = [1], {0: "a", 2: "b"}
        record = server.commit_update("t1", reads, writes, cycle=1)
        reads.append(3)
        writes[3] = "c"
        del writes[0]
        assert server.database.commit_log == (record,)
        assert record.read_set == (1,) and record.writes == ((0, "a"), (2, "b"))
        assert server.database.committed(3).writer == "t0"

    def test_reading_the_log_mid_run_changes_nothing_after(self):
        """A crash reads the log mid-run; commits after that read must log
        exactly what a server nobody read would have logged."""
        read, unread = BroadcastServer(6, "r-matrix"), BroadcastServer(6, "r-matrix")
        first = [("s1", (0,), (1, 2)), ("u1", (), {3: "x"})]
        later = [("s2", (1, 1), (0,)), ("s3", (), (4, 5))]
        for server in (read, unread):
            server.commit_batch(1, first)
        prefix = read.database.commit_log
        for server in (read, unread):
            server.commit_batch(2, later)
            server.commit_update("u2", [4], {5: "y"}, cycle=2)
        assert read.database.commit_log == unread.database.commit_log
        assert read.database.commit_log[:2] == prefix
        assert [r.commit_seq for r in read.database.commit_log] == [1, 2, 3, 4, 5]
        assert read.database.commit_log[2].read_set == (1,)
        assert read.database.commit_log[3].writes == ((4, "s3"), (5, "s3"))
