"""Frozen control snapshots vs a cold oracle.

``BroadcastServer._control_snapshot`` reuses the previous cycle's frozen
image when no write committed since; otherwise it shares the live state's
immutable columns.  These tests drive randomized commit schedules through
a server and check every cycle's broadcast image against a *dense* oracle
— a fresh ``snapshot()`` of a shadow control structure, or a Theorem 2
transcription on a plain array — for the server of an absolute and of a
modulo run, which freeze the same absolute cycles; that an image, once
frozen, can never change; and that neither a freeze nor a commit nor a
plain simulation ever builds anything ``n × n``.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.control_matrix import ColumnImage, ControlMatrix
from repro.core.group_matrix import GroupedControlState, Partition, uniform_partition
from repro.core.reference import ReferenceControlMatrix
from repro.core.validators import PROTOCOL_NAMES
from repro.server.server import BroadcastServer
from repro.sim import SimulationConfig, run_simulation
from repro.sim.timeline import LiveTimeline


def run_server(n, protocol, bits=None, groups=4):
    """The server a run builds for this config (its timeline's): ``bits``
    set means modulo timestamps of that width, which change no image."""
    config = SimulationConfig(
        num_objects=n,
        protocol=protocol,
        num_groups=groups,
        client_txn_length=1,
        server_txn_length=1,
        modulo_timestamps=bits is not None,
        timestamp_bits=bits or 8,
    )
    return LiveTimeline(config, config.layout()).server


def random_schedule(rng, num_objects, cycles):
    """Yield (cycle, commits) where commits is a list of (rs, ws).

    Roughly half the cycles are quiescent so the reuse path is exercised
    as often as the re-encode path.
    """
    schedule = []
    for cycle in range(1, cycles + 1):
        commits = []
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            objs = rng.sample(range(num_objects), rng.randint(1, 3))
            split = rng.randint(0, len(objs) - 1)
            commits.append((objs[:split], objs[split:]))
        schedule.append((cycle, commits))
    return schedule


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("bits", [None, 4], ids=["unbounded", "modulo-4bit"])
def test_matrix_snapshots_match_oracle(seed, bits):
    rng = random.Random(seed)
    n = 6
    server = run_server(n, "f-matrix", bits)
    oracle = ControlMatrix(n)
    for cycle, commits in random_schedule(rng, n, cycles=25):
        bc = server.begin_cycle(cycle)
        assert np.array_equal(bc.snapshot.matrix, oracle.snapshot())
        assert not bc.snapshot.matrix.flags.writeable
        for k, (rs, ws) in enumerate(commits):
            server.commit_update(
                f"t{cycle}.{k}", rs, {obj: cycle for obj in ws}
            )
            oracle.apply_commit(cycle, rs, ws)


def test_quiescent_cycles_reuse_the_frozen_array():
    for protocol, field in [
        ("f-matrix", "matrix"), ("datacycle", "vector"), ("group-matrix", "grouped")
    ]:
        server = BroadcastServer(4, protocol, partition=uniform_partition(4, 2))
        server.commit_update("t1", [], {0: "x", 2: "y"}, cycle=0)
        first = getattr(server.begin_cycle(1).snapshot, field)
        second = getattr(server.begin_cycle(2).snapshot, field)
        assert second is first  # no commits: same immutable object rides again
        server.commit_update("r1", [0, 2], {})
        assert getattr(server.begin_cycle(3).snapshot, field) is first  # reads only
        before = first.copy()
        server.commit_update("t2", [0], {1: "z"})
        fourth = getattr(server.begin_cycle(4).snapshot, field)
        assert fourth is not first and not np.array_equal(fourth, first)
        # images share immutable columns with the live state by design; what
        # must hold is that commits after a freeze leave the image as it was
        after_freeze = fourth.copy()
        server.commit_update("t3", [1], {0: "w", 3: "v"})
        assert np.array_equal(fourth, after_freeze)
        assert np.array_equal(first, before)


def test_partial_reencode_only_touches_dirty_columns():
    server = BroadcastServer(5, "f-matrix")
    server.commit_update("t1", [], {0: 1, 1: 1}, cycle=0)
    before = server.begin_cycle(1).snapshot.matrix
    server.commit_update("t2", [1], {3: 2})
    after = server.begin_cycle(2).snapshot.matrix
    # untouched columns are value-identical to the previous image,
    # and the whole matrix equals a cold full freeze
    assert np.array_equal(after[:, [0, 1, 2, 4]], before[:, [0, 1, 2, 4]])
    oracle = ControlMatrix(5)
    oracle.apply_commit(0, [], [0, 1])
    oracle.apply_commit(1, [1], [3])
    assert np.array_equal(after, oracle.snapshot())


@pytest.mark.parametrize("bits", [None, 4], ids=["unbounded", "modulo-4bit"])
def test_vector_snapshots_match_oracle(bits):
    rng = random.Random(11)
    n = 6
    server = run_server(n, "datacycle", bits)
    shadow = ControlMatrix(n)
    previous = None
    quiet_since_previous = False
    for cycle, commits in random_schedule(rng, n, cycles=20):
        bc = server.begin_cycle(cycle)
        vec = bc.snapshot.vector
        assert np.array_equal(vec, server.vector.snapshot())
        assert np.array_equal(vec, shadow.reduce_to_vector())
        assert not vec.flags.writeable
        if previous is not None and quiet_since_previous:
            assert vec is previous
        previous = vec
        quiet_since_previous = not commits
        for k, (rs, ws) in enumerate(commits):
            server.commit_update(f"t{cycle}.{k}", rs, {o: cycle for o in ws})
            shadow.apply_commit(cycle, rs, ws)


def test_grouped_snapshots_match_oracle():
    rng = random.Random(3)
    n = 6
    groups = [[0, 1], [2, 3], [4, 5]]
    partition = Partition(groups, n)
    server = BroadcastServer(n, "group-matrix", partition=partition)
    # the oracle is a shadow GroupedControlState frozen the slow way; the
    # grouped state itself is conservative w.r.t. the exact reduction, so
    # additionally check that one-sided bound holds every cycle
    shadow = GroupedControlState(Partition(groups, n))
    exact = ControlMatrix(n)
    for cycle, commits in random_schedule(rng, n, cycles=20):
        bc = server.begin_cycle(cycle)
        assert np.array_equal(bc.snapshot.grouped, shadow.snapshot())
        assert not bc.snapshot.grouped.flags.writeable
        assert np.all(bc.snapshot.grouped >= exact.reduce_to_groups(groups))
        for k, (rs, ws) in enumerate(commits):
            server.commit_update(f"t{cycle}.{k}", rs, {o: cycle for o in ws})
            shadow.apply_commit(cycle, rs, ws)
            exact.apply_commit(cycle, rs, ws)


# ----------------------------------------------------------------------
# the shared image equals the dense one, and can never change
# ----------------------------------------------------------------------

def dense_grouped_commit(mc, group_of, cycle, rs, ws):
    """``GroupedControlState.apply_commit`` on one dense ``n × g`` block,
    as it was before the state became shared columns."""
    ws = sorted(set(ws))
    if not ws:
        return
    read_groups = sorted({group_of[r] for r in rs})
    if read_groups:
        new_column = mc[:, read_groups].max(axis=1)
    else:
        new_column = np.zeros(mc.shape[0], dtype=np.int64)
    new_column[ws] = cycle
    for gidx in {group_of[w] for w in ws}:
        if mc.shape[0] == mc.shape[1]:
            mc[:, gidx] = new_column
        else:
            np.maximum(mc[:, gidx], new_column, out=mc[:, gidx])


@st.composite
def commit_streams(draw):
    n = draw(st.integers(4, 7))
    ids = st.lists(st.integers(0, n - 1), max_size=4)  # repeats allowed
    commit = st.tuples(ids, st.one_of(st.just([]), ids))  # read-only commits too
    cycles = st.lists(st.lists(commit, max_size=3), min_size=2, max_size=14)
    return n, draw(cycles)


@settings(max_examples=120, deadline=None)
@given(
    stream=commit_streams(),
    shape=st.sampled_from(["f-matrix", 1, 4, "n"]),
    bits=st.sampled_from([None, 2, 4, 8]),
)
def test_shared_image_equals_the_dense_one_and_never_changes(stream, shape, bits):
    n, cycles = stream
    if shape == "f-matrix":
        server = run_server(n, "f-matrix", bits)
        field, read_column = "matrix", lambda snap, k: snap.column(k)
        reference = ReferenceControlMatrix(n)
        apply = reference.apply_commit
        dense = lambda: np.array(reference.rows(), dtype=np.int64)
    else:
        groups = n if shape == "n" else shape
        partition = uniform_partition(n, groups)
        server = run_server(n, "group-matrix", bits, groups)
        field, read_column = "grouped", lambda snap, k: snap.group_column(k)
        mc = np.zeros((n, partition.num_groups), dtype=np.int64)
        group_of = partition.group_indices().tolist()
        apply = lambda cycle, rs, ws: dense_grouped_commit(mc, group_of, cycle, rs, ws)
        dense = lambda: mc
    frozen = []  # (image, deep copy taken when it was frozen)
    previous, wrote = None, True
    for cycle, commits in enumerate(cycles, start=1):
        snap = server.begin_cycle(cycle).snapshot
        image = getattr(snap, field)
        assert np.array_equal(image, dense())
        assert not image.flags.writeable
        for k in range(image.shape[1]):
            column = read_column(snap, k)
            assert np.array_equal(column, image[:, k])
            assert column.flags.writeable is False and column.base is None
            with pytest.raises(ValueError):
                column[0] = 1
            if not wrote:  # quiescent: the same columns ride again
                assert column is read_column(previous, k)
        if not wrote:  # ... and the same dense array, stacked at most once
            assert image is getattr(previous, field)
        for earlier, copy in frozen:
            assert np.array_equal(earlier, copy)
        frozen.append((image, image.copy()))
        previous, wrote = snap, False
        for k, (rs, ws) in enumerate(commits):
            server.commit_update(f"t{cycle}.{k}", rs, {obj: cycle for obj in ws})
            apply(cycle, rs, ws)
            wrote = wrote or bool(ws)


# ----------------------------------------------------------------------
# nothing n × n is allocated: two deterministic guards, no clock
# ----------------------------------------------------------------------

def traced_peak(action):
    """Peak bytes allocated while ``action`` runs (numpy buffers included)."""
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        action()
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "protocol, limit", [("f-matrix", 64 * 1024), ("group-matrix", 16 * 1024)]
)
def test_a_dirty_freeze_and_a_commit_allocate_columns_not_matrices(protocol, limit):
    """n = 500: a dense freeze copied 2 MB (f-matrix) / 64 KB (16 groups)
    per dirty cycle; sharing allocates the replaced columns and two tuples
    of pointers.  A 4-read / 4-write commit (database record included)
    makes a handful of ``8n``-byte columns."""
    n = 500
    server = BroadcastServer(n, protocol, partition=uniform_partition(n, 16))
    rng = random.Random(5)
    for cycle in range(1, 4):  # past the birth freeze, where every column is new
        for k in range(40):
            objs = rng.sample(range(n), 8)
            server.commit_update(f"w{cycle}.{k}", objs[:4], dict.fromkeys(objs[4:], 0))
        server.begin_cycle(cycle)
    commit_peak = traced_peak(
        lambda: server.commit_update(
            "c", [1, 120, 250, 499], {7: 0, 130: 0, 260: 0, 480: 0}
        )
    )
    assert commit_peak < 8 * 8 * n
    server.begin_cycle(4)
    server.commit_update("t", [3, 140], {9: 0, 270: 0})
    freeze_peak = traced_peak(lambda: server.begin_cycle(5))
    assert freeze_peak < limit


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_a_plain_run_never_stacks_a_dense_image(protocol, monkeypatch):
    """No audit, no trace, no arena: validators read single columns, so a
    Table-1 run must complete with the dense materialiser out of order."""

    def refuse(self):
        raise AssertionError("a plain run asked for a dense control image")

    monkeypatch.setattr(ColumnImage, "dense", refuse)
    result = run_simulation(
        SimulationConfig(protocol=protocol, num_client_transactions=50, seed=7)
    )
    assert result.metrics.commit_count == 50


# ----------------------------------------------------------------------
# what a freeze shares with the live state, and what it must not
# ----------------------------------------------------------------------

#: timestamp widths: absolute, and the paper's 8-bit modulo wire
ARITHMETICS = [
    pytest.param(None, id="absolute"),
    pytest.param(8, id="modulo-8bit"),
]


def reachable_arrays(snapshot):
    """Every array a frozen image holds: its columns (or vector) and the
    dense array stacked from them."""
    if snapshot.kind == "vector":
        return [snapshot.vector]
    column = snapshot.column if snapshot.kind == "matrix" else snapshot.group_column
    dense = getattr(snapshot, snapshot.kind)
    return [column(k) for k in range(dense.shape[1])] + [dense]


def numpy_bytes_kept(action):
    """``(result, bytes)``: numpy buffers that ``action`` allocated and that
    are still alive once it returns (what a freeze keeps: its image)."""
    only_numpy = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def numpy_bytes():
        traces = tracemalloc.take_snapshot().filter_traces(only_numpy).traces
        return sum(trace.size for trace in traces)

    tracemalloc.start()
    try:
        before = numpy_bytes()
        result = action()
        return result, numpy_bytes() - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bits", ARITHMETICS)
@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_every_array_a_retained_image_holds_is_read_only(protocol, bits):
    n = 12
    server = run_server(n, protocol, bits)
    images = []
    for cycle, commits in random_schedule(random.Random(2), n, cycles=30):
        images.append(server.begin_cycle(cycle))
        for k, (rs, ws) in enumerate(commits):
            server.commit_update(f"t{cycle}.{k}", rs, dict.fromkeys(ws, cycle))
    for image in images:
        for array in reachable_arrays(image.snapshot):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = -1


@pytest.mark.parametrize("bits", ARITHMETICS)
@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_a_dirty_freeze_shares_sealed_columns_under_either_timestamps(protocol, bits):
    """n = 500 and 40 commits of four writes before the freeze.  Under
    absolute and modulo timestamps alike the image's columns *are* the
    live ones and the freeze keeps no new numpy buffer.  A vector is
    stamped in place, so its freeze copies."""
    n = 500
    server = run_server(n, protocol, bits, groups=16)
    rng = random.Random(9)
    server.begin_cycle(1)
    for k in range(40):
        objs = rng.sample(range(n), 8)
        server.commit_update(f"w{k}", objs[:4], dict.fromkeys(objs[4:], 0))
    image, kept = numpy_bytes_kept(lambda: server.begin_cycle(2))
    snapshot = image.snapshot
    state = server.matrix or server.grouped
    if state is None:
        assert snapshot.vector is not server.vector.array
        assert np.array_equal(snapshot.vector, server.vector.array)
        assert kept >= 8 * n
        return
    column = snapshot.column if protocol != "group-matrix" else snapshot.group_column
    live = state.columns
    assert all(column(k) is c for k, c in enumerate(live))
    assert kept == 0
