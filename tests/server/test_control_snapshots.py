"""Frozen control snapshots vs a cold oracle.

``BroadcastServer._control_snapshot`` reuses the previous cycle's frozen
array when no write committed since and encodes the live state afresh
otherwise.  These tests drive randomized commit schedules through a
server and check every cycle's broadcast image against the oracle — a
fresh ``snapshot()`` + ``encode_array()`` of a shadow control structure —
covering both unbounded and modulo timestamp encodings.
"""

import random

import numpy as np
import pytest

from repro.core.control_matrix import ControlMatrix
from repro.core.cycles import ModuloCycles, UnboundedCycles
from repro.core.group_matrix import GroupedControlState, Partition, uniform_partition
from repro.server.server import BroadcastServer


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
@pytest.mark.parametrize(
    "arithmetic_factory", [UnboundedCycles, lambda: ModuloCycles(4)],
    ids=["unbounded", "modulo-4bit"],
)
def test_matrix_snapshots_match_oracle(seed, arithmetic_factory):
    rng = random.Random(seed)
    n = 6
    server = BroadcastServer(n, "f-matrix", arithmetic=arithmetic_factory())
    oracle = ControlMatrix(n)
    encode = server.arithmetic.encode_array
    for cycle, commits in random_schedule(rng, n, cycles=25):
        bc = server.begin_cycle(cycle)
        assert np.array_equal(bc.snapshot.matrix, encode(oracle.snapshot()))
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
        assert not np.shares_memory(fourth, getattr(server, field).array)
        # the old image is untouched by later commits
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


@pytest.mark.parametrize(
    "arithmetic_factory", [UnboundedCycles, lambda: ModuloCycles(4)],
    ids=["unbounded", "modulo-4bit"],
)
def test_vector_snapshots_match_oracle(arithmetic_factory):
    rng = random.Random(11)
    n = 6
    server = BroadcastServer(n, "datacycle", arithmetic=arithmetic_factory())
    shadow = ControlMatrix(n)
    encode = server.arithmetic.encode_array
    previous = None
    quiet_since_previous = False
    for cycle, commits in random_schedule(rng, n, cycles=20):
        bc = server.begin_cycle(cycle)
        vec = bc.snapshot.vector
        assert np.array_equal(vec, encode(server.vector.snapshot()))
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
