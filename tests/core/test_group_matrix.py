"""Tests for grouped/vector control state (repro.core.group_matrix)."""

import random

import numpy as np
import pytest

from repro.core.control_matrix import ControlMatrix
from repro.core.group_matrix import (
    GroupedControlState,
    LastWriteVector,
    Partition,
    uniform_partition,
)


class TestPartition:
    def test_valid_partition(self):
        part = Partition([[0, 1], [2]], 3)
        assert part.num_groups == 2
        assert part.group_of(2) == 1

    def test_must_cover_all(self):
        with pytest.raises(ValueError):
            Partition([[0]], 2)

    def test_no_overlap(self):
        with pytest.raises(ValueError):
            Partition([[0, 1], [1]], 2)

    def test_no_empty_groups(self):
        with pytest.raises(ValueError):
            Partition([[0, 1], []], 2)

    def test_uniform_partition_extremes(self):
        singletons = uniform_partition(4, 4)
        assert singletons.num_groups == 4
        one = uniform_partition(4, 1)
        assert one.num_groups == 1
        with pytest.raises(ValueError):
            uniform_partition(4, 5)

    def test_uniform_partition_balanced(self):
        part = uniform_partition(10, 3)
        sizes = sorted(len(g) for g in part.groups)
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_group_indices_vector(self):
        part = Partition([[0, 2], [1]], 3)
        assert list(part.group_indices()) == [0, 1, 0]


class TestLastWriteVector:
    def test_tracks_last_commit_cycle(self):
        vec = LastWriteVector(3)
        vec.apply_commit(2, [], [0, 1])
        vec.apply_commit(5, [0], [1])
        assert vec.entry(0) == 2
        assert vec.entry(1) == 5
        assert vec.entry(2) == 0

    def test_read_only_noop(self):
        vec = LastWriteVector(2)
        vec.apply_commit(3, [0, 1], [])
        assert list(vec.array) == [0, 0]

    def test_snapshot_independent(self):
        vec = LastWriteVector(2)
        snap = vec.snapshot()
        vec.apply_commit(1, [], [0])
        assert snap[0] == 0

    def test_matches_matrix_vector_reduction(self):
        rng = random.Random(3)
        n = 5
        cm, vec = ControlMatrix(n), LastWriteVector(n)
        cycle = 0
        for _ in range(20):
            cycle += rng.randint(0, 2)
            objs = rng.sample(range(n), rng.randint(1, n))
            split = rng.randint(0, len(objs) - 1)
            rs, ws = objs[:split], objs[split:]
            cm.apply_commit(cycle, rs, ws)
            vec.apply_commit(cycle, rs, ws)
        assert np.array_equal(cm.reduce_to_vector(), vec.array)


class TestGroupedControlState:
    def _replay(self, num_objects, num_groups, commits):
        part = uniform_partition(num_objects, num_groups)
        grouped = GroupedControlState(part)
        cm = ControlMatrix(num_objects)
        for cycle, rs, ws in commits:
            grouped.apply_commit(cycle, rs, ws)
            cm.apply_commit(cycle, rs, ws)
        return part, grouped, cm

    def test_singleton_groups_equal_full_matrix(self):
        rng = random.Random(11)
        commits = []
        cycle = 0
        for _ in range(15):
            cycle += rng.randint(0, 2)
            objs = rng.sample(range(4), rng.randint(1, 4))
            split = rng.randint(0, len(objs) - 1)
            commits.append((cycle, objs[:split], objs[split:]))
        part, grouped, cm = self._replay(4, 4, commits)
        exact = cm.reduce_to_groups(part.groups)
        assert np.array_equal(grouped.array, exact)

    @pytest.mark.parametrize("num_groups", [1, 2])
    def test_coarse_groups_conservative(self, num_groups):
        """MC entries over-approximate the exact grouped reduction —
        safety: every real conflict is still flagged."""
        rng = random.Random(7)
        commits = []
        cycle = 0
        for _ in range(25):
            cycle += rng.randint(0, 2)
            objs = rng.sample(range(4), rng.randint(1, 4))
            split = rng.randint(0, len(objs) - 1)
            commits.append((cycle, objs[:split], objs[split:]))
        part, grouped, cm = self._replay(4, num_groups, commits)
        exact = cm.reduce_to_groups(part.groups)
        assert np.all(grouped.array >= exact)

    def test_one_group_write_entries_match_vector(self):
        """With one group, written objects' own entries equal the vector."""
        rng = random.Random(5)
        part = uniform_partition(4, 1)
        grouped = GroupedControlState(part)
        vec = LastWriteVector(4)
        cycle = 0
        for _ in range(20):
            cycle += rng.randint(0, 2)
            objs = rng.sample(range(4), rng.randint(1, 4))
            split = rng.randint(0, len(objs) - 1)
            rs, ws = objs[:split], objs[split:]
            grouped.apply_commit(cycle, rs, ws)
            vec.apply_commit(cycle, rs, ws)
        for obj in range(4):
            assert grouped.entry(obj, 0) >= vec.entry(obj)

    def test_read_only_noop(self):
        grouped = GroupedControlState(uniform_partition(3, 2))
        before = grouped.snapshot()
        grouped.apply_commit(9, [0, 1, 2], [])
        assert np.array_equal(grouped.array, before)

    def test_cycles_must_be_nondecreasing(self):
        """The rule writes ``commit_cycle`` as the row maximum, which is
        only the maximum while cycles never go back (as for the full
        matrix); a read-only commit installs nothing and is not held to it."""
        grouped = GroupedControlState(uniform_partition(3, 2))
        grouped.apply_commit(5, [], [0])
        before = grouped.snapshot()
        with pytest.raises(ValueError):
            grouped.apply_commit(3, [0], [1])
        grouped.apply_commit(3, [0], [])
        assert np.array_equal(grouped.array, before)
