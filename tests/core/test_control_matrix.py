"""Tests for the F-Matrix control matrix (repro.core.control_matrix)."""

import random

import numpy as np
import pytest

from repro.core.control_matrix import ControlMatrix, matrix_from_history
from repro.core.group_matrix import (
    GroupedControlState,
    LastWriteVector,
    uniform_partition,
)
from repro.core.model import History, commit, read, write


def make_history(commits):
    """Build a serial history from (tid, cycle, read_set, write_set)."""
    ops = []
    for tid, cycle, rs, ws in commits:
        for obj in rs:
            ops.append(read(tid, str(obj)))
        for obj in ws:
            ops.append(write(tid, str(obj)))
        ops.append(commit(tid, cycle=cycle))
    return History(ops)


class TestExample4:
    """Example 4 of Sec. 3.2.1, objects ob1/ob2 mapped to ids 0/1."""

    def setup_method(self):
        self.cm = ControlMatrix(2)
        self.cm.apply_commit(1, [], [0, 1])   # t1 writes ob1, ob2 @ cycle 1
        self.cm.apply_commit(2, [0], [0])     # t2 reads ob1 writes ob1 @ 2
        self.cm.apply_commit(3, [1], [1])     # t3 reads ob2 writes ob2 @ 3

    def test_paper_values(self):
        assert self.cm.entry(0, 0) == 2  # C(1,1) = 2
        assert self.cm.entry(1, 1) == 3  # C(2,2) = 3
        assert self.cm.entry(0, 1) == 1  # C(1,2) = 1
        assert self.cm.entry(1, 0) == 1  # C(2,1) = 1

    def test_matches_definitional(self):
        h = make_history(
            [("t1", 1, [], [0, 1]), ("t2", 2, [0], [0]), ("t3", 3, [1], [1])]
        )
        assert np.array_equal(self.cm.array, matrix_from_history(h, 2))


class TestIncrementalRules:
    def test_write_write_entries_get_commit_cycle(self):
        cm = ControlMatrix(3)
        cm.apply_commit(5, [], [0, 2])
        assert cm.entry(0, 0) == 5
        assert cm.entry(2, 0) == 5
        assert cm.entry(0, 2) == 5
        assert cm.entry(2, 2) == 5

    def test_blind_write_resets_column(self):
        cm = ControlMatrix(2)
        cm.apply_commit(1, [], [0, 1])  # C(0,1) = 1 via joint write
        cm.apply_commit(2, [], [1])     # blind write to 1: no deps
        assert cm.entry(0, 1) == 0      # old dependency cleared
        assert cm.entry(1, 1) == 2

    def test_read_dependency_propagates(self):
        cm = ControlMatrix(3)
        cm.apply_commit(1, [], [0])
        cm.apply_commit(2, [0], [1])    # 1's value depends on 0's writer
        assert cm.entry(0, 1) == 1
        cm.apply_commit(3, [1], [2])    # transitive: 2 depends on 0 via 1
        assert cm.entry(0, 2) == 1
        assert cm.entry(1, 2) == 2

    def test_untouched_columns_stable(self):
        cm = ControlMatrix(3)
        cm.apply_commit(1, [], [0])
        before = cm.column(2).copy()
        cm.apply_commit(2, [0], [1])
        assert np.array_equal(cm.column(2), before)

    def test_read_only_commit_is_noop(self):
        cm = ControlMatrix(2)
        cm.apply_commit(1, [], [0])
        snapshot = cm.snapshot()
        cm.apply_commit(5, [0, 1], [])
        assert np.array_equal(cm.array, snapshot)

    def test_cycles_must_be_nondecreasing(self):
        cm = ControlMatrix(2)
        cm.apply_commit(5, [], [0])
        with pytest.raises(ValueError):
            cm.apply_commit(4, [], [1])

    def test_object_ids_validated(self):
        cm = ControlMatrix(2)
        with pytest.raises(IndexError):
            cm.apply_commit(1, [], [2])
        with pytest.raises(IndexError):
            cm.apply_commit(1, [5], [0])

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            ControlMatrix(0)


class TestTheorem2RandomizedOracle:
    """Incremental maintenance == definitional recomputation (Theorem 2)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_serial_histories(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        cm = ControlMatrix(n)
        commits = []
        cycle = 0
        for k in range(rng.randint(1, 15)):
            cycle += rng.randint(0, 2)
            objs = rng.sample(range(n), rng.randint(1, n))
            split = rng.randint(0, len(objs) - 1)
            rs, ws = objs[:split], objs[split:]
            commits.append((f"t{k + 1}", cycle, rs, ws))
            cm.apply_commit(cycle, rs, ws)
        oracle = matrix_from_history(make_history(commits), n)
        assert np.array_equal(cm.array, oracle), (commits, cm.array, oracle)


class TestDirtyColumnTracking:
    """One dependency column stored into every written column (the class
    name is kept for the test id)."""

    def test_vectorised_apply_matches_columns(self):
        cm = ControlMatrix(4)
        cm.apply_commit(1, [], [0])
        cm.apply_commit(2, [0], [1, 3])
        # both written columns carry the same dependency column + diagonal
        assert np.array_equal(cm.column(1), cm.column(3))
        assert cm.entry(1, 3) == 2 and cm.entry(3, 1) == 2


class TestReductions:
    def test_vector_is_row_max_and_last_write_cycle(self):
        cm = ControlMatrix(3)
        cm.apply_commit(1, [], [0])
        cm.apply_commit(2, [0], [1])
        vec = cm.reduce_to_vector()
        assert list(vec) == [1, 2, 0]

    def test_group_reduction(self):
        cm = ControlMatrix(4)
        cm.apply_commit(1, [], [0])
        cm.apply_commit(2, [0], [1])
        cm.apply_commit(3, [], [3])
        grouped = cm.reduce_to_groups([[0, 1], [2, 3]])
        assert grouped.shape == (4, 2)
        # MC(0, {0,1}) = max(C(0,0), C(0,1)) = max(1, 1)
        assert grouped[0, 0] == 1
        assert grouped[3, 1] == 3

    def test_group_partition_validated(self):
        cm = ControlMatrix(3)
        with pytest.raises(ValueError):
            cm.reduce_to_groups([[0, 1]])  # misses 2
        with pytest.raises(ValueError):
            cm.reduce_to_groups([[0, 1], []])


class TestBadCommitsAreRefusedWhole:
    """One guard for the three control states: a commit naming an object
    outside ``0..n-1`` or going back in time raises the documented
    exception *before* anything changes — the guard's own memory of the
    last cycle included, so the next valid commit is applied as if the bad
    one had never been offered."""

    STATES = {
        "matrix": lambda: ControlMatrix(4),
        "grouped": lambda: GroupedControlState(uniform_partition(4, 2)),
        "vector": lambda: LastWriteVector(4),
    }
    #: (cycle, read set, write set) offered after a valid commit at cycle 5
    BAD = {
        "negative-write": ((9, [0], [-1]), IndexError, r"object id -1 out of range 0\.\.3"),
        "negative-read": ((9, [-2], [1]), IndexError, r"object id -2 out of range 0\.\.3"),
        "write-past-end": ((9, [0], [2, 7]), IndexError, r"object id 7 out of range 0\.\.3"),
        "read-past-end": ((9, [4], [1]), IndexError, r"object id 4 out of range 0\.\.3"),
        "cycle-goes-back": ((3, [0], [1]), ValueError, "non-decreasing"),
    }

    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("state", sorted(STATES))
    def test_refused_before_any_state_changes(self, state, bad):
        offered, twin = self.STATES[state](), self.STATES[state]()
        for s in (offered, twin):
            s.apply_commit(5, [], [0, 2])
        commit_args, exception, message = self.BAD[bad]
        with pytest.raises(exception, match=message):
            offered.apply_commit(*commit_args)
        assert np.array_equal(offered.array, twin.array)
        # cycle 5 again: a guard the refused commit had advanced would raise
        for s in (offered, twin):
            s.apply_commit(5, [0], [1, 3])
        assert np.array_equal(offered.array, twin.array)
        assert offered.array.max() == 5
