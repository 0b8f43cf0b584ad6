"""Additional validator edge cases (repro.core.validators)."""

import numpy as np
import pytest

from repro.core.control_matrix import ControlMatrix
from repro.core.cycles import ModuloCycles
from repro.core.group_matrix import (
    GroupedControlState,
    LastWriteVector,
    uniform_partition,
)
from repro.core.validators import (
    ControlSnapshot,
    DatacycleValidator,
    FMatrixValidator,
    GroupMatrixValidator,
    RMatrixValidator,
    ReadRecord,
    make_validator,
)

ALL_LIST_VALIDATORS = [
    ("f-matrix", FMatrixValidator),
    ("r-matrix", RMatrixValidator),
    ("datacycle", DatacycleValidator),
]


def snap_for(protocol, cm, vec, grouped, part, cycle):
    if protocol in ("f-matrix", "f-matrix-no"):
        return ControlSnapshot(cycle, matrix=cm.snapshot())
    if protocol == "group-matrix":
        return ControlSnapshot(cycle, grouped=grouped.snapshot(), partition=part)
    return ControlSnapshot(cycle, vector=vec.snapshot())


@pytest.fixture
def states():
    n = 4
    part = uniform_partition(n, 2)
    return ControlMatrix(n), LastWriteVector(n), GroupedControlState(part), part


class TestCommonBehaviour:
    @pytest.mark.parametrize("protocol,_cls", ALL_LIST_VALIDATORS)
    def test_first_read_always_passes(self, protocol, _cls, states):
        cm, vec, grouped, part = states
        for state in (cm, vec, grouped):
            state.apply_commit(9, [0], [1, 2])
        v = make_validator(protocol, partition=part)
        v.begin()
        assert v.validate_read(2, snap_for(protocol, cm, vec, grouped, part, 10))

    @pytest.mark.parametrize("protocol,_cls", ALL_LIST_VALIDATORS)
    def test_rejected_read_not_recorded(self, protocol, _cls, states):
        cm, vec, grouped, part = states
        v = make_validator(protocol, partition=part)
        v.begin()
        assert v.validate_read(0, snap_for(protocol, cm, vec, grouped, part, 1))
        for state in (cm, vec, grouped):
            state.apply_commit(1, [], [0])
            state.apply_commit(1, [0], [1])
        ok = v.validate_read(1, snap_for(protocol, cm, vec, grouped, part, 2))
        if not ok:
            assert len(v.reads) == 1  # the failed read is not in R_t

    @pytest.mark.parametrize("protocol,_cls", ALL_LIST_VALIDATORS)
    def test_begin_isolates_transactions(self, protocol, _cls, states):
        cm, vec, grouped, part = states
        v = make_validator(protocol, partition=part)
        v.begin()
        v.validate_read(0, snap_for(protocol, cm, vec, grouped, part, 1))
        for state in (cm, vec, grouped):
            state.apply_commit(1, [], [0])
            state.apply_commit(1, [0], [1])
        v.begin()  # fresh transaction: the old read must not haunt it
        assert v.validate_read(1, snap_for(protocol, cm, vec, grouped, part, 2))

    def test_group_validator_records_group_slice(self, states):
        cm, vec, grouped, part = states
        v = GroupMatrixValidator(part)
        v.begin()
        snap = ControlSnapshot(3, grouped=grouped.snapshot(), partition=part)
        assert v.validate_read(1, snap)
        (record,) = v.records
        assert isinstance(record, ReadRecord)
        assert record.slice_.shape == (4,)


class TestReadRecord:
    def test_tuple_unpacking(self):
        record = ReadRecord(3, 7, np.zeros(2))
        obj, cycle = record
        assert (obj, cycle) == (3, 7)


class TestSameCycleSemantics:
    def test_commit_in_read_cycle_conflicts(self):
        """A dependency committed *during* cycle c defeats a later read
        against a (obj, c) entry: C(i,j) = c is not < c."""
        cm = ControlMatrix(2)
        v = FMatrixValidator()
        v.begin()
        assert v.validate_read(0, ControlSnapshot(5, matrix=cm.snapshot()))
        cm.apply_commit(5, [], [0])
        cm.apply_commit(5, [0], [1])
        assert not v.validate_read(1, ControlSnapshot(6, matrix=cm.snapshot()))

    def test_commit_before_read_cycle_fine(self):
        cm = ControlMatrix(2)
        cm.apply_commit(4, [], [0])
        cm.apply_commit(4, [0], [1])
        v = FMatrixValidator()
        v.begin()
        assert v.validate_read(0, ControlSnapshot(5, matrix=cm.snapshot()))
        assert v.validate_read(1, ControlSnapshot(5, matrix=cm.snapshot()))


class TestRMatrixFirstReadSemantics:
    def test_first_read_cycle_not_last(self):
        """The disjunct anchors at the FIRST read's cycle, not the most
        recent one."""
        vec = LastWriteVector(3)
        v = RMatrixValidator()
        v.begin()
        assert v.validate_read(0, ControlSnapshot(1, vector=vec.snapshot()))
        vec.apply_commit(2, [], [0])  # poisons the strict condition
        assert v.validate_read(1, ControlSnapshot(3, vector=vec.snapshot()))
        # object 2 written at cycle 2 >= c1=1: the disjunct fails too
        vec.apply_commit(3, [], [2])
        assert not v.validate_read(2, ControlSnapshot(4, vector=vec.snapshot()))

    def test_disjunct_saves_object_unwritten_since_c1(self):
        vec = LastWriteVector(3)
        v = RMatrixValidator()
        v.begin()
        assert v.validate_read(0, ControlSnapshot(5, vector=vec.snapshot()))
        vec.apply_commit(5, [], [0])
        # object 2 last written before cycle 5 (never): disjunct holds
        assert v.validate_read(2, ControlSnapshot(7, vector=vec.snapshot()))


class TestArithmeticPlumbing:
    @pytest.mark.parametrize("protocol,cls", ALL_LIST_VALIDATORS)
    def test_modulo_arithmetic_accepted_everywhere(self, protocol, cls, states):
        cm, vec, grouped, part = states
        # accepted for compatibility and ignored: snapshots carry absolute
        # cycles under either arithmetic
        v = make_validator(protocol, arithmetic=ModuloCycles(4), partition=part)
        assert type(v) is cls
        for state in (cm, vec, grouped):
            state.apply_commit(3, [], [0])
        snap = ControlSnapshot(
            20,  # past the 4-bit window
            matrix=cm.snapshot(),
            vector=vec.snapshot(),
            grouped=grouped.snapshot(),
            partition=part,
        )
        v.begin()
        assert v.validate_read(0, snap)

    def test_default_arithmetic_unbounded(self):
        # validators compare absolute cycles as plain ints, however far
        # past an 8-bit window they lie
        before, after = ControlMatrix(2), ControlMatrix(2)
        after.apply_commit(300, [], [0])
        after.apply_commit(300, [0], [1])
        v = FMatrixValidator()
        v.begin()
        assert v.validate_read(0, ControlSnapshot(300, matrix=before.snapshot()))
        assert not v.validate_read(1, ControlSnapshot(301, matrix=after.snapshot()))
