"""Tests for the protocol read validators (repro.core.validators)."""

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
    PROTOCOL_NAMES,
    RMatrixValidator,
    make_validator,
)


def matrix_snapshot(cm: ControlMatrix, cycle: int) -> ControlSnapshot:
    return ControlSnapshot(cycle, matrix=cm.snapshot())

def vector_snapshot(vec: LastWriteVector, cycle: int) -> ControlSnapshot:
    return ControlSnapshot(cycle, vector=vec.snapshot())


class TestFMatrixValidator:
    def test_first_read_always_allowed(self):
        cm = ControlMatrix(2)
        cm.apply_commit(9, [], [0, 1])
        v = FMatrixValidator()
        v.begin()
        assert v.validate_read(0, matrix_snapshot(cm, 10))

    def test_dependent_overwrite_rejected(self):
        # read 0 at cycle 1; then txn writing 0 affects 1's value at cycle
        # 1; reading 1 at cycle 2 must fail: C(0,1)=1 is not < 1
        cm = ControlMatrix(2)
        v = FMatrixValidator()
        v.begin()
        assert v.validate_read(0, matrix_snapshot(cm, 1))
        cm.apply_commit(1, [], [0])       # overwrites 0 during cycle 1
        cm.apply_commit(1, [0], [1])      # 1 now depends on new 0
        assert not v.validate_read(1, matrix_snapshot(cm, 2))

    def test_independent_update_tolerated(self):
        # object 0 overwritten, but object 1's value does not depend on it
        cm = ControlMatrix(2)
        v = FMatrixValidator()
        v.begin()
        assert v.validate_read(0, matrix_snapshot(cm, 1))
        cm.apply_commit(1, [], [0])       # blind overwrite of 0
        assert v.validate_read(1, matrix_snapshot(cm, 2))

    def test_records_accumulate_with_cycles(self):
        cm = ControlMatrix(3)
        v = FMatrixValidator()
        v.begin()
        v.validate_read(2, matrix_snapshot(cm, 4))
        v.validate_read(0, matrix_snapshot(cm, 6))
        assert v.reads == [(2, 4), (0, 6)]
        v.begin()
        assert v.reads == []


class TestDatacycleVsRMatrix:
    """The exact acceptance gap between the two vector protocols."""

    def _scenario(self, validator):
        # read 0 at cycle 1; object 0 overwritten during cycle 1; then
        # read 1 (never written) at cycle 2
        vec = LastWriteVector(2)
        validator.begin()
        assert validator.validate_read(0, vector_snapshot(vec, 1))
        vec.apply_commit(1, [], [0])
        return validator.validate_read(1, vector_snapshot(vec, 2))

    def test_datacycle_aborts_on_any_overwrite(self):
        assert self._scenario(DatacycleValidator()) is False

    def test_rmatrix_first_read_state_saves_it(self):
        # object 1 unchanged since the transaction's first read (cycle 1):
        # the disjunct MC(j) < c1 holds
        assert self._scenario(RMatrixValidator()) is True

    def test_rmatrix_rejects_when_both_conditions_fail(self):
        vec = LastWriteVector(2)
        v = RMatrixValidator()
        v.begin()
        assert v.validate_read(0, vector_snapshot(vec, 1))
        vec.apply_commit(1, [], [0])
        vec.apply_commit(2, [], [1])  # object 1 written after first read
        assert not v.validate_read(1, vector_snapshot(vec, 3))

    def test_rmatrix_stability_no_further_reads(self):
        """R-Matrix's 'stability': with no further reads, no abort —
        the last validated state stands (Sec. 3.2.2)."""
        vec = LastWriteVector(2)
        v = RMatrixValidator()
        v.begin()
        assert v.validate_read(0, vector_snapshot(vec, 1))
        vec.apply_commit(1, [], [0])
        # transaction performs no further reads: nothing can abort it
        assert v.reads == [(0, 1)]


class TestAcceptanceHierarchy:
    """Pointwise: Datacycle-pass ⇒ R-Matrix-pass ⇒ F-Matrix-pass."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_schedules(self, seed):
        import random

        rng = random.Random(seed)
        n = 4
        cm = ControlMatrix(n)
        vec = LastWriteVector(n)
        fm, rm, dc = FMatrixValidator(), RMatrixValidator(), DatacycleValidator()
        for v in (fm, rm, dc):
            v.begin()
        cycle = 1
        # interleave commits and reads; replay the same read sequence on
        # every validator and check the acceptance implications per read
        alive = True
        for _step in range(30):
            if rng.random() < 0.5:
                objs = rng.sample(range(n), rng.randint(1, n))
                split = rng.randint(0, len(objs) - 1)
                cm.apply_commit(cycle, objs[:split], objs[split:])
                vec.apply_commit(cycle, objs[:split], objs[split:])
            elif alive:
                obj = rng.randrange(n)
                m_snap = matrix_snapshot(cm, cycle)
                v_snap = vector_snapshot(vec, cycle)
                ok_f = fm.validate_read(obj, m_snap)
                ok_r = rm.validate_read(obj, v_snap)
                ok_d = dc.validate_read(obj, v_snap)
                assert (not ok_d) or ok_r, "Datacycle-pass must imply R-Matrix-pass"
                assert (not ok_r) or ok_f, "R-Matrix-pass must imply F-Matrix-pass"
                # keep the three validators' R_t aligned: stop this txn
                # once any of them diverges
                if not (ok_f and ok_r and ok_d):
                    alive = False
            else:
                for v in (fm, rm, dc):
                    v.begin()
                alive = True
            cycle += rng.randint(0, 1)


class TestGroupMatrixValidator:
    def test_singleton_groups_behave_like_fmatrix(self):
        n = 3
        part = uniform_partition(n, n)
        grouped = GroupedControlState(part)
        cm = ControlMatrix(n)
        gv = GroupMatrixValidator(part)
        fv = FMatrixValidator()
        gv.begin(), fv.begin()

        def snap(cycle):
            return (
                ControlSnapshot(cycle, grouped=grouped.snapshot(), partition=part),
                matrix_snapshot(cm, cycle),
            )

        gs, fs = snap(1)
        assert gv.validate_read(0, gs) == fv.validate_read(0, fs)
        for state in (grouped, cm):
            state.apply_commit(1, [], [0])
            state.apply_commit(1, [0], [1])
        gs, fs = snap(2)
        assert gv.validate_read(1, gs) == fv.validate_read(1, fs) == False

    def test_one_group_is_conservative_datacycle(self):
        n = 3
        part = uniform_partition(n, 1)
        grouped = GroupedControlState(part)
        gv = GroupMatrixValidator(part)
        gv.begin()
        snap1 = ControlSnapshot(1, grouped=grouped.snapshot(), partition=part)
        assert gv.validate_read(0, snap1)
        grouped.apply_commit(1, [], [0])  # any overwrite poisons the group
        snap2 = ControlSnapshot(2, grouped=grouped.snapshot(), partition=part)
        assert not gv.validate_read(1, snap2)

    def test_requires_partition(self):
        with pytest.raises(ValueError):
            make_validator("group-matrix")


class TestCachedBackwardCondition:
    """Out-of-order (cached) reads need the backward check (Sec. 3.3)."""

    def test_fresh_then_stale_dependency_rejected(self):
        # u1 writes X@1; u2 reads X writes Z@1.  Fresh Z (cycle 2) then
        # cached X (cycle-1 column): backward condition must reject.
        X, Z = 0, 2
        cm = ControlMatrix(3)
        snap1 = matrix_snapshot(cm, 1)      # cached before the commits
        cm.apply_commit(1, [], [X])
        cm.apply_commit(1, [X], [Z])
        snap2 = matrix_snapshot(cm, 2)
        v = FMatrixValidator()
        v.begin()
        assert v.validate_read(Z, snap2)
        assert not v.validate_read(X, snap1)

    def test_fresh_then_independent_cached_ok(self):
        # cached Y is independent of the fresh Z: accepted
        X, Y, Z = 0, 1, 2
        cm = ControlMatrix(3)
        snap1 = matrix_snapshot(cm, 1)
        cm.apply_commit(1, [], [X])
        cm.apply_commit(1, [X], [Z])
        snap2 = matrix_snapshot(cm, 2)
        v = FMatrixValidator()
        v.begin()
        assert v.validate_read(Z, snap2)
        assert v.validate_read(Y, snap1)

    def test_vector_protocols_backward_check(self):
        X, Z = 0, 2
        vec = LastWriteVector(3)
        snap1 = vector_snapshot(vec, 1)
        vec.apply_commit(1, [], [X])
        vec.apply_commit(1, [X], [Z])
        snap2 = vector_snapshot(vec, 3)
        for validator in (DatacycleValidator(), RMatrixValidator()):
            validator.begin()
            assert validator.validate_read(Z, snap2)
            assert not validator.validate_read(X, snap1)


class TestModuloTimestamps:
    """Validators compare absolute cycles; the modulo wire decodes to the
    same verdicts while no transaction spans the window."""

    def test_wraparound_validation_consistent(self):
        arith = ModuloCycles(4)  # window 16
        cm = ControlMatrix(2)
        # drive the cycle counter past the window
        for cycle in range(1, 40, 3):
            cm.apply_commit(cycle, [], [0])
        snap = ControlSnapshot(40, matrix=cm.snapshot())
        wire = arith.encode_array(cm.snapshot())
        v = FMatrixValidator()
        v.begin()
        assert v.validate_read(1, snap)
        # object 0 last written at cycle 37 < 40: the read is accepted, as
        # C(1, 0) decoded off the wire at cycle 40 says
        assert v.validate_read(0, snap)
        assert arith.less_encoded_absolute(int(wire[1, 0]), 40, reference=40)

    def test_wraparound_rejection_consistent(self):
        arith = ModuloCycles(4)
        cm = ControlMatrix(2)
        cm.apply_commit(30, [], [0])
        cm.apply_commit(30, [0], [1])
        v = FMatrixValidator()
        v.begin()
        # read 0 at cycle 30 from the pre-commit snapshot
        assert v.validate_read(0, ControlSnapshot(30, matrix=ControlMatrix(2).snapshot()))
        assert not v.validate_read(1, ControlSnapshot(31, matrix=cm.snapshot()))
        wire = arith.encode_array(cm.snapshot())
        assert not arith.less_encoded_absolute(int(wire[0, 1]), 30, reference=31)


class TestMakeValidator:
    def test_all_protocol_names(self):
        part = uniform_partition(4, 2)
        for name in PROTOCOL_NAMES:
            v = make_validator(name, partition=part)
            assert v is not None

    def test_fmatrix_no_shares_validator(self):
        assert isinstance(make_validator("f-matrix-no"), FMatrixValidator)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            make_validator("nope")
