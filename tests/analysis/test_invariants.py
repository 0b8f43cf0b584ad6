"""Regression tests: each invariant fires on a hand-built violating trace.

Every test corrupts exactly one aspect of an otherwise-plausible audit
context and asserts that exactly the targeted invariant produces a
structured diagnostic — with the right invariant id, cycle, objects and a
human-readable witness.
"""

import numpy as np
import pytest

from repro.analysis import AuditContext, audit_context, audit_history, invariant_ids
from repro.broadcast.program import BroadcastCycle, ObjectVersion
from repro.core.model import parse_history
from repro.core.validators import ControlSnapshot
from repro.server.database import CommitRecord
from repro.sim.trace import ClientCommitRecord

#: a genuinely inconsistent reader: t4 reads x from t2 (forcing t2 < t4 in
#: every update serialization), yet read-only t1 observes x before t2's
#: write and y after t4's — no position for t1 exists
INCONSISTENT_READER = "r1[x] w2[x] c2 r4[x] w4[y] c4 r1[y] c1"

N = 3  # objects in the synthetic traces


def matrix_cycle(cycle: int, matrix: np.ndarray, writers=None) -> BroadcastCycle:
    """A broadcast image whose slot commit-cycles match the matrix diagonal."""
    versions = tuple(
        ObjectVersion(
            obj=i,
            value=f"v{i}",
            writer=(writers or {}).get(i, "t0" if matrix[i, i] == 0 else f"t{i}"),
            commit_cycle=int(matrix[i, i]),
        )
        for i in range(matrix.shape[0])
    )
    return BroadcastCycle(cycle, versions, ControlSnapshot(cycle, matrix=matrix))


def healthy_matrices():
    """Two consecutive, internally consistent F-Matrix snapshots."""
    m1 = np.zeros((N, N), dtype=np.int64)
    m1[0, 0] = 1  # t-a wrote object 0 at cycle 1
    m2 = m1.copy()
    m2[1, 1] = 2  # t-b wrote object 1 at cycle 2
    m2[0, 1] = 1  # ... having read object 0's current version
    return m1, m2


class TestControlMonotonicity:
    def test_clean_pair_passes(self):
        m1, m2 = healthy_matrices()
        ctx = AuditContext(
            num_objects=N,
            broadcasts=(matrix_cycle(2, m1), matrix_cycle(3, m2)),
        )
        report = audit_context(ctx, invariants=["control-monotonicity"])
        assert report.ok

    def test_corrupted_cell_produces_witnessed_diagnostic(self):
        """Corrupting one control-matrix cell must yield a monotonicity
        diagnostic naming the object and carrying a witness."""
        m1, m2 = healthy_matrices()
        m3 = m2.copy()
        m3[1, 1] = 1  # corruption: object 1's last write regresses 2 -> 1
        ctx = AuditContext(
            num_objects=N,
            broadcasts=(
                matrix_cycle(2, m1),
                matrix_cycle(3, m2),
                matrix_cycle(4, m3),
            ),
        )
        report = audit_context(ctx, invariants=["control-monotonicity"])
        assert not report.ok
        diag = report.violations_of("control-monotonicity")[0]
        assert diag.cycle == 4
        assert 1 in diag.objects
        assert diag.witness is not None
        assert "object 1" in diag.witness
        assert "cycle 2" in diag.witness and "cycle 1" in diag.witness

    def test_future_timestamp_flagged(self):
        m1, _ = healthy_matrices()
        m1[2, 2] = 7  # snapshot frozen at cycle 2 cannot know cycle 7
        ctx = AuditContext(num_objects=N, broadcasts=(matrix_cycle(2, m1),))
        report = audit_context(ctx, invariants=["control-monotonicity"])
        assert not report.ok
        diag = report.violations_of("control-monotonicity")[0]
        assert diag.witness is not None and "7" in diag.witness

    def test_column_must_be_dominated_by_diagonal(self):
        m1, _ = healthy_matrices()
        # C(2,0)=1 > C(0,0) is fine; make C(2,0) exceed the column owner
        m1[2, 0] = 1
        m1[2, 2] = 1
        m1[0, 0] = 0  # now column 0 has an entry above its diagonal
        ctx = AuditContext(num_objects=N, broadcasts=(matrix_cycle(2, m1),))
        report = audit_context(ctx, invariants=["control-monotonicity"])
        assert any(
            "diagonal" in d.message
            for d in report.violations_of("control-monotonicity")
        )


class TestControlAgreement:
    def test_slot_commit_cycle_must_match_control_info(self):
        m1, _ = healthy_matrices()
        broadcast = matrix_cycle(2, m1)
        # rewrite slot 0 to claim a commit cycle the matrix does not show
        tampered = broadcast.versions[:0] + (
            ObjectVersion(0, "v0", "t-a", commit_cycle=0),
        ) + broadcast.versions[1:]
        ctx = AuditContext(
            num_objects=N,
            broadcasts=(BroadcastCycle(2, tampered, broadcast.snapshot),),
        )
        report = audit_context(ctx, invariants=["control-agreement"])
        assert not report.ok
        diag = report.violations_of("control-agreement")[0]
        assert diag.cycle == 2 and 0 in diag.objects
        assert diag.witness is not None and "object 0" in diag.witness

    def test_vector_protocols_checked_too(self):
        vector = np.array([1, 0, 0], dtype=np.int64)
        versions = (
            ObjectVersion(0, "v", "t-a", commit_cycle=1),
            ObjectVersion(1, "v", "t0", commit_cycle=0),
            ObjectVersion(2, "v", "t0", commit_cycle=4),  # disagrees
        )
        broadcast = BroadcastCycle(5, versions, ControlSnapshot(5, vector=vector))
        ctx = AuditContext(num_objects=N, broadcasts=(broadcast,))
        report = audit_context(ctx, invariants=["control-agreement"])
        assert not report.ok
        assert 2 in report.violations_of("control-agreement")[0].objects


class TestValidationSoundness:
    def test_inconsistent_reader_rejected_with_witness(self):
        history = parse_history(INCONSISTENT_READER)
        report = audit_history(history)
        assert not report.ok
        diag = report.violations_of("validation-soundness")[0]
        assert "t1" in diag.transactions
        assert diag.witness is not None
        # this anomaly is genuine, not APPROX conservatism
        assert "genuinely inconsistent" in diag.message

    def test_example1_is_update_consistent(self):
        # the paper's Example 1 is not globally serializable, yet each
        # read-only transaction fits its own serial order: audit passes
        example_1 = "r1[IBM] w2[IBM] c2 r3[IBM] r3[Sun] w4[Sun] c4 r1[Sun] c1 c3"
        assert audit_history(parse_history(example_1)).ok

    def test_serializable_history_accepted(self):
        history = parse_history("w1[x] c1 r2[x] w2[y] c2 r3[x] r3[y] c3")
        assert audit_history(history).ok


class TestReadCoherence:
    def _client(self, versions, reads, tid="cl0.c1"):
        return ClientCommitRecord(tid=tid, versions=tuple(versions), reads=tuple(reads))

    def test_version_from_the_future_flagged(self):
        client = self._client(
            [ObjectVersion(0, "v", "t-a", commit_cycle=5)], [(0, 3)]
        )
        ctx = AuditContext(num_objects=N, client_commits=(client,))
        report = audit_context(ctx, invariants=["read-coherence"])
        assert not report.ok
        diag = report.violations_of("read-coherence")[0]
        assert diag.witness is not None and "cycle 3" in diag.witness

    def test_unknown_writer_flagged(self):
        log = (CommitRecord("t-a", 1, 1, (0,), ((0, "v"),)),)
        client = self._client(
            [ObjectVersion(0, "v", "t-ghost", commit_cycle=1)], [(0, 2)]
        )
        ctx = AuditContext(num_objects=N, commit_log=log, client_commits=(client,))
        report = audit_context(ctx, invariants=["read-coherence"])
        assert not report.ok
        assert "t-ghost" in report.violations_of("read-coherence")[0].transactions

    def test_phantom_version_contradicting_broadcast_flagged(self):
        m1, _ = healthy_matrices()
        broadcast = matrix_cycle(2, m1, writers={0: "t-a"})
        client = self._client(
            [ObjectVersion(0, "v", "t-other", commit_cycle=1)], [(0, 2)]
        )
        ctx = AuditContext(
            num_objects=N, broadcasts=(broadcast,), client_commits=(client,)
        )
        report = audit_context(ctx, invariants=["read-coherence"])
        assert not report.ok
        assert any(
            "never broadcast" in d.message
            for d in report.violations_of("read-coherence")
        )

    def test_backwards_read_cycles_require_a_cache(self):
        client = self._client(
            [
                ObjectVersion(0, "v", "t0", commit_cycle=0),
                ObjectVersion(1, "v", "t0", commit_cycle=0),
            ],
            [(0, 5), (1, 4)],
        )
        uncached = AuditContext(num_objects=N, client_commits=(client,))
        report = audit_context(uncached, invariants=["read-coherence"])
        assert not report.ok
        cached = AuditContext(
            num_objects=N, client_commits=(client,), cache_enabled=True
        )
        assert audit_context(cached, invariants=["read-coherence"]).ok


class TestDeltaCoherence:
    def test_gap_in_recorded_cycles_restarts_the_stream(self):
        m1, m2 = healthy_matrices()
        # cycle 2 recorded, cycle 4 recorded, cycle 3 is a crash outage's
        # dead air: the revived server's encoder restarts with an anchor
        # and the receiver re-synchronises, so the audit stays clean
        ctx = AuditContext(
            num_objects=N,
            broadcasts=(matrix_cycle(2, m1), matrix_cycle(4, m2)),
        )
        assert audit_context(ctx, invariants=["delta-coherence"]).ok

    def test_consecutive_cycles_roundtrip(self):
        m1, m2 = healthy_matrices()
        ctx = AuditContext(
            num_objects=N,
            broadcasts=(matrix_cycle(2, m1), matrix_cycle(3, m2)),
        )
        assert audit_context(ctx, invariants=["delta-coherence"]).ok


class TestUpdateSerializability:
    def test_cyclic_update_subhistory_witnessed(self):
        history = parse_history("r1[x] r2[y] w1[y] w2[x] c1 c2")
        ctx = AuditContext(history=history)
        report = audit_context(ctx, invariants=["update-serializability"])
        assert not report.ok
        diag = report.violations_of("update-serializability")[0]
        assert {"t1", "t2"} <= set(diag.transactions)
        assert diag.witness is not None


class TestCommitLogOrder:
    def test_duplicate_commit_flagged(self):
        log = (
            CommitRecord("t-a", 1, 1, (), ((0, "v"),)),
            CommitRecord("t-a", 2, 2, (), ((1, "v"),)),
        )
        report = audit_context(
            AuditContext(commit_log=log), invariants=["commit-log-order"]
        )
        assert not report.ok
        assert "t-a" in report.violations_of("commit-log-order")[0].transactions

    def test_backwards_cycles_flagged(self):
        log = (
            CommitRecord("t-a", 5, 1, (), ((0, "v"),)),
            CommitRecord("t-b", 3, 2, (), ((1, "v"),)),
        )
        report = audit_context(
            AuditContext(commit_log=log), invariants=["commit-log-order"]
        )
        assert not report.ok

    def test_non_increasing_seq_flagged(self):
        log = (
            CommitRecord("t-a", 1, 2, (), ((0, "v"),)),
            CommitRecord("t-b", 1, 2, (), ((1, "v"),)),
        )
        report = audit_context(
            AuditContext(commit_log=log), invariants=["commit-log-order"]
        )
        assert not report.ok


class TestRegistry:
    def test_all_expected_invariants_registered(self):
        assert set(invariant_ids()) == {
            "control-monotonicity",
            "control-agreement",
            "wrap-gap-safety",
            "validation-soundness",
            "read-coherence",
            "delta-coherence",
            "update-serializability",
            "commit-log-order",
        }

    def test_unknown_invariant_rejected(self):
        with pytest.raises(ValueError, match="unknown invariant"):
            audit_context(AuditContext(), invariants=["no-such-check"])

    def test_report_format_mentions_config_hash(self):
        report = audit_context(AuditContext(), config_hash="abc123def456")
        assert report.ok
        assert "abc123def456" in report.format()


class TestWrapGapSafety:
    def _commit(self, tid, read_cycles):
        return ClientCommitRecord(tid, (), tuple((0, c) for c in read_cycles))

    def test_commit_across_a_wrap_gap_flagged(self):
        ctx = AuditContext(
            max_cycles=3,  # 2-bit timestamps: window 4
            client_commits=(self._commit("c1", [10, 14]),),
        )
        report = audit_context(ctx, invariants=["wrap-gap-safety"])
        assert not report.ok
        diag = report.violations_of("wrap-gap-safety")[0]
        assert diag.transactions == ("c1",)
        assert "wrap gap" in diag.message
        assert "10..14" in (diag.witness or "")

    def test_span_up_to_window_minus_one_passes(self):
        ctx = AuditContext(
            max_cycles=3,  # window 4: spans <= 3 are legal
            client_commits=(self._commit("c1", [10, 13]),),
        )
        assert audit_context(ctx, invariants=["wrap-gap-safety"]).ok

    def test_unbounded_arithmetic_is_vacuous(self):
        ctx = AuditContext(
            client_commits=(self._commit("c1", [1, 5000]),),
        )
        assert audit_context(ctx, invariants=["wrap-gap-safety"]).ok

    def test_modulo_audited_run_checks_it(self):
        # end-to-end: committed spans in a healthy modulo run stay
        # inside the window, so the invariant reports clean
        from repro.sim.config import SimulationConfig
        from repro.sim.simulation import run_simulation

        result = run_simulation(
            SimulationConfig(
                num_objects=20,
                num_client_transactions=20,
                modulo_timestamps=True,
                timestamp_bits=8,
                audit=True,
                seed=5,
            )
        )
        report = result.audit_report
        assert report is not None and "wrap-gap-safety" in report.checked
        assert report.ok


class TestModuloControlChecks:
    """Modulo runs carry absolute cycles, so every control check runs on
    them exactly as on absolute runs."""

    def test_version_regression_flagged_under_modulo(self):
        # a recovered server resurrecting an older version: object 1's
        # last write regresses from cycle 2 to cycle 0
        m1, m2 = healthy_matrices()
        ctx = AuditContext(
            num_objects=N,
            max_cycles=3,
            broadcasts=(matrix_cycle(3, m2), matrix_cycle(4, m1)),
        )
        report = audit_context(ctx, invariants=["control-monotonicity"])
        assert not report.ok
        diag = report.violations_of("control-monotonicity")[0]
        assert "decreased" in diag.message

    def test_long_small_window_run_not_false_flagged(self):
        # an entry far older than the window is an absolute cycle like
        # any other: it neither aliases nor trips a check
        cycles = []
        m = np.zeros((N, N), dtype=np.int64)
        m[0, 0] = 1  # written once at cycle 1, then never again
        for cycle in range(2, 12):  # ten cycles: far beyond a window of 4
            cycles.append(matrix_cycle(cycle, m))
        ctx = AuditContext(num_objects=N, max_cycles=3, broadcasts=tuple(cycles))
        report = audit_context(
            ctx, invariants=["control-monotonicity", "control-agreement"]
        )
        assert report.ok, report.format()
