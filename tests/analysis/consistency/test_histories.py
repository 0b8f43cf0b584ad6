"""Tests for the ⟨T, so, wr⟩ adapter and cycle-number session recovery."""

from repro.analysis.consistency.histories import (
    TransactionalHistory,
    decode_commit_cycles,
    derive_sessions,
)
from repro.core.cycles import ModuloCycles
from repro.core.model import parse_history


class TestTransactionalHistory:
    def test_wr_pairs_positional(self):
        th = TransactionalHistory(parse_history("w1[x] c1 r2[x] w2[y] c2"))
        assert ("t1", "t2", "x") in th.wr_pairs()

    def test_initial_reads_attributed_to_t0(self):
        th = TransactionalHistory(parse_history("r1[x] c1 w2[x] c2"))
        assert ("t0", "t1", "x") in th.wr_pairs()

    def test_aborted_transactions_dropped(self):
        th = TransactionalHistory(parse_history("w1[x] a1 w2[x] c2"))
        assert th.tids == ("t2",)

    def test_writers_of_in_first_write_order(self):
        th = TransactionalHistory(parse_history("w1[x] c1 w2[x] w2[y] c2"))
        assert th.writers_of()["x"] == ("t1", "t2")

    def test_read_events_in_program_order(self):
        th = TransactionalHistory(
            parse_history("w1[x] w1[y] c1 r2[y] r2[x] c2")
        )
        assert th.read_events("t2") == (("y", "t1"), ("x", "t1"))

    def test_single_member_sessions_contribute_nothing(self):
        th = TransactionalHistory(parse_history("w1[x] c1"), [["t1"]])
        assert th.sessions == ()
        assert th.so_pairs() == frozenset()


class TestDecodeCommitCycles:
    def test_absolute_cycles_pass_through(self):
        cycles = decode_commit_cycles(parse_history("w1[x] c1@7 w2[x] c2@9"))
        assert cycles == {"t1": 7, "t2": 9}

    def test_residues_anchor_walk_across_wrap(self):
        # window 8: residues 6, 1 decode to absolute 6, 9 (wrapping once)
        history = parse_history("w1[x] c1@6 w2[x] c2@1")
        cycles = decode_commit_cycles(history, ModuloCycles(3))
        assert cycles == {"t1": 6, "t2": 9}

    def test_equal_residue_means_same_cycle(self):
        history = parse_history("w1[x] c1@5 w2[x] c2@5")
        cycles = decode_commit_cycles(history, ModuloCycles(3))
        assert cycles == {"t1": 5, "t2": 5}

    def test_unannotated_commits_omitted(self):
        cycles = decode_commit_cycles(parse_history("w1[x] c1 w2[x] c2@3"))
        assert cycles == {"t2": 3}


class TestDeriveSessions:
    def test_groups_by_client_prefix(self):
        history = parse_history(
            "wA[x] cA@1 rcl0.a[x] ccl0.a@2 wcl1.b[y] ccl1.b@3 rcl0.c[y] ccl0.c@4"
        )
        sessions = derive_sessions(history)
        assert sessions == (("cl0.a", "cl0.c"),)

    def test_cycle_numbers_order_members(self):
        history = parse_history(
            "wcl0.b[x] ccl0.b@9 wcl0.a[y] ccl0.a@4"
        )
        # history position says b first, commit cycles say a first
        assert derive_sessions(history) == (("cl0.a", "cl0.b"),)

    def test_modulo_residues_do_not_scramble_sessions(self):
        history = parse_history(
            "wcl0.a[x] ccl0.a@6 wcl0.b[y] ccl0.b@1"
        )
        # residue 1 decodes to absolute 9 under window 8: a stays first
        assert derive_sessions(history, ModuloCycles(3)) == (("cl0.a", "cl0.b"),)
