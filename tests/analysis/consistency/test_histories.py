"""Tests for the ⟨T, so, wr⟩ adapter."""

from repro.analysis.consistency.histories import TransactionalHistory
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

