"""Tests for the small-scope schedule model checker."""

import json

import pytest

from repro.analysis.consistency.explore import (
    EXPLORED_PROTOCOLS,
    SCOPES,
    explore_scope,
    main,
)
from repro.core.control_matrix import checked_batch
from repro.core.group_matrix import LastWriteVector


@pytest.fixture(scope="module")
def smallest():
    """One sweep of the smallest scope, shared by the tests that read it."""
    return explore_scope(SCOPES["smallest"])


class TestSmallestScope:
    def test_every_protocol_certifies(self, smallest):
        result = smallest
        assert result.ok, [
            v.describe() if hasattr(v, "describe") else v
            for s in result.stats
            for v in s.violations
        ]

    def test_covers_every_protocol_in_both_modes(self, smallest):
        result = smallest
        seen = {(s.protocol, s.mode) for s in result.stats}
        assert seen == {
            (protocol, mode)
            for protocol in EXPLORED_PROTOCOLS
            for mode in ("paced", "faulty")
        }

    def test_sweeps_are_nonempty(self, smallest):
        result = smallest
        for stats in result.stats:
            assert stats.executions > 0
            assert stats.committed_readers > 0

    def test_fmatrix_accepts_globally_non_serializable_schedules(self, smallest):
        # update consistency is weaker than serializability: F-Matrix
        # legitimately commits readers whose LIVE sets diverge, so some
        # unpaced executions have no single global serialization — the
        # certifier must still accept every one of them (ok above)
        result = smallest
        fmatrix_faulty = next(
            s for s in result.stats
            if s.protocol == "f-matrix" and s.mode == "faulty"
        )
        assert fmatrix_faulty.global_non_serializable > 0

    def test_datacycle_is_globally_serializable_everywhere(self, smallest):
        result = smallest
        for stats in result.stats:
            if stats.protocol == "datacycle":
                assert stats.global_non_serializable == 0


    def test_explored_counts_are_pinned(self, smallest):
        # (schedules, readers committed, readers aborted, globally
        # serializable) per sweep: what the checker explores may not drift
        counts = {
            (s.protocol, s.mode): (
                s.executions,
                s.committed_readers,
                s.aborted_readers,
                s.global_serializable,
            )
            for s in smallest.stats
        }
        assert counts == {
            ("f-matrix", "paced"): (225, 440, 10, 225),
            ("f-matrix", "faulty"): (324, 618, 30, 318),
            ("r-matrix", "paced"): (225, 430, 20, 225),
            ("r-matrix", "faulty"): (324, 576, 72, 324),
            ("datacycle", "paced"): (225, 390, 60, 225),
            ("datacycle", "faulty"): (324, 504, 144, 324),
        }


class TestRealServerState:
    def test_a_vector_that_stamps_nothing_is_caught(self, monkeypatch):
        # the vector protocols are checked against the server's own
        # LastWriteVector: one whose apply_batch checks ids but never
        # stamps a commit cycle lets readers mix snapshots, and the
        # sweep must see it under both protocols in both modes
        def apply_batch(self, commit_cycle, batch):
            return checked_batch(
                self._ids, self._last_cycle_applied, commit_cycle, batch
            )

        monkeypatch.setattr(LastWriteVector, "apply_batch", apply_batch)
        result = explore_scope(SCOPES["smallest"], ("r-matrix", "datacycle"))
        assert {(s.protocol, s.mode) for s in result.stats if not s.ok} == {
            (protocol, mode)
            for protocol in ("r-matrix", "datacycle")
            for mode in ("paced", "faulty")
        }


class TestMain:
    def test_exit_zero_and_json_output(self, tmp_path, capsys):
        out = tmp_path / "explore.json"
        assert main(["--scope", "smallest", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["results"]
        assert "smallest" in capsys.readouterr().out

    def test_unknown_scope_is_usage_error(self):
        try:
            main(["--scope", "galactic"])
        except SystemExit as exc:
            assert exc.code == 2
        else:  # pragma: no cover
            raise AssertionError("expected SystemExit")
