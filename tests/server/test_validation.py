"""Tests for client-update validation (repro.server.validation)."""

from repro.server.database import Database
from repro.server.validation import BackwardValidator, UpdateSubmission


def submission(txn="u1", reads=(), writes=((0, "v"),)):
    return UpdateSubmission(txn, tuple(reads), tuple(writes))


def overwritten(num_objects, cycle=None, objs=()):
    """A database in which ``objs`` were last written at ``cycle``."""
    database = Database(num_objects)
    if objs:
        database.apply_batch(cycle, [("s1", (), {obj: "new" for obj in objs})])
    return database


class TestBackwardValidator:
    def test_fresh_reads_commit(self):
        validator = BackwardValidator(overwritten(3))
        outcome = validator.validate(
            submission(reads=((0, 1), (1, 1))), current_cycle=1
        )
        assert outcome.committed and outcome.conflicts == ()

    def test_stale_read_rejected(self):
        validator = BackwardValidator(overwritten(3, 2, [0]))
        outcome = validator.validate(
            submission(reads=((0, 2), (1, 2))), current_cycle=3
        )
        assert not outcome.committed
        assert outcome.conflicts == (0,)

    def test_same_cycle_overwrite_rejected(self):
        """A commit during the cycle the client read from is invisible to
        the client — the read is stale even though the cycles match."""
        validator = BackwardValidator(overwritten(1, 5, [0]))
        outcome = validator.validate(submission(reads=((0, 5),)), current_cycle=5)
        assert not outcome.committed

    def test_blind_writer_always_commits(self):
        validator = BackwardValidator(overwritten(1, 9, [0]))
        outcome = validator.validate(submission(reads=()), current_cycle=9)
        assert outcome.committed

    def test_all_conflicts_reported(self):
        validator = BackwardValidator(overwritten(3, 4, [0, 2]))
        outcome = validator.validate(
            submission(reads=((0, 3), (1, 3), (2, 3))), current_cycle=4
        )
        assert outcome.conflicts == (0, 2)


class TestUpdateSubmission:
    def test_sets(self):
        sub = submission(reads=((3, 1), (5, 2)), writes=((3, "a"), (7, "b")))
        assert sub.read_set == (3, 5)
        assert sub.write_set == (3, 7)
