"""Random read streams: ``validate_read`` == the written read condition.

The twin is :class:`LiteralCondition` — the module docstring of
:mod:`repro.core.validators` transcribed onto plain lists, sharing no
code with the validators — and the tests require bit-identical
accept/reject decisions and ``R_t`` contents on random streams, in-order
and with cached (out-of-order) reads.
"""

import random

import numpy as np
import pytest

from repro.core.group_matrix import uniform_partition
from repro.core.validators import ControlSnapshot, make_validator

N = 8
PROTOCOLS = ("f-matrix", "datacycle", "r-matrix", "group-matrix")
#: shortest stream driven per transaction (longer than any client
#: transaction in the figures' default config)
MIN_READS = 4


def build_validator(protocol):
    partition = uniform_partition(N, 3) if protocol == "group-matrix" else None
    return make_validator(protocol, partition=partition)


class LiteralCondition:
    """Sec. 3.2.1–3.2.2 and the backward condition, absolute timestamps."""

    def __init__(self, protocol, partition):
        self.protocol = protocol
        self.partition = partition
        self.begin()

    def begin(self):
        self.retained = []  # (object, cycle, the read's control column)

    @property
    def reads(self):
        return [(obj, cycle) for obj, cycle, _column in self.retained]

    def validate_read(self, obj, snapshot):
        now = snapshot.cycle
        if self.protocol == "f-matrix":
            column = snapshot.matrix[:, obj].tolist()
        elif self.protocol == "group-matrix":
            column = snapshot.grouped[:, self.partition.group_of(obj)].tolist()
        else:
            column = snapshot.vector.tolist()
        forward = all(column[i] < c for i, c, _kept in self.retained)
        later = [(c, kept) for _i, c, kept in self.retained if c > now]
        backward = all(kept[obj] < now for _c, kept in later)
        ok = forward and backward
        if not ok and self.protocol == "r-matrix" and not later:
            ok = column[obj] < self.retained[0][1]  # unchanged since c1
        if ok:
            self.retained.append((obj, now, column))
        return ok


def random_snapshot(rng, protocol, cycle, partition):
    """Control info with entries in [0, cycle]: accepts and rejects mix."""
    if protocol in ("f-matrix", "f-matrix-no"):
        return ControlSnapshot(
            cycle, matrix=rng_integers(rng, (N, N), cycle + 1)
        )
    if protocol == "group-matrix":
        return ControlSnapshot(
            cycle,
            grouped=rng_integers(rng, (N, partition.num_groups), cycle + 1),
            partition=partition,
        )
    return ControlSnapshot(cycle, vector=rng_integers(rng, (N,), cycle + 1))


def rng_integers(rng, shape, high):
    flat = [rng.randrange(high) for _ in range(int(np.prod(shape)))]
    return np.array(flat, dtype=np.int64).reshape(shape)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_in_order_reads_match_literal_condition(protocol, seed):
    rng = random.Random(seed)
    validator = build_validator(protocol)
    partition = getattr(validator, "partition", None)
    literal = LiteralCondition(protocol, partition)
    for _txn in range(6):
        validator.begin()
        literal.begin()
        cycle = rng.randint(1, 4)
        for _read in range(MIN_READS + rng.randint(0, 6)):
            cycle += rng.randint(0, 2)  # in-order: non-decreasing cycles
            snapshot = random_snapshot(rng, protocol, cycle, partition)
            obj = rng.randrange(N)
            want = literal.validate_read(obj, snapshot)
            assert validator.validate_read(obj, snapshot) == want
        assert validator.reads == literal.reads


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_cached_reads_match_literal_condition(protocol, seed):
    """Out-of-order snapshots bring in the backward condition."""
    rng = random.Random(100 + seed)
    validator = build_validator(protocol)
    partition = getattr(validator, "partition", None)
    literal = LiteralCondition(protocol, partition)
    validator.begin()
    literal.begin()
    for _read in range(MIN_READS + 8):
        # cycles jump around: some snapshots predate recorded reads
        cycle = rng.randint(1, 10)
        snapshot = random_snapshot(rng, protocol, cycle, partition)
        obj = rng.randrange(N)
        want = literal.validate_read(obj, snapshot)
        assert validator.validate_read(obj, snapshot) == want
    assert validator.reads == literal.reads
