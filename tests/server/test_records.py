"""The server's immutable records keep their contract.

``ObjectVersion`` (one per committed write), ``CommitRecord`` (one per
commit) and ``ServerTransactionSpec`` (one per server transaction) are
named tuples: the fields a caller names, in the order it may pass them,
read-only, picklable across the shard pool, equal and hashed by value.
"""

import pickle

import pytest

from repro.broadcast.program import ObjectVersion
from repro.server.database import CommitRecord
from repro.server.server import BroadcastServer
from repro.server.workload import ServerTransactionSpec
from repro.sim.arena import TimelineArena

RECORDS = [
    pytest.param(
        ObjectVersion, ("obj", "value", "writer", "commit_cycle"), (3, "v", "s1", 2),
        id="ObjectVersion",
    ),
    pytest.param(
        CommitRecord,
        ("txn", "commit_cycle", "commit_seq", "read_set", "writes"),
        ("s1", 2, 1, (0, 4), ((3, "v"),)),
        id="CommitRecord",
    ),
    pytest.param(
        ServerTransactionSpec, ("tid", "read_set", "write_set"), ("s1", (0, 4), (3,)),
        id="ServerTransactionSpec",
    ),
]


@pytest.mark.parametrize("cls, fields, values", RECORDS)
class TestRecordContract:
    def test_field_names_and_order(self, cls, fields, values):
        record = cls(*values)
        assert cls._fields == fields
        assert tuple(getattr(record, name) for name in fields) == values
        assert cls(**dict(zip(fields, values))) == record

    def test_read_only(self, cls, fields, values):
        record = cls(*values)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_pickle_round_trip(self, cls, fields, values):
        record = cls(*values)
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is cls and clone == record

    def test_equal_fields_compare_and_hash_equal(self, cls, fields, values):
        a, b = cls(*values), cls(*values)
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


def test_replayed_cycle_holds_the_servers_versions():
    """A cycle the live server froze and the same cycle rebuilt from a
    timeline arena carry equal versions, quiescent cycles included."""
    server = BroadcastServer(6, "f-matrix")
    images = {1: server.begin_cycle(1)}
    server.commit_update("s1", [0], {1: "s1", 2: "s1"})
    images[2] = server.begin_cycle(2)
    images[3] = server.begin_cycle(3)
    server.commit_update("s2", [1], {0: "s2"})
    images[4] = server.begin_cycle(4)
    view = TimelineArena.from_images(
        images, cycle_bits=100.0, horizon_time=400.0, partition=None
    ).view()
    for cycle, image in images.items():
        replayed = view.broadcast(cycle)
        assert replayed.versions == image.versions
        assert all(type(v) is ObjectVersion for v in replayed.versions)
    assert images[4].version(0) == ObjectVersion(0, "s2", "s2", 3)
