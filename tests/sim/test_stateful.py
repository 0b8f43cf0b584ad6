"""Model-based (hypothesis stateful) testing of the server + protocols.

A rule-based state machine drives a :class:`BroadcastServer` with an
arbitrary interleaving of cycle advances, server commits, client-update
submissions and protocol-validated client reads, maintaining a
*model* alongside: the invariants below must hold after every step.

Invariants:

* the row-max of the full matrix always equals the database's last
  commit cycle per object (Sec. 3.2.2's one-group identity);
* the matrix always equals the definitional recomputation from the
  commit log;
* a committed reader's observations always pass the APPROX check when
  reconstructed with provenance;
* accepted client-update submissions always had current reads under the
  model's own bookkeeping.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.client.runtime import ReadOnlyTransactionRuntime
from repro.core.control_matrix import matrix_from_history
from repro.core.model import History
from repro.core.model import commit as commit_op
from repro.core.model import read as read_op
from repro.core.model import write as write_op
from repro.core.serialgraph import reader_serialization_graph
from repro.core.validators import make_validator
from repro.server.server import BroadcastServer
from repro.server.validation import UpdateSubmission

NUM_OBJECTS = 4


class BroadcastMachine(RuleBasedStateMachine):
    @initialize(protocol=st.sampled_from(["f-matrix", "r-matrix", "datacycle"]))
    def setup(self, protocol):
        self.protocol = protocol
        self.server = BroadcastServer(NUM_OBJECTS, protocol)
        self.cycle = 1
        self.broadcast = self.server.begin_cycle(1)
        self.validator = make_validator(protocol)
        self.reader_serial = 0
        self.runtime = self._new_reader()
        self.server_serial = 0
        self.committed_readers = []  # (tid, [(obj, writer)])

    # ------------------------------------------------------------------
    def _new_reader(self):
        self.reader_serial += 1
        return ReadOnlyTransactionRuntime(
            f"r{self.reader_serial}",
            list(range(NUM_OBJECTS)),  # reads everything, one at a time
            self.validator,
        )

    # ------------------------------------------------------------------
    @rule()
    def advance_cycle(self):
        self.cycle += 1
        self.broadcast = self.server.begin_cycle(self.cycle)

    @rule(
        objs=st.lists(
            st.integers(0, NUM_OBJECTS - 1), min_size=1, max_size=3, unique=True
        ),
        split=st.integers(0, 2),
    )
    def server_commit(self, objs, split):
        split = min(split, len(objs) - 1)
        rs, ws = objs[:split], objs[split:]
        self.server_serial += 1
        tid = f"s{self.server_serial}"
        self.server.commit_update(tid, rs, {o: tid for o in ws}, cycle=self.cycle)

    @rule(data=st.data())
    def submit_client_update(self, data):
        obj = data.draw(st.integers(0, NUM_OBJECTS - 1))
        read_cycle = data.draw(st.integers(max(1, self.cycle - 2), self.cycle))
        self.server_serial += 1
        tid = f"u{self.server_serial}"
        submission = UpdateSubmission(
            tid, reads=((obj, read_cycle),), writes=((obj, tid),)
        )
        was_current = self.server.database.committed(obj).commit_cycle < read_cycle
        outcome = self.server.submit_client_update(submission, cycle=self.cycle)
        assert outcome.committed == was_current

    @rule()
    def client_read(self):
        if self.runtime.next_object is None:
            self.committed_readers.append(
                (
                    self.runtime.tid,
                    [(v.obj, v.writer) for v in self.runtime.versions],
                )
            )
            self.runtime = self._new_reader()
            return
        outcome = self.runtime.deliver(self.broadcast)
        if not outcome.ok:
            self.runtime.restart()

    # ------------------------------------------------------------------
    @invariant()
    def vector_is_matrix_row_max(self):
        # whichever control state the server keeps: the matrix's row
        # maximum, or the vector itself under r-matrix / datacycle
        if self.server.matrix is not None:
            last_write = self.server.matrix.reduce_to_vector()
        else:
            last_write = self.server.vector.array
        assert last_write.tolist() == [
            version.commit_cycle
            for version in self.server.database.committed_snapshot()
        ]

    @invariant()
    def matrix_matches_definitional(self):
        if self.server.matrix is None:
            return
        ops = []
        for record in self.server.database.commit_log:
            ops += [read_op(record.txn, str(o)) for o in record.read_set]
            ops += [write_op(record.txn, str(o)) for o, _v in record.writes]
            ops.append(commit_op(record.txn, cycle=record.commit_cycle))
        oracle = matrix_from_history(History(ops, strict=False), NUM_OBJECTS)
        assert np.array_equal(self.server.matrix.array, oracle)

    @invariant()
    def committed_readers_consistent(self):
        if not self.committed_readers:
            return
        tid, observed = self.committed_readers[-1]
        inserts = {}
        blocks = [("t0", [])]
        for record in self.server.database.commit_log:
            block = [read_op(record.txn, str(o)) for o in record.read_set]
            block += [write_op(record.txn, str(o)) for o, _v in record.writes]
            block.append(commit_op(record.txn, cycle=record.commit_cycle))
            blocks.append((record.txn, block))
        reader_ops = {}
        for obj, writer in observed:
            reader_ops.setdefault(writer, []).append(read_op(tid, str(obj)))
        ops = []
        for block_tid, block in blocks:
            ops.extend(block)
            ops.extend(reader_ops.get(block_tid, ()))
        ops.append(commit_op(tid))
        history = History(ops, strict=False)
        graph = reader_serialization_graph(history, tid)
        assert graph.is_acyclic(), f"{self.protocol}: committed reader inconsistent"


BroadcastMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestBroadcastMachine = BroadcastMachine.TestCase
