"""Property-based tests (hypothesis) for the theory core.

Pinned invariants:

* the Figure 1 lattice — conflict serializable ⇒ APPROX ⇒ legal, and
  conflict serializable ⇒ view serializable ⇒ legal — on random histories;
* APPROX's closure-and-mask reader verdicts equal Definition 9's
  ``S_H(t_R)`` acyclicity, reader by reader, on the same histories;
* Theorem 2 — incremental control-matrix maintenance equals the
  definitional computation on random serial update histories;
* the pointwise protocol acceptance hierarchy — Datacycle ⊆ R-Matrix ⊆
  F-Matrix — on random commit/read schedules;
* modulo timestamps agree with absolute cycles within the window.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.approx import approx_accepts, approx_report
from repro.core.control_matrix import ControlMatrix, matrix_from_history
from repro.core.cycles import ModuloCycles, UnboundedCycles
from repro.core.group_matrix import LastWriteVector
from repro.core.legality import is_legal
from repro.core.model import History, commit, read, write
from repro.core.serialgraph import (
    is_conflict_serializable,
    reader_serialization_graph,
)
from repro.core.validators import (
    ControlSnapshot,
    DatacycleValidator,
    FMatrixValidator,
    RMatrixValidator,
)
from repro.core.viewser import is_view_serializable

# ----------------------------------------------------------------------
# random history strategy
# ----------------------------------------------------------------------

NUM_OBJECTS = 3


@st.composite
def histories(draw, max_txns: int = 4):
    """Random committed histories in the paper's model.

    Per transaction: a read set then a write set over a tiny object pool
    (reads precede writes, no repeats).  Operations of different
    transactions interleave arbitrarily; commits respect operation order.
    """
    num_txns = draw(st.integers(1, max_txns))
    blocks = []
    for t in range(1, num_txns + 1):
        objs = list(range(NUM_OBJECTS))
        reads = draw(st.lists(st.sampled_from(objs), max_size=2, unique=True))
        writes = draw(st.lists(st.sampled_from(objs), max_size=2, unique=True))
        if not reads and not writes:
            reads = [draw(st.sampled_from(objs))]
        ops = [read(f"t{t}", str(o)) for o in reads]
        ops += [write(f"t{t}", str(o)) for o in writes]
        ops.append(commit(f"t{t}"))
        blocks.append(ops)
    # random interleaving: repeatedly pick a non-empty block
    ops_out = []
    while any(blocks):
        candidates = [i for i, b in enumerate(blocks) if b]
        idx = draw(st.sampled_from(candidates))
        ops_out.append(blocks[idx].pop(0))
    return History(ops_out)


@settings(max_examples=120, deadline=None)
@given(histories())
def test_criteria_lattice_implications(history):
    csr = is_conflict_serializable(history)
    approx = approx_accepts(history)
    legal = is_legal(history)
    vsr = is_view_serializable(history.committed_projection().update_subhistory())
    if csr:
        assert approx, f"CSR history rejected by APPROX: {history}"
    if approx:
        assert legal, f"APPROX-accepted history not legal: {history}"
    if not vsr:
        assert not legal, f"legal history with non-VSR updates: {history}"


@settings(max_examples=120, deadline=None)
@given(histories())
def test_approx_subset_of_legal_is_proper_somewhere(history):
    # weak form: never approx ∧ ¬legal (the strict-subset witness is a
    # fixed regression test in test_approx.py)
    assert not (approx_accepts(history) and not is_legal(history))


@settings(max_examples=300, deadline=None)
@given(histories())
def test_reader_verdicts_equal_definition_9(history):
    """The mask test against its oracle, which shares no code with it:
    whenever the update graph is acyclic, each committed read-only
    transaction is accepted iff its ``S_H(t_R)`` (built arc by arc from
    Definition 9) is acyclic — interleaved updates included."""
    committed = history.committed_projection()
    report = approx_report(history)
    if not is_conflict_serializable(committed.update_subhistory()):
        assert report.update_cycle and not report.reader_verdicts
        return
    assert report.reader_verdicts == {
        tid: reader_serialization_graph(committed, tid).is_acyclic()
        for tid in committed.read_only_transactions()
    }, history.to_notation()


# ----------------------------------------------------------------------
# Theorem 2: incremental == definitional
# ----------------------------------------------------------------------

commit_step = st.tuples(
    st.integers(0, 2),                                    # cycle increment
    st.lists(st.integers(0, NUM_OBJECTS - 1), max_size=2, unique=True),  # RS
    st.lists(st.integers(0, NUM_OBJECTS - 1), min_size=1, max_size=2, unique=True),  # WS
)


@settings(max_examples=100, deadline=None)
@given(st.lists(commit_step, min_size=1, max_size=12))
def test_theorem2_incremental_equals_definitional(steps):
    cm = ControlMatrix(NUM_OBJECTS)
    ops = []
    cycle = 1
    for k, (bump, rs, ws) in enumerate(steps):
        cycle += bump
        tid = f"t{k + 1}"
        cm.apply_commit(cycle, rs, ws)
        ops += [read(tid, str(o)) for o in rs]
        ops += [write(tid, str(o)) for o in ws]
        ops.append(commit(tid, cycle=cycle))
    oracle = matrix_from_history(History(ops), NUM_OBJECTS)
    assert np.array_equal(cm.array, oracle)


# ----------------------------------------------------------------------
# protocol acceptance hierarchy
# ----------------------------------------------------------------------

schedule_step = st.one_of(
    st.tuples(st.just("commit"), commit_step),
    st.tuples(st.just("read"), st.integers(0, NUM_OBJECTS - 1)),
    st.tuples(st.just("restart"), st.none()),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(schedule_step, min_size=1, max_size=25))
def test_pointwise_acceptance_hierarchy(steps):
    cm = ControlMatrix(NUM_OBJECTS)
    vec = LastWriteVector(NUM_OBJECTS)
    fm, rm, dc = FMatrixValidator(), RMatrixValidator(), DatacycleValidator()
    for v in (fm, rm, dc):
        v.begin()
    cycle = 1
    aligned = True
    for kind, payload in steps:
        if kind == "commit":
            bump, rs, ws = payload
            cycle += bump
            cm.apply_commit(cycle, rs, ws)
            vec.apply_commit(cycle, rs, ws)
        elif kind == "restart" or not aligned:
            for v in (fm, rm, dc):
                v.begin()
            aligned = True
        else:
            obj = payload
            ok_f = fm.validate_read(obj, ControlSnapshot(cycle, matrix=cm.snapshot()))
            ok_r = rm.validate_read(obj, ControlSnapshot(cycle, vector=vec.snapshot()))
            ok_d = dc.validate_read(obj, ControlSnapshot(cycle, vector=vec.snapshot()))
            assert (not ok_d) or ok_r
            assert (not ok_r) or ok_f
            aligned = ok_f and ok_r and ok_d


# ----------------------------------------------------------------------
# modulo timestamps
# ----------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10_000),     # reference cycle
    st.integers(0, 255),        # age of a within the window
    st.integers(0, 255),        # age of b within the window
)
def test_modulo_agrees_with_absolute_within_window(reference, age_a, age_b):
    arith = ModuloCycles(8)
    plain = UnboundedCycles()
    a = max(0, reference - age_a)
    b = max(0, reference - age_b)
    assert arith.less_encoded_absolute(
        arith.encode(a), b, reference=reference
    ) == plain.less_encoded_absolute(a, b, reference=reference)
