"""Property-based cross-checks for the consistency certifier.

Three oracles keep the checkers honest:

* a **brute-force permutation oracle** for serializability — enumerate
  every total order of the transactions, accept iff one extends
  ``so ∪ wr`` and respects every write-read fact (no third writer lands
  between a version's writer and its reader).  The polygraph-based
  checker must agree exactly on small random histories.
* the **level lattice** — SER ⟹ SI ⟹ PC ⟹ CC ⟹ RA ⟹ RC.  A random
  history passing a stronger level must pass every weaker one.
* :mod:`repro.core.legality` — for simulator-shaped histories (serial
  updates plus read-only readers), the certifier's update-consistency
  verdict must match the legality engine's per-reader polygraph verdict.
"""

from itertools import permutations

from hypothesis import given, settings, strategies as st

from repro.analysis.consistency import certify_update_consistency
from repro.analysis.consistency.checkers import (
    LEVELS,
    check_level,
    check_serializability,
)
from repro.analysis.consistency.histories import TransactionalHistory
from repro.core.legality import legality_report
from repro.core.model import History, T0, commit, read, write

MAX_TXNS = 5
OBJECTS = ("x", "y", "z")


# ----------------------------------------------------------------------
# history generation: per-transaction ops, then a random interleaving
# ----------------------------------------------------------------------
@st.composite
def histories(draw):
    num_txns = draw(st.integers(min_value=2, max_value=MAX_TXNS))
    tids = [f"t{i + 1}" for i in range(num_txns)]
    ops = []
    for tid in tids:
        body = draw(
            st.lists(
                st.tuples(st.booleans(), st.sampled_from(OBJECTS)),
                min_size=1,
                max_size=3,
            )
        )
        txn_ops = [
            write(tid, obj) if is_write else read(tid, obj)
            for is_write, obj in body
        ]
        txn_ops.append(commit(tid))
        ops.append(txn_ops)
    # random interleaving that keeps each transaction's program order
    merged = []
    queues = [list(txn_ops) for txn_ops in ops]
    while any(queues):
        alive = [i for i, q in enumerate(queues) if q]
        pick = draw(st.sampled_from(alive))
        merged.append(queues[pick].pop(0))
    return History(merged, strict=False)


@st.composite
def sessioned_histories(draw):
    history = draw(histories())
    tids = list(history.transaction_ids)
    session = draw(
        st.lists(st.sampled_from(tids), max_size=len(tids), unique=True)
    )
    sessions = [session] if len(session) > 1 else []
    return TransactionalHistory(history, sessions)


# ----------------------------------------------------------------------
# the brute-force serializability oracle
# ----------------------------------------------------------------------
def brute_force_serializable(th: TransactionalHistory) -> bool:
    tids = list(th.tids)
    wr = th.wr_pairs()
    so = th.so_pairs()
    writers = th.writers_of()
    for order in permutations(tids):
        position = {tid: i for i, tid in enumerate(order)}
        position[T0] = -1
        if any(position[a] >= position[b] for a, b in so):
            continue
        ok = True
        for writer, reader, obj in wr:
            if position[writer] >= position[reader]:
                ok = False
                break
            for other in writers.get(obj, ()):
                if other in (writer, reader):
                    continue
                if position[writer] < position[other] < position[reader]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


class TestBruteForceOracle:
    @settings(max_examples=120, deadline=None)
    @given(sessioned_histories())
    def test_ser_checker_matches_permutation_oracle(self, th):
        assert check_serializability(th).ok == brute_force_serializable(th)

    @settings(max_examples=120, deadline=None)
    @given(sessioned_histories())
    def test_ser_pass_order_is_accepted_by_oracle_criteria(self, th):
        verdict = check_serializability(th)
        if not verdict.ok:
            return
        position = {tid: i for i, tid in enumerate(verdict.order)}
        position[T0] = -1
        for a, b in th.so_pairs():
            assert position[a] < position[b]
        writers = th.writers_of()
        for writer, reader, obj in th.wr_pairs():
            assert position[writer] < position[reader]
            for other in writers.get(obj, ()):
                if other not in (writer, reader):
                    assert not (
                        position[writer] < position[other] < position[reader]
                    )


class TestLevelLattice:
    @settings(max_examples=120, deadline=None)
    @given(sessioned_histories())
    def test_stronger_level_implies_weaker(self, th):
        results = [check_level(th, level).ok for level in LEVELS]
        # LEVELS is ordered weakest → strongest: once a level fails,
        # every stronger level must fail too
        for weaker, stronger in zip(results, results[1:]):
            assert weaker or not stronger


# ----------------------------------------------------------------------
# cross-engine: certifier vs the legality checker's reader polygraphs
# ----------------------------------------------------------------------
@st.composite
def broadcast_shaped_histories(draw):
    """Serial committed updates, then read-only readers with positional reads.

    Update transactions read as well as write, so LIVE sets chain through
    several hops of reads-from rather than stopping at the direct writers.
    """
    num_updates = draw(st.integers(min_value=1, max_value=6))
    ops = []
    for i in range(num_updates):
        tid = f"u{i + 1}"
        for obj in draw(
            st.lists(st.sampled_from(OBJECTS), max_size=2, unique=True)
        ):
            ops.append(read(tid, obj))
        for obj in draw(
            st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=2, unique=True)
        ):
            ops.append(write(tid, obj))
        ops.append(commit(tid))
    # insert each reader's reads at random points between update blocks
    num_readers = draw(st.integers(min_value=1, max_value=3))
    commits = [i for i, op in enumerate(ops) if op.is_commit]
    for j in range(num_readers):
        tid = f"r{j + 1}"
        objs = draw(
            st.lists(st.sampled_from(OBJECTS), min_size=1, max_size=3, unique=True)
        )
        inserts = sorted(
            (draw(st.sampled_from(commits)) + 1 for _ in objs), reverse=True
        )
        for obj, at in zip(objs, inserts):
            ops.insert(at, read(tid, obj))
        ops.append(commit(tid))
    return History(ops, strict=False)


class TestLegalityCrossCheck:
    @settings(max_examples=100, deadline=None)
    @given(broadcast_shaped_histories())
    def test_update_consistency_matches_legality_engine(self, history):
        report = certify_update_consistency(TransactionalHistory(history))
        assert report.ok == legality_report(history).legal

    @settings(max_examples=100, deadline=None)
    @given(broadcast_shaped_histories())
    def test_rejected_readers_agree(self, history):
        ours = certify_update_consistency(TransactionalHistory(history))
        theirs = legality_report(history)
        assert {tid for tid, v in ours.reader_verdicts if not v.ok} == set(
            theirs.rejected_readers
        )


class TestSeededAnomalyFixture:
    """The ISSUE's seeded non-serializable run: reject with a real witness."""

    #: two readers observing two independent writes in opposite orders —
    #: accepted by nothing at prefix level or above
    LONG_FORK = History(
        [
            read("r2", "x"),
            write("u1", "x"),
            commit("u1"),
            read("r1", "x"),
            read("r1", "y"),
            commit("r1"),
            write("u2", "y"),
            commit("u2"),
            read("r2", "y"),
            commit("r2"),
        ],
        strict=False,
    )

    def test_rejected_at_ser_and_si_with_witness(self):
        th = TransactionalHistory(self.LONG_FORK)
        for level in ("serializability", "snapshot-isolation", "prefix"):
            verdict = check_level(th, level)
            assert not verdict.ok, level
            assert verdict.witness is not None
            assert set(verdict.witness.transactions) & {"r1", "r2"}

    def test_update_subhistory_alone_is_fine(self):
        report = certify_update_consistency(TransactionalHistory(self.LONG_FORK))
        # each reader individually embeds into a serialization of its
        # perceived updates — the long fork is invisible per reader,
        # which is exactly why update consistency is weaker than SER
        assert report.ok
