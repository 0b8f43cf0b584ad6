"""End-to-end: simulator traces through the certifier.

One small seeded run per protocol; the reconstructed sessioned history
must certify the paper's update-consistency guarantee, and Datacycle's
single-snapshot-point semantics must additionally certify full
serializability of the global history.

Then the same two gates at the size the benchmark runs — 500-transaction
Table-1 traces (≈ 13 k server commits) and a ``mixed-fleet``-shaped
faulted fleet — and, on the 500-transaction F-Matrix history, two seeded
corruptions the gates must reject with a witness.
"""

import dataclasses
from collections import Counter

import pytest

from repro.analysis import audit_context, context_from_simulation
from repro.analysis.consistency import (
    LEVELS,
    certify,
    certify_update_consistency,
)
from repro.core.model import History, T0, commit
from repro.core.readsfrom import live_set
from repro.sim import SimulationConfig, run_simulation
from repro.sim.faults import FaultPlan

PROTOCOLS = ("f-matrix", "r-matrix", "datacycle")


def run(protocol, **overrides):
    config = SimulationConfig(
        protocol=protocol,
        num_objects=15,
        num_client_transactions=12,
        seed=7,
        audit=True,
        **overrides,
    )
    return run_simulation(config)


@pytest.fixture(scope="module")
def transactional_histories():
    out = {}
    for protocol in PROTOCOLS:
        result = run(protocol)
        out[protocol] = result.trace.transactional_history(
            result.server.database
        )
    return out


class TestUpdateConsistency:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_protocol_certifies(self, transactional_histories, protocol):
        report = certify_update_consistency(transactional_histories[protocol])
        assert report.ok, report.format()
        assert report.reader_verdicts  # the run committed readers

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_weak_levels_hold_on_full_history(
        self, transactional_histories, protocol
    ):
        report = certify(
            transactional_histories[protocol],
            ["read-committed", "read-atomic", "causal"],
        )
        assert report.ok, report.format()


class TestDatacycleGlobalSerializability:
    def test_all_six_levels_pass(self, transactional_histories):
        report = certify(transactional_histories["datacycle"], LEVELS)
        assert report.ok, report.format()
        assert report.verdict("serializability").order


class TestSessionRecording:
    def test_sessions_cover_client_commits(self, transactional_histories):
        th = transactional_histories["f-matrix"]
        session_members = {tid for session in th.sessions for tid in session}
        client_tids = {tid for tid in th.tids if tid.startswith("cl")}
        # every committed client transaction sits in exactly one session
        assert session_members <= client_tids
        for session in th.sessions:
            assert len(set(session)) == len(session)

    def test_modulo_run_certifies_too(self):
        result = run("f-matrix", modulo_timestamps=True)
        th = result.trace.transactional_history(result.server.database)
        assert certify_update_consistency(th).ok


# ----------------------------------------------------------------------
# at the benchmark's size
# ----------------------------------------------------------------------
#: the history-level gates plus the log they presuppose
GATES = ("validation-soundness", "update-serializability", "commit-log-order")


def traced_context(config):
    """Run ``config`` with a trace (no cycle images) and build its context."""
    return context_from_simulation(run_simulation(config, collect_trace=True))


def table1(protocol, transactions):
    return SimulationConfig(
        protocol=protocol, num_client_transactions=transactions, seed=1999
    )


def mixed_fleet_shaped():
    """Readers beside writers under modulo timestamps, caches, uplink loss
    and seeded doze — the shape of perfbench's ``mixed-fleet``, built here."""
    clients = 128
    return SimulationConfig(
        protocol="f-matrix",
        seed=1999,
        num_clients=clients,
        num_update_clients=clients // 8,
        client_update_fraction=0.25,
        num_client_transactions=8,
        num_objects=128,
        object_size_bits=2048,
        client_txn_length=6,
        modulo_timestamps=True,
        cache_currency_bound=2.0e6,
        cache_capacity=32,
        server_txn_interval=2.0e5,
        mean_inter_operation_delay=16384.0,
        mean_inter_transaction_delay=65536.0,
        faults=FaultPlan.seeded(
            1999,
            num_clients=clients,
            horizon=4.0e7,
            mean_time_between_dozes=3.0e6,
            mean_doze_duration=4.0e5,
            uplink_loss_probability=0.05,
        ),
    )


def assert_certifies(ctx, readers):
    report = audit_context(ctx, invariants=GATES)
    assert report.ok, report.format()
    consistency = certify_update_consistency(ctx.history)
    assert consistency.ok, consistency.format()
    assert len(consistency.reader_verdicts) >= readers


@pytest.fixture(scope="module")
def fmatrix_500():
    return traced_context(table1("f-matrix", 500))


class TestCertificationAtBenchmarkSize:
    def test_fmatrix_500(self, fmatrix_500):
        assert len(fmatrix_500.commit_log) > 10_000
        assert fmatrix_500.approx.serial_updates  # the O(ops) side of the choice
        assert_certifies(fmatrix_500, readers=500)

    @pytest.mark.parametrize(
        "protocol, transactions",
        [
            ("r-matrix", 500),
            ("datacycle", 500),
            ("f-matrix-no", 100),
            ("group-matrix", 100),
        ],
    )
    def test_table1_run_certifies(self, protocol, transactions):
        assert_certifies(
            traced_context(table1(protocol, transactions)), readers=transactions
        )

    def test_mixed_fleet_shaped_run_certifies(self):
        ctx = traced_context(mixed_fleet_shaped())
        assert any(r.txn.startswith("cl") for r in ctx.commit_log)  # client updates
        assert_certifies(ctx, readers=500)


# ----------------------------------------------------------------------
# the same history, corrupted: the fast path must be seen to reject
# ----------------------------------------------------------------------
def stale_read(history):
    """Move one reader's read of ``ob`` back before a LIVE member's write.

    Picks the first reader that reads some ``ob`` from ``ob``'s first
    writer ``u`` while another of its reads still depends on ``u``; that
    read goes to the very start, where it observes ``t0``'s version — yet
    ``u``, still in the reader's LIVE set, writes ``ob`` after it.
    """
    first_writer = {}
    for op in history:
        if op.is_write:
            first_writer.setdefault(op.obj, op.txn)
    for reader in history.read_only_transactions():
        sources = {
            obj: history.writer_of(reader, obj)
            for obj in history.transaction(reader).read_set
        }
        for obj, writer in sources.items():
            if writer == T0 or first_writer[obj] != writer:
                continue
            if any(
                other != T0 and writer in live_set(history, other)
                for ob, other in sources.items()
                if ob != obj
            ):
                ops = list(history.operations)
                stale = next(o for o in ops if o.txn == reader and o.obj == obj)
                ops.remove(stale)
                return reader, writer, History([stale] + ops, strict=False)
    raise AssertionError("no reader depends twice on a first writer")


def prefix(history, updates):
    """``history`` cut after its ``updates``-th update commit, keeping the
    readers that had finished reading by then."""
    ops, seen = [], 0
    for op in history:
        ops.append(op)
        if op.is_commit and history.transaction(op.txn).is_update:
            seen += 1
            if seen == updates:
                break
    reads = Counter(
        op.txn for op in ops
        if op.is_read and history.transaction(op.txn).is_read_only
    )
    ops += [
        commit(tid) for tid, count in reads.items()
        if count == len(history.transaction(tid).read_set)
    ]
    return History(ops, strict=False)


def crossed_writes(history):
    """Interleave two update transactions writing ``x`` and ``y`` so that
    ``a`` writes ``x`` first and ``b`` writes ``y`` first: ``a``'s write of
    ``y`` and its commit are delayed until just before ``b`` commits."""
    updates = history.update_transactions()
    for i, a in enumerate(updates):
        for b in updates[i + 1 : i + 4]:
            common = sorted(
                history.transaction(a).write_set & history.transaction(b).write_set
            )
            if len(common) >= 2:
                y = common[1]
                ops = list(history.operations)
                late = [
                    o for o in ops
                    if o.txn == a and (o.is_commit or (o.is_write and o.obj == y))
                ]
                rest = [o for o in ops if o not in late]
                at = next(
                    k for k, o in enumerate(rest) if o.txn == b and o.is_commit
                )
                return a, b, History(rest[:at] + late + rest[at:], strict=False)
    raise AssertionError("no two nearby updates write two common objects")


class TestSeededCorruptionsAreRejected:
    def test_stale_read_names_exactly_that_reader(self, fmatrix_500):
        reader, writer, corrupt = stale_read(fmatrix_500.history)
        ctx = dataclasses.replace(fmatrix_500, history=corrupt)
        assert ctx.approx.serial_updates and ctx.approx.rejected_readers == (reader,)

        report = audit_context(ctx, invariants=GATES)
        (diag,) = report.diagnostics
        assert diag.invariant == "validation-soundness"
        assert diag.transactions[0] == reader and writer in diag.transactions
        assert "genuinely inconsistent" in diag.message and diag.witness

        consistency = certify_update_consistency(corrupt)
        assert consistency.update_verdict.ok
        ((failed, verdict),) = consistency.failures()
        assert failed == reader
        assert {reader, writer} <= set(verdict.witness.cycle)

    def test_crossed_writes_name_the_update_subhistory(self, fmatrix_500):
        # On the first 200 update commits: past the serial scan the
        # definitional paths take over (all-pairs conflict graph, then the
        # exact polygraph over every update transaction), and those are
        # the small-history oracles — 11 s and 13.7 M arcs for the graph
        # alone at this history's full 13,458 commits.
        a, b, corrupt = crossed_writes(prefix(fmatrix_500.history, 200))
        ctx = dataclasses.replace(fmatrix_500, history=corrupt)
        assert not ctx.approx.serial_updates
        assert set(ctx.approx.update_cycle) == {a, b}

        report = audit_context(
            ctx, invariants=("validation-soundness", "update-serializability")
        )
        assert [d.invariant for d in report.diagnostics] == [
            "validation-soundness",
            "update-serializability",
        ]
        for diag in report.diagnostics:
            assert set(diag.transactions) == {a, b} and diag.witness

        consistency = certify_update_consistency(corrupt)
        assert not consistency.update_verdict.ok
        assert set(consistency.update_verdict.witness.cycle) == {a, b}
        # a reader fails with it only if it perceives both crossed writers
        for failed, _verdict in consistency.failures()[1:]:
            assert {a, b} <= live_set(corrupt.committed_projection(), failed)
