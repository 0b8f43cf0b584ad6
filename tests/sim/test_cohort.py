"""Cohort executor tests (repro.sim.cohort) beyond path equivalence.

That the slot-coalesced calendar reproduces the per-process reference
bit for bit is the differential harness's (tests/differential.py, every
corpus row and generated document; trace collection is held to it
here too).  Here: that its staleness guard and batched sweep share
buckets as designed, and batch validation — the sweep a bucket's
members share — against ``validate_read`` per member.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.runtime import ReadOnlyTransactionRuntime
from repro.core import validators as validators_module
from repro.core.control_matrix import ControlMatrix
from repro.core.cycles import ModuloCycles, UnboundedCycles
from repro.core.group_matrix import uniform_partition
from repro.core.validators import (
    ControlSnapshot,
    DatacycleValidator,
    FMatrixValidator,
    RMatrixValidator,
    make_validator,
    validate_read_batch,
    validate_read_batch_inorder,
)
from repro.sim import cohort as cohort_module
from repro.sim.cohort import CohortExecutor
from repro.sim.config import SimulationConfig
from repro.sim.faults import FaultPlan
from repro.sim.simulation import run_simulation

from tests.conftest import reference_run
from tests.differential import CORPUS, check, run, signature


class TestCollapsedLanes:
    def test_staleness_lane_with_shared_buckets(self, monkeypatch):
        """Modulo timestamps + faults: each member's staleness guard runs
        first and the bucket's sweep decides the rest — several survivors
        per bucket, one event per slot.  Untraced: the spans of staleness
        aborts are compared, cohort against the reference, on the
        harness's traced ``faults/doze-wrap`` rows."""
        cfg = SimulationConfig(
            protocol="f-matrix",
            num_objects=16,
            # six clients an object, so a slot's bucket is shared
            num_clients=96,
            client_txn_length=8,
            num_client_transactions=6,
            mean_inter_operation_delay=4096.0,
            server_txn_interval=200_000.0,
            object_size_bits=1024,
            modulo_timestamps=True,
            timestamp_bits=3,
            restart_delay=300.0,
            seed=43,
        )
        cfg = cfg.replace(
            faults=FaultPlan.seeded(
                5,
                num_clients=cfg.num_clients,
                horizon=400 * cfg.cycle_bits,
                mean_time_between_dozes=20 * cfg.cycle_bits,
                mean_doze_duration=8 * cfg.cycle_bits,
            )
        )
        fires, refusals, swept = [], [], []
        fire, stale = CohortExecutor._fire, ReadOnlyTransactionRuntime.stale

        def counting_fire(self, time):
            fires.append(time)
            return fire(self, time)

        def counting_stale(self, cycle):
            refused = stale(self, cycle)
            refusals.append(refused)
            return refused

        def counting(sweep):
            def counted(validators, obj, snapshot):
                verdicts = sweep(validators, obj, snapshot)
                swept.extend(verdicts)
                return verdicts

            return counted

        monkeypatch.setattr(CohortExecutor, "_fire", counting_fire)
        process = reference_run(cfg)
        assert not fires
        # spied from here on: the reference's runtimes run the guard too
        monkeypatch.setattr(ReadOnlyTransactionRuntime, "stale", counting_stale)
        for name in ("validate_read_batch", "validate_read_batch_inorder"):
            monkeypatch.setattr(
                cohort_module, name, counting(getattr(cohort_module, name))
            )
        cohort = run_simulation(cfg.replace(client_executor="cohort"))
        assert signature(process) == signature(cohort)
        assert cohort.metrics.aborts_staleness > 0  # the guard did fire
        # the guard refused some members; the sweep, over the ones it
        # passed, admitted and rejected the rest
        assert True in refusals and {True, False} <= set(swept)
        assert len(swept) <= refusals.count(False)
        assert len(refusals) > 2 * len(fires)  # buckets were shared


# ----------------------------------------------------------------------
# batch validation against the scalar oracle
# ----------------------------------------------------------------------


class TestFeatureInterplay:
    def test_trace_collection_matches(self):
        """With trace collection on, the cohort records the reference's
        history: the same commits read for read, session order and log."""
        check(
            CORPUS["tiny/f-matrix/seed=1"].replace(seed=31),
            client_executor="cohort",
            shards=1,
            timeline_mode="recompute",
        )


def snapshot_at(cycle, num_objects=12, commits=()):
    cm = ControlMatrix(num_objects)
    for at_cycle, reads, writes in commits:
        cm.apply_commit(at_cycle, reads, writes)
    return ControlSnapshot(cycle, matrix=cm.snapshot())


PARTITION = uniform_partition(12, 4)


def full_snapshot(cycle, cm):
    """One cycle's control information in every protocol's form."""
    return ControlSnapshot(
        cycle,
        matrix=cm.snapshot(),
        vector=cm.reduce_to_vector(),
        grouped=cm.reduce_to_groups(PARTITION.groups),
        partition=PARTITION,
    )


def grow_history(validators, rng, cycles=6, num_objects=12):
    """Feed each validator a random in-order read history."""
    cm = ControlMatrix(num_objects)
    for cycle in range(1, cycles + 1):
        if rng.random() < 0.6:
            writes = rng.sample(range(num_objects), 2)
            cm.apply_commit(cycle, [], writes)
        snap = full_snapshot(cycle, cm)
        for v in validators:
            if rng.random() < 0.7:
                v.validate_read(rng.randrange(num_objects), snap)
    return full_snapshot(cycles + 1, cm)


def grow_wrapping_history(pairs, rng, cycles, num_objects=12):
    """Feed each (batch, oracle) validator pair the same random in-order
    read history over ``cycles`` cycles: restarts at random and after each
    rejection, so retained reads span anything from one cycle to several
    modulo windows."""
    cm = ControlMatrix(num_objects)
    for cycle in range(1, cycles + 1):
        if rng.random() < 0.6:
            reads = rng.sample(range(num_objects), rng.randrange(3))
            cm.apply_commit(cycle, reads, rng.sample(range(num_objects), 2))
        snap = full_snapshot(cycle, cm)
        for pair in pairs:
            if rng.random() < 0.1:
                for v in pair:
                    v.begin()
            if rng.random() < 0.6:
                obj = rng.randrange(num_objects)
                for v in pair:
                    if not v.validate_read(obj, snap):
                        v.begin()
    return full_snapshot(cycles + 1, cm)


class TestBatchValidation:
    @pytest.mark.parametrize(
        "protocol", ("r-matrix", "datacycle", "group-matrix", "f-matrix-no")
    )
    def test_dense_population_other_protocols(self, protocol, monkeypatch):
        """The dense corpus rows under every other protocol, at a server
        rate where the sweep's column bound decides most members and
        fails for others within the one run (the harness holds the run
        to the reference)."""
        decided = []
        sweep = validators_module._validate_bucket

        def spy(validators, obj, snapshot):
            # absolute timestamps: the column is its own anchoring
            top = validators[0]._slice(obj, snapshot).max()
            decided.extend(v._min_cycle > top for v in validators if v.records)
            return sweep(validators, obj, snapshot)

        monkeypatch.setattr(validators_module, "_validate_bucket", spy)
        config = CORPUS[f"dense/{protocol}"]
        assert config.client_executor == "cohort"
        run(config)
        assert True in decided and False in decided

    @pytest.mark.parametrize("n_clients", (1, 2, 3, 7, 8, 12, 40, 600))
    def test_matches_sequential_validate_read(self, n_clients):
        """One batched call ≡ validate_read per member, verdicts and R_t —
        every protocol, both entry points, from a bucket of one up.

        ``validate_read_batch`` gets one extra member that retains a read
        from a *later* cycle (the bucket's snapshot is a cached,
        out-of-order read for it), so the eligibility partition and the
        sweep both run; ``validate_read_batch_inorder`` gets the plain
        in-order population its precondition names.
        """
        import random as random_mod

        obj = 3  # written mid-history: every protocol both accepts and rejects
        accepted = {}
        for protocol in ("f-matrix", "datacycle", "r-matrix", "group-matrix"):
            for entry in (validate_read_batch, validate_read_batch_inorder):
                batch, oracle = (
                    [
                        make_validator(protocol, partition=PARTITION)
                        for _ in range(n_clients)
                    ]
                    for _ in range(2)
                )
                # identical histories for the paired validators
                snap = grow_history(batch, random_mod.Random(99))
                grow_history(oracle, random_mod.Random(99))
                if entry is validate_read_batch:
                    later = ControlSnapshot(
                        snap.cycle + 2, snap.matrix, snap.vector, snap.grouped, PARTITION
                    )
                    for side in (batch, oracle):
                        cached = make_validator(protocol, partition=PARTITION)
                        assert cached.validate_read(5, later)
                        side.insert(n_clients // 2, cached)
                got = entry(batch, obj, snap)
                want = [v.validate_read(obj, snap) for v in oracle]
                assert list(got) == want, (protocol, entry.__name__)
                for vb, vo in zip(batch, oracle):
                    assert vb.reads == vo.reads
                    if vb.records:
                        assert np.array_equal(
                            vb.records[-1].slice_, vo.records[-1].slice_
                        )
                accepted[protocol] = sum(want)
        if n_clients == 600:
            # the sweep saw accepts, rejects and the R-Matrix disjunct
            assert 0 < accepted["datacycle"] < accepted["r-matrix"]
            assert accepted["r-matrix"] < accepted["f-matrix"] < 600

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bits=st.sampled_from((3, 4)),
        n_clients=st.integers(1, 12),
        protocol=st.sampled_from(
            ("f-matrix", "datacycle", "r-matrix", "group-matrix")
        ),
        inorder=st.booleans(),
    )
    def test_sweep_matches_scalar_across_the_wrap(
        self, seed, bits, n_clients, protocol, inorder
    ):
        """A history that crosses a ``2**bits`` modulo window four to six
        times: one batched call ≡ ``validate_read`` per member, verdicts
        and ``R_t``, for every protocol and both entry points.

        ``validate_read_batch`` gets a bucket that mixes protocols — its
        odd members validate another protocol's column — plus one member
        retaining a read from a later cycle; exactly those must fall back
        to their scalar path.
        """
        rng = random.Random(seed)
        other_protocol = dict(
            zip(
                ("f-matrix", "datacycle", "r-matrix", "group-matrix"),
                ("datacycle", "r-matrix", "group-matrix", "f-matrix"),
            )
        )

        def make(i):
            other = not inorder and i % 2 == 1
            return make_validator(
                other_protocol[protocol] if other else protocol, partition=PARTITION
            )

        pairs = [(make(i), make(i)) for i in range(n_clients)]
        cycles = rng.randrange(4, 7) * 2**bits
        snap = grow_wrapping_history(pairs, rng, cycles)
        batch = [b for b, _ in pairs]
        oracle = [o for _, o in pairs]
        fallbacks = {i for i in range(n_clients) if not inorder and i % 2 == 1}
        if not inorder:
            later = full_snapshot(snap.cycle + 2, ControlMatrix(12))
            for side in (batch, oracle):
                cached = make_validator(protocol, partition=PARTITION)
                assert cached.validate_read(5, later)
                side.append(cached)
            fallbacks.add(n_clients)
        scalar = set()

        def spy(i, v):
            def validate_read(obj, snapshot):
                scalar.add(i)
                return type(v).validate_read(v, obj, snapshot)

            return validate_read

        for i, v in enumerate(batch):
            # an instance attribute shadows the method: who took the scalar path
            v.validate_read = spy(i, v)
        obj = rng.randrange(12)
        entry = validate_read_batch_inorder if inorder else validate_read_batch
        got = entry(batch, obj, snap)
        want = [v.validate_read(obj, snap) for v in oracle]
        assert list(got) == want
        assert scalar == fallbacks
        for vb, vo in zip(batch, oracle):
            assert vb.reads == vo.reads
            assert [r.slice_.tolist() for r in vb.records] == [
                r.slice_.tolist() for r in vo.records
            ]

    def test_r_matrix_disjunct_across_the_wrap(self):
        """The first-read disjunct decides on absolute entries: three 3-bit
        windows in, the strict condition fails on an overwritten read and
        the untouched object is admitted, by the sweep as by the scalar
        path."""
        from repro.core.group_matrix import LastWriteVector

        vec = LastWriteVector(12)
        vec.apply_commit(16, [], [3])  # residue 0, three windows in

        def snap(cycle):
            return ControlSnapshot(cycle, vector=vec.snapshot())

        batch, oracle, strict = (
            [cls() for _ in range(5)]
            for cls in (RMatrixValidator, RMatrixValidator, DatacycleValidator)
        )
        first = snap(17)
        for v in batch + oracle + strict:
            assert v.validate_read(0, first)
        vec.apply_commit(19, [], [0])  # poisons the strict condition
        now = snap(21)
        assert validate_read_batch(strict, 3, now) == [False] * 5
        got = validate_read_batch(batch, 3, now)
        assert got == [v.validate_read(3, now) for v in oracle] == [True] * 5
        assert [v.reads for v in batch] == [[(0, 17), (3, 21)]] * 5

    @pytest.mark.parametrize(
        "entry", (validate_read_batch, validate_read_batch_inorder)
    )
    @pytest.mark.parametrize(
        "arithmetic", (UnboundedCycles(), ModuloCycles(3)), ids=("absolute", "modulo3")
    )
    @pytest.mark.parametrize(
        "protocol", ("f-matrix", "datacycle", "r-matrix", "group-matrix")
    )
    def test_column_bound_uses_the_oldest_retained_read(
        self, protocol, arithmetic, entry
    ):
        """A member whose oldest retained read is not its first: it read
        object 0 off the air in cycle 13, then object 5 from its cache as
        of cycle 10.  The bucket (cycle 14, object 3) carries an entry for
        object 5 from cycle 11 — below ``records[0].cycle`` but not below
        the cached read — so the column bound must not decide the member:
        every strict protocol rejects it, as the scalar path does."""
        reader, cached, obj = 0, 5, 3

        def snap(cycle, marked=None):
            # every entry from cycle 7, an absolute cycle under either
            # arithmetic (``make_validator`` ignores it)
            matrix = np.full((12, 12), 7, dtype=np.int64)
            vector = np.full(12, 7, dtype=np.int64)
            grouped = np.full((12, PARTITION.num_groups), 7, dtype=np.int64)
            if marked is not None:
                matrix[cached, obj] = vector[cached] = marked
                grouped[cached, PARTITION.group_of(obj)] = marked
            return ControlSnapshot(
                cycle,
                matrix=matrix,
                vector=vector,
                grouped=grouped,
                partition=PARTITION,
            )

        def population():
            edge, plain, fresh = (
                make_validator(protocol, arithmetic=arithmetic, partition=PARTITION)
                for _ in range(3)
            )
            assert edge.validate_read(reader, snap(13))
            assert edge.validate_read(cached, snap(10))  # cached, out of order
            assert plain.validate_read(reader, snap(13))
            return [plain, edge, fresh]

        batch, oracle = population(), population()
        assert [r.cycle for r in batch[1].records] == [13, 10]
        bucket = snap(14, marked=11)
        got = entry(batch, obj, bucket)
        want = [v.validate_read(obj, bucket) for v in oracle]
        assert list(got) == want
        # R-Matrix's first-read disjunct admits what the bound would have
        assert want == [True, protocol == "r-matrix", True]
        for vb, vo in zip(batch, oracle):
            assert vb.reads == vo.reads

    def test_inorder_variant_matches_general(self):
        import random as random_mod

        rng = random_mod.Random(7)
        batch = [FMatrixValidator() for _ in range(20)]
        oracle = [FMatrixValidator() for _ in range(20)]
        rng2 = random_mod.Random(7)
        snap = grow_history(batch, rng)
        grow_history(oracle, rng2)
        got = validate_read_batch_inorder(batch, 3, snap)
        want = validate_read_batch(oracle, 3, snap)
        assert list(got) == list(want)

    def test_empty_r_t_accepts(self):
        batch = [FMatrixValidator() for _ in range(10)]
        snap = snapshot_at(4, commits=[(2, [], [1, 5])])
        assert all(validate_read_batch(batch, 1, snap))
        for v in batch:
            assert [(r.obj, r.cycle) for r in v.records] == [(1, 4)]

    def test_r_matrix_disjunct(self):
        """Strict condition fails but the first-read state saves the read."""
        from repro.core.group_matrix import LastWriteVector

        vec = LastWriteVector(12)
        snap1 = ControlSnapshot(1, vector=vec.snapshot())
        batch = [RMatrixValidator() for _ in range(10)]
        oracle = [RMatrixValidator() for _ in range(10)]
        for v in batch + oracle:
            assert v.validate_read(0, snap1)
        # object 0 overwritten later; object 3 untouched since cycle 1
        vec.apply_commit(3, [], [0])
        snap2 = ControlSnapshot(5, vector=vec.snapshot())
        got = validate_read_batch(batch, 3, snap2)
        want = [v.validate_read(3, snap2) for v in oracle]
        assert list(got) == want
        assert all(got)  # the disjunct accepted every member

    def test_mixed_eligibility_falls_back_per_member(self):
        """Members of another protocol class use their scalar path inside
        a batch."""
        cm = ControlMatrix(12)
        cm.apply_commit(2, [], [1])
        snap = full_snapshot(4, cm)
        eligible, other = FMatrixValidator(), RMatrixValidator()
        oracle_a, oracle_b = FMatrixValidator(), RMatrixValidator()
        got = validate_read_batch([eligible, other], 6, snap)
        want = [oracle_a.validate_read(6, snap), oracle_b.validate_read(6, snap)]
        assert list(got) == want

    def test_shared_record_is_observably_identical(self):
        """Bucket members share one frozen ReadRecord instance."""
        batch = [FMatrixValidator() for _ in range(10)]
        snap = snapshot_at(3)
        validate_read_batch(batch, 4, snap)
        records = [v.records[0] for v in batch]
        assert all(r.obj == 4 and r.cycle == 3 for r in records)
        # frozen — sharing cannot leak state between clients
        with pytest.raises(Exception):
            records[0].cycle = 99

    def test_empty_batch(self):
        snap = snapshot_at(2)
        assert list(validate_read_batch([], 0, snap)) == []


class TestConfigValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="client_executor"):
            SimulationConfig(client_executor="threads")

    @pytest.mark.parametrize("protocol", ("f-matrix", "group-matrix"))
    def test_make_validator_round_trip(self, protocol):
        cfg = SimulationConfig(protocol=protocol, num_groups=4)
        v = make_validator(
            cfg.protocol, partition=cfg.partition()
        )
        assert v.name in ("f-matrix", "group-matrix")
