"""The broadcast timeline (repro.sim.timeline): order, doors, and pins.

The server side of a run is a function of time, computed on demand.
What makes that safe is that it fires same-instant events in the order a
discrete-event engine hosting the cycle, completion and crash streams as
processes would — and these tests hold it there: unit tests of each tie
on a bare timeline, and ``result_signature`` digests of whole runs whose
timelines are full of ties, computed on the engine-driven implementation
this one replaced and pinned as literals.  Each pinned run also audits
clean and certifies update-consistent.
"""

import ast
import gc
import hashlib
import json
import math
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import audit_context, context_from_simulation
from repro.broadcast.control_info import snapshot_payload
from repro.core.validators import PROTOCOL_NAMES
from repro.analysis.consistency import certify_update_consistency
from repro.scenarios import result_signature
from repro.server.validation import UpdateSubmission
from repro.sim import (
    FaultPlan,
    FaultRuntime,
    MetricsCollector,
    ServerCrash,
    SimulationConfig,
    run_simulation,
)
from repro.sim.timeline import LiveTimeline, fold_journal

from tests.conftest import reference_run

SIM_SRC = Path(__file__).resolve().parents[2] / "src" / "repro" / "sim"


def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def bare(faults=None, **overrides):
    """A timeline on its own, no clients: (timeline, cycle_bits)."""
    params = dict(num_objects=10, object_size_bits=128, server_read_probability=0.0)
    params.update(overrides)
    config = SimulationConfig(**params)
    runtime = None
    if faults is not None:
        runtime = FaultRuntime(faults)
    timeline = LiveTimeline(
        config, config.layout(), faults=runtime, keep_images=True
    )
    return timeline, config.cycle_bits


def writers(image):
    return {version.writer for version in image.versions}


def counters(timeline):
    """What the timeline counted so far: its journal, folded."""
    metrics = MetricsCollector()
    fold_journal(metrics, timeline.journal, upto=math.inf)
    return metrics


class TestSameInstantOrder:
    def test_a_completion_on_a_boundary_commits_in_the_cycle_it_opens(self):
        # one completion per cycle, each exactly on a boundary: the
        # boundary was scheduled first, so its image misses the commit
        _, cycle_bits = bare()
        timeline, _ = bare(
            server_txn_interval=float(cycle_bits),
            server_interval_distribution="deterministic",
        )
        timeline.advance_to(3 * cycle_bits)
        cycles = [record.commit_cycle for record in timeline.server.database.commit_log]
        assert cycles == [2, 3, 4]
        assert writers(timeline.broadcast(2)) == {"t0"}
        assert "s1" in writers(timeline.broadcast(3))
        assert "s2" not in writers(timeline.broadcast(3))

    def test_crash_on_a_boundary(self):
        """On the first boundary the boundary fires first (it was
        scheduled at t = 0, before the crash); on a later one the crash
        does, and the boundary is dead air until recovery re-issues it."""
        quiet = dict(server_txn_interval=1e12)
        _, cycle_bits = bare(**quiet)
        first, _ = bare(FaultPlan(crashes=(ServerCrash(cycle_bits, cycle_bits),)), **quiet)
        first.advance_to(cycle_bits)
        assert sorted(first.images) == [1, 2]
        later, _ = bare(
            FaultPlan(crashes=(ServerCrash(2 * cycle_bits, cycle_bits),)), **quiet
        )
        later.advance_to(2 * cycle_bits)
        assert sorted(later.images) == [1, 2]
        # the recovery at 3 cycles comes before the boundary there, which
        # it has already re-issued
        later.advance_to(3 * cycle_bits)
        assert sorted(later.images) == [1, 2, 4]
        assert counters(later).quiescent_replay_cycles == 2
        assert counters(later).cycles_broadcast == 3
        with pytest.raises(RuntimeError, match="no broadcast image"):
            later.broadcast(3)

    def test_recovery_reissues_the_cycle_in_progress_mid_cycle(self):
        quiet = dict(server_txn_interval=1e12)
        _, cycle_bits = bare(**quiet)
        timeline, _ = bare(
            FaultPlan(crashes=(ServerCrash(1.5 * cycle_bits, 2 * cycle_bits),)), **quiet
        )
        timeline.advance_to(3.49 * cycle_bits)
        assert max(timeline.images) == 2
        timeline.advance_to(3.5 * cycle_bits)
        assert max(timeline.images) == 4 and 3 not in timeline.images
        assert counters(timeline).server_crashes == 1


class TestUplinkDoor:
    """Completions wait in a batch until the server is observed, so every
    read below goes through ``timeline.server`` after advancing — a
    database handle kept from before may lag (the flush contract)."""

    def test_a_completion_at_the_arrival_instant_commits_first(self):
        timeline, _ = bare(
            server_txn_interval=1000.0, server_interval_distribution="deterministic"
        )
        timeline.advance_to(2999.0)
        log = timeline.server.database.commit_log
        assert [record.txn for record in log] == ["s1", "s2"]
        submission = UpdateSubmission("cl0.c1", reads=(), writes=((0, "x"),))
        assert timeline.uplink(3000.0, 0, submission) == "ok"
        log = timeline.server.database.commit_log
        assert [record.txn for record in log] == ["s1", "s2", "s3", "cl0.c1"]

    def test_the_server_is_down_from_the_crash_to_the_recovery(self):
        plan = FaultPlan(crashes=(ServerCrash(5000.0, 2000.0),))
        timeline, _ = bare(plan, server_txn_interval=1e12)
        submission = UpdateSubmission("cl0.c1", reads=(), writes=((0, "x"),))
        assert timeline.uplink(4999.0, 0, submission) == "ok"
        assert timeline.uplink(5000.0, 0, submission) == "crash"
        assert timeline.uplink(6999.0, 0, submission) == "crash"
        assert timeline.uplink(7000.0, 0, submission) == "ok"

    def test_a_stale_read_is_a_conflict(self):
        timeline, _ = bare(
            server_txn_interval=1000.0, server_interval_distribution="deterministic"
        )
        timeline.advance_to(1000.0)
        written = timeline.server.database
        obj = next(o for o in range(10) if written.committed(o).writer == "s1")
        stale = UpdateSubmission("cl0.c1", reads=((obj, 1),), writes=((obj, "x"),))
        assert timeline.uplink(1000.0, 0, stale) == "conflict"


def test_a_finished_run_frees_its_timeline_without_the_cyclic_collector():
    """The streams refer back to their timeline; a run closes it at its
    end, so its server, images and log go with their last reference — in
    a sweep, before the next run allocates — and the result keeps only
    the server, every completion installed."""
    created = []
    original = LiveTimeline.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(weakref.ref(self))

    config = SimulationConfig(num_objects=20, num_client_transactions=5, seed=4)
    gc.disable()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LiveTimeline, "__init__", recording_init)
            result = run_simulation(config)
        assert len(created) == 1
        assert created[0]() is None
        commits = result.metrics.server_commits
        assert commits > 0 and len(result.server.database.commit_log) == commits
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# any partition of an advance gives the same history
# ----------------------------------------------------------------------
#: the horizon of every partitioned advance, in cycles
CYCLES = 12


def history(timeline):
    """Everything a timeline has done: its journal, the commit log, every
    retained image (cycle, versions, control payload values) and the live
    control columns."""
    journal = {name: list(at) for name, at in timeline.journal.items() if at}
    server = timeline.server
    images = [
        (cycle, image.cycle, image.versions, snapshot_payload(image.snapshot)[1].tolist())
        for cycle, image in timeline.images.items()
    ]
    state = server.matrix or server.grouped
    live = [c.tolist() for c in state.columns] if state else server.vector.array.tolist()
    return journal, server.database.commit_log, images, live


@st.composite
def partitioned_advances(draw):
    """A timeline's config and fault plan, and the cuts of one advance to
    the horizon: instants drawn in it, cycle boundaries, and (by index,
    resolved against the run) completion instants."""
    protocol = draw(st.sampled_from(PROTOCOL_NAMES))
    deterministic = draw(st.booleans())
    _, cycle_bits = bare()
    overrides = dict(
        protocol=protocol,
        num_groups=4,
        server_read_probability=0.5,
        server_txn_length=3,
        # a quarter cycle, exact in binary: deterministic completions tie
        # with every boundary
        server_txn_interval=cycle_bits / 4 if deterministic else cycle_bits / 3,
        server_interval_distribution="deterministic" if deterministic else "exponential",
        seed=draw(st.integers(0, 2**16)),
    )
    plan = None
    if draw(st.booleans()):
        at = draw(st.integers(1, CYCLES - 3)) + draw(st.sampled_from([0.0, 0.5]))
        downtime = draw(st.sampled_from([1.0, 1.5, 2.0]))
        plan = FaultPlan(crashes=(ServerCrash(at * cycle_bits, downtime * cycle_bits),))
    cut = st.one_of(
        st.tuples(st.just("instant"), st.floats(0.0, 1.0)),
        st.tuples(st.just("boundary"), st.integers(1, CYCLES)),
        st.tuples(st.just("completion"), st.integers(0, 10**6)),
    )
    return overrides, plan, draw(st.lists(cut, max_size=25)), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(case=partitioned_advances())
def test_any_partition_of_an_advance_gives_the_same_history(case):
    """One ``advance_to(T)`` against the same advance cut anywhere — on
    boundaries, on completion instants, in between — and, when ``observe``,
    the server read at every cut (which flushes the pending batch early).
    After each cut the journal holds exactly the events at or before it,
    so an advance never runs ahead of its bound."""
    overrides, plan, cuts, observe = case
    whole, cycle_bits = bare(plan, **overrides)
    horizon = CYCLES * cycle_bits
    whole.advance_to(horizon)
    expected = history(whole)
    events = expected[0]
    completions = sorted(events.get("server_commits", []) + events.get("server_txns_lost", []))
    instants = []
    for kind, value in cuts:
        if kind == "instant":
            instants.append(value * horizon)
        elif kind == "boundary":
            instants.append(value * cycle_bits)
        elif completions:
            instants.append(completions[value % len(completions)])
    assert all(at <= horizon for times in events.values() for at in times)

    parts, _ = bare(plan, **overrides)
    for instant in sorted(instants) + [horizon]:
        parts.advance_to(instant)
        done = {name: [at for at in times if at <= instant] for name, times in events.items()}
        assert {name: list(at) for name, at in parts.journal.items() if at} == {
            name: times for name, times in done.items() if times
        }
        if observe:
            parts.server
    assert history(parts) == expected


# ----------------------------------------------------------------------
# whole runs full of ties, pinned
# ----------------------------------------------------------------------
#: the history-level audit gates (a 1,000-transaction Table-1 run's cycle
#: images are too large to keep for the image-level ones)
GATES = ("validation-soundness", "update-serializability", "commit-log-order")


def deterministic_table1():
    """Completion 7,944 lands exactly on the boundary opening cycle 626
    (lcm(3,177,600, 250,000) bit-units), and again at cycles 1,251 and
    1,876.  Its one reader never reads what those ties decide — the
    digest holds with the ties flipped; every boundary of
    :func:`uplink_ties` ties too, and there a flip fails the pin and the
    audit."""
    return SimulationConfig(
        protocol="f-matrix",
        server_interval_distribution="deterministic",
        num_client_transactions=1000,
        seed=42,
    )


SWEEP = dict(
    protocol="f-matrix",
    num_objects=16,
    object_size_bits=512,
    timestamp_bits=4,
    modulo_timestamps=True,
    num_clients=2,
    num_update_clients=1,
    client_update_fraction=0.4,
    num_client_transactions=4,
    client_txn_length=3,
    server_txn_length=4,
    mean_inter_operation_delay=4000.0,
    mean_inter_transaction_delay=8000.0,
    server_txn_interval=20000.0,
    seed=11,
)


def crash_sweep():
    """One run per cycle boundary k of the fault-free run: a crash at the
    boundary and a downtime of one or two whole cycles, so the recovery
    falls on a boundary too."""
    base = SimulationConfig(**SWEEP)
    cycle_bits = base.cycle_bits
    boundaries = int(run_simulation(base).sim_time // cycle_bits)
    return [
        base.replace(
            faults=FaultPlan(
                crashes=(ServerCrash(k * cycle_bits, (1 + k % 2) * cycle_bits),)
            )
        )
        for k in range(1, boundaries + 1)
    ]


def uplink_ties():
    """Slots end on multiples of 512 bits (448-bit objects, 64 bits of
    control), an uplink arrival half the fixed round trip (4,096) later,
    and completions fall on multiples of 1,024: half the arrivals coincide
    with a completion, which commits first."""
    return SimulationConfig(
        protocol="f-matrix",
        num_objects=8,
        object_size_bits=448,
        num_clients=2,
        client_update_fraction=0.5,
        num_client_transactions=10,
        client_txn_length=2,
        server_txn_length=2,
        mean_inter_operation_delay=2000.0,
        mean_inter_transaction_delay=4000.0,
        server_txn_interval=1024.0,
        server_interval_distribution="deterministic",
        seed=3,
    )


#: ``digest(result_signature(run))`` — one run, or a list of them — for
#: the cases above, under the engine-driven timeline this one replaced
#: (the tree before the change that made the timeline a function of
#: time; "uplink-ties" was re-taken there once the uplink round trip
#: became the fixed repro.sim.config.UPLINK_ROUND_TRIP)
PINS = {
    "table1-deterministic": (
        "d890a2b3900a0e084e78ac9625f1e69e91ec209c3692f4560a6c0e1716126c48"
    ),
    "crash-sweep": "d5704c0d0fd437237a118b80f2594eaa99d2c017f90de8b99d4b7d945bafa8ab",
    "uplink-ties": "342cfccc9d7fad40f18418f0b8424ce1c0e33bf115373e51e04dbae41bab2a2a",
}


def assert_certifies(result):
    report = certify_update_consistency(
        result.trace.transactional_history(result.server.database)
    )
    assert report.ok, report.format()
    assert report.reader_verdicts


class TestPinnedTies:
    def test_boundary_ties_of_a_deterministic_table1_run(self):
        result = run_simulation(deterministic_table1(), collect_trace=True)
        assert result.sim_time == pytest.approx(6.736e9, rel=1e-3)
        assert digest(result_signature(result)) == PINS["table1-deterministic"]
        ctx = context_from_simulation(result)
        report = audit_context(ctx, invariants=GATES)
        assert report.ok, report.format()
        assert certify_update_consistency(ctx.history).ok
        reference = reference_run(deterministic_table1())
        assert digest(result_signature(reference)) == PINS["table1-deterministic"]

    def test_a_crash_at_every_cycle_boundary(self):
        configs = crash_sweep()
        assert len(configs) == 12
        results = [run_simulation(config.replace(audit=True)) for config in configs]
        for result in results:
            assert result.metrics.server_crashes == 1
            assert result.audit_report.ok, result.audit_report.format()
            assert_certifies(result)
        signatures = [result_signature(result) for result in results]
        assert digest(signatures) == PINS["crash-sweep"]
        references = [result_signature(reference_run(c)) for c in configs]
        assert digest(references) == PINS["crash-sweep"]

    def test_completions_at_uplink_arrivals(self):
        result = run_simulation(uplink_ties().replace(audit=True))
        assert result.metrics.client_updates_committed > 0
        assert result.audit_report.ok, result.audit_report.format()
        assert_certifies(result)
        assert digest(result_signature(result)) == PINS["uplink-ties"]
        reference = reference_run(uplink_ties())
        assert digest(result_signature(reference)) == PINS["uplink-ties"]


# ----------------------------------------------------------------------
# the engine edge
# ----------------------------------------------------------------------
def imported_modules(path):
    """Every module an ``import`` statement in ``path`` names, resolved
    against the ``repro.sim`` package for relative imports."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = ["repro", "sim"][: 3 - node.level] if node.level else []
            base = ".".join(package + ([node.module] if node.module else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["faults.py", "kernel.py", "timeline.py"])
def test_the_server_side_and_the_client_step_never_import_the_engine(module):
    names = imported_modules(SIM_SRC / module)
    assert names  # the walk saw the module's imports
    assert "repro.sim.engine" not in names


#: what a slot means to a client — heard, the staleness guard, the read
#: condition, the image — is the kernel's (ClientKernel.settle)
CLIENT_INTERNALS = {
    "runtime", "stale", "heard", "retune", "validate_read", "advance_to", "broadcast"
}


@pytest.mark.parametrize("module", ["cohort.py"])
def test_the_calendar_touches_no_client_internals(module):
    tree = ast.parse((SIM_SRC / module).read_text())
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "settle" in attrs  # the walk saw the calendar hand buckets over
    assert not attrs & CLIENT_INTERNALS
