"""Isolated per-layer drivers: one public function in a loop, from outside.

Each driver generates its inputs from the workload seed, calls one public
``repro.*`` function (or one executor / path end to end) in a loop, and
reports the median over its batches together with a checksum.  For seeds
42 and 1999 the checksums are pinned in ``expected.json`` and a mismatch
is a failed operation, so a change that makes a layer faster by making
it wrong shows.  *Micro* drivers time microseconds over ``MICRO_BATCHES``
batches; *macro* drivers run whole simulations ``MACRO_BATCHES`` times
(once when ``quick``: the smoke run, and the contract entry point, which
has a time cap to stay inside).

Which end-to-end metric each number is predicted to move, on which
workload, is tabulated in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import pickle
import random
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.broadcast import FlatLayout
from repro.client import QuasiCache, ReadOnlyTransactionRuntime
from repro.core import (
    ControlMatrix,
    ControlSnapshot,
    GroupedControlState,
    ModuloCycles,
    UnboundedCycles,
    make_validator,
    uniform_partition,
)
from repro.core.validators import validate_read_batch_inorder
from repro.experiments.figures import fig4a_num_objects
from repro.scenarios import loads_scenario, result_signature
from repro.server import BroadcastServer, ServerWorkload, UpdateSubmission
from repro.sim import (
    TIMELINE_CACHE,
    BroadcastSimulation,
    FaultPlan,
    MetricsCollector,
    SimulationConfig,
    Simulator,
    Timeout,
    TimelineArena,
    run_simulation,
)

from . import load_expected
from .workloads import DENSE, MIXED_FLEET_DOZE, digest, mixed_fleet_document

__all__ = ["run_drivers", "MICRO_BATCHES", "MACRO_BATCHES"]

MICRO_BATCHES = 5
MACRO_BATCHES = 3

Metrics = Dict[str, float]
#: a timed batch: (seconds, checksum)
Batch = Tuple[float, Any]


def _wall(fn: Callable[[], Any]) -> Batch:
    start = perf_counter()
    checksum = fn()
    return perf_counter() - start, checksum


def _median(batches: int, fn: Callable[[], Batch]) -> Batch:
    """Median seconds over ``batches`` runs of ``fn``; the last checksum."""
    runs = [fn() for _ in range(batches)]
    return statistics.median(run[0] for run in runs), runs[-1][1]


def _dense(seed: int, clients: int, executor: str) -> SimulationConfig:
    """The dense config the reader workloads run, at 4 txns per client."""
    return SimulationConfig(
        num_clients=clients,
        num_client_transactions=4,
        client_executor=executor,
        seed=seed,
        **DENSE,
    )


def _update_specs(num_objects: int, seed: int, count: int) -> List[Any]:
    workload = ServerWorkload(num_objects, seed=seed)
    specs: List[Any] = []
    while len(specs) < count:
        spec = workload.next_transaction()
        if spec.write_set:
            specs.append(spec)
    return specs


# ----------------------------------------------------------------------
# micro drivers
# ----------------------------------------------------------------------

def server_workload(seed: int, batches: int) -> Tuple[Metrics, Any]:
    calls = 2000

    def batch() -> int:
        workload = ServerWorkload(300, length=8, read_probability=0.5, seed=seed)
        return sum(len(workload.next_transaction().write_set) for _ in range(calls))

    seconds, checksum = _median(batches, lambda: _wall(batch))
    return {"server.workload.next_transaction_us": seconds / calls * 1e6}, checksum


def server_server(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """``BroadcastServer`` at n=300 under f-matrix: commit, freeze, submit."""
    specs = _update_specs(300, seed, 300)
    writes = [{obj: spec.tid for obj in spec.write_set} for spec in specs]
    submissions = [
        # every read is of the upcoming cycle's value, so all validate
        UpdateSubmission(
            spec.tid,
            reads=tuple((obj, k + 2) for obj in spec.read_set),
            writes=tuple((obj, spec.tid) for obj in spec.write_set),
        )
        for k, spec in enumerate(specs)
    ]

    def commits() -> int:
        server = BroadcastServer(300, "f-matrix")
        for k, spec in enumerate(specs):
            server.commit_update(spec.tid, spec.read_set, writes[k], cycle=1 + k // 4)
        assert server.matrix is not None
        return int(server.matrix.array.sum())

    def cycles(dirty: bool) -> Batch:
        server = BroadcastServer(300, "f-matrix")
        spent = 0.0
        checksum = 0
        for cycle in range(1, 151):
            start = perf_counter()
            image = server.begin_cycle(cycle)
            spent += perf_counter() - start
            assert image.snapshot.matrix is not None
            checksum += int(image.snapshot.matrix[:, specs[cycle].write_set[0]].sum())
            if dirty:
                spec = specs[cycle]
                server.commit_update(spec.tid, spec.read_set, writes[cycle])
        return spent, checksum

    def submits() -> int:
        server = BroadcastServer(300, "f-matrix")
        return sum(
            server.submit_client_update(submission, cycle=k + 1).committed
            for k, submission in enumerate(submissions)
        )

    commit_s, commit_sum = _median(batches, lambda: _wall(commits))
    dirty_s, dirty_sum = _median(batches, lambda: cycles(True))
    quiet_s, _ = _median(batches, lambda: cycles(False))
    submit_s, committed = _median(batches, lambda: _wall(submits))
    return {
        "server.server.commit_update_us": commit_s / len(specs) * 1e6,
        "server.server.begin_cycle_dirty_us": dirty_s / 150 * 1e6,
        "server.server.begin_cycle_quiescent_us": quiet_s / 150 * 1e6,
        "server.server.submit_client_update_us": submit_s / len(specs) * 1e6,
    }, [commit_sum, dirty_sum, committed]


def control_state(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """``apply_commit`` on the full matrix (n=300, n=500) and 16 groups."""
    commits = 400
    metrics: Metrics = {}
    checksums = []
    cases: List[Tuple[str, int, Callable[[], Any]]] = [
        ("core.control_matrix.apply_commit_n300_us", 300, lambda: ControlMatrix(300)),
        ("core.control_matrix.apply_commit_n500_us", 500, lambda: ControlMatrix(500)),
        (
            "core.group_matrix.apply_commit_us",
            300,
            lambda: GroupedControlState(uniform_partition(300, 16)),
        ),
    ]
    for name, n, make in cases:
        rng = random.Random(seed + n)
        jobs = [
            (1 + k // 3, rng.sample(range(n), 4), rng.sample(range(n), 4))
            for k in range(commits)
        ]

        def batch() -> int:
            state = make()
            for cycle, reads, wrote in jobs:
                state.apply_commit(cycle, reads, wrote)
            return int(state.array.sum())

        seconds, checksum = _median(batches, lambda: _wall(batch))
        metrics[name] = seconds / commits * 1e6
        checksums.append(checksum)
    return metrics, checksums


def validators(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """The three validation tiers against one realistic n=300 matrix."""
    n = 300
    rng = random.Random(seed + 1)
    matrix = ControlMatrix(n)
    for k in range(200):
        matrix.apply_commit(
            1 + k // 5, rng.sample(range(n), 4), rng.sample(range(n), 4)
        )
    # every entry is <= 40, so reads anchored at cycles 48..50 all validate
    # and each sweep runs to its end (the worst, and common, case)
    modulo = ModuloCycles(8)
    wire = modulo.encode_array(matrix.snapshot())
    fresh = ControlSnapshot(cycle=50, matrix=wire)
    cached = ControlSnapshot(cycle=48, matrix=wire)
    plain = ControlSnapshot(cycle=50, matrix=matrix.snapshot())
    txns = 150

    def programs(length: int) -> List[List[int]]:
        return [rng.sample(range(n), length) for _ in range(txns)]

    scalar_programs = programs(6)
    scalar_validator = make_validator("f-matrix", arithmetic=modulo)

    def scalar() -> int:
        # modulo arithmetic; every other read is a cached, out-of-order one
        accepted = 0
        for program in scalar_programs:
            scalar_validator.begin()
            for k, obj in enumerate(program):
                snapshot = cached if k % 2 else fresh
                accepted += scalar_validator.validate_read(obj, snapshot)
        return accepted

    vector_programs = programs(12)
    vector_validator = make_validator("f-matrix", arithmetic=UnboundedCycles())

    def vector() -> int:
        accepted = 0
        for program in vector_programs:
            vector_validator.begin()
            for obj in program:
                accepted += vector_validator.validate_read(obj, plain)
        return accepted

    members = [
        make_validator("f-matrix", arithmetic=UnboundedCycles()) for _ in range(64)
    ]
    batch_programs = programs(12)[:20]

    def batch() -> int:
        accepted = 0
        for program in batch_programs:
            for member in members:
                member.begin()
            for obj in program:
                accepted += sum(validate_read_batch_inorder(members, obj, plain))
        return accepted

    scalar_s, scalar_ok = _median(batches, lambda: _wall(scalar))
    vector_s, vector_ok = _median(batches, lambda: _wall(vector))
    batch_s, batch_ok = _median(batches, lambda: _wall(batch))
    return {
        "core.validators.scalar_us_per_read": scalar_s / (txns * 6) * 1e6,
        "core.validators.vector_us_per_read": vector_s / (txns * 12) * 1e6,
        "core.validators.batch_us_per_read": batch_s / (20 * 12 * 64) * 1e6,
    }, [scalar_ok, vector_ok, batch_ok]


def cycles(seed: int, batches: int) -> Tuple[Metrics, Any]:
    rng = random.Random(seed + 2)
    arithmetic = ModuloCycles(8)
    triples = []
    for _ in range(5000):
        reference = rng.randrange(1, 5000)
        triples.append(
            (rng.randrange(256), reference - rng.randrange(0, 200), reference)
        )

    def batch() -> int:
        less = arithmetic.less_encoded_absolute
        return sum(less(a, b, reference=ref) for a, b, ref in triples)

    seconds, checksum = _median(batches, lambda: _wall(batch))
    return {"core.cycles.modulo_less_us": seconds / len(triples) * 1e6}, checksum


def layout(seed: int, batches: int) -> Tuple[Metrics, Any]:
    rng = random.Random(seed + 3)
    flat = SimulationConfig().layout()
    assert isinstance(flat, FlatLayout)
    queries = [
        (rng.randrange(300), rng.uniform(0, 50 * flat.cycle_bits))
        for _ in range(5000)
    ]

    def batch() -> int:
        return sum(flat.next_read(obj, time).cycle for obj, time in queries)

    seconds, checksum = _median(batches, lambda: _wall(batch))
    return {"broadcast.layout.next_read_us": seconds / len(queries) * 1e6}, checksum


def client(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """``ReadOnlyTransactionRuntime.deliver`` and the quasi-cache."""
    rng = random.Random(seed + 4)
    image = BroadcastServer(300, "f-matrix").begin_cycle(1)
    validator = make_validator("f-matrix")
    programs = [rng.sample(range(300), 4) for _ in range(500)]

    def deliver() -> int:
        delivered = 0
        for k, program in enumerate(programs):
            runtime = ReadOnlyTransactionRuntime(f"t{k}", program, validator)
            for _ in program:
                delivered += runtime.deliver(image).ok
        return delivered

    probes = [(rng.randrange(128), 16384.0 * k) for k in range(4000)]

    def cache() -> int:
        quasi = QuasiCache(2.0e6, capacity=32)
        for obj, now in probes:
            if quasi.lookup(obj, now) is None:
                quasi.insert(image, obj, now)
        return quasi.hits

    deliver_s, delivered = _median(batches, lambda: _wall(deliver))
    cache_s, hits = _median(batches, lambda: _wall(cache))
    return {
        "client.runtime.deliver_us": deliver_s / (len(programs) * 4) * 1e6,
        "client.cache.lookup_insert_us": cache_s / len(probes) * 1e6,
    }, [delivered, hits]


def engine(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """512 generator processes yielding ``Timeout``s: no protocol work."""
    rng = random.Random(seed + 5)
    delays = [[rng.expovariate(1 / 4096.0) for _ in range(40)] for _ in range(512)]

    def process(gaps: List[float]) -> Any:
        for gap in gaps:
            yield Timeout(gap)

    events = 0

    def batch() -> float:
        nonlocal events
        sim = Simulator()
        for gaps in delays:
            sim.spawn(process(gaps))
        stop = sim.run()
        events = sim.events_processed
        return stop

    seconds, checksum = _median(batches, lambda: _wall(batch))
    return {"sim.engine.null_events_per_s": events / seconds}, [events, checksum]


def metrics_collector(seed: int, batches: int) -> Tuple[Metrics, Any]:
    rng = random.Random(seed + 6)
    samples = [
        (f"cl{k}.c1", rng.uniform(0, 1e6), rng.uniform(1e6, 2e6), rng.randrange(3))
        for k in range(32768)
    ]

    def filled(offset: int) -> MetricsCollector:
        collector = MetricsCollector()
        for tid, submit, commit, restarts in samples:
            collector.record_commit(tid, submit + offset, commit + offset, restarts)
        return collector

    merged = MetricsCollector()
    other = filled(1)

    def record() -> int:
        nonlocal merged
        merged = filled(0)
        return merged.commit_count

    def merge() -> int:
        merged.merge_from(other)
        return merged.commit_count

    def summary() -> float:
        return merged.response_time(0.5).mean + merged.restart_ratio(0.5).mean

    # each batch merges the second half into a freshly recorded first half
    record_runs, merge_runs = [], []
    for _ in range(batches):
        record_runs.append(_wall(record)[0])
        merge_runs.append(_wall(merge))
    record_s = statistics.median(record_runs)
    merge_s, count = statistics.median(run[0] for run in merge_runs), merge_runs[-1][1]
    summary_s, checksum = _median(batches, lambda: _wall(summary))
    return {
        "sim.metrics.record_commit_us": record_s / len(samples) * 1e6,
        "sim.metrics.merge_from_ms": merge_s * 1e3,
        "sim.metrics.summary_ms": summary_s * 1e3,
    }, [count, checksum]


def arena(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """Seal, share, attach and read back one recorded dense-config timeline."""
    recording = BroadcastSimulation(_dense(seed, 256, "cohort"), record_timeline=True)
    stop, _events = recording.execute()

    def lifecycle() -> Tuple[List[float], Any]:
        seal_s, timeline = _wall(lambda: recording.seal_timeline(stop))
        cycles = range(1, timeline.num_cycles + 1)
        try:
            share_s, handle = _wall(timeline.share)
            shape, dtype, offset = handle.blocks[-1]
            segment = offset + int(np.prod(shape)) * np.dtype(dtype).itemsize
            attach_s, attached = _wall(lambda: TimelineArena.attach(handle))
            try:
                view = attached.view()
                view_s, checksum = _wall(
                    lambda: sum(view.broadcast(c).snapshot.cycle for c in cycles)
                )
            finally:
                attached.close_shared()
        finally:
            timeline.close_shared()
        return [seal_s, share_s, attach_s, view_s / len(cycles)], [
            len(cycles),
            segment,
            checksum,
        ]

    runs = [lifecycle() for _ in range(batches)]
    seal_s, share_s, attach_s, view_s = (
        statistics.median(column) for column in zip(*(run[0] for run in runs))
    )
    checksum = runs[-1][1]
    return {
        "sim.arena.from_images_ms": seal_s * 1e3,
        "sim.arena.share_ms": share_s * 1e3,
        "sim.arena.attach_ms": attach_s * 1e3,
        "sim.arena.view_broadcast_us": view_s * 1e6,
        "sim.arena.segment_kb": checksum[1] / 1024,
    }, checksum


def faults_and_scenarios(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """The two set-up costs ``mixed-fleet`` pays: fault plan, document parse."""

    def plan() -> int:
        return len(FaultPlan.seeded(seed, num_clients=512, **MIXED_FLEET_DOZE).doze)

    document = mixed_fleet_document(seed, 512)

    def parse() -> int:
        return len(loads_scenario(document, fmt="json").protocols)

    plan_s, intervals = _median(batches, lambda: _wall(plan))
    parse_s, protocols = _median(batches, lambda: _wall(parse))
    return {
        "sim.faults.plan_build_ms": plan_s * 1e3,
        "scenarios.loads_scenario_ms": parse_s * 1e3,
    }, [intervals, protocols]


# ----------------------------------------------------------------------
# macro drivers
# ----------------------------------------------------------------------

def _same_signature(runs: Dict[str, Batch]) -> str:
    digests = {name: checksum for name, (_seconds, checksum) in runs.items()}
    if len(set(digests.values())) != 1:
        raise AssertionError(f"signatures differ across paths: {digests}")
    return next(iter(digests.values()))


def _simulate(config: SimulationConfig) -> str:
    return digest(result_signature(run_simulation(config)))


def executors(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """The dense config at 1024 clients x 4 txns under each executor."""
    base = _dense(seed, 1024, "process")
    runs = {
        name: _median(
            batches, lambda: _wall(lambda: _simulate(base.replace(client_executor=name)))
        )
        for name in ("process", "cohort", "analytic")
    }
    kilo_txns = 1024 * 4 / 1000
    return {
        f"sim.{'processes' if name == 'process' else name}.ms_per_1k_txn": (
            seconds * 1e3 / kilo_txns
        )
        for name, (seconds, _digest) in runs.items()
    }, _same_signature(runs)


def shard(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """The ``sharded-replay`` config at 1/4 population through each path."""
    base = _dense(seed, 2048, "analytic")
    replay = base.replace(shards=2, timeline_mode="replay")

    def cold() -> str:
        TIMELINE_CACHE.clear()
        return _simulate(replay)

    runs = {
        "unsharded": _median(batches, lambda: _wall(lambda: _simulate(base))),
        "recompute": _median(
            batches, lambda: _wall(lambda: _simulate(base.replace(shards=2)))
        ),
        "replay_cold": _median(batches, lambda: _wall(cold)),
        # the cold run above left its arena in the cache
        "replay_warm": _median(batches, lambda: _wall(lambda: _simulate(replay))),
    }
    TIMELINE_CACHE.clear()
    return {
        f"sim.shard.{name}_s": seconds for name, (seconds, _digest) in runs.items()
    }, _same_signature(runs)


def sweeps(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """The fig4a grid at 24 transactions, sequentially and through the pool."""

    def sweep(workers: Any) -> str:
        result = fig4a_num_objects(24, seed=seed, workers=workers)
        return digest(
            {
                protocol: [series.response_means, series.restart_means]
                for protocol, series in result.series.items()
            }
        )

    runs = {
        "sequential": _median(batches, lambda: _wall(lambda: sweep(None))),
        "parallel": _median(batches, lambda: _wall(lambda: sweep(2))),
    }
    point = run_simulation(SimulationConfig(num_client_transactions=24, seed=seed))
    return {
        "experiments.sweeps.sequential_s": runs["sequential"][0],
        "experiments.sweeps.parallel_s": runs["parallel"][0],
        "experiments.sweeps.parallel_speedup": (
            runs["sequential"][0] / runs["parallel"][0]
        ),
        "experiments.sweeps.result_pickle_kb": len(pickle.dumps(point)) / 1024,
    }, _same_signature(runs)


def obs(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """In-program tracer on / off on the dense config, 1024 cohort clients."""
    base = _dense(seed, 1024, "cohort")
    runs = {
        "untraced": _median(batches, lambda: _wall(lambda: _simulate(base))),
        "traced": _median(
            batches, lambda: _wall(lambda: _simulate(base.replace(tracing=True)))
        ),
    }
    return {
        "obs.tracer.overhead_ratio": runs["traced"][0] / runs["untraced"][0]
    }, _same_signature(runs)


def analysis(seed: int, batches: int) -> Tuple[Metrics, Any]:
    """The invariant auditor's cost on a 20-transaction Table-1 f-matrix run.

    Twenty, not more: the audit is superlinear in the run length (about
    1 s here, over a minute at 100 transactions).
    """
    base = SimulationConfig(num_client_transactions=20, seed=seed)

    def audited() -> str:
        result = run_simulation(base.replace(audit=True))
        if result.audit_report is None or not result.audit_report.ok:
            raise AssertionError("audited run reported invariant violations")
        return digest(result_signature(result))

    runs = {
        "plain": _median(batches, lambda: _wall(lambda: _simulate(base))),
        "audited": _median(batches, lambda: _wall(audited)),
    }
    return {
        "analysis.audit_s": runs["audited"][0] - runs["plain"][0]
    }, _same_signature(runs)


MICRO = (
    server_workload,
    server_server,
    control_state,
    validators,
    cycles,
    layout,
    client,
    engine,
    metrics_collector,
    arena,
    faults_and_scenarios,
)
MACRO = (executors, shard, sweeps, obs, analysis)


def run_drivers(seed: int, *, quick: bool = False) -> Dict[str, Any]:
    """Every isolated driver once; metrics and checksums by driver name.

    One operation per driver: it fails when its checksum differs from the
    pin for this seed (unpinned seeds only report theirs).
    """
    metrics: Metrics = {}
    checksums: Dict[str, Any] = {}
    macro_batches = 1 if quick else MACRO_BATCHES
    for group, batches in ((MICRO, MICRO_BATCHES), (MACRO, macro_batches)):
        for driver in group:
            values, checksum = driver(seed, batches)
            metrics.update(values)
            # as JSON reads it back, so it compares equal to its pin
            checksums[driver.__name__] = json.loads(json.dumps(checksum))
    pinned = load_expected()["driver_checksums"].get(str(seed), {})
    failures = [
        f"driver {name}: checksum {checksum} differs from pin {pinned.get(name)}"
        for name, checksum in checksums.items()
        if pinned and checksum != pinned.get(name)
    ]
    return {
        "metrics": metrics,
        "checksums": checksums,
        "pinned": bool(pinned),
        "attempted": len(checksums),
        "failed": len(failures),
        "failures": failures,
        "micro_batches": MICRO_BATCHES,
        "macro_batches": macro_batches,
    }
