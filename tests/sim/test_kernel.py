"""The client kernel on its own (repro.sim.kernel): no Simulator, no calendar.

A hand-built sequence of broadcast images and a scripted clock drive one
:class:`ClientKernel` through every turn of the client step, asserting
the wait each method returns and the counters it leaves behind.  The
executors' oracle tests check that schedulers over the kernel reproduce
the per-process reference; these check the kernel's own contract.
"""

import tracemalloc
from array import array
from collections import deque
from math import log

import numpy as np

from repro.broadcast.layout import FlatLayout
from repro.broadcast.program import BroadcastCycle, ObjectVersion
from repro.client.cache import QuasiCache
from repro.core.validators import ControlSnapshot, make_validator, validate_read_batch
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.server.workload import UniformTape
from repro.sim import (
    BroadcastSimulation,
    ClientEnv,
    ClientKernel,
    DozeInterval,
    FaultPlan,
    FaultRuntime,
    MetricsCollector,
    SimulationConfig,
)

OBJECTS = 4
SLOT = 100  # slot ends at 100, 200, 300, 400 past each 400-bit cycle start
THINK = 250.0


class Script(UniformTape):
    """Stands in for the client's RNG tape and workload: scripted, in order."""

    def __init__(self, draws, transactions):
        super().__init__(seed=0)
        self.uniforms = array("d", draws)
        self.transactions = deque(transactions)

    @property
    def draws(self):
        """The scripted draws not consumed yet."""
        return self.uniforms[self.cursor :]

    def refill(self):
        raise AssertionError("the kernel drew past its script")

    def next_transaction(self):
        return self.transactions.popleft()


def image(cycle, entries=None):
    """Cycle ``cycle``'s broadcast: a control matrix, zero but for ``entries``."""
    matrix = np.zeros((OBJECTS, OBJECTS), dtype=np.int64)
    for (i, j), stamp in (entries or {}).items():
        matrix[i, j] = stamp
    versions = tuple(ObjectVersion(obj, f"v{cycle}", "init", 0) for obj in range(OBJECTS))
    return BroadcastCycle(cycle, versions, ControlSnapshot(cycle, matrix=matrix))


class OnAir:
    """Stands in for the timeline: the one image a test puts on the air,
    and every instant the clients run it on to."""

    def __init__(self):
        self.image = None
        self.advanced = []

    def advance_to(self, time):
        self.advanced.append(time)

    def broadcast(self, cycle):
        assert self.image is not None and self.image.cycle == cycle
        return self.image


def settle(kernel, time, on_air=None):
    """Fire the slot ending at ``time`` for ``kernel`` alone, ``on_air``
    the image broadcast (``None``: nothing may be read); returns the
    kernel's next wait."""
    kernel.env.on_air.image = on_air
    ((member, end),) = ClientKernel.settle(
        kernel.env, [kernel], time, kernel.cycle, validate_read_batch
    )
    assert member is kernel
    return end


def make_kernel(script, *, tracer=NULL_TRACER, **overrides):
    params = dict(
        protocol="f-matrix",
        num_objects=OBJECTS,
        client_txn_length=2,
        server_txn_length=2,
        mean_inter_operation_delay=THINK,
        num_client_transactions=len(script.transactions),
        cache_currency_bound=10_000.0,
    )
    params.update(overrides)
    config = SimulationConfig(**params)
    metrics = MetricsCollector()
    faults = None
    if config.faults is not None:
        faults = FaultRuntime(config.faults)
    env = ClientEnv(
        config=config,
        layout=FlatLayout(OBJECTS, SLOT),
        metrics=metrics,
        on_air=OnAir(),
        faults=faults,
        tracer=tracer,
    )
    validator = make_validator(config.protocol)
    cache = QuasiCache(config.cache_currency_bound)
    return ClientKernel(env, 0, script, validator, script, cache), metrics


def test_reject_restart_retune_staleness_commit():
    heard, lost, no_think = 0.9, 0.1, 0.0
    # a draw u makes the think time -log(1 - u) * mean, as expovariate does
    think_u = 0.6
    think = -log(1.0 - think_u) / (1.0 / THINK)
    assert 200 < think < 300  # the next read lands in the following cycle
    script = Script(
        [heard, think_u, heard, lost, heard, no_think, heard, heard, no_think,
         heard, no_think],
        [("t0", (0, 1))],
    )
    tracer = Tracer(64)
    kernel, metrics = make_kernel(
        script,
        tracer=tracer,
        modulo_timestamps=True,
        timestamp_bits=3,  # window 8: rejoining after >= 7 cycles is stale
        broadcast_loss_probability=0.5,
        restart_delay=50.0,
        faults=FaultPlan(doze=(DozeInterval(0, 1300.0, 2500.0),)),
    )
    cache = kernel.cache
    on_air = kernel.env.on_air

    # -- begin, first read: no think time, object 0's slot in cycle 1 ------
    kernel.begin(0.0)
    assert kernel.advance(0.0, True) == 100
    assert (kernel.obj, kernel.cycle, kernel.issue) == (0, 1, 0.0)
    # heard and delivered; a think time later object 1's cycle-1 slot is gone
    assert settle(kernel, 100, image(1)) == 600
    assert on_air.advanced == [100]  # the slot was heard: the image read
    assert (kernel.obj, kernel.cycle, kernel.issue) == (1, 2, 100 + think)
    assert metrics.reads_delivered == 1 and 0 in cache

    # -- reject: a cycle-1 commit overwrote what the first read saw --------
    assert settle(kernel, 600, image(2, {(0, 1): 1})) == 900
    assert metrics.reads_rejected == 1 and metrics.aborts_conflict == 1
    assert 0 not in cache and 1 not in cache  # every suspect evicted
    assert kernel.runtime.attempt == 1
    # the retry opens after restart_delay, again without a think time
    assert (kernel.obj, kernel.cycle, kernel.issue) == (0, 3, 650.0)

    # -- radio loss: one bit to re-tune, then the next appearance ----------
    assert settle(kernel, 900) == 1300
    assert metrics.broadcast_losses == 1
    assert on_air.advanced[-1] == 600  # a missed slot reads no image
    assert (kernel.cycle, kernel.issue) == (4, 901.0)

    # -- delivered in cycle 4, then the radio dozes through to 3800 --------
    assert settle(kernel, 1300, image(4)) == 3800
    assert (kernel.obj, kernel.cycle, kernel.issue) == (1, 10, 3800.0)
    # the slot ending at the wake instant was only half heard: charged to
    # the doze, and no loss randomness is consumed for it
    draws_left = len(script.draws)
    assert settle(kernel, 3800) == 4200
    assert metrics.doze_slots_missed == 1 and len(script.draws) == draws_left
    assert on_air.advanced[-1] == 1300

    # -- staleness: 7 cycles since the last delivery, R_t not empty --------
    assert settle(kernel, 4200, image(11)) == 4500
    assert metrics.reads_rejected == 2 and metrics.aborts_staleness == 1
    assert kernel.runtime.attempt == 2
    assert (kernel.obj, kernel.cycle, kernel.issue) == (0, 12, 4250.0)

    # -- commit: both reads in cycle 12, then the trailing delay -----------
    assert settle(kernel, 4500, image(12)) == 4600
    assert settle(kernel, 4600, image(12)) is None
    assert kernel.done and kernel.wake == 4600.0
    assert not script.draws  # every scripted draw consumed, none extra
    assert on_air.advanced == [100, 600, 1300, 4200, 4500, 4600]

    [sample] = metrics.samples
    assert (sample.tid, sample.submit_time, sample.commit_time, sample.restarts) == (
        "cl0.t0", 0.0, 4600.0, 2
    )
    assert metrics.reads_delivered == 4
    assert metrics.listening_bits == 6 * SLOT  # rejected reads were heard too
    assert metrics.cache_hits == 0
    assert [(s.start, s.end, s.name, s.status) for s in tracer.export()] == [
        (0.0, 600.0, "attempt", "conflict"),
        (650.0, 4200.0, "attempt", "staleness"),
        (4250.0, 4600.0, "attempt", "ok"),
        (0.0, 4600.0, "txn", "ok"),
    ]


def test_prevalidated_verdicts_and_the_cache_hit_chain(monkeypatch):
    """The read condition runs once per heard read and its verdict is
    applied as given, and a transaction the cache can serve completes
    inside the call that started it."""
    script = Script([0.0] * 4, [("t0", (0, 1)), ("t1", (1, 0)), ("t2", (2, 3))])
    kernel, metrics = make_kernel(script, restart_delay=1.0)
    first = image(1)
    validate_read = kernel.validator.validate_read
    verdicts = []

    def condition(obj, snapshot):
        verdicts.append(validate_read(obj, snapshot))
        return verdicts[-1]

    monkeypatch.setattr(kernel.validator, "validate_read", condition)

    kernel.begin(0.0)
    assert kernel.advance(0.0, True) == 100
    # the kernel validated (and thereby recorded) the read itself
    assert settle(kernel, 100, first) == 200
    assert verdicts == [True]
    # t0 commits at 200; t1 = (1, 0) is served from the cache on the spot,
    # commits at 200 too, and t2's first read seeks object 2's slot
    assert settle(kernel, 200, first) == 300
    assert verdicts == [True] * 4  # the slot's read and both cache hits
    assert (kernel.obj, kernel.cycle, kernel.txn_index) == (2, 1, 2)
    assert metrics.cache_hits == 2 and metrics.reads_delivered == 4
    assert metrics.listening_bits == 2 * SLOT  # cache hits cost no tuning
    assert [s.commit_time for s in metrics.samples] == [200.0, 200.0]
    assert not script.draws  # two think times, two inter-transaction delays

    # a rejection by the condition: nothing is re-validated, the attempt
    # restarts
    monkeypatch.setattr(kernel.validator, "validate_read", lambda obj, snap: False)
    assert settle(kernel, 300, first) == 700
    assert metrics.reads_rejected == 1 and metrics.aborts_conflict == 1
    assert kernel.runtime.attempt == 1 and kernel.cycle == 2


def test_a_begun_client_costs_bytes_not_a_generator():
    """1,024 cohort kernels, each begun and at its first slot wait, with a
    think time drawn: 2.5 KiB each at most.  That is the size of one
    Mersenne-Twister state, so a client holding a ``random.Random`` — or
    a per-client sampler, or a think chunk past MT's size — fails here;
    the two tapes, a validator, a runtime and the read sets stay under."""
    clients = 1024
    config = SimulationConfig(
        protocol="f-matrix",
        num_objects=16,
        client_txn_length=12,
        num_clients=clients,
        num_client_transactions=4,
        delay_before_first_operation=True,
        seed=1999,
    )
    simulation = BroadcastSimulation(config)
    env = simulation.client_env(MetricsCollector(), NULL_TRACER)
    simulation.kernel_for(env, clients).begin(0.0)  # warm the shared caches
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        kernels = [simulation.kernel_for(env, k) for k in range(clients)]
        for kernel in kernels:
            kernel.begin(0.0)
            kernel.advance(0.0, True)
        held = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert all(kernel.rng.cursor == 1 for kernel in kernels)
    assert held / clients <= 2.5 * 1024
