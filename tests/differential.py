"""The differential harness: every way to run a configuration, one oracle.

The paper's contract — update transactions serializable, every reader
serializable against its LIVE set (Theorems 1, 3 and 9) — must not
depend on *how* a run is executed.  Three executors, one or two shards,
a recomputed or a replayed timeline, tracing on or off: each is a
scheduling choice, and each must reproduce the per-process reference
(``tests/conftest.py::reference_run``) bit for bit.

* :func:`signature` — everything observable about a run;
* :func:`run` — the one dispatcher from a config to a result;
* :func:`admissible` — every setting a config can be driven through,
  asked of :class:`~repro.sim.config.SimulationConfig` itself (a setting
  it refuses with ``ValueError`` is not one);
* :func:`check` — every admissible setting against the reference: equal
  signatures, no more events on the kernel's unsharded paths, spans
  that reconcile with the counters, and — wherever the run keeps one
  global trace — the reference's history, which audits clean and
  certifies update-consistent (Biswas–Enea);
* :func:`check_modulo` — the run against its twin with
  ``modulo_timestamps`` flipped: equal wherever the staleness guard is
  silent (Sec. 3.2.1's bound makes the modulo wire exact).

:data:`CORPUS` names every configuration an equivalence test has used;
:func:`documents` generates valid scenario documents.  Both are driven
by ``tests/sim/test_differential.py``: a new equivalence case is a
corpus row, not a new test file.  The executor, fault, shard and
observability test modules keep their named equivalence tests as
narrowed ``check`` calls on corpus rows (one executor, a shard count,
a timeline mode).
"""

import itertools
from collections import Counter
from unittest import mock

from hypothesis import strategies as st

from repro.analysis.consistency import certify_update_consistency
from repro.core.validators import PROTOCOL_NAMES
from repro.scenarios import result_signature
from repro.scenarios.schema import SCENARIO_FORMAT_VERSION
from repro.sim import analytic, schedule
from repro.sim.config import EXECUTORS, SimulationConfig
from repro.sim.faults import DozeInterval, FaultPlan, ServerCrash
from repro.sim.shard import run_sharded
from repro.sim.simulation import run_simulation

from tests.conftest import reference_run

#: the execution settings
AXES = {
    "client_executor": EXECUTORS,
    "shards": (1, 2),
    "timeline_mode": ("recompute", "replay"),
    "tracing": (False, True),
}

#: the reference's setting, untraced and traced: each run the oracle
REFERENCE = dict(client_executor="process", shards=1, timeline_mode="recompute")

#: readers per wave under the harness, patched, not configured: the
#: analytic executor's (``repro.sim.analytic.WAVE``), so any run with four
#: readers spans waves, and the bound on a wave the schedule model
#: chooses (``repro.sim.schedule``)
WAVE = 3


def signature(result):
    """Everything observable about a run, commit order normalised.

    Commits are a sorted multiset: within one simulated instant two
    executors may interleave *different clients'* commits differently
    (client state is private), which permutes the samples without
    changing any.  Engine events are left out — they count client
    scheduling, which is what the executors differ in.
    """
    m = result.metrics
    return {
        "commits": sorted(
            (s.tid, s.submit_time, s.commit_time, s.restarts) for s in m.samples
        ),
        "counters": m.counters(),
        "sim_time": result.sim_time,
        "response_mean": result.response_time.mean,
        "restart_mean": result.restart_ratio.mean,
        "spans": result.spans,  # None unless the config traces
    }


def run(cfg, **run_kwargs):
    """``cfg``'s result: the reference through ``reference_run``, a sharded
    or replayed run through the shard layer in-process, the rest through
    ``run_simulation``."""
    if cfg.client_executor == "process":
        return reference_run(cfg, **run_kwargs)
    if cfg.shards > 1 or cfg.timeline_mode == "replay":
        # a split run keeps no global trace to collect
        assert not run_kwargs.get("collect_trace")
        return run_sharded(cfg, workers=0)
    return run_simulation(cfg, **run_kwargs)


def admissible(cfg, **axes):
    """``cfg`` under every combination of :data:`AXES` the config accepts.

    ``axes`` narrows an axis to one value or a tuple of values, which
    need not be among :data:`AXES`' (``shards=3``).
    """
    values = dict(AXES)
    for axis, value in axes.items():
        values[axis] = value if isinstance(value, tuple) else (value,)
    settings = []
    for combination in itertools.product(*values.values()):
        try:
            settings.append(cfg.replace(**dict(zip(values, combination))))
        except ValueError:
            continue  # refused by the config: not a setting of this run
    return settings


def describe(setting):
    return ", ".join(f"{axis}={getattr(setting, axis)!r}" for axis in AXES)


def reconcile(result):
    """A traced run's span counts equal the counters they illustrate."""
    m = result.metrics
    assert result.spans_dropped == 0
    count = Counter((s.track, s.name, s.status) for s in result.spans)
    attempts = {cause: count["client", "attempt", cause] for cause in m.abort_causes}
    assert count["client", "txn", "ok"] == m.commit_count
    assert count["client", "attempt", "ok"] == m.commit_count
    assert attempts == m.abort_causes
    assert count["timeline", "cycle", "ok"] == m.cycles_broadcast
    assert count["timeline", "server.commit", "ok"] == m.server_commits
    assert count["timeline", "crash", "ok"] == m.server_crashes
    assert sum(n for (_, name, _), n in count.items() if name == "uplink.retry") == (
        m.uplink_retries
    )
    # a crash's span says how many cycles its recovery re-issues; the
    # counter holds those of the recoveries the run lived to see
    assert m.quiescent_replay_cycles == sum(
        int(s.detail.partition("replayed=")[2])
        for s in result.spans
        if s.name == "crash" and s.end <= result.sim_time
    )


def history(result):
    """What an audit and a certificate read of a run: its committed
    transactions (reads and versions), each client's commit order and the
    server's log — commits of different clients in any order."""
    trace = result.trace
    sessions = {}
    for client, tid in trace.session_commits:
        sessions.setdefault(client, []).append(tid)
    commits = sorted(trace.client_commits, key=lambda record: record.tid)
    return commits, sessions, result.server.database.commit_log


def certify(result):
    """The run's history audits clean and certifies update-consistent."""
    assert result.audit_report.ok, result.audit_report.format()
    report = certify_update_consistency(
        result.trace.transactional_history(result.server.database)
    )
    assert report.ok, report.format()


def check(cfg, *, model=False, **axes):
    """Hold every admissible setting of ``cfg`` to the reference run;
    given ``axes``, only the settings :func:`admissible` narrows them to.

    ``cohort`` runs interleaved — the calendar is what the harness
    covers, and ``analytic`` covers waves — unless ``model`` leaves the
    choice to the schedule model; a wave it picks is bounded by
    :data:`WAVE` either way.

    The reference is ``cfg`` at :data:`REFERENCE`, once for each
    ``tracing`` value.  The untraced one is audited and certified; every
    other setting that keeps a global trace must record that same
    history, so its audit and certificate are the reference's.  Returns
    the ``(setting, result)`` of every setting held.
    """
    references = admissible(cfg, **REFERENCE)
    held = [s for s in admissible(cfg, **axes) if s not in references]
    assert held, f"no admissible setting has {axes}"
    oracles, runs = {}, []
    pinned = None if model else "interleaved"
    with mock.patch.object(analytic, "WAVE", WAVE), mock.patch.object(
        schedule, "_pinned_mode", pinned
    ), mock.patch.object(schedule, "_wave_bound", WAVE):
        for setting in references + held:
            where = describe(setting)
            traceable = setting.readers_apart is None
            if not oracles:
                assert setting.client_executor == "process" and traceable, where
                result = run(setting.replace(audit=True))
                certify(result)
                reference = history(result)
            else:
                result = run(setting, collect_trace=traceable)
            if setting.tracing:
                reconcile(result)
            oracle = oracles.setdefault(setting.tracing, result)
            if oracle is result:
                assert setting.client_executor == "process" and traceable, where
                continue
            runs.append((setting, result))
            assert signature(result) == signature(oracle), where
            if traceable:
                assert history(result) == reference, where
            if setting.client_executor != "process" and setting.shards == 1:
                # the calendar only ever removes events: one per occupied
                # slot where the reference pays one per waiting client
                # (a split run replays the updaters on every shard)
                assert result.events <= oracle.events, where
    untraced, traced = oracles[False], oracles[True]
    assert signature(traced) == dict(signature(untraced), spans=traced.spans)
    return runs


def check_modulo(cfg):
    """``cfg`` ≡ ``cfg`` with ``modulo_timestamps`` flipped, by
    :func:`repro.scenarios.result_signature`, as long as the modulo run's
    staleness guard never fires (no attempt spans ``max_cycles``): the
    simulation carries absolute cycles, so modulo timestamps may change
    nothing else."""
    flipped = cfg.replace(modulo_timestamps=not cfg.modulo_timestamps)
    results = {c.modulo_timestamps: run_simulation(c) for c in (cfg, flipped)}
    assert results[True].metrics.aborts_staleness == 0, "the guard fired"
    assert result_signature(results[True]) == result_signature(results[False])


# ----------------------------------------------------------------------
# the corpus: every configuration an equivalence test has run
# ----------------------------------------------------------------------

#: few clients and objects, several transactions each
TINY = dict(
    num_objects=40,
    num_clients=5,
    num_client_transactions=12,
    client_txn_length=4,
    server_txn_length=6,
    object_size_bits=1024,
    seed=77,
)

#: many clients per slot bucket: the batched validation's tiers
DENSE = dict(
    num_objects=16,
    num_clients=48,
    client_txn_length=8,
    num_client_transactions=8,
    mean_inter_operation_delay=4096.0,
    server_txn_interval=500_000.0,
    object_size_bits=1024,
    seed=3,
)

#: fast server, short transactions: what the shard layer's tests run
SMALL = dict(
    num_objects=24,
    num_clients=8,
    num_client_transactions=4,
    client_txn_length=3,
    server_txn_length=5,
    object_size_bits=512,
    mean_inter_operation_delay=6000.0,
    mean_inter_transaction_delay=10000.0,
    server_txn_interval=40000.0,
)

#: 4-bit modulo timestamps, three clients: the fault plans' base
FAULTY = dict(
    protocol="f-matrix",
    num_objects=40,
    object_size_bits=1024,
    timestamp_bits=4,
    modulo_timestamps=True,
    num_clients=3,
    num_client_transactions=10,
    client_txn_length=4,
    seed=7,
)

#: features that once ran through separate copies of the client step
LANES = {
    "cache+multi-disk": dict(
        cache_currency_bound=2e6,
        cache_capacity=30,
        layout_kind="multi-disk",
        client_access_skew=0.6,
        seed=37,
    ),
    "restart-delay+delay-first+loss": dict(
        restart_delay=500.0,
        delay_before_first_operation=True,
        broadcast_loss_probability=0.1,
        seed=41,
    ),
    # shared buckets under caches and radio loss: hundreds of sweeps of a
    # cached population, members that missed a slot beside those that heard it
    "dense+cache+loss": dict(
        DENSE,
        num_client_transactions=6,
        server_txn_interval=200_000.0,
        cache_currency_bound=150_000.0,
        cache_capacity=6,
        broadcast_loss_probability=0.2,
        seed=47,
    ),
}


def fault_plans(cb):
    """The fault plans, times in cycles of ``cb`` bits; crashes fall at
    x.5 cycles so outage edges never tie with slot events."""
    window = 2 ** FAULTY["timestamp_bits"]
    return {
        "doze-wrap": dict(
            num_clients=2,
            num_client_transactions=20,
            faults=FaultPlan(
                doze=tuple(
                    DozeInterval(0, start * cb, (window + 1) * cb)
                    for start in (8, 30, 52, 74)
                )
            ),
        ),
        "doze-multi-client": dict(
            faults=FaultPlan(
                doze=(DozeInterval(0, 3 * cb, 2 * cb), DozeInterval(2, 9 * cb, 4 * cb))
            ),
        ),
        "crash-recovery": dict(
            num_client_transactions=8,
            faults=FaultPlan(crashes=(ServerCrash(10.5 * cb, 2.5 * cb),)),
        ),
        "uplink-loss": dict(
            num_client_transactions=15,
            client_update_fraction=0.5,
            faults=FaultPlan(uplink_loss_probability=0.4),
        ),
        "uplink-exhausted": dict(
            num_client_transactions=15,
            client_update_fraction=0.5,
            faults=FaultPlan(uplink_loss_probability=0.8),
        ),
        "combined": dict(
            num_client_transactions=12,
            client_update_fraction=0.3,
            faults=FaultPlan(
                doze=(DozeInterval(1, 5 * cb, 3 * cb),),
                crashes=(ServerCrash(14.5 * cb, 2.5 * cb),),
                uplink_loss_probability=0.3,
            ),
        ),
        "unbounded-timestamps": dict(
            modulo_timestamps=False,
            num_client_transactions=12,
            client_update_fraction=0.3,
            faults=FaultPlan(uplink_loss_probability=0.3),
        ),
    }


def _corpus():
    rows = {}
    for protocol in ("f-matrix", "datacycle", "r-matrix"):
        for seed in (1, 42, 1234):
            rows[f"tiny/{protocol}/seed={seed}"] = dict(
                TINY, protocol=protocol, seed=seed
            )
    tiny_variants = {
        "group-matrix": dict(protocol="group-matrix", num_groups=8, seed=11),
        "modulo": dict(modulo_timestamps=True, seed=5),
        "multi-disk": dict(layout_kind="multi-disk", client_access_skew=0.6, seed=13),
        "delay-first": dict(
            delay_before_first_operation=True, restart_delay=500.0, seed=21
        ),
        "cache": dict(cache_currency_bound=2e6, cache_capacity=30, seed=17),
        "loss": dict(broadcast_loss_probability=0.2, seed=19),
        "updaters": dict(client_update_fraction=0.3, seed=23),
        "everything": dict(
            cache_currency_bound=2e6,
            cache_capacity=30,
            broadcast_loss_probability=0.1,
            client_update_fraction=0.25,
            restart_delay=1000.0,
            seed=29,
        ),
    }
    for name, overrides in tiny_variants.items():
        rows[f"tiny/{name}"] = dict(TINY, **overrides)
    for lane, overrides in LANES.items():
        rows[f"tiny/lane/{lane}"] = dict(TINY, **overrides)
    rows["dense/f-matrix"] = dict(DENSE)
    for protocol in ("r-matrix", "datacycle", "group-matrix", "f-matrix-no"):
        # a server rate at which the sweep's column bound decides most
        # members and fails for others within the one run
        rows[f"dense/{protocol}"] = dict(
            DENSE, protocol=protocol, num_groups=4, server_txn_interval=100_000.0
        )
    # every client may update: the only rows where the order a slot's
    # members settle in reaches an observable — updaters whose
    # submissions reach the server at one instant (``_fire``'s issue-order
    # sort; smaller populations share no such instant)
    rows["dense/updaters"] = dict(DENSE, client_update_fraction=0.3)
    # more readers than the schedule model's wave (W = 269 here): left to
    # the model, a cohort run of this row waves
    rows["dense/waves"] = dict(
        DENSE,
        num_objects=8,
        client_txn_length=4,
        server_txn_length=4,
        mean_inter_operation_delay=512.0,
        mean_inter_transaction_delay=16384.0,
        server_txn_interval=50_000.0,
        num_clients=300,
        num_client_transactions=2,
    )

    cb = SimulationConfig(**FAULTY).cycle_bits
    for plan, overrides in fault_plans(cb).items():
        for seed in (7, 21):
            rows[f"faults/{plan}/seed={seed}"] = dict(FAULTY, **overrides, seed=seed)
        if "client_update_fraction" in overrides and plan != "combined":
            # six clients, two of them updaters: a bounded update
            # population, so the plan runs split over shards and replayed
            # (``obs/faulted`` is the combined plan's)
            rows[f"faults/{plan}/bounded"] = dict(
                FAULTY, **dict(overrides, num_clients=6, num_update_clients=2)
            )
    rows["faults/two-dozers+crash+uplink/bounded"] = dict(
        FAULTY,
        num_clients=6,
        num_client_transactions=8,
        client_update_fraction=0.4,
        num_update_clients=2,
        faults=FaultPlan(
            doze=(DozeInterval(1, 5 * cb, 3 * cb), DozeInterval(4, 9 * cb, 2 * cb)),
            crashes=(ServerCrash(14.5 * cb, 2.5 * cb),),
            uplink_loss_probability=0.3,
        ),
    )

    for protocol in ("f-matrix", "r-matrix", "datacycle"):
        for seed in (3, 77):
            rows[f"small/{protocol}/seed={seed}"] = dict(
                SMALL, protocol=protocol, seed=seed
            )
    small_variants = {
        "cache+loss": dict(
            seed=13,
            cache_currency_bound=300000.0,
            cache_capacity=16,
            broadcast_loss_probability=0.1,
        ),
        "loss": dict(seed=13, broadcast_loss_probability=0.1),
        "updaters": dict(seed=19, client_update_fraction=0.4, num_update_clients=3),
        "multi-disk": dict(seed=23, layout_kind="multi-disk", client_access_skew=0.5),
        # no update bound: every client may update, so nothing splits off
        "all-updaters": dict(seed=5, client_update_fraction=0.3),
        "sixteen-clients": dict(seed=7, num_clients=16),
    }
    for name, overrides in small_variants.items():
        rows[f"small/{name}"] = dict(SMALL, **overrides)

    # the observability tests' runs: two updaters, a dozer, a crash, a
    # lossy uplink — and the same clients fault-free and with two dozers
    obs = dict(
        FAULTY,
        num_clients=6,
        num_update_clients=2,
        client_update_fraction=0.3,
        num_client_transactions=8,
    )
    rows["obs/faulted"] = dict(
        obs,
        faults=FaultPlan(
            doze=(DozeInterval(1, 5 * cb, 3 * cb),),
            crashes=(ServerCrash(14.5 * cb, 2.5 * cb),),
            uplink_loss_probability=0.3,
        ),
    )
    rows["obs/fault-free"] = dict(obs)
    rows["obs/two-dozers"] = dict(
        obs,
        faults=FaultPlan(
            doze=(DozeInterval(1, 5 * cb, 3 * cb), DozeInterval(4, 5 * cb, 3 * cb)),
            crashes=(ServerCrash(14.5 * cb, 2.5 * cb),),
            uplink_loss_probability=0.3,
        ),
    )

    # -- one minimal row per defect the harness found ----------------------
    # a crash that starts before the stop and recovers after it: counted
    # in server_crashes, so its span must exist on every path (it was
    # emitted at recovery, which only a replayed timeline ran on to)
    rows["crash-straddles-stop"] = dict(
        protocol="f-matrix-no",
        num_objects=8,
        object_size_bits=256,
        num_clients=3,
        client_update_fraction=1.0,
        num_client_transactions=1,
        client_txn_length=3,
        server_txn_length=3,
        modulo_timestamps=True,
        timestamp_bits=4,
        cache_currency_bound=16384.0,
        cache_capacity=4,
        broadcast_loss_probability=0.2,
        mean_inter_operation_delay=2048.0,
        mean_inter_transaction_delay=2048.0,
        server_txn_interval=8192.0,
        faults=FaultPlan(crashes=(ServerCrash(79872.0, 30720.0),)),
        seed=7,
    )
    return {name: SimulationConfig(**params) for name, params in rows.items()}


#: every named equivalence case, by row name
CORPUS = _corpus()


# ----------------------------------------------------------------------
# generated scenario documents
# ----------------------------------------------------------------------


@st.composite
def documents(draw):
    """A valid scenario document: one protocol, a small population, and
    any of group counts, modulo timestamps, a cache, radio loss, a
    multi-disk layout, bounded updaters and a fault section (a seeded
    doze block, crashes, uplink loss).

    Times are drawn in broadcast cycles.  A modulo document keeps
    Sec. 3.2.1's assumption that no attempt spans ``2**TS - 1`` cycles:
    its mean attempt (reads × (think + half a cycle)) stays under a
    quarter of the window.
    """
    protocol = draw(st.sampled_from(PROTOCOL_NAMES))
    num_clients = draw(st.integers(1, 6))
    config = dict(
        num_objects=draw(st.integers(8, 32)),
        num_clients=num_clients,
        num_client_transactions=draw(st.integers(1, 4)),
        client_txn_length=draw(st.integers(1, 4)),
        server_txn_length=draw(st.integers(1, 6)),
        object_size_bits=draw(st.sampled_from((256, 512, 1024))),
    )
    if protocol == "group-matrix":
        config["num_groups"] = draw(st.integers(1, 8))
    modulo = draw(st.booleans())
    if modulo:
        config.update(modulo_timestamps=True, timestamp_bits=draw(st.integers(4, 8)))
    if draw(st.booleans()):
        config.update(
            layout_kind="multi-disk",
            client_access_skew=draw(st.sampled_from((0.0, 0.6))),
        )
    cycle = SimulationConfig(protocol=protocol, **config).cycle_bits

    if modulo:
        window = 2 ** config["timestamp_bits"] - 1
        think = window / (4 * config["client_txn_length"]) - 0.5
    else:
        think = 3.0
    config.update(
        mean_inter_operation_delay=cycle * draw(st.floats(0.05, min(think, 3.0))),
        mean_inter_transaction_delay=cycle * draw(st.floats(0.1, 3.0)),
        server_txn_interval=cycle * draw(st.floats(0.2, 4.0)),
    )
    if draw(st.booleans()):
        config.update(
            cache_currency_bound=cycle * draw(st.floats(1.0, 20.0)),
            cache_capacity=draw(st.integers(1, 8)),
        )
    if draw(st.booleans()):
        config["broadcast_loss_probability"] = draw(st.sampled_from((0.05, 0.2)))
    if draw(st.booleans()):
        config["client_update_fraction"] = draw(st.sampled_from((0.3, 1.0)))
        if draw(st.booleans()):
            config["num_update_clients"] = draw(st.integers(0, num_clients))

    document = {
        "format_version": SCENARIO_FORMAT_VERSION,
        "name": "generated",
        "seed": draw(st.integers(0, 2**16)),
        "protocols": [protocol],
        "config": config,
    }
    if draw(st.booleans()):
        faults = {}
        if draw(st.booleans()):
            faults["seeded"] = {
                "horizon": cycle * 200.0,
                "mean_time_between_dozes": cycle * draw(st.floats(5.0, 40.0)),
                "mean_doze_duration": cycle * draw(st.floats(1.0, 20.0)),
            }
        if draw(st.booleans()):
            at = draw(st.floats(1.0, 60.0))
            faults["crashes"] = [
                {"time": cycle * at, "downtime": cycle * draw(st.floats(0.5, 8.0))}
            ]
        if draw(st.booleans()):
            faults["uplink_loss_probability"] = draw(st.sampled_from((0.2, 0.5)))
        document["faults"] = faults
    return document
