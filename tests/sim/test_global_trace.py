"""Which runs keep one global trace: ``SimulationConfig.readers_apart``.

The auditor, the certifier and a recorded trace all read a run's one
global history, which exists only when every client runs in one event
loop against one live timeline.  One property says whether that holds;
these tests hold every door that asks — the config's audit and
update-bound rules, ``run_simulation(collect_trace=True)``,
``record_config`` and ``replay_trace`` — to its answer, over the whole
``client_executor × shards × timeline_mode`` matrix.  They also pin the
audit's image history (the timeline's own retained images) on the
headline fault run.
"""

import pytest

from repro.scenarios import RecordedTrace, get_scenario, record_config, replay_trace
from repro.sim import SimulationConfig, run_simulation
from repro.sim.config import EXECUTORS

SMALL = dict(
    num_objects=24,
    num_clients=4,
    num_client_transactions=3,
    client_txn_length=3,
    server_txn_length=5,
    object_size_bits=512,
    mean_inter_operation_delay=6000.0,
    mean_inter_transaction_delay=10000.0,
    server_txn_interval=40000.0,
)

MATRIX = [
    (executor, shards, mode)
    for executor in EXECUTORS
    for shards in (1, 2)
    for mode in ("recompute", "replay")
    # refused for a reason of its own: the reference executor is single-shard
    if not (executor == "process" and shards > 1)
]


def small_config(**overrides):
    return SimulationConfig(**{**SMALL, **overrides})


def refusal(call, *args, **kwargs):
    """The message of the ValueError ``call(*args, **kwargs)`` raises."""
    with pytest.raises(ValueError) as refused:
        call(*args, **kwargs)
    return str(refused.value)


@pytest.mark.parametrize("executor, shards, mode", MATRIX)
def test_one_rule_decides_every_door(executor, shards, mode):
    config = small_config(client_executor=executor, shards=shards, timeline_mode=mode)
    apart = config.readers_apart
    # one event loop over one live timeline: the only shape with one history
    # under any executor: an executor decides when clients run, not this
    splits = shards > 1 or mode == "replay"
    assert (apart is not None) == splits
    if apart is None:
        assert config.replace(audit=True).audit
        assert config.replace(client_update_fraction=0.2).client_update_fraction
        result = run_simulation(config, collect_trace=True)
        assert result.trace is not None and result.trace.client_commits
        _result, recorded = record_config(config)
        _result, report = replay_trace(recorded)
        assert report.ok, report.describe()
        return
    audit, updates, collect, record, replay = (
        refusal(config.replace, audit=True),
        refusal(config.replace, client_update_fraction=0.2),
        refusal(run_simulation, config, collect_trace=True),
        refusal(record_config, config),
        refusal(replay_trace, RecordedTrace(config, {}, {}, recorded_executor=executor)),
    )
    assert audit.startswith("audit runs") and "num_update_clients" in updates
    assert all(apart in message for message in (audit, updates, collect, record, replay))
    assert config.replace(client_update_fraction=0.2, num_update_clients=1)


def test_replay_at_one_shard_is_told_about_replay():
    """A one-shard replay run has one shard already: the refusal names
    timeline replay and how to leave it, not the shard count."""
    message = refusal(
        run_simulation, small_config(timeline_mode="replay"), collect_trace=True
    )
    assert message == (
        "this run keeps no global trace: timeline replay runs the read-only "
        "clients against a recorded timeline (use timeline_mode='recompute')"
    )
    assert "shards=1" not in message


#: the audited image history of hostile-wrap (doze through a wrap window,
#: one crash, a lossy uplink) at 30 transactions per client, per
#: protocol: the cycles installed, in install order, and the audit's
#: config hash (a hash over the config's fields: removing a field moves
#: it, the cycles stay).  The outage leaves two cycles of dead air; recovery
#: installs the cycle in progress.
HOSTILE_WRAP_IMAGES = {
    "f-matrix": (list(range(1, 77)) + list(range(79, 398)), "1c9f50ca15eb"),
    "r-matrix": (list(range(1, 88)) + list(range(90, 437)), "1afb18cbcf8f"),
    "datacycle": (list(range(1, 88)) + list(range(90, 462)), "af7e27470d8b"),
}


@pytest.mark.parametrize("protocol", sorted(HOSTILE_WRAP_IMAGES))
def test_an_audit_reads_the_timelines_retained_images(protocol):
    cycles, config_hash = HOSTILE_WRAP_IMAGES[protocol]
    config = get_scenario("hostile-wrap").config_for(
        protocol, audit=True, num_client_transactions=30
    )
    result = run_simulation(config)
    counters = result.metrics.counters()
    assert counters["server_crashes"] == 1
    assert counters["doze_slots_missed"] >= 1 and counters["uplink_retries"] >= 1
    assert [image.cycle for image in result.trace.cycles] == cycles
    assert counters["cycles_broadcast"] == len(cycles)
    assert result.audit_report.to_dict() == {
        "ok": True,
        "checked": [
            "control-monotonicity",
            "control-agreement",
            "wrap-gap-safety",
            "validation-soundness",
            "read-coherence",
            "delta-coherence",
            "update-serializability",
            "commit-log-order",
        ],
        "config_hash": config_hash,
        "diagnostics": [],
    }
