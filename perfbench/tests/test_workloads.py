"""Input generation, structural checks and the per-layer counts."""

from types import SimpleNamespace

import pytest

import perfbench
from perfbench import SMOKE_SCALE
from perfbench.workloads import (
    WORKLOADS,
    MixedFleet,
    Op,
    ReaderFleet,
    ShardedReplay,
    digest,
    layer_counts,
)


def test_workloads_are_the_ones_benchmark_json_names():
    spec = perfbench.load_spec()
    assert list(WORKLOADS) == [w["name"] for w in spec["workloads"]]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_the_generated_inputs(name):
    build = WORKLOADS[name]
    same = [digest(build(42, SMOKE_SCALE).inputs()) for _ in range(2)]
    other = digest(build(43, SMOKE_SCALE).inputs())
    assert same[0] == same[1]
    assert same[0] != other


def test_sizes_are_fixed_and_scale_shrinks_them():
    assert ReaderFleet(42).sizes == {"num_clients": 8192, "num_client_transactions": 4}
    assert ReaderFleet(42, SMOKE_SCALE).sizes["num_clients"] == 410
    replay = ShardedReplay(42).configs["analytic-replay"]
    assert (replay.client_executor, replay.shards, replay.timeline_mode) == (
        "analytic",
        2,
        "replay",
    )


def test_mixed_fleet_is_a_parsed_scenario_with_a_full_size_envelope():
    full = MixedFleet(42)
    assert full.scenario.envelope is not None
    assert full.scenario.faults is not None and full.scenario.faults.doze
    config = full.configs["datacycle"]
    assert config.modulo_timestamps and config.cache_capacity == 32
    assert config.num_update_clients == 64 and config.seed == 42
    assert MixedFleet(42, SMOKE_SCALE).scenario.envelope is None


def test_commit_count_check_fails_the_operation():
    workload = ReaderFleet(42, SMOKE_SCALE)
    result = SimpleNamespace(config=workload.configs["cohort"])
    assert workload.check(Op("cohort", commits=410 * 4), result) is None
    assert "clients x txns" in workload.check(Op("cohort", commits=1), result)


def test_sharded_replay_rejects_cache_hits_and_fallbacks():
    workload = ShardedReplay(42, SMOKE_SCALE)
    result = SimpleNamespace(config=workload.configs["analytic-replay"])
    good = Op("x", commits=410 * 4, timeline_stats={"cache_hit": False, "fallbacks": 0})
    assert workload.check(good, result) is None
    for stats in ({"cache_hit": True, "fallbacks": 0}, {"cache_hit": False, "fallbacks": 1}):
        bad = Op("x", commits=410 * 4, timeline_stats=stats)
        assert "cold replay" in workload.check(bad, result)


def test_an_envelope_miss_fails_the_operation(monkeypatch):
    tight = dict(perfbench.load_expected()["envelope"], restart_ratio_mean=[100, 200])
    monkeypatch.setattr(
        "perfbench.workloads.load_expected", lambda: {"envelope": tight}
    )
    workload = MixedFleet(42)
    small = MixedFleet(42, SMOKE_SCALE)
    op = workload.simulate("f-matrix", small.configs["f-matrix"])
    assert op.error.startswith("envelope miss: restart_ratio_mean")
    assert small.simulate("f-matrix", small.configs["f-matrix"]).error is None


def test_layer_counts_sum_over_the_operations_of_a_repeat():
    ops = [
        Op(
            "a",
            commits=10,
            events=100,
            counters={"reads_delivered": 30, "reads_rejected": 10, "aborts_conflict": 5,
                      "cache_hits": 10, "server_commits": 7},
            profile={"record": 1.5},
            timeline_stats={"fallbacks": 0, "cache": {"hits": 0, "misses": 1}},
        ),
        Op("b", commits=10, events=60, counters={"reads_delivered": 30, "server_commits": 3}),
    ]
    counts = layer_counts(ops, effective_workers=1)
    assert counts["server.commits"] == 10
    assert counts["core.validators.reject_ratio"] == pytest.approx(10 / 70)
    assert counts["client.cache.hit_ratio"] == pytest.approx(10 / 70)
    assert counts["client.restarts_per_commit"] == pytest.approx(5 / 20)
    assert counts["sim.engine.events_per_txn"] == pytest.approx(8.0)
    assert counts["sim.shard.phase.record_s"] == 1.5
    assert counts["sim.arena.cache_misses"] == 1
    assert counts["sim.shard.effective_workers"] == 1
