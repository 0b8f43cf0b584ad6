"""End-to-end simulation tests (repro.sim.simulation)."""

import hashlib
import json

import pytest

from repro.core.validators import PROTOCOL_NAMES
from repro.scenarios import result_signature
from repro.sim import TIMELINE_CACHE, FaultPlan, ServerCrash
from repro.sim.config import SimulationConfig
from repro.sim.shard import run_sharded
from repro.sim.simulation import run_simulation

from tests.conftest import reference_run

TINY = dict(
    num_objects=40,
    num_client_transactions=25,
    client_txn_length=4,
    server_txn_length=6,
    object_size_bits=1024,
)


def tiny_config(**overrides):
    params = dict(TINY)
    params.update(overrides)
    return SimulationConfig(**params)


class TestSmokeAllProtocols:
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    def test_runs_to_completion(self, protocol):
        cfg = tiny_config(protocol=protocol, num_groups=4, seed=3)
        result = run_simulation(cfg)
        assert len(result.metrics.samples) == cfg.num_client_transactions
        assert result.response_time.mean > 0
        assert result.metrics.server_commits > 0

    @pytest.mark.parametrize("protocol", ("f-matrix", "r-matrix", "datacycle", "group-matrix"))
    def test_trace_verifies_under_approx(self, protocol):
        """Theorems 1 & 9: every committed reader is APPROX-consistent."""
        cfg = tiny_config(protocol=protocol, num_groups=4, seed=5)
        result = run_simulation(cfg, collect_trace=True)
        report = result.trace.verify(result.server.database)
        assert report.accepted, report.rejected_readers


class TestDeterminism:
    def test_same_seed_same_results(self):
        a = run_simulation(tiny_config(seed=9))
        b = run_simulation(tiny_config(seed=9))
        assert a.response_time.mean == b.response_time.mean
        assert a.restart_ratio.mean == b.restart_ratio.mean
        assert a.events == b.events

    def test_different_seed_differs(self):
        a = run_simulation(tiny_config(seed=1))
        b = run_simulation(tiny_config(seed=2))
        assert a.response_time.mean != b.response_time.mean

    def test_seed_fixes_every_clients_read_sets(self):
        """Client ``k``'s read sets depend on the seed and ``k`` alone:
        every protocol and executor commits each client transaction id
        with the same objects, so protocols compare on one workload."""
        committed = {}
        for protocol in PROTOCOL_NAMES:
            for executor in ("process", "cohort"):
                cfg = tiny_config(
                    protocol=protocol,
                    num_groups=4,
                    num_clients=3,
                    seed=9,
                    client_executor=executor,
                )
                result = run_simulation(cfg, collect_trace=True)
                committed[protocol, executor] = {
                    c.tid: tuple(v.obj for v in c.versions)
                    for c in result.trace.client_commits
                }
        reference = committed["datacycle", "process"]
        assert len(reference) == 3 * TINY["num_client_transactions"]
        for run, reads in committed.items():
            assert reads == reference, run


class TestSemantics:
    def test_response_time_excludes_think_time_between_txns(self):
        """Response times must be positive and bounded by total sim time."""
        result = run_simulation(tiny_config(seed=4))
        for sample in result.metrics.samples:
            assert 0 < sample.response_time <= result.sim_time

    def test_reads_account(self):
        cfg = tiny_config(seed=6)
        result = run_simulation(cfg)
        delivered = result.metrics.reads_delivered
        expected_min = cfg.num_client_transactions * cfg.client_txn_length
        assert delivered >= expected_min  # restarts re-read

    def test_restart_ratio_counts_rejections(self):
        cfg = tiny_config(protocol="datacycle", client_txn_length=8,
                          server_txn_interval=50_000.0, seed=7)
        result = run_simulation(cfg)
        assert result.metrics.reads_rejected > 0
        assert result.restart_ratio.mean > 0

    def test_deterministic_server_distribution(self):
        cfg = tiny_config(server_interval_distribution="deterministic", seed=8)
        result = run_simulation(cfg)
        # completions arrive every interval: commits ~ sim_time / interval
        expected = result.sim_time / cfg.server_txn_interval
        # roughly half the generated transactions are update transactions
        # at read_probability 0.5 and length 6 (1 - 0.5^6 ≈ 0.98 updates)
        assert result.metrics.server_commits == pytest.approx(expected, rel=0.15)

    def test_multiple_clients_supported(self):
        cfg = tiny_config(num_clients=3, num_client_transactions=10, seed=10)
        result = run_simulation(cfg)
        assert len(result.metrics.samples) == 30

    def test_modulo_timestamps_run_matches_unbounded(self):
        """With short transactions the 8-bit wire format must not change
        any decision: identical metrics, event for event."""
        plain = run_simulation(tiny_config(seed=12, modulo_timestamps=False))
        modulo = run_simulation(tiny_config(seed=12, modulo_timestamps=True))
        assert plain.response_time.mean == modulo.response_time.mean
        assert plain.restart_ratio.mean == modulo.restart_ratio.mean
        assert plain.events == modulo.events

    def test_client_updates_commit_through_uplink(self):
        cfg = tiny_config(client_update_fraction=0.4, seed=14)
        result = run_simulation(cfg, collect_trace=True)
        m = result.metrics
        assert m.client_updates_committed > 0
        committed_tids = [
            r.txn
            for r in result.server.database.commit_log
            if r.txn.startswith("cl")
        ]
        assert len(committed_tids) == m.client_updates_committed
        # read-only transactions remain APPROX-consistent alongside the
        # client-sourced updates
        assert result.trace.verify(result.server.database).accepted

    def test_client_update_rejections_restart(self):
        cfg = tiny_config(
            client_update_fraction=1.0,
            server_txn_interval=30_000.0,  # hot server: stale reads likely
            seed=15,
        )
        result = run_simulation(cfg)
        m = result.metrics
        assert m.client_updates_rejected > 0
        # every transaction eventually commits despite rejections
        assert len(m.samples) == cfg.num_client_transactions
        assert result.restart_ratio.mean > 0

    def test_uplink_latency_adds_to_response_time(self):
        slow = tiny_config(
            client_update_fraction=1.0, uplink_round_trip=500_000.0, seed=16
        )
        fast = tiny_config(
            client_update_fraction=1.0, uplink_round_trip=0.0, seed=16
        )
        slow_result = run_simulation(slow)
        fast_result = run_simulation(fast)
        assert slow_result.response_time.mean > fast_result.response_time.mean

    def test_update_config_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            tiny_config(client_update_fraction=1.5)
        with _pytest.raises(ValueError):
            tiny_config(client_update_write_fraction=0.0)
        with _pytest.raises(ValueError):
            tiny_config(uplink_round_trip=-1.0)

    def test_multi_disk_run_traces_verify(self):
        cfg = tiny_config(
            layout_kind="multi-disk",
            hot_frequency=4,
            hot_fraction=0.25,
            client_access_skew=0.8,
            seed=17,
        )
        result = run_simulation(cfg, collect_trace=True)
        assert len(result.metrics.samples) == cfg.num_client_transactions
        assert result.trace.verify(result.server.database).accepted

    def test_multi_disk_helps_skewed_clients(self):
        """With strongly skewed access, spinning the hot disk faster cuts
        mean wait time versus the flat layout."""
        base = dict(
            num_objects=60,
            num_client_transactions=60,
            client_txn_length=4,
            server_txn_length=6,
            object_size_bits=2048,
            server_txn_interval=2_000_000.0,  # quiet server: pure wait time
            client_access_skew=0.95,
            hot_fraction=0.1,
            seed=18,
        )
        flat = run_simulation(SimulationConfig(**base))
        multi = run_simulation(
            SimulationConfig(layout_kind="multi-disk", hot_frequency=5, **base)
        )
        assert multi.response_time.mean < flat.response_time.mean

    def test_layout_config_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            tiny_config(layout_kind="spiral")
        with _pytest.raises(ValueError):
            tiny_config(hot_frequency=0)
        with _pytest.raises(ValueError):
            tiny_config(hot_fraction=0.0)
        with _pytest.raises(ValueError):
            tiny_config(client_access_skew=2.0)

    def test_broadcast_loss_slows_but_stays_consistent(self):
        clean = run_simulation(tiny_config(seed=19), collect_trace=True)
        lossy = run_simulation(
            tiny_config(broadcast_loss_probability=0.3, seed=19),
            collect_trace=True,
        )
        assert lossy.metrics.broadcast_losses > 0
        assert lossy.response_time.mean > clean.response_time.mean
        assert lossy.trace.verify(lossy.server.database).accepted

    def test_loss_probability_validated(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            tiny_config(broadcast_loss_probability=1.0)
        with _pytest.raises(ValueError):
            tiny_config(broadcast_loss_probability=-0.1)

    def test_cached_run_traces_verify(self):
        cfg = tiny_config(
            seed=13,
            cache_currency_bound=float(tiny_config().cycle_bits) * 4,
        )
        result = run_simulation(cfg, collect_trace=True)
        assert result.metrics.cache_hits > 0
        report = result.trace.verify(result.server.database)
        assert report.accepted, report.rejected_readers


# ----------------------------------------------------------------------
# where a run stops, pinned
# ----------------------------------------------------------------------
#: a population with updaters, for the fleet cases below
FLEET = dict(
    protocol="f-matrix",
    num_objects=16,
    object_size_bits=512,
    num_clients=12,
    num_update_clients=2,
    client_update_fraction=0.3,
    num_client_transactions=4,
    client_txn_length=3,
    mean_inter_operation_delay=4000.0,
    mean_inter_transaction_delay=8000.0,
    server_txn_interval=30000.0,
    seed=21,
)


def faulted():
    """Doze, a crash, uplink loss, updates, modulo timestamps and a cache."""
    base = SimulationConfig(
        protocol="f-matrix",
        num_objects=40,
        object_size_bits=1024,
        timestamp_bits=4,
        modulo_timestamps=True,
        num_clients=6,
        num_update_clients=2,
        client_update_fraction=0.3,
        num_client_transactions=8,
        client_txn_length=4,
        seed=7,
    )
    cb = base.cycle_bits
    return base.replace(
        cache_currency_bound=4.0 * cb,
        faults=FaultPlan.seeded(
            3,
            num_clients=base.num_clients,
            horizon=200 * cb,
            mean_time_between_dozes=3 * cb,
            mean_doze_duration=cb,
            crashes=(ServerCrash(14.5 * cb, 2.5 * cb),),
            uplink_loss_probability=0.3,
        ),
    )


def drain_case(name):
    """The result of pinned run ``name``."""
    table1 = SimulationConfig(num_client_transactions=100, seed=42)
    fleet = SimulationConfig(**FLEET)
    if name == "table1-process":
        return reference_run(table1)
    if name == "table1-cohort":
        return run_simulation(table1)
    if name == "faulted-process":
        return reference_run(faulted())
    if name == "faulted-cohort":
        return run_simulation(faulted())
    if name == "analytic-updaters":
        return run_simulation(
            fleet.replace(client_executor="analytic", num_update_clients=4)
        )
    if name == "recompute-3-shards":
        return run_sharded(fleet.replace(shards=3), workers=0)
    if name == "replay-analytic":
        TIMELINE_CACHE.clear()  # a cold replay: record, then replay
        readers = fleet.replace(
            client_executor="analytic",
            client_update_fraction=0.0,
            num_update_clients=None,
            shards=2,
            timeline_mode="replay",
        )
        return run_sharded(readers, workers=0)
    assert name == "replay-cohort-updaters"
    return run_sharded(fleet.replace(shards=2, timeline_mode="replay"), workers=0)


#: ``(digest(result_signature), events, sim_time)`` per case: a run stops
#: when its last client retires — the instant its engine queue drains.
#: Computed when the engine still stopped on a retired-client count.
DRAIN_PINS = {
    "table1-process": (
        "78435291f43fa6acf8e7327a5947847d8a12c1474f9bb70238123660f74f6fe6",
        801,
        642430063.4482079,
    ),
    "table1-cohort": (
        "78435291f43fa6acf8e7327a5947847d8a12c1474f9bb70238123660f74f6fe6",
        401,
        642430063.4482079,
    ),
    "faulted-process": (
        "9e0de2ec01ae1eb8b2d4180bf40d5372b9845ad0b2e30f97a0547d5a94220516",
        1000,
        9351697.817066208,
    ),
    "faulted-cohort": (
        "9e0de2ec01ae1eb8b2d4180bf40d5372b9845ad0b2e30f97a0547d5a94220516",
        471,
        9351697.817066208,
    ),
    "analytic-updaters": (
        "fb195b4dc9045d6f23cb2e0851aa37892e613f237f6e34f336d14977412070e2",
        69,
        265577.8972808899,
    ),
    "recompute-3-shards": (
        "bd1a0a27aba24acf3c537c7b60f3dcd19a48c7e011eed47275b52c7240d268ac",
        253,
        265577.8972808899,
    ),
    "replay-analytic": (
        "962d1259e310d33698a55a7149def18ca223b72cee259536b39d50af5ecb7d06",
        0,
        165452.3993218089,
    ),
    "replay-cohort-updaters": (
        "bd1a0a27aba24acf3c537c7b60f3dcd19a48c7e011eed47275b52c7240d268ac",
        158,
        265577.8972808899,
    ),
}


def signature_digest(result):
    text = json.dumps(result_signature(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestDrainPins:
    @pytest.mark.parametrize("name", sorted(DRAIN_PINS))
    def test_a_run_stops_where_its_last_client_retires(self, name):
        result = drain_case(name)
        pinned = (signature_digest(result), result.events, result.sim_time)
        assert pinned == DRAIN_PINS[name]
