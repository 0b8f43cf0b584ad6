"""Fault-injection tests (repro.sim.faults; docs/FAULTS.md).

Covers the plan's validation rules, the zero-fault bit-identity
guarantee, the doze/staleness guard under modulo timestamps, mid-run
server crash + recovery, and uplink loss with retry/backoff.  That
every executor, shard split and timeline mode handles a faulty plan
bit-identically is the differential harness's (tests/differential.py:
the ``faults/*`` corpus rows and generated documents with a fault
section); the equivalence classes here narrow it to one executor.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validators import PROTOCOL_NAMES
from repro.server.validation import UpdateSubmission
from repro.sim import (
    DozeInterval,
    FaultPlan,
    FaultRuntime,
    MetricsCollector,
    ServerCrash,
    SimulationConfig,
    run_simulation,
)
from repro.sim.faults import _UplinkStream
from repro.sim.timeline import LiveTimeline

from tests.conftest import reference_run
from tests.differential import CORPUS, FAULTY, check, signature


def faulty_config(**overrides):
    params = dict(FAULTY)
    params.update(overrides)
    return SimulationConfig(**params)


class TestDozeIntervalValidation:
    def test_negative_client_rejected(self):
        with pytest.raises(ValueError, match="client"):
            DozeInterval(-1, 0.0, 1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            DozeInterval(0, -1.0, 1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            DozeInterval(0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "start,duration",
        [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)],
    )
    def test_non_finite_times_rejected(self, start, duration):
        with pytest.raises(ValueError, match="finite"):
            DozeInterval(0, start, duration)

    def test_end_property(self):
        assert DozeInterval(0, 10.0, 5.0).end == 15.0


class TestServerCrashValidation:
    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError, match="crash time"):
            ServerCrash(0.0, 1.0)

    def test_nonpositive_downtime_rejected(self):
        with pytest.raises(ValueError, match="downtime"):
            ServerCrash(1.0, 0.0)

    @pytest.mark.parametrize(
        "time,downtime,field",
        [
            (math.nan, 1.0, "crash time"),
            (math.inf, 1.0, "crash time"),
            (1.0, math.nan, "downtime"),
            (1.0, math.inf, "downtime"),  # the air would stay dead forever
        ],
    )
    def test_non_finite_times_rejected(self, time, downtime, field):
        with pytest.raises(ValueError, match=f"{field} must be > 0 and finite"):
            ServerCrash(time, downtime)


class TestFaultPlanValidation:
    def test_default_plan_is_noop(self):
        assert FaultPlan().is_noop

    def test_any_fault_breaks_noop(self):
        assert not FaultPlan(doze=(DozeInterval(0, 0.0, 1.0),)).is_noop
        assert not FaultPlan(crashes=(ServerCrash(1.0, 1.0),)).is_noop
        assert not FaultPlan(uplink_loss_probability=0.1).is_noop

    def test_overlapping_doze_same_client_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            FaultPlan(
                doze=(DozeInterval(0, 0.0, 10.0), DozeInterval(0, 5.0, 10.0))
            )

    def test_overlapping_doze_different_clients_allowed(self):
        plan = FaultPlan(
            doze=(DozeInterval(0, 0.0, 10.0), DozeInterval(1, 5.0, 10.0))
        )
        assert plan.max_doze_client == 1

    def test_overlapping_crashes_rejected(self):
        with pytest.raises(ValueError, match="crashes overlap"):
            FaultPlan(crashes=(ServerCrash(1.0, 5.0), ServerCrash(3.0, 5.0)))

    def test_crashes_sorted_by_time(self):
        plan = FaultPlan(crashes=(ServerCrash(9.0, 1.0), ServerCrash(2.0, 1.0)))
        assert [c.time for c in plan.crashes] == [2.0, 9.0]

    def test_uplink_knob_bounds(self):
        with pytest.raises(ValueError, match="uplink_loss_probability"):
            FaultPlan(uplink_loss_probability=1.0)
        with pytest.raises(ValueError, match="uplink_loss_probability"):
            FaultPlan(uplink_loss_probability=-0.1)

    def test_seeded_is_deterministic(self):
        kwargs = dict(
            num_clients=4,
            horizon=1_000_000.0,
            mean_time_between_dozes=100_000.0,
            mean_doze_duration=50_000.0,
        )
        assert FaultPlan.seeded(11, **kwargs) == FaultPlan.seeded(11, **kwargs)
        assert FaultPlan.seeded(11, **kwargs) != FaultPlan.seeded(12, **kwargs)

    def test_seeded_respects_horizon_and_clients(self):
        plan = FaultPlan.seeded(
            3,
            num_clients=2,
            horizon=500_000.0,
            mean_time_between_dozes=50_000.0,
            mean_doze_duration=20_000.0,
        )
        assert plan.doze  # the means make dozing near-certain
        assert plan.max_doze_client < 2
        assert all(iv.start < 500_000.0 for iv in plan.doze)

    def test_seeded_zero_means_disable_doze(self):
        assert FaultPlan.seeded(3, num_clients=2, horizon=1000.0).is_noop

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize(
        "field", ["mean_time_between_dozes", "mean_doze_duration"]
    )
    def test_seeded_bad_means_rejected(self, field, bad):
        # NaN and negative means compared false and silently disabled
        # dozing; inf divided by zero inside the exponential draw
        means = {"mean_time_between_dozes": 1.0e5, "mean_doze_duration": 1.0e4}
        means[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be >= 0 and finite"):
            FaultPlan.seeded(3, num_clients=2, horizon=1.0e6, **means)


class TestConfigIntegration:
    def test_faults_must_be_a_plan(self):
        with pytest.raises(ValueError, match="FaultPlan"):
            faulty_config(faults={"doze": ()})

    def test_doze_client_out_of_range_rejected(self):
        plan = FaultPlan(doze=(DozeInterval(5, 0.0, 1.0),))
        with pytest.raises(ValueError, match="client 5"):
            faulty_config(num_clients=3, faults=plan)

    def test_cohort_executor_accepts_faulty_plan(self):
        # the batched path once refused faults; the differential
        # harness holds the executor to bit-identity under them
        plan = FaultPlan(uplink_loss_probability=0.1)
        config = faulty_config(client_executor="cohort", faults=plan)
        assert config.faults is plan

    def test_cohort_executor_accepts_noop_plan(self):
        config = faulty_config(client_executor="cohort", faults=FaultPlan())
        assert config.faults is not None and config.faults.is_noop

    def test_analytic_tier_runs_faulty_plan(self):
        # an executor picks when clients run, never which plans they may;
        # the differential harness holds the tier to bit-identity
        plan = FaultPlan(uplink_loss_probability=0.3)
        config = faulty_config(
            client_executor="analytic", client_update_fraction=0.5, faults=plan
        )
        assert config.faults is plan and config.readers_apart is None
        result = run_simulation(config)
        assert result.metrics.commit_count == 3 * FAULTY["num_client_transactions"]
        assert result.metrics.uplink_retries > 0

    def test_analytic_tier_accepts_noop_plan(self):
        config = faulty_config(client_executor="analytic", faults=FaultPlan())
        assert config.faults is not None and config.faults.is_noop


class TestZeroFaultIdentity:
    @pytest.mark.parametrize("protocol", ["f-matrix", "r-matrix"])
    def test_noop_plan_is_bit_identical_to_none(self, protocol):
        base = faulty_config(protocol=protocol, client_update_fraction=0.2)
        with_none = run_simulation(base.replace(faults=None))
        with_noop = run_simulation(base.replace(faults=FaultPlan()))
        assert signature(with_none) == signature(with_noop)


class TestDozeStalenessGuard:
    def _dozing_config(self, **overrides):
        base = faulty_config(num_clients=1, num_client_transactions=20)
        window = 2 ** base.timestamp_bits
        cycle_bits = base.cycle_bits
        # several radio-off windows, each longer than the full wrap
        # window, so some land mid-transaction (that's when the
        # staleness guard has in-flight reads to protect)
        plan = FaultPlan(
            doze=tuple(
                DozeInterval(0, start * cycle_bits, (window + 1) * cycle_bits)
                for start in (8, 30, 52, 74)
            )
        )
        return base.replace(faults=plan, **overrides)

    def test_doze_past_window_aborts_for_staleness(self):
        result = run_simulation(self._dozing_config(audit=True))
        m = result.metrics
        assert m.aborts_staleness > 0
        assert m.abort_causes["staleness"] == m.aborts_staleness
        # the guard aborts *instead of* committing across the wrap gap
        assert result.audit_report is not None and result.audit_report.ok

    def test_unbounded_timestamps_never_stale(self):
        result = run_simulation(self._dozing_config(modulo_timestamps=False))
        assert result.metrics.aborts_staleness == 0

    def test_dozing_run_is_deterministic(self):
        a = run_simulation(self._dozing_config())
        b = run_simulation(self._dozing_config())
        assert signature(a) == signature(b)


class TestMaxCyclesGuard:
    """The paper's ``max_cycles`` bound holds on every modulo run, faults
    or none: an attempt about to outlive the window aborts as
    ``staleness``.  The run is 4-bit with a mean think time (32 cycles)
    that outlives the 16-cycle window; at six reads it ends after 10,535
    staleness restarts (about 2 s), so four reads pin it."""

    THINKER = dict(
        num_objects=8,
        object_size_bits=256,
        client_txn_length=4,
        server_txn_length=3,
        server_txn_interval=20000.0,
        server_interval_distribution="deterministic",
        mean_inter_operation_delay=65536.0,
        modulo_timestamps=True,
        timestamp_bits=4,
        num_clients=1,
        num_client_transactions=1,
        seed=1042,
    )

    @pytest.mark.parametrize("protocol", ["f-matrix-no", "r-matrix"])
    def test_a_run_whose_attempts_outlive_the_window_ends(self, protocol):
        config = SimulationConfig(protocol=protocol, **self.THINKER)
        assert config.faults is None
        m = run_simulation(config).metrics
        assert m.commit_count == 1
        assert m.aborts_staleness > 0 and m.aborts_conflict == 0
        absolute = run_simulation(config.replace(modulo_timestamps=False)).metrics
        assert absolute.commit_count == 1 and absolute.aborts_staleness == 0


class TestServerCrashRecovery:
    def _crashing_config(self, **overrides):
        base = faulty_config(num_client_transactions=8)
        cycle_bits = base.cycle_bits
        plan = FaultPlan(crashes=(ServerCrash(10.5 * cycle_bits, 2.5 * cycle_bits),))
        return base.replace(faults=plan, **overrides)

    def test_run_completes_through_a_crash(self):
        config = self._crashing_config()
        result = run_simulation(config)
        m = result.metrics
        assert m.server_crashes == 1
        assert m.quiescent_replay_cycles >= 1
        assert len(m.samples) == config.num_clients * config.num_client_transactions

    def test_recovered_state_is_consistent(self):
        result = run_simulation(self._crashing_config(audit=True))
        assert result.audit_report is not None
        assert result.audit_report.ok, result.audit_report.format()

    def test_crash_run_is_deterministic(self):
        a = run_simulation(self._crashing_config())
        b = run_simulation(self._crashing_config())
        assert signature(a) == signature(b)

    def test_cycle_counter_survives_quiescent_downtime(self):
        # the regression recover_server used to hit: cycles broadcast
        # after the last commit must not be re-issued after recovery
        result = run_simulation(self._crashing_config())
        cycles = [r.commit_cycle for r in result.server.database.commit_log]
        assert cycles == sorted(cycles)
        assert result.server.current_cycle >= max(cycles, default=0)


class TestUplinkLoss:
    def _lossy_config(self, **plan_overrides):
        params = dict(uplink_loss_probability=0.4)
        params.update(plan_overrides)
        return faulty_config(
            num_client_transactions=15,
            client_update_fraction=0.5,
            faults=FaultPlan(**params),
        )

    def test_losses_and_retries_counted(self):
        m = run_simulation(self._lossy_config()).metrics
        assert m.uplink_losses > 0
        assert m.uplink_retries > 0
        # every loss is either retried or charged as an uplink abort
        assert m.uplink_losses <= m.uplink_retries + m.aborts_uplink

    def test_exhausted_retries_abort_with_cause(self):
        m = run_simulation(
            self._lossy_config(uplink_loss_probability=0.8)
        ).metrics
        assert m.aborts_uplink > 0
        assert m.abort_causes["uplink"] == m.aborts_uplink

    def test_lossy_run_is_deterministic(self):
        a = run_simulation(self._lossy_config())
        b = run_simulation(self._lossy_config())
        assert signature(a) == signature(b)


class TestHeadlineScenario:
    def test_doze_crash_and_loss_survive_with_clean_audit(self):
        from repro.scenarios import get_scenario

        scenario = get_scenario("hostile-wrap")
        for protocol in scenario.protocols:
            config = scenario.config_for(
                protocol, num_client_transactions=30, audit=True
            )
            result = run_simulation(config)
            m = result.metrics
            assert len(m.samples) == config.num_clients * config.num_client_transactions
            assert m.server_crashes == 1
            assert m.quiescent_replay_cycles >= 1
            assert m.aborts_staleness > 0, protocol
            report = result.audit_report
            assert report is not None
            assert report.ok, report.format()
            assert "wrap-gap-safety" in report.checked


class TestFaultRuntime:
    def _runtime(self, plan):
        return FaultRuntime(plan)

    def test_staleness_window_is_paper_max_cycles(self):
        # the window is the config's, plan or no plan
        assert faulty_config().max_cycles == 2 ** FAULTY["timestamp_bits"] - 1

    def test_unbounded_arithmetic_has_no_window(self):
        assert faulty_config(modulo_timestamps=False).max_cycles is None

    def test_doze_wake_and_slot_heard(self):
        runtime = self._runtime(FaultPlan(doze=(DozeInterval(0, 10.0, 5.0),)))
        metrics = MetricsCollector()
        assert runtime.doze_wake(0, 12.0) == 15.0
        assert runtime.doze_wake(0, 20.0) is None
        assert runtime.doze_wake(1, 12.0) is None
        assert not runtime.slot_heard(0, 9.0, 11.0, metrics)  # overlaps the doze
        assert runtime.slot_heard(0, 15.0, 16.0, metrics)
        assert runtime.slot_heard(1, 9.0, 11.0, metrics)
        assert metrics.doze_slots_missed == 1

    def test_outage_blocks_slots_even_across_recovery(self):
        """The server is down from the crash instant to the recovery
        instant — as the timeline's uplink door finds it: an arrival at
        ``crash.time`` is lost, one at ``crash.end`` validated — and
        every slot overlapping the open outage window was dead air."""
        plan = FaultPlan(crashes=(ServerCrash(10.0, 5.0),))
        config = faulty_config(server_txn_interval=1e12, faults=plan)
        timeline = LiveTimeline(
            config, config.layout(), faults=self._runtime(plan)
        )
        submission = UpdateSubmission("cl0.c1", reads=(), writes=((0, "x"),))
        assert timeline.uplink(9.5, 0, submission) == "ok"
        assert timeline.uplink(10.0, 0, submission) == "crash"
        assert timeline.uplink(14.9, 0, submission) == "crash"
        assert timeline.uplink(15.0, 0, submission) == "ok"
        runtime = self._runtime(plan)
        metrics = MetricsCollector()
        assert not runtime.slot_heard(0, 12.0, 13.0, metrics)
        # a slot that started before the crash and ended inside it was
        # dead air even though the wait completes after recovery
        assert not runtime.slot_heard(0, 9.0, 11.0, metrics)
        # one that ended exactly on the crash was heard in full
        assert runtime.slot_heard(0, 9.0, 10.0, metrics)
        assert runtime.slot_heard(0, 15.0, 16.0, metrics)
        assert metrics.crash_slot_stalls == 2

    def test_slot_heard_routes_to_explicit_collector(self):
        # sharded runs charge doze misses to the collector that measures
        # the client; the runtime keeps none of its own
        runtime = self._runtime(FaultPlan(doze=(DozeInterval(0, 10.0, 5.0),)))
        shard_metrics = MetricsCollector()
        assert not runtime.slot_heard(0, 9.0, 11.0, shard_metrics)
        assert shard_metrics.doze_slots_missed == 1
        assert not hasattr(runtime, "metrics")

    def test_uplink_streams_are_per_client_and_seed(self):
        plan = FaultPlan(uplink_loss_probability=0.5)
        a = FaultRuntime(plan, seed=7)
        b = FaultRuntime(plan, seed=7)
        draws_a = [a.uplink_lost(2) for _ in range(32)]
        draws_b = [b.uplink_lost(2) for _ in range(32)]
        assert draws_a == draws_b
        # interleaving another client's draws must not perturb client 2
        c = FaultRuntime(plan, seed=7)
        draws_c = []
        for _ in range(32):
            c.uplink_lost(0)
            draws_c.append(c.uplink_lost(2))
        assert draws_c == draws_a
        # each stream is numpy's ``default_rng(SeedSequence((seed, client)))``
        # draw for draw, multi-word seeds and clients included, so every
        # pinned faulted digest holds
        for seed in (0, 1, 42, 1999, 2**32 - 1, 2**32, 2**40 + 7):
            for client in (0, 1, 63, 511, 2**33):
                reference = np.random.default_rng(np.random.SeedSequence((seed, client)))
                stream = _UplinkStream(seed, client)
                assert [stream.random() for _ in range(64)] == [
                    reference.random() for _ in range(64)
                ], (seed, client)
        # and the runtime's Bernoulli is a draw from that very stream
        reference = np.random.default_rng(np.random.SeedSequence((7, 2)))
        assert draws_a == [reference.random() < 0.5 for _ in range(32)]

    def test_a_faulted_run_never_loads_numpy_random(self):
        """Uplink loss draws without numpy's random package (about 2 MiB
        resident): a fresh interpreter runs client updates under loss."""
        probe = (
            "import sys\n"
            "from repro.sim import FaultPlan, SimulationConfig, run_simulation\n"
            "config = SimulationConfig(num_objects=40, object_size_bits=1024,\n"
            "    num_clients=3, num_client_transactions=15, client_txn_length=4,\n"
            "    client_update_fraction=0.5, seed=7,\n"
            "    faults=FaultPlan(uplink_loss_probability=0.4))\n"
            "metrics = run_simulation(config).metrics\n"
            "print(metrics.uplink_losses, 'numpy.random' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        losses, loaded = proc.stdout.split()
        assert int(losses) > 0
        assert loaded == "False"


#: the fault plans of the differential corpus (``faults/<plan>/seed=7|21``)
PLANS = [
    "doze-wrap",
    "doze-multi-client",
    "crash-recovery",
    "uplink-loss",
    "uplink-exhausted",
    "combined",
    "unbounded-timestamps",
]


class TestCohortFaultEquivalence:
    """Faults run *inside* the batched path, bit-identically.

    Every plan is held to the per-process reference by the differential
    harness, narrowed to this class's executor: the full observable
    signature (commit multiset, fault-attributed counters, stop time)
    and, untraced and traced, the reference's history.
    """

    #: the executor held to the oracle (subclasses name another)
    executor = "cohort"

    @pytest.mark.parametrize("scenario", PLANS)
    @pytest.mark.parametrize("seed", [7, 21])
    def test_cohort_matches_process_oracle(self, scenario, seed):
        check(
            CORPUS[f"faults/{scenario}/seed={seed}"],
            client_executor=self.executor,
            shards=1,
            timeline_mode="recompute",
        )

    def test_sharded_cohort_matches_oracle_under_faults(self):
        check(
            CORPUS["faults/two-dozers+crash+uplink/bounded"],
            client_executor=self.executor,
            shards=3,
            timeline_mode="recompute",
        )

    @pytest.mark.parametrize("scenario", PLANS)
    @pytest.mark.parametrize("shards", [2, 3])
    def test_replay_sharded_matches_oracle_under_faults(self, scenario, shards):
        """Timeline replay under every fault plan, bit for bit.

        Faulty timelines are never cacheable, and shards whose readers
        outlive the recorded horizon (dozers catching up) must fall back
        to live recomputation without disturbing a single observable.
        """
        cfg = CORPUS[f"faults/{scenario}/seed=7"].replace(
            num_clients=6, num_update_clients=2
        )
        runs = check(
            cfg, client_executor=self.executor, shards=shards, timeline_mode="replay"
        )
        for _, replayed in runs:
            assert replayed.timeline_stats["cache_hit"] is False


class TestAnalyticFaultEquivalence(TestCohortFaultEquivalence):
    """The same three oracle tests under the analytical tier, its
    readers three to a wave (the harness's ``WAVE``) so every run spans
    several waves: a dozing or crash-stalled reader still changes
    nothing but itself."""

    executor = "analytic"


def linear_doze_wake(plan, client, now):
    """:meth:`FaultRuntime.doze_wake` by its definition: scan every window."""
    for interval in plan.doze:
        if interval.client == client and interval.start <= now < interval.end:
            return interval.end
    return None


def linear_miss(plan, client, start, end):
    """What :meth:`FaultRuntime.slot_heard` charges for the slot
    ``[start, end]`` by its definition: ``"crash"`` if it overlaps an
    outage, else ``"doze"`` if it overlaps one of the client's windows,
    else ``None`` (heard)."""
    for crash in plan.crashes:
        if crash.time < end and start < crash.end:
            return "crash"
    for interval in plan.doze:
        if interval.client != client:
            continue
        if interval.start < end and start < interval.end:
            return "doze"
    return None


def assert_lookups_match(plan, probes):
    """Every ``(client, start, end)`` probe: ``doze_wake`` at both ends and
    ``slot_heard`` with the counter it charges, against the scans."""
    runtime = FaultRuntime(plan)
    for client, start, end in probes:
        for now in (start, end):
            assert runtime.doze_wake(client, now) == linear_doze_wake(
                plan, client, now
            ), (client, now)
        metrics = MetricsCollector()
        heard = runtime.slot_heard(client, start, end, metrics)
        miss = linear_miss(plan, client, start, end)
        assert heard == (miss is None), (client, start, end)
        assert (metrics.crash_slot_stalls, metrics.doze_slots_missed) == (
            int(miss == "crash"),
            int(miss == "doze"),
        ), (client, start, end)


class TestDozeLookups:
    """The bisecting lookups ≡ a linear scan of the plan."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        clients=st.integers(1, 4),
        crashed=st.booleans(),
        probes=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.floats(0.0, 1200.0, allow_nan=False),
                st.floats(0.0, 40.0, allow_nan=False),
            ),
            max_size=40,
        ),
    )
    def test_seeded_plans(self, seed, clients, crashed, probes):
        plan = FaultPlan.seeded(
            seed,
            num_clients=clients,
            horizon=1000.0,
            mean_time_between_dozes=60.0,
            mean_doze_duration=25.0,
            crashes=(ServerCrash(400.0, 30.0),) if crashed else (),
        )
        slots = [(client, start, start + width) for client, start, width in probes]
        # every window's edges: slots ending exactly at its start or
        # starting exactly at its end, and ones straddling either edge
        for iv in plan.doze:
            for edge in (iv.start, iv.end):
                slots += [
                    (iv.client, edge - 5.0, edge),
                    (iv.client, edge, edge + 5.0),
                    (iv.client, edge - 1.0, edge + 1.0),
                ]
        assert_lookups_match(plan, slots)

    def test_hand_built_edges(self):
        plan = FaultPlan(
            doze=(
                DozeInterval(0, 10.0, 5.0),
                DozeInterval(0, 15.0, 5.0),  # back to back with the first
                DozeInterval(0, 40.0, 2.0),
            ),
            crashes=(ServerCrash(30.0, 20.0),),  # covers the third window
        )
        runtime = FaultRuntime(plan)
        metrics = MetricsCollector()
        # a slot ending exactly at a window's start, one starting exactly
        # at a (final) window's end: both heard
        assert runtime.slot_heard(0, 5.0, 10.0, metrics)
        assert runtime.slot_heard(0, 20.0, 25.0, metrics)
        assert runtime.doze_wake(0, 10.0) == 15.0
        assert runtime.doze_wake(0, 15.0) == 20.0  # the next window, not None
        assert runtime.doze_wake(0, 20.0) is None
        # a client with no windows hears everything outside the outage
        assert runtime.doze_wake(1, 12.0) is None
        assert runtime.slot_heard(1, 9.0, 21.0, metrics)
        assert (metrics.crash_slot_stalls, metrics.doze_slots_missed) == (0, 0)
        # outage precedence: dead air is charged before the dozing radio
        assert not runtime.slot_heard(0, 39.0, 41.0, metrics)
        assert (metrics.crash_slot_stalls, metrics.doze_slots_missed) == (1, 0)
        assert not runtime.slot_heard(0, 14.0, 16.0, metrics)
        assert (metrics.crash_slot_stalls, metrics.doze_slots_missed) == (1, 1)
        assert_lookups_match(
            plan,
            [
                (client, start, start + width)
                for client in (0, 1)
                for start in (0.0, 5.0, 9.5, 10.0, 14.0, 15.0, 19.9, 20.0, 39.0, 42.0)
                for width in (0.5, 5.0)
            ],
        )


class TestWrapAtTableOneSize:
    """Reads straddling the 2^TS wrap with Table-1's 300 objects and 8-bit
    modulo timestamps: six caching, dozing clients over ~800 cycles, so
    the run crosses cycle 256 three times.  Under every protocol the
    default cohort run equals the per-process reference, counters and
    all, and audits clean — wrap-gap safety included."""

    @staticmethod
    def config(protocol):
        base = SimulationConfig(
            protocol=protocol,
            num_objects=300,
            object_size_bits=1024,
            modulo_timestamps=True,
            timestamp_bits=8,
            num_groups=10,
            num_clients=6,
            client_txn_length=4,
            num_client_transactions=50,
            seed=11,
        )
        # times in cycles of this protocol's broadcast; few server commits
        # keep the audit's distinct cycle images (300 x 300 each) few
        cycle = base.cycle_bits
        return base.replace(
            server_txn_interval=20 * cycle,
            mean_inter_operation_delay=1.5 * cycle,
            mean_inter_transaction_delay=4 * cycle,
            cache_currency_bound=60 * cycle,
            faults=FaultPlan.seeded(
                3,
                num_clients=6,
                horizon=800 * cycle,
                mean_time_between_dozes=80 * cycle,
                mean_doze_duration=30 * cycle,
            ),
            audit=True,
        )

    def test_every_protocol_matches_the_reference_and_audits_clean(self):
        straddling = {256: 0, 512: 0}
        for protocol in PROTOCOL_NAMES:
            config = self.config(protocol)
            cohort = run_simulation(config)
            process = reference_run(config)
            assert signature(cohort) == signature(process), protocol
            m = cohort.metrics
            assert m.cache_hits > 0 and m.doze_slots_missed > 0, protocol
            assert cohort.trace.cycles[-1].cycle > 3 * 256, protocol
            report = cohort.audit_report
            assert report is not None and report.ok, report.format()
            assert "wrap-gap-safety" in report.checked
            for txn in cohort.trace.client_commits:
                cycles = [cycle for _obj, cycle in txn.reads]
                for wrap in straddling:
                    straddling[wrap] += min(cycles) < wrap <= max(cycles)
        # committed read sets span each wrap (under F-Matrix an entry
        # older than the window re-anchors into it and aborts such reads)
        assert all(straddling.values()), straddling
