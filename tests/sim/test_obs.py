"""Observability tests (repro.obs; docs/OBSERVABILITY.md).

Three contracts, in increasing order of subtlety:

* **Disabled tracing is free and invisible.**  Untraced runs must be
  bit-identical to the pre-observability code — pinned here as sha256
  digests of the full observable signature, captured from the commit
  preceding the obs subsystem.

* **Enabled tracing is deterministic and non-perturbing.**  A traced
  run's metrics equal the untraced run's exactly, and its spans
  serialise identically across executors.  That the canonical span
  stream is the same under every executor, shard count and timeline
  mode is the differential harness's (tests/differential.py): every
  corpus row and generated document runs traced and untraced; the
  span-stream tests here narrow it to the ``obs/*`` rows.

* **Spans reconcile with counters.**  Span counts are not decorative:
  the harness's ``reconcile`` holds txn spans == commits, per-cause
  attempt aborts == abort counters, cycle spans == cycles_broadcast,
  crash spans == server_crashes on every traced run.
"""

import json
from types import SimpleNamespace

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    canonical_spans,
    chrome_trace,
    render_telemetry,
    spans_to_jsonl,
    telemetry_from_result,
)
from repro.sim import MetricsCollector, SimulationConfig
from repro.obs.tracer import DEFAULT_CAPACITY

from tests.differential import CORPUS, check, run

#: two updaters, a dozer, a crash and a lossy uplink under 4-bit modulo
#: timestamps: the run the pins and the traced-run tests below use
FAULTED = CORPUS["obs/faulted"]


def signature_digest(result):
    """sha256 over the observables the pins were taken of: commits, stop
    time, listening bits and read tallies."""
    import hashlib

    m = result.metrics
    payload = repr(
        (
            sorted(
                (s.tid, s.submit_time, s.commit_time, s.restarts)
                for s in m.samples
            ),
            result.sim_time,
            m.listening_bits,
            m.reads_delivered,
            m.reads_rejected,
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: digests of untraced runs — tracing off must stay bit-identical, and
#: every executor and shard layout gives the same one.  The engine's
#: event count is left out: it counts client scheduling, which differs
#: by design.  First computed where the digests with events still held
#: their pins from the commit before the obs subsystem landed (c1142d4);
#: re-taken when modulo runs began carrying absolute cycles (the 4-bit
#: wire no longer aliases aged control entries into conflicts)
PINNED = {
    ("process", 1, "recompute"): (
        "349e13796cad8e095c2fbb2a06aa06843e88d435eabfcce6e71aba36c22d206e"
    ),
    ("cohort", 1, "recompute"): (
        "349e13796cad8e095c2fbb2a06aa06843e88d435eabfcce6e71aba36c22d206e"
    ),
    ("cohort", 2, "replay"): (
        "349e13796cad8e095c2fbb2a06aa06843e88d435eabfcce6e71aba36c22d206e"
    ),
}


class TestTracerUnit:
    def test_ring_buffer_overwrites_and_counts_drops(self):
        tracer = Tracer(3)
        for k in range(5):
            tracer.emit(float(k), float(k), "client", 0, "attempt", "ok", str(k))
        assert len(tracer) == 3
        assert tracer.dropped == 2
        exported = tracer.export()
        assert [s.detail for s in exported] == ["2", "3", "4"]  # oldest first

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(0)

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        NULL_TRACER.emit(0.0, 1.0, "client", 0, "attempt", "ok", "t")
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.export() == []
        assert Tracer.enabled is True  # class-attribute guard, one lookup

    def test_canonical_spans_sorts_and_truncates(self):
        a = Span(5.0, 6.0, "client", 1, "attempt", "ok", "x")
        b = Span(1.0, 2.0, "client", 0, "attempt", "ok", "y")
        late = Span(10.5, 11.0, "timeline", 0, "cycle", "ok", "9")
        merged = canonical_spans([[a, late], [b]], upto=10.0)
        assert merged == [b, a]  # sorted, the post-horizon span dropped

    def test_config_rejects_bad_trace_buffer(self):
        """Any: the capacity is ``DEFAULT_CAPACITY``, no longer a field, so
        a config document recorded while it was one is an unknown field."""
        with pytest.raises(ValueError, match="trace_buffer"):
            SimulationConfig.from_dict({"tracing": True, "trace_buffer": 1 << 20})
        assert Tracer().capacity == DEFAULT_CAPACITY

class TestRegistryUnit:
    """The telemetry document of a finished result (no registry object is
    left: nothing outside this file ever merged or incremented one)."""

    def test_histogram_power_of_two_buckets(self):
        metrics = MetricsCollector()
        for k, response in enumerate([0.0, 1.0, 1.5, 8.0, 9.0]):
            metrics.record_commit(f"t{k}", 0.0, response, 0)
        result = SimpleNamespace(
            metrics=metrics, sim_time=9.0, events=0, timeline_stats=None
        )
        document = telemetry_from_result(result)
        hist = document["histograms"]["response_time_bits"]
        # bucket k covers (2^(k-1), 2^k]; bucket 0 holds <= 1
        assert hist["buckets"] == {"0": 2, "1": 1, "3": 1, "4": 1}
        assert hist["total"] == 5
        assert hist["sum"] / hist["total"] == pytest.approx(19.5 / 5)
        assert (
            "response_time_bits: n=5 mean=3.9 "
            "buckets={2^0: 2, 2^1: 1, 2^3: 1, 2^4: 1}"
        ) in render_telemetry(document)

    def test_registry_from_result_subsumes_metrics(self):
        result = run(FAULTED.replace(tracing=True))
        payload = telemetry_from_result(result)
        m = result.metrics
        assert payload["counters"]["commits"] == m.commit_count
        for name in MetricsCollector._COUNTER_FIELDS:
            assert payload["counters"][name] == float(getattr(m, name))
        assert payload["gauges"]["sim_time"] == result.sim_time
        # histograms observe every commit straight off the arrays
        assert payload["histograms"]["response_time_bits"]["total"] == (
            m.commit_count
        )
        assert result.telemetry() == payload  # the result-side hook


class TestUntracedBitIdentity:
    @pytest.mark.parametrize("executor,shards,mode", sorted(PINNED))
    def test_untraced_signature_pinned(self, executor, shards, mode):
        config = FAULTED.replace(
            client_executor=executor, shards=shards, timeline_mode=mode
        )
        assert config.tracing is False  # the default stays off
        result = run(config)
        assert signature_digest(result) == PINNED[(executor, shards, mode)]
        assert result.spans is None and result.spans_dropped == 0


class TestTracedDeterminism:
    def test_traced_metrics_equal_untraced(self):
        for executor, shards, mode in sorted(PINNED):
            config = FAULTED.replace(
                client_executor=executor,
                shards=shards,
                timeline_mode=mode,
                tracing=True,
            )
            result = run(config)
            assert signature_digest(result) == PINNED[(executor, shards, mode)]

    @pytest.mark.parametrize("mode", ["recompute", "replay"])
    def test_span_stream_identical_across_shards(self, mode):
        runs = check(
            FAULTED,
            client_executor="cohort",
            shards=(1, 2, 3),
            timeline_mode=mode,
            tracing=True,
        )
        for setting, result in runs:
            assert result.spans, f"no spans at shards={setting.shards} mode={mode}"

    def test_span_stream_identical_across_executors_fault_free(self):
        """process vs cohort vs analytic, fault-free: one span stream."""
        check(
            CORPUS["obs/fault-free"],
            shards=1,
            timeline_mode="recompute",
            tracing=True,
        )

    def test_span_stream_identical_across_executors_under_faults(self):
        """process vs cohort vs analytic under one faulted plan (an
        updater and a reader doze, a crash, a lossy uplink), the
        analytical tier's readers three to a wave: one span stream."""
        runs = check(
            CORPUS["obs/two-dozers"],
            shards=1,
            timeline_mode="recompute",
            tracing=True,
        )
        for _, result in runs:
            assert result.spans and result.metrics.doze_slots_missed

    def test_traced_process_vs_cohort_under_faults(self):
        check(
            FAULTED,
            client_executor="cohort",
            shards=1,
            timeline_mode="recompute",
            tracing=True,
        )

    def test_jsonl_export_byte_identical_across_executors(self):
        """Equal spans must also serialise equally: the process executor
        stamps an int ``sim.now`` where the others compute a float."""
        config = SimulationConfig(
            protocol="datacycle",
            num_objects=20,
            num_clients=17,
            num_client_transactions=3,
            seed=524,
            delay_before_first_operation=True,
            modulo_timestamps=True,
            server_txn_interval=1e5,
            mean_inter_operation_delay=2000.0,
            tracing=True,
        )
        exports = {
            executor: spans_to_jsonl(
                run(config.replace(client_executor=executor)).spans
            )
            for executor in ("process", "cohort", "analytic")
        }
        assert exports["cohort"] == exports["process"]
        assert exports["analytic"] == exports["process"]

    def test_traced_runs_never_populate_or_hit_the_timeline_cache(self):
        from repro.sim.arena import timeline_cacheable

        fault_free = FAULTED.replace(
            faults=None,
            client_update_fraction=0.0,
            num_update_clients=None,
            tracing=True,
        )
        assert not timeline_cacheable(fault_free)
        untraced = FAULTED.replace(
            faults=None, client_update_fraction=0.0, num_update_clients=None
        )
        assert timeline_cacheable(untraced)


class TestReconciliation:
    @pytest.fixture(scope="class")
    def traced_replay(self):
        return run(
            FAULTED.replace(
                client_executor="cohort", shards=2, timeline_mode="replay", tracing=True
            )
        )

    def test_chrome_trace_document_shape(self, traced_replay):
        result = traced_replay
        document = chrome_trace(
            result.shard_spans,
            counters=result.telemetry()["counters"],
            profile=result.profile,
        )
        # must survive a JSON round trip (the Perfetto contract)
        document = json.loads(json.dumps(document))
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        pids = {e["pid"] for e in events}
        assert pids == {0, 1}  # one process lane per shard
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert names == {"shard 0 (timeline)", "shard 1"}
        for event in events:
            if event["ph"] == "X":
                assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
                assert event["dur"] >= 0
        # timeline lanes live only in the primary shard's process
        timeline_pids = {e["pid"] for e in events if e.get("cat") == "timeline"}
        assert timeline_pids == {0}
        assert document["otherData"]["counters"]["commits"] == (
            result.metrics.commit_count
        )
        assert "replay" in document["otherData"]["profile_seconds"]

    def test_spans_jsonl_round_trips(self, traced_replay):
        lines = spans_to_jsonl(traced_replay.spans).splitlines()
        assert len(lines) == len(traced_replay.spans)
        rebuilt = [Span(**json.loads(line)) for line in lines]
        assert rebuilt == traced_replay.spans

    def test_profile_covers_the_replay_phases(self, traced_replay):
        profile = traced_replay.profile
        assert profile is not None
        assert {"record", "extend", "seal", "replay", "merge", "drive"} <= set(
            profile
        )
        assert all(v >= 0 for v in profile.values())
