"""Span arithmetic and the install / uninstall contract of the layer wrappers."""

import json
import sys

import pytest

import perfbench  # noqa: F401  (puts src/ on sys.path)
from perfbench import tracing
from perfbench.tracing import SpanRecorder, TARGETS
from perfbench.workloads import digest

from repro.scenarios import result_signature
from repro.sim import SimulationConfig, run_simulation


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def _nested_trace():
    """root( 0.25 | mid( 1 | leaf 2 | 0.5 | leaf 3 ) | leaf 4 | 0.25 )"""
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    leaf = recorder.wrap("leaf", clock.spend)

    def mid_body():
        clock.spend(1.0)
        leaf(2.0)
        clock.spend(0.5)
        leaf(3.0)

    mid = recorder.wrap("mid", mid_body)

    def root_body():
        clock.spend(0.25)
        mid()
        leaf(4.0)
        clock.spend(0.25)

    recorder.root("repeat", root_body)
    return recorder


def test_self_time_is_duration_minus_child_coverage():
    aggregate = _nested_trace().aggregate("repeat")
    assert aggregate["root_s"] == pytest.approx(11.0)
    assert aggregate["callables"]["mid"] == {
        "calls": 1,
        "total_s": pytest.approx(6.5),
        "self_s": pytest.approx(1.5),
    }
    assert aggregate["callables"]["leaf"] == {
        "calls": 3,
        "total_s": pytest.approx(9.0),
        "self_s": pytest.approx(9.0),
    }
    # root - sum of every wrapped callable's self time
    assert aggregate["unattributed_s"] == pytest.approx(11.0 - 1.5 - 9.0)


def test_spans_carry_parent_and_shared_root_id():
    spans = {span[0]: span for span in _nested_trace().spans}
    by_name = {}
    for span_id, name, _start, _end, parent, root in spans.values():
        by_name.setdefault(name, []).append((span_id, parent, root))
    (root_id, root_parent, root_root), = by_name["repeat"]
    assert root_parent == -1 and root_root == root_id
    (mid_id, mid_parent, _), = by_name["mid"]
    assert mid_parent == root_id
    assert sorted(parent for _id, parent, _root in by_name["leaf"]) == sorted(
        [mid_id, mid_id, root_id]
    )
    assert {root for _id, _name, _s, _e, _p, root in spans.values()} == {root_id}


def test_aggregates_survive_the_span_cap():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock, cap=2)
    leaf = recorder.wrap("leaf", clock.spend)
    recorder.root("repeat", lambda: [leaf(1.0) for _ in range(5)])
    aggregate = recorder.aggregate("repeat")
    assert aggregate["callables"]["leaf"]["calls"] == 5
    assert aggregate["spans_recorded"] == 2 and aggregate["spans_dropped"] == 4


def test_a_raising_callable_still_closes_its_span():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def boom():
        clock.spend(1.0)
        raise ValueError("boom")

    wrapped = recorder.wrap("boom", boom)

    def body():
        with pytest.raises(ValueError):
            wrapped()
        clock.spend(1.0)

    recorder.root("repeat", body)
    aggregate = recorder.aggregate("repeat")
    assert aggregate["callables"]["boom"]["total_s"] == pytest.approx(1.0)
    assert aggregate["unattributed_s"] == pytest.approx(1.0)


def _bindings():
    """Every (namespace, attribute) -> object the install may touch."""
    found = {}
    for paths in TARGETS.values():
        for path in paths:
            owner, attr, original = tracing._resolve(path)
            if isinstance(owner, type):
                found[(owner, attr)] = original
                continue
            for name, module in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    for bound_as, value in list(vars(module).items()):
                        if value is original:
                            found[(module, bound_as)] = original
    return found


def test_install_then_uninstall_restores_identical_objects():
    import repro.core.validators as validators
    import repro.sim.cohort as cohort

    before = _bindings()
    assert (cohort, "validate_read_batch") in before  # a copied binding
    installed = tracing.install()
    try:
        for (owner, attr), original in before.items():
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
        with pytest.raises(RuntimeError):
            tracing.install()
    finally:
        installed.uninstall()
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original
    assert cohort.validate_read_batch is validators.validate_read_batch


def test_a_wrapped_run_has_the_unwrapped_signature(tmp_path):
    config = SimulationConfig(
        num_clients=96,
        num_client_transactions=2,
        client_executor="cohort",
        num_objects=16,
        client_txn_length=8,
        server_txn_interval=200_000.0,
        seed=5,
    )
    plain = digest(result_signature(run_simulation(config)))
    with tracing.install() as recorder:
        traced = recorder.root(
            "repeat", lambda: digest(result_signature(run_simulation(config)))
        )
    assert traced == plain
    aggregate = recorder.aggregate("repeat")
    assert aggregate["callables"]["Simulator.run"]["calls"] == 1
    assert aggregate["callables"]["MetricsCollector.record_commit"]["calls"] == 192
    assert aggregate["callables"]["validate_read_batch_inorder"]["calls"] > 0
    assert aggregate["callables"]["QuasiCache.lookup"]["calls"] == 0
    total_self = sum(c["self_s"] for c in aggregate["callables"].values())
    assert total_self + aggregate["unattributed_s"] == pytest.approx(
        aggregate["root_s"]
    )

    path = tmp_path / "trace.json"
    recorder.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == aggregate["spans_recorded"]
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)
    assert {event["args"]["root"] for event in events} == {
        next(e["args"]["id"] for e in events if e["name"] == "repeat")
    }
