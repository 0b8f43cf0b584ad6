"""Unit tests for what the clients hear: the broadcast timeline's images
and its cycle and server streams (repro.sim.timeline)."""

import math

import pytest

from repro.sim.config import SimulationConfig
from repro.sim.metrics import MetricsCollector
from repro.sim.timeline import LiveTimeline, fold_journal


def tiny_config(**overrides):
    params = dict(
        num_objects=10,
        num_client_transactions=5,
        client_txn_length=2,
        server_txn_length=3,
        object_size_bits=128,
        seed=1,
    )
    params.update(overrides)
    return SimulationConfig(**params)


def quiet_timeline(**overrides):
    """A timeline whose server completes nothing for the first cycles."""
    config = tiny_config(server_txn_interval=1e12, **overrides)
    return LiveTimeline(config, config.layout()), config.layout().cycle_bits


def counters(timeline):
    """What the timeline counted so far: its journal, folded."""
    metrics = MetricsCollector()
    fold_journal(metrics, timeline.journal, upto=math.inf)
    return metrics


class TestSharedState:
    """What a read hears: the image of its slot's cycle, with the timeline
    advanced to the slot's end first."""

    def test_broadcast_for_current_and_previous(self):
        timeline, cycle_bits = quiet_timeline()
        # a read in cycle 2 advances the timeline there: both images held
        timeline.advance_to(1.5 * cycle_bits)
        assert timeline.broadcast(2).cycle == 2
        assert timeline.broadcast(1).cycle == 1
        # the last slot of cycle 1 ends on the boundary that opens cycle 2
        fresh, _ = quiet_timeline()
        fresh.advance_to(cycle_bits)
        assert sorted(fresh.images) == [1, 2]
        assert fresh.broadcast(1).cycle == 1

    def test_older_broadcasts_dropped(self):
        timeline, cycle_bits = quiet_timeline()
        timeline.advance_to(2.5 * cycle_bits)
        assert sorted(timeline.images) == [2, 3]
        with pytest.raises(RuntimeError, match="no broadcast image"):
            timeline.broadcast(1)
        # ...unless the timeline retains them (analytic tier, recording)
        config = tiny_config(server_txn_interval=1e12)
        keeping = LiveTimeline(config, config.layout(), keep_images=True)
        keeping.advance_to(2.5 * cycle_bits)
        assert keeping.broadcast(1).cycle == 1


class TestCycleProcess:
    def test_one_snapshot_per_cycle(self):
        timeline, cycle_bits = quiet_timeline()
        timeline.advance_to(cycle_bits * 3.5)
        # cycles 1..4 began (the 4th at t = 3*cycle_bits)
        assert max(timeline.images) == 4
        assert timeline.broadcast(3).cycle == 3
        assert counters(timeline).cycles_broadcast == 4
        assert timeline.now == 3 * cycle_bits

    def test_snapshot_frozen_at_cycle_start(self):
        timeline, cycle_bits = quiet_timeline()
        timeline.advance_to(cycle_bits * 0.5)
        timeline.server.commit_update("w", [], {0: "x"}, cycle=1)
        timeline.advance_to(cycle_bits * 1.5)
        # the cycle-1 image predates the commit; the cycle-2 image sees it
        assert timeline.broadcast(1).version(0).writer == "t0"
        assert timeline.broadcast(2).version(0).writer == "w"

    def test_advancing_backwards_is_a_no_op(self):
        timeline, cycle_bits = quiet_timeline()
        timeline.advance_to(cycle_bits * 2.5)
        timeline.advance_to(cycle_bits * 0.5)
        assert max(timeline.images) == 3 and timeline.now == 2 * cycle_bits


class TestServerProcess:
    def _run(self, config, duration_cycles=20):
        layout = config.layout()
        timeline = LiveTimeline(config, layout)
        timeline.advance_to(layout.cycle_bits * duration_cycles)
        return timeline.server, counters(timeline), layout.cycle_bits * duration_cycles

    def test_commit_rate_close_to_configured(self):
        config = tiny_config(
            server_txn_interval=5_000.0,
            server_interval_distribution="deterministic",
        )
        server, metrics, until = self._run(config)
        completions = int(until // config.server_txn_interval)
        # read_probability 0.5 & length 3: ~1/8 of txns are read-only noops
        assert metrics.server_commits <= completions
        assert metrics.server_commits >= completions * 0.5
        assert len(server.database.commit_log) == metrics.server_commits

    def test_read_only_server_txns_skipped(self):
        config = tiny_config(
            server_txn_interval=5_000.0, server_read_probability=1.0
        )
        server, metrics, _until = self._run(config)
        assert metrics.server_commits == 0
        assert not server.database.commit_log

    def test_commit_cycles_match_layout(self):
        config = tiny_config(server_txn_interval=3_000.0)
        server, _metrics, _until = self._run(config, duration_cycles=6)
        assert server.database.commit_log
        for record in server.database.commit_log:
            assert 1 <= record.commit_cycle <= 7
