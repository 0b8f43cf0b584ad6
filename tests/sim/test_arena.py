"""Timeline-arena unit tests (repro.sim.arena).

The integration contract — replay-mode sharded runs bit-identical to
the unsharded oracle — is the differential harness's
(tests/differential.py); this
module pins the arena's own mechanics: flat-buffer serialisation and
its identity-based deduplication, the zero-copy shared-memory
lifecycle, view memoisation and exhaustion, the timeline's journal, the
server-side fingerprint, and the cross-run LRU cache.
"""

import itertools
import math
import pickle

import numpy as np
import pytest

from repro.broadcast.control_info import snapshot_payload
from repro.sim import (
    DozeInterval,
    FaultPlan,
    FaultRuntime,
    ServerCrash,
    SimulationConfig,
    TimelineArena,
    TimelineCache,
    TimelineExhausted,
    TimelineView,
    run_simulation,
    timeline_cacheable,
    timeline_fingerprint,
)
from repro.sim.arena import TimelineFeed
from repro.sim.metrics import MetricsCollector
from repro.sim.shard import reader_slices
from repro.sim.simulation import BroadcastSimulation
from repro.sim.timeline import LiveTimeline, fold_journal

BASE = dict(
    num_objects=16,
    num_clients=4,
    num_client_transactions=3,
    client_txn_length=3,
    server_txn_length=4,
    object_size_bits=512,
    mean_inter_operation_delay=4000.0,
    mean_inter_transaction_delay=8000.0,
    server_txn_interval=50000.0,
    client_executor="cohort",
    seed=5,
)


def config(**overrides):
    params = dict(BASE)
    params.update(overrides)
    return SimulationConfig(**params)


def record(cfg):
    """One recording pass over ``cfg``: (simulation, local stop, arena)."""
    recording = BroadcastSimulation(
        cfg, slice_=reader_slices(cfg)[0], record_timeline=True
    )
    stop, _ = recording.execute()
    arena = recording.seal_timeline(horizon_time=stop)
    return recording, stop, arena


@pytest.fixture(scope="module")
def recorded():
    return record(config())


def quiet_boundary(arena):
    """A cycle whose successor is in the same version epoch: cutting
    after it puts a chunk boundary inside a commit-free stretch."""
    epochs = arena.epoch_index
    return next(c for c in range(2, arena.num_cycles) if epochs[c] == epochs[c - 1])


def seal_as(images, recording, stop, cuts):
    """The view of ``images`` sealed whole (``cuts`` empty) or published
    on a feed as chunks ending at each cycle in ``cuts`` and at the last."""
    sealed = dict(
        cycle_bits=float(recording.layout.cycle_bits),
        horizon_time=stop,
        partition=recording.config.partition(),
    )
    if not cuts:
        return TimelineArena.from_images(images, **sealed).view()
    feed = TimelineFeed(shared=False)
    first = 1
    for last in (*cuts, max(images)):
        part = {c: image for c, image in images.items() if first <= c <= last}
        feed.publish(TimelineArena.from_images(part, first_cycle=first, **sealed))
        first = last + 1
    feed.close()
    return TimelineView(feed.chunk)


def whole_and_chunked(arena):
    """The inputs of the view tests: the history as one arena, and as
    chunks cut mid-stretch and again three cycles on."""
    return (), (quiet_boundary(arena), quiet_boundary(arena) + 3)


class TestFromImages:
    def test_view_rebuilds_every_recorded_cycle(self, recorded):
        recording, stop, arena = recorded
        images = recording.timeline.images
        assert images and arena.num_cycles == max(images)
        views = [
            seal_as(images, recording, stop, cuts) for cuts in whole_and_chunked(arena)
        ]
        for view, (cycle, image) in itertools.product(views, images.items()):
            rebuilt = view.broadcast(cycle)
            assert rebuilt.cycle == cycle
            assert rebuilt.num_objects == image.num_objects
            assert [
                (v.value, v.writer, v.commit_cycle) for v in rebuilt.versions
            ] == [
                (v.value, v.writer, v.commit_cycle) for v in image.versions
            ]
            kind, array = snapshot_payload(image.snapshot)
            rebuilt_kind, rebuilt_array = snapshot_payload(rebuilt.snapshot)
            assert rebuilt_kind == kind
            assert np.array_equal(rebuilt_array, array)
            assert rebuilt.snapshot.cycle == image.snapshot.cycle

    def test_snapshot_pool_dedups_quiescent_cycles(self, recorded):
        recording, _, arena = recorded
        images = recording.timeline.images
        distinct = {id(snapshot_payload(im.snapshot)[1]) for im in images.values()}
        assert arena.snap_pool.shape[0] == len(distinct)
        # copy-on-write freeze: quiescent cycles reuse the frozen array,
        # so the pool is strictly denser than one row per cycle
        assert arena.snap_pool.shape[0] < arena.num_cycles

    def test_epoch_table_dedups_commit_free_stretches(self, recorded):
        _, _, arena = recorded
        assert arena.epoch_table.shape[0] < arena.num_cycles
        view = arena.view()
        epochs = arena.epoch_index
        twins = [
            cycle
            for cycle in range(2, arena.num_cycles + 1)
            if epochs[cycle - 1] == epochs[cycle - 2]
        ]
        assert twins  # the workload has at least one quiescent boundary
        cycle = twins[0]
        # one interned version tuple per epoch, shared across its cycles
        assert view.broadcast(cycle).versions is view.broadcast(cycle - 1).versions

    def test_view_memoises_cycles(self, recorded):
        _, _, arena = recorded
        view = arena.view()
        assert view.broadcast(1) is view.broadcast(1)

    def test_reading_past_the_horizon_raises(self, recorded):
        recording, stop, arena = recorded
        beyond = arena.num_cycles + 3
        for cuts in whole_and_chunked(arena):
            view = seal_as(recording.timeline.images, recording, stop, cuts)
            with pytest.raises(TimelineExhausted) as excinfo:
                view.broadcast(beyond)
            assert excinfo.value.cycle == beyond
            assert excinfo.value.horizon_cycle == arena.num_cycles

    def test_dead_air_cycles_mirror_the_live_error(self, recorded):
        recording, stop, _ = recorded
        images = dict(recording.timeline.images)
        del images[2]  # a crash-outage boundary installs no image
        whole = TimelineArena.from_images(
            images,
            cycle_bits=float(recording.layout.cycle_bits),
            horizon_time=stop,
            partition=recording.config.partition(),
        )
        assert whole.snap_index[1] == -1
        # whole, then cut so the dead cycle starts, ends, sits inside a chunk
        for cuts in ((), (1,), (2,), (4,)):
            view = seal_as(images, recording, stop, cuts)
            view.broadcast(1)
            view.broadcast(3)
            with pytest.raises(RuntimeError, match="no broadcast image"):
                view.broadcast(2)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty timeline"):
            TimelineArena.from_images(
                {}, cycle_bits=100.0, horizon_time=0.0, partition=None
            )


class TestJournal:
    def test_apply_journal_honours_the_stop_time(self, recorded):
        """A fold is inclusive — an increment at the stop time counts —
        and a sealed arena carries the recording timeline's own journal."""
        recording, _, arena = recorded
        assert arena.journal is recording.timeline.journal  # shared, not copied
        journal = {
            "reads_delivered": [1.0, 1.0, 9.0, 9.0, 9.0],
            "server_commits": [5.0],
        }
        metrics = MetricsCollector()
        fold_journal(metrics, journal, upto=5.0)
        assert metrics.reads_delivered == 2
        assert metrics.server_commits == 1
        full = MetricsCollector()
        fold_journal(full, journal, upto=9.0)
        assert full.reads_delivered == 5


class TestSharedMemory:
    def test_share_attach_roundtrip(self, recorded):
        _, _, arena = recorded
        handle = arena.share()
        try:
            assert arena.share().shm_name == handle.shm_name  # idempotent
            blob = pickle.dumps(handle)
            # by the handle, and — as a feed's reader does — by name alone
            for attached in (
                TimelineArena.attach(pickle.loads(blob)),
                TimelineArena.attach(name=handle.shm_name),
            ):
                for name in (
                    "snap_pool",
                    "snap_index",
                    "epoch_index",
                    "epoch_table",
                    "entry_commit_cycles",
                ):
                    local = getattr(arena, name)
                    shared = getattr(attached, name)
                    assert np.array_equal(shared, local)
                    assert not shared.flags.writeable  # zero-copy, read-only
                one = arena.view().broadcast(1)
                other = attached.view().broadcast(1)
                assert [
                    (v.value, v.writer, v.commit_cycle) for v in other.versions
                ] == [(v.value, v.writer, v.commit_cycle) for v in one.versions]
        finally:
            arena.close_shared()

    def test_attached_survives_the_owners_unlink(self, recorded):
        _, _, arena = recorded
        handle = arena.share()
        attached = TimelineArena.attach(handle)
        arena.close_shared()
        # POSIX semantics: the mapping outlives the unlink, so a worker
        # mid-replay is never yanked out from under
        assert attached.view().broadcast(1).cycle == 1
        # ...but new attachments find nothing
        with pytest.raises(FileNotFoundError):
            TimelineArena.attach(handle)

    def test_handle_carries_no_numpy_payload(self, recorded):
        _, _, arena = recorded
        handle = arena.share()
        try:
            assert len(pickle.dumps(handle)) < 8192
            assert handle.blocks[0][0] == arena.snap_pool.shape
        finally:
            arena.close_shared()


class TestFingerprint:
    def test_client_side_fields_do_not_move_the_fingerprint(self):
        base = config()
        fp = timeline_fingerprint(base)
        assert fp == timeline_fingerprint(base.replace(num_clients=128))
        assert fp == timeline_fingerprint(
            base.replace(
                mean_inter_operation_delay=1.0,
                mean_inter_transaction_delay=2.0,
                broadcast_loss_probability=0.5,
                client_txn_length=9,
                client_executor="analytic",
            )
        )

    def test_server_side_fields_do(self):
        base = config()
        fp = timeline_fingerprint(base)
        assert fp != timeline_fingerprint(base.replace(seed=6))
        assert fp != timeline_fingerprint(base.replace(protocol="r-matrix"))
        assert fp != timeline_fingerprint(
            base.replace(server_txn_interval=60000.0)
        )
        assert fp != timeline_fingerprint(base.replace(num_objects=32))

    def test_cacheable_refuses_updates_and_faults(self):
        assert timeline_cacheable(config())
        assert timeline_cacheable(config(faults=FaultPlan()))  # no-op plan
        assert not timeline_cacheable(
            config(client_update_fraction=0.5, num_update_clients=2)
        )
        assert not timeline_cacheable(
            config(faults=FaultPlan(doze=(DozeInterval(0, 100.0, 50.0),)))
        )


class TestTimelineCache:
    def test_lru_eviction_hits_and_discard(self, recorded):
        _, _, arena = recorded
        cache = TimelineCache(capacity=2)
        c1, c2, c3 = (config(seed=s) for s in (1, 2, 3))
        assert cache.lookup(c1) is None
        cache.store(c1, arena)
        cache.store(c2, arena)
        assert cache.lookup(c1) is arena  # refreshes c1's recency
        cache.store(c3, arena)  # evicts c2, the least recently used
        assert len(cache) == 2
        assert cache.lookup(c2) is None
        assert cache.lookup(c1) is arena
        cache.discard(c1)
        assert cache.lookup(c1) is None
        cache.discard(c1)  # idempotent: no double count
        stats = cache.stats.as_dict()
        assert stats == {
            "hits": 2,
            "misses": 3,
            "stores": 3,
            "evictions": 1,
            "horizon_discards": 1,
        }

    def test_client_side_variation_is_a_hit(self, recorded):
        _, _, arena = recorded
        cache = TimelineCache()
        cache.store(config(), arena)
        assert cache.lookup(config(num_clients=64)) is arena


class TestRecordingProxy:
    def test_counter_writes_journal_and_pass_through(self):
        """Every increment of a counter the timeline changes is journalled
        at its instant — cycles, commits, a crash, the completions it
        swallows, the cycle its recovery replays — and nothing else holds
        a count: the journal folded at ``t`` is the timeline at ``t``."""
        base = config(server_read_probability=0.0)
        cb = float(base.cycle_bits)
        cfg = base.replace(
            server_txn_interval=cb / 2,
            server_interval_distribution="deterministic",
            faults=FaultPlan(crashes=(ServerCrash(1.25 * cb, cb),)),
        )
        timeline = LiveTimeline(
            cfg, cfg.layout(), faults=FaultRuntime(cfg.faults)
        )
        timeline.advance_to(2.5 * cb)
        journal = {name: list(instants) for name, instants in timeline.journal.items()}
        assert journal == {
            "cycles_broadcast": [0.0, cb, 2.25 * cb],
            "server_commits": [0.5 * cb, cb, 2.5 * cb],
            "server_txns_lost": [1.5 * cb, 2 * cb],
            "server_crashes": [1.25 * cb],
            "quiescent_replay_cycles": [2.25 * cb],
        }
        assert not hasattr(timeline, "metrics")
        early = MetricsCollector()
        fold_journal(early, timeline.journal, upto=1.25 * cb)
        assert early.counters() == {
            **MetricsCollector().counters(),
            "cycles_broadcast": 2,
            "server_commits": 2,
            "server_crashes": 1,
        }

    def test_a_recording_pass_counts_the_timeline_in_the_journal_only(self):
        """One rule for every run: a simulation's collector holds what its
        clients did, and what the timeline did is its journal, from t = 0
        through any horizon extension, folded at whatever stop is asked.
        A live unsharded run's counters are its journal folded at its stop."""
        cfg = config()
        recording, stop, _ = record(cfg)
        live = BroadcastSimulation(cfg, slice_=reader_slices(cfg)[0])
        assert live.execute()[0] == stop
        for simulation in (recording, live):
            assert simulation.metrics.server_commits == 0
            assert simulation.metrics.cycles_broadcast == 0
        assert recording.metrics.reads_delivered == live.metrics.reads_delivered
        result = run_simulation(cfg)
        assert result.sim_time == stop
        assert result.metrics.server_commits == len(result.server.database.commit_log)
        folded = MetricsCollector()
        folded.merge_from(live.metrics)
        fold_journal(folded, live.timeline.journal, upto=stop)
        assert folded.counters() == result.metrics.counters()
        horizon = 2 * stop
        recording.timeline.advance_to(horizon)
        arena = recording.seal_timeline(horizon_time=horizon)
        for upto in (stop, 1.5 * stop, horizon):  # ascending: one live run
            live.timeline.advance_to(upto)
            advanced = MetricsCollector()
            advanced.merge_from(live.metrics)
            fold_journal(advanced, live.timeline.journal, upto=math.inf)
            replayed = MetricsCollector()
            replayed.merge_from(recording.metrics)
            fold_journal(replayed, arena.journal, upto=upto)
            assert replayed.counters() == advanced.counters()
