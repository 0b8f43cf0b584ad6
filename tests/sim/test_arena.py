"""Timeline-arena unit tests (repro.sim.arena).

The integration contract — replay-mode sharded runs bit-identical to
the unsharded oracle — lives in test_shard.py / test_faults.py; this
module pins the arena's own mechanics: flat-buffer serialisation and
its identity-based deduplication, the zero-copy shared-memory
lifecycle, view memoisation and exhaustion, the metrics journal, the
server-side fingerprint, and the cross-run LRU cache.
"""

import itertools
import pickle

import numpy as np
import pytest

from repro.broadcast.control_info import snapshot_payload
from repro.sim import (
    DozeInterval,
    FaultPlan,
    SimulationConfig,
    TimelineArena,
    TimelineCache,
    TimelineExhausted,
    TimelineView,
    timeline_cacheable,
    timeline_fingerprint,
)
from repro.sim.arena import RecordingTimelineMetrics, TimelineFeed
from repro.sim.metrics import MetricsCollector
from repro.sim.shard import reader_slices
from repro.sim.simulation import BroadcastSimulation

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
    def _arena_with_journal(self, recorded, journal):
        recording, stop, _ = recorded
        return TimelineArena.from_images(
            recording.timeline.images,
            cycle_bits=float(recording.layout.cycle_bits),
            horizon_time=stop,
            partition=recording.config.partition(),
            journal=journal,
        )

    def test_apply_journal_honours_the_stop_time(self, recorded):
        arena = self._arena_with_journal(
            recorded,
            (
                (1.0, "reads_delivered", 2),
                (5.0, "server_commits", 1),
                (9.0, "reads_delivered", 3),
            ),
        )
        metrics = MetricsCollector()
        arena.apply_journal(metrics, upto=5.0)
        assert metrics.reads_delivered == 2
        assert metrics.server_commits == 1
        full = MetricsCollector()
        arena.apply_journal(full, upto=9.0)
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


class _Clock:
    def __init__(self):
        self.now = 0.0


class TestRecordingProxy:
    def test_counter_writes_journal_and_pass_through(self):
        """Counter writes are journalled with their time and delta; the
        running total stays with the recorder (``+=`` reads it back) and
        reaches a measured collector only through the journal fold."""
        clock = _Clock()
        recorder = RecordingTimelineMetrics(clock)
        assert recorder.journal == []  # zeroing the counters is no increment
        recorder.reads_delivered += 2
        clock.now = 4.0
        recorder.server_commits += 1
        recorder.reads_delivered += 3
        recorder.listening_bits += 512.0
        assert recorder.reads_delivered == 5
        assert recorder.journal == [
            (0.0, "reads_delivered", 2),
            (4.0, "server_commits", 1),
            (4.0, "reads_delivered", 3),
            (4.0, "listening_bits", 512.0),
        ]
        arena = TestJournal()._arena_with_journal(record(config()), recorder.journal)
        early, late = MetricsCollector(), MetricsCollector()
        arena.apply_journal(early, upto=3.9)
        arena.apply_journal(late, upto=4.0)
        assert early.counters() == {**MetricsCollector().counters(), "reads_delivered": 2}
        assert late.counters() == recorder.counters()

    def test_a_recording_pass_counts_the_timeline_in_the_journal_only(self):
        """One rule under replay: the pass's measured collector holds what
        its clients did; what the timeline did is the journal, from t = 0
        through the horizon extension, folded at whatever stop is asked."""
        cfg = config()
        recording, stop, _ = record(cfg)
        live = BroadcastSimulation(cfg, slice_=reader_slices(cfg)[0])
        assert live.execute()[0] == stop
        assert recording.metrics.server_commits == 0
        assert recording.metrics.cycles_broadcast == 0
        assert recording.metrics.reads_delivered == live.metrics.reads_delivered
        horizon = 2 * stop
        recording.timeline.advance_to(horizon)
        arena = recording.seal_timeline(horizon_time=horizon)
        for upto in (stop, 1.5 * stop, horizon):  # ascending: one live run
            live.timeline.advance_to(upto)
            replayed = MetricsCollector()
            replayed.merge_from(recording.metrics)
            arena.apply_journal(replayed, upto=upto)
            assert replayed.counters() == live.metrics.counters()
