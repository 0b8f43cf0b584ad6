"""Tests for the quasi-cache (repro.client.cache)."""

import pytest

from repro.client.cache import QuasiCache
from repro.server.server import BroadcastServer


@pytest.fixture
def broadcast():
    server = BroadcastServer(4, "f-matrix")
    return server.begin_cycle(1)


class TestLookup:
    def test_hit_within_bound(self, broadcast):
        cache = QuasiCache(1000.0)
        cache.insert(broadcast, 0, now=0.0)
        entry = cache.lookup(0, now=500.0)
        assert entry is not None
        assert entry.version.obj == 0
        assert cache.hits == 1

    def test_miss_when_absent(self, broadcast):
        cache = QuasiCache(1000.0)
        assert cache.lookup(0, now=0.0) is None
        assert cache.misses == 1

    def test_expiry_is_local(self, broadcast):
        cache = QuasiCache(1000.0)
        cache.insert(broadcast, 0, now=0.0)
        assert cache.lookup(0, now=1500.0) is None
        assert 0 not in cache

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            QuasiCache(-1.0)


class TestEvictionAndCapacity:
    def test_capacity_drops_expired_before_fresh(self, broadcast):
        """At capacity every dead entry goes, not only the stalest one:
        an expired entry can never serve another hit."""
        cache = QuasiCache(50.0, capacity=3)
        cache.insert(broadcast, 0, now=0.0)   # expired after t=50
        cache.insert(broadcast, 1, now=10.0)  # expired after t=60
        cache.insert(broadcast, 2, now=55.0)
        cache.insert(broadcast, 3, now=70.0)  # at capacity: 0 and 1 are dead
        assert 0 not in cache and 1 not in cache
        assert 2 in cache and 3 in cache

    def test_capacity_mixed_bounds_evicts_stalest_fresh(self, broadcast):
        """With no expired entry present the stalest fresh one goes."""
        cache = QuasiCache(500.0, capacity=2)
        cache.insert(broadcast, 0, now=0.0)
        cache.insert(broadcast, 1, now=10.0)
        cache.insert(broadcast, 2, now=100.0)  # both fresh: oldest goes
        assert 0 not in cache
        assert 1 in cache and 2 in cache

    def test_capacity_evicts_stalest(self, broadcast):
        cache = QuasiCache(1e9, capacity=2)
        cache.insert(broadcast, 0, now=0.0)
        cache.insert(broadcast, 1, now=10.0)
        cache.insert(broadcast, 2, now=20.0)  # evicts object 0
        assert 0 not in cache and 1 in cache and 2 in cache

    def test_reinsert_does_not_evict(self, broadcast):
        cache = QuasiCache(1e9, capacity=2)
        cache.insert(broadcast, 0, now=0.0)
        cache.insert(broadcast, 1, now=10.0)
        cache.insert(broadcast, 0, now=20.0)  # refresh in place
        assert len(cache) == 2 and 1 in cache

    def test_explicit_evict(self, broadcast):
        cache = QuasiCache(1e9)
        cache.insert(broadcast, 0, now=0.0)
        assert cache.evict(0)
        assert not cache.evict(0)

    def test_expire_sweep(self, broadcast):
        cache = QuasiCache(100.0)
        cache.insert(broadcast, 0, now=0.0)
        cache.insert(broadcast, 1, now=50.0)
        assert cache.expire(now=120.0) == 1  # only object 0 is stale
        assert 1 in cache


class TestEntryAsBroadcast:
    def test_presents_cached_cycle(self, broadcast):
        cache = QuasiCache(1e9)
        entry = cache.insert(broadcast, 2, now=0.0)
        bc = entry.as_broadcast()
        assert bc.cycle == 1
        assert bc.version(2).obj == 2

    def test_other_objects_inaccessible(self, broadcast):
        cache = QuasiCache(1e9)
        entry = cache.insert(broadcast, 2, now=0.0)
        bc = entry.as_broadcast()
        with pytest.raises(Exception):
            _ = bc.version(3)

    def test_objects_below_cached_id_raise_index_error(self, broadcast):
        """Regression: ids below the cached one were padded with ``None``.

        The documented contract is ``IndexError`` at access time; the
        padding used to hand ``None`` back silently, failing later with
        an opaque ``AttributeError`` far from the mis-indexed read.
        """
        cache = QuasiCache(1e9)
        entry = cache.insert(broadcast, 2, now=0.0)
        bc = entry.as_broadcast()
        with pytest.raises(IndexError, match="holds only object 2"):
            bc.version(0)
        with pytest.raises(IndexError, match="read off the air"):
            bc.version(1)

    def test_objects_above_cached_id_raise_index_error(self, broadcast):
        cache = QuasiCache(1e9)
        entry = cache.insert(broadcast, 1, now=0.0)
        with pytest.raises(IndexError, match="holds only object 1"):
            entry.as_broadcast().version(3)
