"""Tests for workload generators (repro.server.workload)."""

import itertools
import random

import pytest

from repro.server.workload import (
    ClientWorkload,
    ServerTransactionSpec,
    ServerWorkload,
    sample_ids,
)


def assert_draws_like_stdlib(n, k, seed):
    """``sample_ids`` returns what ``Random.sample`` returns and leaves the
    generator where ``Random.sample`` leaves it."""
    ours, stdlib = random.Random(seed), random.Random(seed)
    assert sample_ids(ours, n, k) == stdlib.sample(range(n), k), (n, k, seed)
    assert ours.getstate() == stdlib.getstate(), (n, k, seed)


class TestSampleIds:
    def test_every_small_population_draws_like_stdlib(self):
        for n in range(1, 97):
            for k in range(1, min(n, 12) + 1):
                for seed in range(3):
                    assert_draws_like_stdlib(n, k, seed)

    @pytest.mark.parametrize("n", [300, 500])
    def test_table1_populations_draw_like_stdlib(self, n):
        for seed in range(3):
            assert_draws_like_stdlib(n, 8, seed)

    @pytest.mark.parametrize("k, setsize", [(5, 21), (8, 85), (22, 277), (86, 1045)])
    def test_branch_boundary(self, k, setsize):
        """The stdlib swaps out of a pool up to n = 21 + 4**ceil(log(3k, 4))
        (k = 8: 85) and rejects into a set past it: both sides agree."""
        for n in (setsize, setsize + 1):
            for seed in range(10):
                assert_draws_like_stdlib(n, k, seed)

    def test_bad_k_refused(self):
        with pytest.raises(ValueError):
            sample_ids(random.Random(0), 3, 4)
        with pytest.raises(ValueError):
            sample_ids(random.Random(0), 3, -1)


class TestServerWorkload:
    def test_first_specs_pinned(self):
        """The draw order every pinned digest rests on, as literals: an
        interpreter whose ``random`` differs fails here by name."""
        wl = ServerWorkload(300, seed=42)
        assert [wl.next_transaction() for _ in range(5)] == [
            ServerTransactionSpec("s1", (57, 12, 140, 125, 71, 52), (114, 279)),
            ServerTransactionSpec("s2", (279, 214, 229, 142, 3), (112, 81, 216)),
            ServerTransactionSpec("s3", (40, 282, 150), (22, 235, 274, 63, 193)),
            ServerTransactionSpec("s4", (40, 119, 51, 186), (194, 142, 232, 83)),
            ServerTransactionSpec("s5", (83, 236, 194, 138, 285, 28), (112, 166)),
        ]

    def test_length_and_uniqueness(self):
        wl = ServerWorkload(20, length=8, seed=1)
        for spec in itertools.islice(wl, 50):
            accessed = spec.read_set + spec.write_set
            assert len(accessed) == 8
            assert len(set(accessed)) == 8  # no repeats

    def test_read_probability_extremes(self):
        all_reads = ServerWorkload(10, length=4, read_probability=1.0, seed=2)
        spec = all_reads.next_transaction()
        assert not spec.write_set and not spec.is_update
        all_writes = ServerWorkload(10, length=4, read_probability=0.0, seed=2)
        spec = all_writes.next_transaction()
        assert not spec.read_set and spec.is_update

    def test_read_probability_roughly_respected(self):
        wl = ServerWorkload(40, length=10, read_probability=0.5, seed=3)
        reads = sum(len(s.read_set) for s in itertools.islice(wl, 200))
        assert 800 < reads < 1200  # ~1000 expected

    def test_deterministic_by_seed(self):
        a = [ServerWorkload(10, seed=7).next_transaction() for _ in range(3)]
        b = [ServerWorkload(10, seed=7).next_transaction() for _ in range(3)]
        # fresh generators with the same seed agree
        a2 = ServerWorkload(10, seed=7)
        b2 = ServerWorkload(10, seed=7)
        assert [a2.next_transaction() for _ in range(3)] == [
            b2.next_transaction() for _ in range(3)
        ]

    def test_ids_unique(self):
        wl = ServerWorkload(10, seed=0)
        tids = {wl.next_transaction().tid for _ in range(10)}
        assert len(tids) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerWorkload(4, length=5)
        with pytest.raises(ValueError):
            ServerWorkload(4, length=0)
        with pytest.raises(ValueError):
            ServerWorkload(4, read_probability=1.5)


class TestClientWorkload:
    def test_read_sets(self):
        wl = ClientWorkload(10, length=4, seed=1)
        for _ in range(20):
            tid, objs = wl.next_transaction()
            assert len(objs) == 4 and len(set(objs)) == 4
            assert all(0 <= o < 10 for o in objs)

    def test_uniform_coverage(self):
        wl = ClientWorkload(5, length=1, seed=2)
        seen = {wl.next_read_set()[0] for _ in range(200)}
        assert seen == set(range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientWorkload(3, length=4)
        with pytest.raises(ValueError):
            ClientWorkload(10, access_skew=1.5)
        with pytest.raises(ValueError):
            ClientWorkload(10, hot_fraction=0.0)

    def test_skewed_access_prefers_hot_set(self):
        wl = ClientWorkload(100, length=4, seed=5, access_skew=0.9, hot_fraction=0.1)
        assert wl.hot_set_size == 10
        hot_reads = 0
        total = 0
        for _ in range(200):
            for obj in wl.next_read_set():
                total += 1
                if obj < wl.hot_set_size:
                    hot_reads += 1
        assert hot_reads / total > 0.6  # ~0.9 requested, minus exhaustion

    def test_skewed_reads_still_unique(self):
        wl = ClientWorkload(20, length=5, seed=6, access_skew=0.9, hot_fraction=0.1)
        for _ in range(50):
            objs = wl.next_read_set()
            assert len(set(objs)) == len(objs) == 5

    def test_skew_exhausts_hot_set_gracefully(self):
        # hot set smaller than the transaction length: falls back to cold
        wl = ClientWorkload(10, length=5, seed=7, access_skew=1.0, hot_fraction=0.1)
        objs = wl.next_read_set()
        assert len(set(objs)) == 5
