"""Tests for replicated runs (repro.sim.batch)."""

import pytest

from repro.sim.batch import replicate, replication_seeds
from repro.sim.config import SimulationConfig


def tiny_config(**overrides):
    params = dict(
        num_objects=30,
        num_client_transactions=12,
        client_txn_length=3,
        server_txn_length=4,
        object_size_bits=512,
        seed=6,
    )
    params.update(overrides)
    return SimulationConfig(**params)


class TestReplicationSeeds:
    def test_distinct_and_deterministic(self):
        seeds = replication_seeds(42, 5)
        assert len(set(seeds)) == 5
        assert seeds == replication_seeds(42, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            replication_seeds(1, 0)


class TestReplicate:
    def test_pools_means(self):
        pooled = replicate(tiny_config(), replications=3)
        assert pooled.replications == 3
        assert len(pooled.response_means) == 3
        expected_mean = sum(pooled.response_means) / 3
        assert pooled.response_time.mean == pytest.approx(expected_mean)

    def test_replications_differ(self):
        pooled = replicate(tiny_config(), replications=3)
        assert len(set(pooled.response_means)) > 1

    def test_parallel_equals_sequential(self):
        sequential = replicate(tiny_config(), replications=3)
        parallel = replicate(tiny_config(), replications=3, workers=2)
        assert sequential.response_means == parallel.response_means
        assert sequential.restart_means == parallel.restart_means
