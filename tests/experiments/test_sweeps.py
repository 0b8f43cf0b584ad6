"""Tests for the sweep machinery (repro.experiments.sweeps)."""

import pickle

import pytest

from repro.sim.config import SimulationConfig
from repro.experiments.sweeps import Point, _run_grid_point, run_sweep


def tiny_base(**overrides):
    params = dict(
        num_objects=30,
        num_client_transactions=10,
        client_txn_length=3,
        server_txn_length=4,
        object_size_bits=512,
        seed=2,
    )
    params.update(overrides)
    return SimulationConfig(**params)


class TestRunSweep:
    def test_grid_shape(self):
        result = run_sweep(
            "demo",
            "x",
            tiny_base(),
            "client_txn_length",
            [2, 3],
            ["f-matrix", "datacycle"],
        )
        assert set(result.series) == {"f-matrix", "datacycle"}
        for series in result.series.values():
            assert series.xs == (2.0, 3.0)
            assert all(m > 0 for m in series.response_means)

    def test_skip_hook(self):
        result = run_sweep(
            "demo",
            "x",
            tiny_base(),
            "client_txn_length",
            [2, 3],
            ["datacycle"],
            skip=lambda protocol, value: value == 3,
        )
        assert result.series["datacycle"].xs == (2.0,)

    def test_config_hook(self):
        seen = []

        def hook(cfg, value):
            seen.append(value)
            return cfg.replace(object_size_bits=int(value))

        run_sweep(
            "demo", "bits", tiny_base(), "object_size_bits", [256, 512],
            ["f-matrix"], config_hook=hook,
        )
        assert seen == [256, 512]

    def test_progress_callback(self):
        calls = []
        run_sweep(
            "demo", "x", tiny_base(), "client_txn_length", [2],
            ["f-matrix"], progress=lambda p, v, r: calls.append((p, v)),
        )
        assert calls == [("f-matrix", 2)]

    def test_series_lookup(self):
        result = run_sweep(
            "demo", "x", tiny_base(), "client_txn_length", [2, 3], ["f-matrix"]
        )
        series = result.series["f-matrix"]
        assert series.response_at(2) == series.points[0].response_time.mean
        assert series.restart_at(3) == series.points[1].restart_ratio.mean
        with pytest.raises(KeyError):
            series.response_at(99)

    def test_float_derived_x_lookup(self):
        """Regression: sweep x values produced by float arithmetic.

        ``0.1 * 3`` is not bit-equal to ``0.3``; the old exact-``==``
        lookup raised KeyError on a point that plainly exists.  The
        lookup must tolerate representation noise while still rejecting
        genuinely absent points.
        """
        values = [0.1 * k for k in (1, 2, 3)]  # 0.30000000000000004 at k=3
        result = run_sweep(
            "demo", "fraction", tiny_base(), "server_read_probability", values,
            ["f-matrix"],
            config_hook=lambda cfg, v: cfg.replace(server_read_probability=v),
        )
        series = result.series["f-matrix"]
        assert series.response_at(0.3) == series.points[2].response_time.mean
        assert series.restart_at(0.2) == series.points[1].restart_ratio.mean
        assert result.ordering_holds(0.3, "f-matrix", "f-matrix")
        with pytest.raises(KeyError):
            series.response_at(0.31)
        with pytest.raises(KeyError):
            series.restart_at(99.0)

    def test_empty_series_lookup_raises(self):
        from repro.experiments.sweeps import Series

        with pytest.raises(KeyError):
            Series("f-matrix").response_at(1.0)

    def test_ordering_holds_helper(self):
        result = run_sweep(
            "demo", "x", tiny_base(), "client_txn_length", [3], ["f-matrix"]
        )
        assert result.ordering_holds(3, "f-matrix", "f-matrix")


class TestParallelSweep:
    """``workers=N`` must be a pure wall-clock knob: same results, same order."""

    @pytest.mark.parametrize("seed", [2, 7])
    def test_parallel_is_bit_identical_to_sequential(self, seed):
        kwargs = dict(
            config_hook=None,
            skip=lambda protocol, value: protocol == "datacycle" and value == 4,
        )
        sequential = run_sweep(
            "demo", "x", tiny_base(seed=seed), "client_txn_length",
            [2, 3, 4], ["f-matrix", "datacycle"], **kwargs,
        )
        parallel = run_sweep(
            "demo", "x", tiny_base(seed=seed), "client_txn_length",
            [2, 3, 4], ["f-matrix", "datacycle"], workers=4, **kwargs,
        )
        assert list(parallel.series) == list(sequential.series)
        for protocol in sequential.series:
            assert (
                parallel.series[protocol].points
                == sequential.series[protocol].points
            )

    def test_worker_returns_the_point_not_the_simulation(self):
        """What crosses the pool for a Table-1 grid point (n = 300) is the
        ``Point``'s handful of numbers — not the server, its 300 x 300
        matrices and the metrics arrays (1.5 MiB as a whole result)."""
        config = SimulationConfig(num_client_transactions=5, seed=2)
        outcome = _run_grid_point(("f-matrix", 300, config))
        assert outcome[:2] == ("f-matrix", 300)
        assert isinstance(outcome[2], Point) and outcome[2].x == 300.0
        assert len(pickle.dumps(outcome)) < 4096

    def test_parallel_progress_runs_in_grid_order(self):
        calls = []
        run_sweep(
            "demo", "x", tiny_base(), "client_txn_length", [2, 3],
            ["f-matrix", "datacycle"],
            progress=lambda p, v, r: calls.append((p, v)),
            workers=2,
        )
        assert calls == [
            ("f-matrix", 2), ("f-matrix", 3),
            ("datacycle", 2), ("datacycle", 3),
        ]

    def test_single_worker_stays_sequential(self):
        result = run_sweep(
            "demo", "x", tiny_base(), "client_txn_length", [2],
            ["f-matrix"], workers=1,
        )
        assert result.series["f-matrix"].xs == (2.0,)
