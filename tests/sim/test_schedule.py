"""The schedule model: which runs wave their readers, and saying why.

The decision is pure (config and reader count in, a
:class:`~repro.sim.schedule.Schedule` out), so the measured shapes of
docs/PERFORMANCE.md §5 are a table here; that every schedule gives the
reference's results is the differential harness's
(``tests/sim/test_differential.py``).
"""

import pytest

from repro.sim import analytic, schedule
from repro.sim.config import SimulationConfig
from repro.sim.schedule import READERS_PER_SLOT, schedule_for, wave_size
from repro.sim.shard import run_sharded
from repro.sim.simulation import BroadcastSimulation, run_simulation

#: the broadcast-bound regime of perfbench's reader-fleet workload
DENSE = dict(
    protocol="f-matrix",
    num_objects=16,
    client_txn_length=12,
    mean_inter_operation_delay=4096.0,
    mean_inter_transaction_delay=16384.0,
    server_txn_interval=2_000_000.0,
    server_interval_distribution="deterministic",
)

#: perfbench's mixed-fleet document's config (its fault plan aside)
MIXED_FLEET = dict(
    num_clients=512,
    num_update_clients=64,
    client_update_fraction=0.25,
    num_client_transactions=8,
    num_objects=128,
    object_size_bits=2048,
    client_txn_length=6,
    modulo_timestamps=True,
    cache_currency_bound=2.0e6,
    cache_capacity=32,
    server_txn_interval=2.0e5,
    mean_inter_operation_delay=16384.0,
    mean_inter_transaction_delay=65536.0,
)


def _readers(config):
    return config.num_clients - config.update_capable_clients()


SHAPES = {
    "dense 8192 x 4": (dict(DENSE, num_clients=8192, num_client_transactions=4), True),
    "dense 65536 x 4": (
        dict(DENSE, num_clients=65536, num_client_transactions=4),
        True,
    ),
    "table-1 1 x 500": (dict(num_clients=1, num_client_transactions=500), False),
    "table-1 256 x 200": (dict(num_clients=256, num_client_transactions=200), False),
    "table-1 1024 x 40": (dict(num_clients=1024, num_client_transactions=40), False),
    **{
        f"mixed-fleet {protocol}": (dict(MIXED_FLEET, protocol=protocol), False)
        for protocol in ("f-matrix", "r-matrix", "datacycle")
    },
    **{
        f"fig4a {protocol}@{n}": (
            dict(protocol=protocol, num_objects=n, num_client_transactions=150),
            False,
        )
        for protocol in ("datacycle", "r-matrix", "f-matrix", "f-matrix-no")
        for n in (100, 200, 300, 400, 500)
    },
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_the_model_over_the_measured_shapes(shape):
    fields, waved = SHAPES[shape]
    config = SimulationConfig(**fields)
    chosen = schedule_for(config, _readers(config))
    assert chosen.readers == _readers(config)
    if waved:
        assert chosen.mode == "waved", chosen.reason
        assert 256 <= chosen.wave <= 1024, chosen.reason
    else:
        assert (chosen.mode, chosen.wave) == ("interleaved", 0), chosen.reason


def test_reads_per_cycle_make_the_wave():
    """About 1.9 reads a cycle on both regimes: the wave is about
    O × slots ÷ 1.9 — ~510 on the dense config, ~9,400 at Table 1."""
    dense = SimulationConfig(**DENSE)
    table1 = SimulationConfig()
    assert wave_size(dense) == pytest.approx(READERS_PER_SLOT * 16 / 1.88, rel=0.01)
    assert wave_size(table1) == pytest.approx(READERS_PER_SLOT * 300 / 1.92, rel=0.01)


def test_the_images_can_outweigh_the_readers():
    """Enough readers for several waves, but each held for a long run of
    a fast server: the retained images weigh more than the readers."""
    config = SimulationConfig(
        num_clients=20_000, num_client_transactions=2_000, server_txn_interval=50_000.0
    )
    chosen = schedule_for(config, 20_000)
    assert chosen.mode == "interleaved"
    assert chosen.reason.startswith("the images outweigh the readers saved")


def test_waves_are_even_and_the_reason_shows_the_numbers():
    config = SimulationConfig(**DENSE)
    chosen = schedule_for(config, 1024)
    # W = 510 leaves three waves: 342, 342 and 340 readers, not 510, 510, 4
    assert (chosen.mode, chosen.wave) == ("waved", 342)
    assert chosen.reason.startswith("waved, 3 waves of 342: W = 510 (60 readers")
    assert "reads a cycle" in chosen.reason and "MiB" in chosen.reason


def test_the_executor_can_force_a_schedule(monkeypatch):
    config = SimulationConfig(**DENSE)
    assert schedule_for(config.replace(client_executor="process"), 9).mode == (
        "per-process"
    )
    forced = schedule_for(config.replace(client_executor="analytic"), 9)
    assert (forced.mode, forced.wave) == ("waved", analytic.WAVE)
    monkeypatch.setattr(analytic, "WAVE", 3)
    assert schedule_for(config.replace(client_executor="analytic"), 9).wave == 3


def test_the_test_hooks_pin_the_mode_and_bound_the_wave(monkeypatch):
    config = SimulationConfig(**DENSE)
    monkeypatch.setattr(schedule, "_pinned_mode", "waved")
    monkeypatch.setattr(schedule, "_wave_bound", 3)
    assert (schedule_for(config, 7).mode, schedule_for(config, 7).wave) == ("waved", 3)
    monkeypatch.setattr(schedule, "_pinned_mode", "interleaved")
    assert schedule_for(config, 8192).mode == "interleaved"


SMALL = dict(
    num_objects=24,
    num_clients=8,
    num_client_transactions=3,
    client_txn_length=3,
    object_size_bits=512,
    mean_inter_operation_delay=6000.0,
    server_txn_interval=40000.0,
    seed=5,
)


def test_a_run_reports_its_schedule():
    for executor in ("process", "cohort", "analytic"):
        config = SimulationConfig(**SMALL, client_executor=executor)
        result = run_simulation(config)
        assert result.schedule == schedule_for(config, 8)


def test_only_a_waved_run_keeps_every_image(monkeypatch):
    """A later wave reads back to cycle 1, so a waved run's timeline keeps
    every image it installs; an interleaved one keeps the last two."""
    config = SimulationConfig(**SMALL)
    interleaved = BroadcastSimulation(config)
    interleaved.execute()
    monkeypatch.setattr(schedule, "_pinned_mode", "waved")
    monkeypatch.setattr(schedule, "_wave_bound", 3)
    waved = BroadcastSimulation(config)
    sim_time, _events = waved.execute()
    assert (interleaved.schedule.mode, waved.schedule.mode) == ("interleaved", "waved")
    assert len(interleaved.timeline.images) <= 2
    assert sorted(waved.timeline.images) == list(
        range(1, config.layout().cycle_of(sim_time) + 1)
    )


def test_a_sharded_run_reports_its_primary_slice():
    config = SimulationConfig(**SMALL, shards=2)
    result = run_sharded(config, workers=0)
    assert result.schedule == schedule_for(config, 4)
