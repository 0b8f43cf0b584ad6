"""Cross-feature simulation runs: the extension knobs compose.

Each test turns on *several* extensions at once and asserts the run
completes with a trace that still passes the APPROX cross-check — the
strongest end-to-end statement the library makes.
"""

import pytest

from repro.scenarios import result_signature
from repro.sim.config import SimulationConfig
from repro.sim.simulation import run_simulation

from tests.conftest import reference_run


def cfg(**overrides):
    params = dict(
        num_objects=40,
        num_client_transactions=20,
        client_txn_length=4,
        server_txn_length=5,
        object_size_bits=1024,
        seed=21,
    )
    params.update(overrides)
    return SimulationConfig(**params)


INTERPLAY_CONFIGS = {
    "cache+updates": cfg(
        cache_currency_bound=2_000_000.0,
        client_update_fraction=0.3,
    ),
    "cache+loss": cfg(
        cache_currency_bound=2_000_000.0,
        broadcast_loss_probability=0.2,
    ),
    "multidisk+updates+skew": cfg(
        layout_kind="multi-disk",
        hot_frequency=3,
        client_access_skew=0.8,
        client_update_fraction=0.3,
    ),
    "modulo+cache": cfg(
        modulo_timestamps=True,
        cache_currency_bound=1_500_000.0,
    ),
    "groups+updates": cfg(
        protocol="group-matrix",
        num_groups=4,
        client_update_fraction=0.4,
    ),
    "rmatrix+loss+multiclient": cfg(
        protocol="r-matrix",
        broadcast_loss_probability=0.15,
        num_clients=2,
        num_client_transactions=10,
    ),
    "everything": cfg(
        layout_kind="multi-disk",
        hot_frequency=2,
        client_access_skew=0.6,
        cache_currency_bound=2_000_000.0,
        client_update_fraction=0.2,
        broadcast_loss_probability=0.1,
        modulo_timestamps=True,
    ),
}


@pytest.mark.parametrize("name", sorted(INTERPLAY_CONFIGS), ids=str)
def test_extensions_compose_and_stay_consistent(name):
    config = INTERPLAY_CONFIGS[name]
    expected = config.num_client_transactions * config.num_clients
    # the reference executor and the default one: each trace passes APPROX
    # on its own, and the two runs are one run
    runs = reference_run(config, collect_trace=True), run_simulation(
        config, collect_trace=True
    )
    for result in runs:
        assert len(result.metrics.samples) == expected
        report = result.trace.verify(result.server.database)
        assert report.accepted, (name, report.rejected_readers)
    assert result_signature(runs[0]) == result_signature(runs[1])


def test_interplay_is_deterministic():
    config = INTERPLAY_CONFIGS["everything"]
    a = run_simulation(config)
    b = run_simulation(config)
    assert a.response_time.mean == b.response_time.mean
    assert a.events == b.events
