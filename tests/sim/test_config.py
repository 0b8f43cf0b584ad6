"""Tests for the simulation configuration (repro.sim.config)."""

import pytest

from repro.core.cycles import ModuloCycles, UnboundedCycles
from repro.sim.config import KILOBYTE_BITS, SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.simulation import run_simulation

from tests.conftest import reference_run


class TestTable1Defaults:
    def test_paper_defaults(self):
        cfg = SimulationConfig()
        assert cfg.client_txn_length == 4
        assert cfg.server_txn_length == 8
        assert cfg.server_txn_interval == 250_000.0
        assert cfg.num_objects == 300
        assert cfg.object_size_bits == KILOBYTE_BITS == 8192
        assert cfg.server_read_probability == 0.5
        assert cfg.mean_inter_operation_delay == 65_536.0
        assert cfg.mean_inter_transaction_delay == 131_072.0
        assert cfg.restart_delay == 0.0
        assert cfg.timestamp_bits == 8

    def test_fmatrix_cycle_length(self):
        cfg = SimulationConfig(protocol="f-matrix")
        assert cfg.cycle_bits == 300 * 8192 + 300 * 300 * 8

    def test_vector_cycle_length(self):
        cfg = SimulationConfig(protocol="datacycle")
        assert cfg.cycle_bits == 300 * 8192 + 300 * 8

    def test_fmatrix_no_cycle_length(self):
        cfg = SimulationConfig(protocol="f-matrix-no")
        assert cfg.cycle_bits == 300 * 8192

    def test_paper_overhead_fractions(self):
        assert SimulationConfig(protocol="f-matrix").control_overhead_fraction == pytest.approx(0.2266, abs=1e-3)
        assert SimulationConfig(protocol="r-matrix").control_overhead_fraction == pytest.approx(0.000976, abs=1e-4)


class TestValidation:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            SimulationConfig(protocol="nope")

    def test_client_length_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(client_txn_length=0)
        with pytest.raises(ValueError):
            SimulationConfig(num_objects=3, client_txn_length=4, server_txn_length=2)

    def test_measure_fraction_bounds(self):
        with pytest.raises(ValueError):
            SimulationConfig(measure_fraction=0.0)

    def test_interval_distribution_names(self):
        with pytest.raises(ValueError):
            SimulationConfig(server_interval_distribution="gamma")

    def test_replace_builds_new(self):
        cfg = SimulationConfig()
        cfg2 = cfg.replace(num_objects=100, server_txn_length=8)
        assert cfg2.num_objects == 100 and cfg.num_objects == 300

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("server_read_probability", -0.1),
            ("server_read_probability", 1.1),
            ("server_txn_interval", 0.0),
            ("mean_inter_operation_delay", 0.0),
            ("mean_inter_transaction_delay", -1.0),
            ("restart_delay", -1.0),
            ("object_size_bits", 0),
            ("timestamp_bits", 0),
            ("num_groups", 0),
            ("num_client_transactions", -1),
            ("num_client_transactions", 0),
            ("cache_currency_bound", -1.0),
            ("cache_capacity", 0),
        ],
    )
    def test_range_checked_fields(self, field, bad):
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: bad})


class TestDerived:
    def test_arithmetic_selection(self):
        assert isinstance(SimulationConfig().arithmetic(), UnboundedCycles)
        assert isinstance(
            SimulationConfig(modulo_timestamps=True).arithmetic(), ModuloCycles
        )

    def test_partition_only_for_group_protocol(self):
        assert SimulationConfig().partition() is None
        cfg = SimulationConfig(protocol="group-matrix", num_groups=5)
        part = cfg.partition()
        assert part is not None and part.num_groups == 5

    def test_group_layout_has_preamble(self):
        cfg = SimulationConfig(protocol="group-matrix", num_groups=3)
        layout = cfg.layout()
        total_control = 3 * 300 * 8
        assert layout.preamble_bits + 300 * layout.control_bits_per_slot == total_control


class TestDefaultExecutor:
    """Naming no executor is the slot calendar; ``"process"`` is asked for."""

    def test_default_is_the_cohort_executor(self):
        cfg = SimulationConfig()
        assert cfg.client_executor == "cohort"
        assert SimulationConfig.from_dict({}).client_executor == "cohort"
        # the fingerprint hashes every field, the executor too: an audit's
        # config hash tells a default run from a reference run
        assert cfg.fingerprint() != cfg.replace(client_executor="process").fingerprint()

    def test_only_a_named_process_run_spawns_client_processes(self, monkeypatch):
        spawned = []
        spawn = Simulator.spawn

        def recording_spawn(self, gen, name="process"):
            spawned.append(name)
            return spawn(self, gen, name)

        monkeypatch.setattr(Simulator, "spawn", recording_spawn)
        cfg = SimulationConfig(
            num_objects=20, num_clients=3, num_client_transactions=2, object_size_bits=512
        )

        def processes(run):
            del spawned[:]
            run(cfg)
            return sorted(spawned)

        # the broadcast timeline is no process either: the engine hosts
        # client processes only, and only when they are asked for
        assert processes(run_simulation) == []
        assert processes(reference_run) == ["client-0", "client-1", "client-2"]
