"""Tests for the simulation configuration (repro.sim.config)."""

import dataclasses
import json
import math
import pathlib
import re

import pytest

from repro.experiments.cli import main
from repro.scenarios.schema import ScenarioError, parse_scenario
from repro.sim.config import KILOBYTE_BITS, SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan
from repro.sim.simulation import run_simulation

from tests.conftest import reference_run

ROOT = pathlib.Path(__file__).resolve().parents[2]


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
            ("seed", -1),
            # non-finite floats: NaN passes every range comparison, and an
            # infinite interval or delay never ends a run
            ("server_txn_interval", math.inf),
            ("server_txn_interval", math.nan),
            ("mean_inter_operation_delay", math.nan),
            ("mean_inter_transaction_delay", math.inf),
            ("restart_delay", math.nan),
            ("restart_delay", math.inf),
            ("cache_currency_bound", math.nan),
            ("cache_currency_bound", math.inf),
            ("server_read_probability", math.nan),
            ("hot_fraction", math.nan),
            ("client_access_skew", -math.inf),
            ("broadcast_loss_probability", math.nan),
            ("client_update_fraction", math.nan),
        ],
    )
    def test_range_checked_fields(self, field, bad):
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: bad})

    def test_group_matrix_has_at_most_one_group_per_object(self):
        assert SimulationConfig(
            protocol="group-matrix", num_objects=8, num_groups=8
        ).partition().num_groups == 8
        with pytest.raises(ValueError, match="num_groups"):
            SimulationConfig(protocol="group-matrix", num_objects=8, num_groups=16)
        # the other protocols never build a partition
        SimulationConfig(num_objects=8, num_groups=16)


class TestDerived:
    def test_arithmetic_selection(self):
        # modulo timestamps select the paper's span bound, 2**bits - 1
        assert SimulationConfig().max_cycles is None
        assert SimulationConfig(modulo_timestamps=True).max_cycles == 255
        assert (
            SimulationConfig(modulo_timestamps=True, timestamp_bits=4).max_cycles == 15
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


# ----------------------------------------------------------------------
# every run knob has a caller
# ----------------------------------------------------------------------
#: the fields of the config's ``# -- Table 1`` block: the paper's own
#: parameters (Sec. 4), which need no caller to earn their place
TABLE_1 = (
    "client_txn_length",
    "server_txn_length",
    "server_txn_interval",
    "num_objects",
    "object_size_bits",
    "server_read_probability",
    "mean_inter_operation_delay",
    "mean_inter_transaction_delay",
    "restart_delay",
    "timestamp_bits",
)

#: where a run is configured outside the tests: the scenario library, the
#: experiments, the figure checks, the benchmark and the examples
CALLERS = (
    "src/repro/scenarios/library",
    "src/repro/experiments",
    "benchmarks",
    "perfbench",
    "examples",
)

#: keys of the run surface that became constants, and where each was set
REMOVED = {
    "config": ("measure_fraction", "uplink_round_trip", "client_update_write_fraction"),
    "faults": ("uplink_max_retries", "uplink_timeout", "uplink_backoff"),
}


def caller_text():
    return "\n".join(
        path.read_text()
        for where in CALLERS
        for path in sorted((ROOT / where).rglob("*"))
        if path.suffix in (".py", ".yaml", ".json")
    )


class TestEveryKnobHasACaller:
    def test_every_field_outside_table_1_is_named_by_a_caller(self):
        """A run option needs a caller that sets it: a field no scenario,
        experiment, figure check, benchmark or example names is a constant
        (docs/PERFORMANCE.md §8)."""
        fields = [f.name for f in dataclasses.fields(SimulationConfig)]
        assert fields[1:11] == list(TABLE_1)
        knobs = [name for name in fields if name != "protocol" and name not in TABLE_1]
        knobs += [f.name for f in dataclasses.fields(FaultPlan)]
        text = caller_text()
        unnamed = [name for name in knobs if not re.search(rf"\b{name}\b", text)]
        assert not unnamed, f"set by no caller outside tests: {unnamed}"

    @pytest.mark.parametrize("key", REMOVED["config"])
    def test_a_removed_config_key_is_an_unknown_field(self, key):
        payload = {**SimulationConfig().to_dict(), key: 0.5}
        with pytest.raises(ValueError, match="unknown SimulationConfig field"):
            SimulationConfig.from_dict(payload)
        document = {"format_version": 1, "name": "old", "seed": 5, "config": {key: 0.5}}
        with pytest.raises(ScenarioError, match=key):
            parse_scenario(document)

    @pytest.mark.parametrize("key", REMOVED["faults"])
    def test_a_removed_fault_key_is_an_unknown_key(self, key):
        with pytest.raises(ValueError, match="unknown faults key"):
            FaultPlan.from_dict({"uplink_loss_probability": 0.1, key: 2})
        document = {
            "format_version": 1, "name": "old", "seed": 5,
            "faults": {"uplink_loss_probability": 0.1, key: 2},
        }
        with pytest.raises(ScenarioError, match=key):
            parse_scenario(document)

    def test_a_seeded_block_has_no_seed_of_its_own(self):
        seeded = {"horizon": 1.0e6, "mean_time_between_dozes": 1.0e5,
                  "mean_doze_duration": 1.0e4, "seed": 7}
        document = {"format_version": 1, "name": "old", "seed": 5,
                    "faults": {"seeded": seeded}}
        with pytest.raises(ScenarioError, match="unknown faults.seeded key"):
            parse_scenario(document)

    @pytest.mark.parametrize(
        "section", [{"config": {"uplink_round_trip": 0.0}},
                    {"faults": {"uplink_timeout": 1.0}}],
        ids=["config", "faults"],
    )
    def test_scenario_run_on_a_removed_key_exits_2(self, tmp_path, capsys, section):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 1, "name": "old", "seed": 5,
                                    **section}))
        with pytest.raises(SystemExit) as exited:
            main(["scenario", "run", str(path)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown" in err

    def test_scenario_run_on_a_negative_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"format_version": 1, "name": "negative",
                                    "seed": -1}))
        with pytest.raises(SystemExit) as exited:
            main(["scenario", "run", str(path)])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
