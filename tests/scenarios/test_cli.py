"""The scenario CLI and its exit-code contract (0 / 1 / 2)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.scenarios import RecordedTrace, get_scenario
from repro.scenarios.cli import scenario_main

SRC = str(Path(__file__).resolve().parents[2] / "src")


def write_scenario(tmp_path, name, **patches):
    """A small fast scenario file derived from the library anchor."""
    doc = get_scenario("quasi-cache-fleet").to_dict()
    doc["name"] = name
    doc.update(patches)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


class TestList:
    def test_list_exits_0_and_names_library(self, capsys):
        assert scenario_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1-baseline" in out and "commuter-doze" in out

    def test_routed_through_experiments_main(self, capsys):
        assert main(["scenario", "list"]) == 0
        assert "table1-baseline" in capsys.readouterr().out


class TestRunExitCodes:
    def test_passing_envelope_exits_0(self, capsys):
        assert scenario_main(["run", "quasi-cache-fleet"]) == 0
        out = capsys.readouterr().out
        assert "envelope ok" in out

    def test_envelope_miss_exits_1(self, capsys, tmp_path):
        path = write_scenario(
            tmp_path, "impossible", envelope={"commits": [100000, 200000]}
        )
        assert scenario_main(["run", str(path)]) == 1
        out = capsys.readouterr().out
        assert "ENVELOPE MISS" in out and "commits" in out

    def test_no_envelope_flag_suppresses_the_failure(self, tmp_path):
        path = write_scenario(
            tmp_path, "impossible", envelope={"commits": [100000, 200000]}
        )
        assert scenario_main(["run", str(path), "--no-envelope"]) == 0

    def test_unknown_scenario_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            scenario_main(["run", "no-such-scenario"])
        assert err.value.code == 2

    def test_no_names_and_no_all_exits_2(self):
        with pytest.raises(SystemExit) as err:
            scenario_main(["run"])
        assert err.value.code == 2

    def test_names_plus_all_exits_2(self):
        with pytest.raises(SystemExit) as err:
            scenario_main(["run", "commuter-doze", "--all"])
        assert err.value.code == 2

    def test_unknown_verb_exits_2(self):
        with pytest.raises(SystemExit) as err:
            scenario_main(["frobnicate"])
        assert err.value.code == 2

    def test_output_json_summary(self, capsys, tmp_path):
        out_path = tmp_path / "summary.json"
        code = scenario_main(
            ["run", "quasi-cache-fleet", "--output", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        run = payload["runs"][0]
        assert run["scenario"] == "quasi-cache-fleet"
        assert run["envelope"]["ok"] is True
        assert run["metrics"]["commits"] == 48

    def test_protocol_override(self, capsys):
        code = scenario_main(
            ["run", "quasi-cache-fleet", "--protocol", "datacycle"]
        )
        # the envelope was calibrated for f-matrix but commits and cache
        # bounds still hold under datacycle's serial validation
        out = capsys.readouterr().out
        assert "quasi-cache-fleet/datacycle" in out
        assert code in (0, 1)


class TestRecordReplayExitCodes:
    def test_record_then_replay_exits_0(self, capsys, tmp_path):
        trace_path = tmp_path / "fleet.trace.json"
        assert scenario_main(
            ["record", "quasi-cache-fleet", "--out", str(trace_path)]
        ) == 0
        assert trace_path.exists()
        assert scenario_main(["replay", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out

    def test_cross_executor_replay_exits_0(self, capsys, tmp_path):
        trace_path = tmp_path / "fleet.trace.json"
        scenario_main(
            ["record", "quasi-cache-fleet", "--out", str(trace_path),
             "--executor", "process"]
        )
        assert scenario_main(
            ["replay", str(trace_path), "--executor", "cohort"]
        ) == 0
        assert "replay[cohort] vs recording[process]" in capsys.readouterr().out

    def test_divergent_replay_exits_1(self, capsys, tmp_path):
        trace_path = tmp_path / "fleet.trace.json"
        scenario_main(
            ["record", "quasi-cache-fleet", "--out", str(trace_path)]
        )
        payload = json.loads(trace_path.read_text())
        # re-seed the recorded config: the file still loads (the digest
        # covers observables, not the config) but the replay diverges
        payload["config"]["seed"] = payload["config"]["seed"] + 1
        trace_path.write_text(json.dumps(payload))
        assert scenario_main(["replay", str(trace_path)]) == 1
        out = capsys.readouterr().out
        assert "divergence" in out

    def test_corrupt_trace_exits_2(self, tmp_path):
        trace_path = tmp_path / "bad.trace.json"
        trace_path.write_text("{not json")
        with pytest.raises(SystemExit) as err:
            scenario_main(["replay", str(trace_path)])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "damage",
        [
            lambda config: config["faults"].update(dozee=[]),
            lambda config: config["faults"].update(doze=[{"client": 0}]),
            lambda config: config.update(num_clients="x"),
        ],
        ids=["unknown-fault-key", "doze-without-start", "ill-typed-field"],
    )
    def test_malformed_trace_config_exits_2_from_the_shell(self, damage, tmp_path):
        """One ``error:`` line and exit 2 — never a traceback and exit 1."""
        document = RecordedTrace(
            config=get_scenario("commuter-doze").config_for(),
            observables={},
            signature={},
        ).to_dict()
        del document["digest"]
        damage(document["config"])
        trace_path = tmp_path / "bad.trace.json"
        trace_path.write_text(json.dumps(document))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli",
             "scenario", "replay", str(trace_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_record_unknown_scenario_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            scenario_main(
                ["record", "no-such", "--out", str(tmp_path / "x.json")]
            )
        assert err.value.code == 2
